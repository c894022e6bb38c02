"""Durable key-value store with transactional access.

Contents survive simulated node crashes (the injector wipes only
volatile structures).  Mutations made inside a transaction are applied
immediately with a registered undo, so an abort — including the implicit
abort performed when the hosting node crashes mid-transaction —
restores the exact prior contents.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import UsageError
from repro.tx.manager import Transaction

_MISSING = object()


class StableStore:
    """A named durable mapping living on one node.

    ``version`` counts applied mutations (``put``, ``delete`` and every
    undo an abort replays); reads never move it.  A reader that cached
    the contents at version ``v`` knows they are still current while
    ``version == v``.
    """

    def __init__(self, name: str):
        self.name = name
        self._data: dict[Any, Any] = {}
        self.writes = 0
        self.version = 0

    def get(self, key: Any, default: Any = None) -> Any:
        """Read the current (possibly tx-staged) value for ``key``."""
        return self._data.get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def keys(self) -> Iterator[Any]:
        return iter(list(self._data.keys()))

    def items(self) -> list[tuple[Any, Any]]:
        """A snapshot of the current (possibly tx-staged) contents."""
        return list(self._data.items())

    def put(self, key: Any, value: Any, tx: Optional[Transaction] = None) -> None:
        """Durably set ``key`` to ``value``; undoable when ``tx`` given."""
        if tx is not None:
            tx.require_active()
            prior = self._data.get(key, _MISSING)
            tx.register_undo(lambda: self._restore(key, prior))
        self._data[key] = value
        self.writes += 1
        self.version += 1

    def delete(self, key: Any, tx: Optional[Transaction] = None) -> Any:
        """Remove ``key``; undoable when ``tx`` given.  Returns the value."""
        if key not in self._data:
            raise UsageError(f"{self.name}: no such key {key!r}")
        value = self._data.pop(key)
        if tx is not None:
            tx.register_undo(lambda: self._restore(key, value))
        self.writes += 1
        self.version += 1
        return value

    def _restore(self, key: Any, prior: Any) -> None:
        if prior is _MISSING:
            self._data.pop(key, None)
        else:
            self._data[key] = prior
        self.version += 1

    def __len__(self) -> int:
        return len(self._data)
