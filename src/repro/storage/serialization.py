"""Pickle-based state capture with a structural fast path.

The paper's platform (Mole) captures an agent's code, data and execution
state with Java object serialisation before every migration.  We use
:mod:`pickle` for the same purpose: agents are plain Python objects whose
classes are importable, so a pickle carries a code *reference* (module +
qualified name) plus the full private data space — the exact analogue of
Mole's serialized agent, including realistic byte sizes for the transfer
cost model.

Two kinds of copies dominate the hot path:

* :func:`capture` / :func:`restore` — honest byte serialisation, used
  for anything that actually travels (agent blobs, log-entry blobs).
* :func:`snapshot` — a deep, reference-free copy used for before-images
  of strongly reversible objects.  The generic implementation is a
  capture/restore round trip; since SRO spaces are overwhelmingly plain
  dict/list/scalar structures, a structural copier (with an aliasing
  memo, like :func:`copy.deepcopy`) handles the common case without
  touching pickle at all and falls back to the round trip the moment it
  meets a type it does not understand.

Counters in the caller's :class:`~repro.scope.Scope` (a world's own,
inside one) make the cache/fast-path behaviour observable from
benches and tests without threading a metrics object through every
call site.
"""

from __future__ import annotations

import pickle
from typing import Any, TypeVar

from repro.scope import current as current_scope

T = TypeVar("T")

PROTOCOL = pickle.HIGHEST_PROTOCOL


def capture(obj: Any) -> bytes:
    """Serialise ``obj`` (agent, log entry, package...) to bytes."""
    return pickle.dumps(obj, protocol=PROTOCOL)


def restore(blob: bytes) -> Any:
    """Re-instantiate an object previously captured with :func:`capture`."""
    return pickle.loads(blob)


def size_of(obj: Any) -> int:
    """Serialised size of ``obj`` in bytes (what a migration would move)."""
    return len(capture(obj))


# -- process-boundary picklability audit --------------------------------------


def find_unpicklable(obj: Any, path: str = "$",
                     _seen: "set[int] | None" = None
                     ) -> "list[tuple[str, str]]":
    """Locate the parts of ``obj`` that cannot cross a process boundary.

    Returns ``(path, reason)`` pairs for every offending component —
    e.g. ``("$.give_up", "cannot pickle function <lambda> ...")`` — by
    recursing into containers and object ``__dict__``s whenever the
    whole object fails a :func:`capture` round trip.  Empty list ⇒
    picklable.  Used by the multiprocess shard drivers and the audit
    tests to turn an opaque ``PicklingError`` deep inside a worker
    pipe into a message naming the exact frame and attribute at fault
    (typically a closure captured into bridge traffic).  Cyclic object
    graphs are handled (each container is descended into once).
    """
    try:
        pickle.dumps(obj, protocol=PROTOCOL)
        return []
    except Exception as exc:  # noqa: BLE001 - reducers raise anything
        reason = f"{type(exc).__name__}: {exc}"
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return []  # already reported through the first path that hit it
    _seen.add(id(obj))
    found: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            found.extend(find_unpicklable(value, f"{path}[{key!r}]", _seen))
            found.extend(find_unpicklable(key, f"{path}<key {key!r}>",
                                          _seen))
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for i, value in enumerate(obj):
            found.extend(find_unpicklable(value, f"{path}[{i}]", _seen))
    elif hasattr(obj, "__dict__"):
        for attr, value in vars(obj).items():
            found.extend(find_unpicklable(value, f"{path}.{attr}", _seen))
    # The culprit is this object itself (a lambda, a local class, an
    # open handle...) when no constituent explains the failure.
    return found or [(path, reason)]


def assert_picklable(obj: Any, context: str) -> None:
    """Raise ``TypeError`` naming every unpicklable part of ``obj``.

    ``context`` describes what is being shipped ("bridge outbox of
    shard 2", "agent package of ag-7", ...) so the failure reads as a
    contract violation, not a pickle stack trace.
    """
    offenders = find_unpicklable(obj)
    if offenders:
        details = "\n".join(f"  {path}: {reason}"
                            for path, reason in offenders)
        raise TypeError(
            f"{context} is not process-picklable; offending parts:\n"
            f"{details}\n"
            f"(bridge traffic and agent state must not capture "
            f"closures, lambdas or live world objects)")


# -- structural snapshot fast path -------------------------------------------

#: Immutable leaves that may be shared between the live state and its
#: snapshot without breaking the no-aliasing guarantee.
_ATOMIC = (type(None), bool, int, float, complex, str, bytes)


class _NeedsPickle(Exception):
    """Internal: the structure contains a type the fast path can't copy."""


def _structural_copy(obj: Any, memo: dict[int, tuple[Any, Any]]) -> Any:
    if isinstance(obj, _ATOMIC):
        return obj
    key = id(obj)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    cls = type(obj)  # exact types only: subclasses keep pickle semantics
    if cls is dict:
        out: Any = {}
        memo[key] = (obj, out)
        for k, v in obj.items():
            out[_structural_copy(k, memo)] = _structural_copy(v, memo)
        return out
    if cls is list:
        out = []
        memo[key] = (obj, out)
        for v in obj:
            out.append(_structural_copy(v, memo))
        return out
    if cls is tuple:
        out = tuple(_structural_copy(v, memo) for v in obj)
        memo[key] = (obj, out)
        return out
    if cls is set:
        out = set()
        memo[key] = (obj, out)
        for v in obj:
            out.add(_structural_copy(v, memo))
        return out
    if cls is frozenset:
        out = frozenset(_structural_copy(v, memo) for v in obj)
        memo[key] = (obj, out)
        return out
    if cls is bytearray:
        out = bytearray(obj)
        memo[key] = (obj, out)
        return out
    raise _NeedsPickle


def snapshot(obj: T) -> T:
    """Deep, reference-free copy of ``obj``.

    Used for before-images of strongly reversible objects: the image must
    not alias live agent state, otherwise later mutations would corrupt
    the savepoint (paper, Section 4.1).

    Plain dict/list/tuple/set/scalar structures are copied structurally
    (preserving internal aliasing via a memo, exactly like the pickle
    round trip would); any custom class, dataclass or exotic container
    anywhere in the structure falls back to the capture/restore round
    trip for the whole object, so semantics never change.
    """
    try:
        copy = _structural_copy(obj, {})
    except _NeedsPickle:
        current_scope().stats["snapshot_pickle"] += 1
        return restore(capture(obj))
    current_scope().stats["snapshot_fast"] += 1
    return copy
