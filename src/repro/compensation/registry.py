"""Executable compensating operations.

An operation entry in the rollback log carries ``(op_name, params)``.
At compensation time the runtime resolves ``op_name`` here and invokes
the function with exactly the views its kind permits (Section 4.4.1):

==========  =====================================================
kind        signature
==========  =====================================================
RESOURCE    ``fn(resource_view, params, ctx)`` — no agent access
AGENT       ``fn(wro_view, params, ctx)`` — no resource access
MIXED       ``fn(wro_view, resource_view, params, ctx)``
==========  =====================================================

``wro_view`` exposes *only* the weakly reversible objects — the ban on
touching strongly reversible objects during compensation (Section 4.3)
is enforced by never handing compensation code a path to them.

Functions must be module-level (importable) so entries stay picklable
as pure code references, mirroring how the paper's Java platform would
ship compensation classes by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import UnknownCompensation, UsageError
from repro.log.entries import OperationKind


@dataclass(frozen=True)
class CompensationContext:
    """Ambient facts a compensating operation may consult."""

    now: float
    node: str


@dataclass(frozen=True)
class RegisteredOp:
    """One registry slot."""

    name: str
    kind: OperationKind
    fn: Callable[..., Any]


def _same_function(a: Callable[..., Any], b: Callable[..., Any]) -> bool:
    """Whether ``a`` and ``b`` are the same source-level function.

    A module imported twice under different names (e.g. pytest
    collecting ``test_x`` while another test imports ``tests.test_x``)
    re-executes its decorators with *distinct* function objects for the
    same ``def``.  Two closure-free functions defined at the same
    source location with the same qualified name and defaults are the
    same function for registry purposes; anything else — including
    factory-produced closures, whose behaviour depends on captured
    state the source location cannot see — is a genuine conflict.
    """
    if a is b:
        return True
    code_a = getattr(a, "__code__", None)
    code_b = getattr(b, "__code__", None)
    if code_a is None or code_b is None:
        return False
    if getattr(a, "__closure__", None) or getattr(b, "__closure__", None):
        return False
    return (getattr(a, "__qualname__", None) == getattr(b, "__qualname__",
                                                        None)
            and code_a.co_filename == code_b.co_filename
            and code_a.co_firstlineno == code_b.co_firstlineno
            and getattr(a, "__defaults__", None) == getattr(b, "__defaults__",
                                                            None)
            and getattr(a, "__kwdefaults__", None)
            == getattr(b, "__kwdefaults__", None))


class CompensationRegistry:
    """Name → compensating operation mapping."""

    def __init__(self) -> None:
        self._ops: dict[str, RegisteredOp] = {}

    def register(self, name: str, kind: OperationKind,
                 fn: Callable[..., Any]) -> None:
        """Register ``fn`` under ``name``; re-registration must agree.

        Re-registering the *identical* function (same object, or the
        same def re-executed by a duplicate module import) is an
        idempotent refresh; registering a different function under an
        existing name stays an error.
        """
        existing = self._ops.get(name)
        if existing is not None:
            if existing.kind is not kind or not _same_function(existing.fn,
                                                               fn):
                raise UsageError(f"compensation {name!r} already registered")
        self._ops[name] = RegisteredOp(name=name, kind=kind, fn=fn)

    def resolve(self, name: str) -> RegisteredOp:
        """Look up ``name`` or raise :class:`UnknownCompensation`."""
        op = self._ops.get(name)
        if op is None:
            raise UnknownCompensation(name)
        return op

    def names(self) -> list[str]:
        return sorted(self._ops)


GLOBAL_REGISTRY = CompensationRegistry()


def resource_compensation(name: str,
                          registry: Optional[CompensationRegistry] = None):
    """Decorator: register a resource compensation (RCE) operation."""
    return _register(name, OperationKind.RESOURCE, registry)


def agent_compensation(name: str,
                       registry: Optional[CompensationRegistry] = None):
    """Decorator: register an agent compensation (ACE) operation."""
    return _register(name, OperationKind.AGENT, registry)


def mixed_compensation(name: str,
                       registry: Optional[CompensationRegistry] = None):
    """Decorator: register a mixed compensation (MCE) operation."""
    return _register(name, OperationKind.MIXED, registry)


def _register(name: str, kind: OperationKind,
              registry: Optional[CompensationRegistry]):
    target = registry if registry is not None else GLOBAL_REGISTRY

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        target.register(name, kind, fn)
        return fn

    return decorator
