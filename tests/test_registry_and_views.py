"""Unit tests: compensation registry, WRO view, resource views."""

import sys

import pytest

from repro.agent.agent import MobileAgent
from repro.agent.context import WROView
from repro.compensation.registry import (
    GLOBAL_REGISTRY,
    CompensationRegistry,
    agent_compensation,
    mixed_compensation,
    resource_compensation,
)
from repro.errors import UnknownCompensation, UsageError
from repro.log.entries import OperationKind
from repro.resources.bank import Bank
from repro.resources.base import ResourceView
from repro.sim.timing import TimingModel
from repro.tx.manager import Transaction


# -- registry -------------------------------------------------------------------

def test_registry_register_resolve_kinds():
    registry = CompensationRegistry()

    @resource_compensation("r.op", registry=registry)
    def r_op(view, params, ctx):
        return "r"

    @agent_compensation("a.op", registry=registry)
    def a_op(wro, params, ctx):
        return "a"

    @mixed_compensation("m.op", registry=registry)
    def m_op(wro, view, params, ctx):
        return "m"

    assert registry.resolve("r.op").kind is OperationKind.RESOURCE
    assert registry.resolve("a.op").kind is OperationKind.AGENT
    assert registry.resolve("m.op").kind is OperationKind.MIXED
    assert registry.names() == ["a.op", "m.op", "r.op"]


def test_registry_unknown_name_raises():
    with pytest.raises(UnknownCompensation):
        CompensationRegistry().resolve("ghost")


def test_registry_conflicting_reregistration_rejected():
    registry = CompensationRegistry()

    def op1(view, params, ctx):
        pass

    def op2(view, params, ctx):
        pass

    registry.register("dup", OperationKind.RESOURCE, op1)
    registry.register("dup", OperationKind.RESOURCE, op1)  # same fn ok
    with pytest.raises(UsageError, match="already registered"):
        registry.register("dup", OperationKind.RESOURCE, op2)


# These two run in order: the first imports a module whose op
# registers at import, inside the test body; the second needs that
# registration to have outlived the first test.

def test_module_first_imported_in_a_test_registers_its_op():
    assert "tests.import_time_ops" not in sys.modules
    import tests.import_time_ops  # noqa: F401

    assert "t.import_time_note" in GLOBAL_REGISTRY.names()


def test_import_time_registration_outlives_the_importing_test():
    if "tests.import_time_ops" not in sys.modules:
        pytest.skip("runs after the test that first imports the module")
    op = GLOBAL_REGISTRY.resolve("t.import_time_note")
    assert op.kind is OperationKind.AGENT
    module = sys.modules["tests.import_time_ops"]
    assert op.fn is module.forget_import_time_note


# -- WRO view -------------------------------------------------------------------

def test_wro_view_exposes_only_weakly_reversible_space():
    agent = MobileAgent("v1")
    agent.sro["secret"] = "strongly reversible"
    agent.wro["cash"] = 100
    view = WROView(agent)
    assert view["cash"] == 100
    assert "cash" in view
    assert "secret" not in view
    with pytest.raises(KeyError):
        view["secret"]
    view["notes"] = ["a"]
    assert agent.wro["notes"] == ["a"]
    del view["notes"]
    assert "notes" not in agent.wro
    assert view.get("missing", 7) == 7
    assert view.setdefault("fresh", 1) == 1
    assert sorted(view) == ["cash", "fresh"]


# -- resource view ------------------------------------------------------------------

def test_resource_view_dispatches_and_charges():
    bank = Bank("bank")
    bank.seed_account("acct", 100)
    tx = Transaction("step", "n1")
    timing = TimingModel()
    view = ResourceView(bank, tx, timing)
    before = tx.cost
    assert view.balance("acct") == 100
    assert tx.cost == pytest.approx(before + timing.resource_op)
    view.deposit("acct", 50)
    assert bank.peek("acct")["balance"] == 150


def test_resource_view_compensating_charge_differs():
    bank = Bank("bank")
    bank.seed_account("acct", 100)
    timing = TimingModel(resource_op=0.5, compensation_op=0.25)
    tx = Transaction("comp", "n1")
    view = ResourceView(bank, tx, timing, compensating=True)
    view.balance("acct")
    assert tx.cost == pytest.approx(0.25)


def test_resource_view_unknown_or_private_op_rejected():
    bank = Bank("bank")
    tx = Transaction("step", "n1")
    view = ResourceView(bank, tx, TimingModel())
    with pytest.raises(UsageError):
        view.no_such_operation()
    with pytest.raises(UsageError):
        view._restore("x", None)


def test_resource_view_exposes_name_and_node():
    bank = Bank("bank")
    bank.attach("n7")
    view = ResourceView(bank, Transaction("step", "n7"), TimingModel())
    assert view.name == "bank"
    assert view.node == "n7"
