"""Unit tests: stable storage, queues, serialization."""

import pytest

from repro.errors import UsageError
from repro.storage.queues import AgentInputQueue
from repro.storage.serialization import capture, restore, size_of, snapshot
from repro.storage.stable import StableStore
from repro.tx.manager import Transaction


def tx(kind="test", home="n1"):
    return Transaction(kind, home)


# -- serialization -----------------------------------------------------------

def test_capture_restore_round_trip():
    value = {"a": [1, 2, 3], "b": ("x", b"bytes")}
    assert restore(capture(value)) == value


def test_snapshot_is_a_deep_copy():
    value = {"inner": [1, 2]}
    copy = snapshot(value)
    copy["inner"].append(3)
    assert value["inner"] == [1, 2]


def test_size_of_grows_with_payload():
    small = size_of({"k": b"x" * 10})
    big = size_of({"k": b"x" * 10_000})
    assert big > small + 9_000


# -- stable store ---------------------------------------------------------------

def test_store_put_get_delete():
    store = StableStore("s")
    store.put("k", 1)
    assert store.get("k") == 1
    assert "k" in store
    assert store.delete("k") == 1
    assert store.get("k") is None


def test_store_delete_missing_raises():
    with pytest.raises(UsageError):
        StableStore("s").delete("nope")


def test_store_transactional_put_undone_on_abort():
    store = StableStore("s")
    store.put("k", "old")
    t = tx()
    store.put("k", "new", t)
    store.put("fresh", 1, t)
    assert store.get("k") == "new"
    t.abort()
    assert store.get("k") == "old"
    assert "fresh" not in store


def test_store_transactional_delete_undone_on_abort():
    store = StableStore("s")
    store.put("k", "v")
    t = tx()
    store.delete("k", t)
    assert "k" not in store
    t.abort()
    assert store.get("k") == "v"


def test_store_commit_keeps_changes():
    store = StableStore("s")
    t = tx()
    store.put("k", 42, t)
    t.commit()
    assert store.get("k") == 42


def test_store_version_counts_mutations_not_reads():
    store = StableStore("s")
    assert store.version == 0
    store.put("k", 1)
    assert store.version == 1
    store.get("k")
    list(store.keys())
    assert "k" in store
    assert store.version == 1
    store.delete("k")
    assert store.version == 2
    t = tx()
    store.put("k", "staged", t)
    assert store.version == 3
    t.abort()  # the undo restores the prior (absent) value: a mutation
    assert "k" not in store
    assert store.version == 4


# -- agent input queue --------------------------------------------------------------

def test_enqueue_without_tx_is_immediate():
    queue = AgentInputQueue("n1")
    item = queue.enqueue("payload", 100)
    assert len(queue) == 1
    assert queue.head() is item


def test_enqueue_with_tx_visible_only_at_commit():
    queue = AgentInputQueue("n1")
    t = tx()
    queue.enqueue("payload", 100, t)
    assert len(queue) == 0
    t.commit()
    assert len(queue) == 1


def test_enqueue_with_tx_aborted_never_visible():
    queue = AgentInputQueue("n1")
    t = tx()
    queue.enqueue("payload", 100, t)
    t.abort()
    assert len(queue) == 0


def test_dequeue_restores_to_front_on_abort_with_attempt_bump():
    queue = AgentInputQueue("n1")
    first = queue.enqueue("first", 10)
    queue.enqueue("second", 10)
    t = tx()
    taken = queue.dequeue(t)
    assert taken is first
    assert len(queue) == 1
    t.abort()
    assert queue.head() is first
    assert first.attempts == 1


def test_dequeue_by_id_and_missing_id():
    queue = AgentInputQueue("n1")
    queue.enqueue("a", 1)
    b = queue.enqueue("b", 1)
    t = tx()
    assert queue.dequeue(t, item_id=b.item_id) is b
    with pytest.raises(UsageError):
        queue.dequeue(t, item_id=999_999)


def test_dequeue_empty_raises():
    with pytest.raises(UsageError):
        AgentInputQueue("n1").dequeue(tx())


def test_on_visible_fires_for_enqueue_and_abort_restore():
    queue = AgentInputQueue("n1")
    seen = []
    queue.on_visible = lambda item: seen.append(item.item_id)
    item = queue.enqueue("p", 1)
    assert seen == [item.item_id]
    t = tx()
    queue.dequeue(t)
    t.abort()
    assert seen == [item.item_id, item.item_id]


def test_fifo_order_preserved():
    queue = AgentInputQueue("n1")
    items = [queue.enqueue(i, 1) for i in range(5)]
    t = tx()
    taken = [queue.dequeue(t) for _ in range(5)]
    assert taken == items
