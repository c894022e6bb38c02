"""Shared-memory ring primitive unit tests (see repro/node/shmring.py).

The corruption matrix mirrors test_journal.py's torn-tail discipline:
any damaged frame — header or payload — must surface as TornFrame,
never as silently corrupt state.
"""

import pytest

from repro.node.shmring import _HEADER, _WRAP, ShmRing, TornFrame


@pytest.fixture
def ring():
    r = ShmRing.create(1 << 16)
    yield r
    r.unlink()


@pytest.fixture
def tiny_ring():
    r = ShmRing.create(64)
    yield r
    r.unlink()


def write_all(r, payloads):
    r.begin_batch()
    for p in payloads:
        assert r.try_write(p)


# -- framing ------------------------------------------------------------------


def test_frames_round_trip_in_order(ring):
    payloads = [b"alpha", b"", b"x" * 1000, bytes(range(256))]
    write_all(ring, payloads)
    assert [ring.read_frame() for _ in payloads] == payloads


def test_multiple_batches_round_trip(ring):
    for batch in ([b"a", b"bb"], [b"ccc"], [b"d" * 500, b"e"]):
        write_all(ring, batch)
        assert [ring.read_frame() for _ in batch] == batch


def test_wrap_with_sentinel(tiny_ring):
    # First frame: 8 + 30 = 38 bytes -> tail of 26 left.  The second
    # frame needs 28 > 26, and the tail fits a wrap sentinel (>= 8).
    first, second = b"a" * 30, b"b" * 20
    write_all(tiny_ring, [first])
    assert tiny_ring.read_frame() == first
    write_all(tiny_ring, [second])
    size, _crc = _HEADER.unpack_from(tiny_ring.shm.buf, 38)
    assert size == _WRAP  # the sentinel really was written at the tail
    assert tiny_ring.read_frame() == second


def test_wrap_without_room_for_sentinel(tiny_ring):
    # 8 + 50 = 58 bytes -> tail of 6 < header size: the writer wraps
    # implicitly and the reader must infer it from the short tail.
    first, second = b"a" * 50, b"b" * 40
    write_all(tiny_ring, [first])
    assert tiny_ring.read_frame() == first
    write_all(tiny_ring, [second])
    assert tiny_ring.read_frame() == second


def test_frame_ending_exactly_at_capacity_wraps_next_write(tiny_ring):
    # 8 + 56 = 64 bytes: the first frame ends exactly at the ring end,
    # leaving a tail of 0.  The next write must wrap to offset 0 (no
    # sentinel fits) instead of packing a header past the buffer.
    first, second = b"a" * 56, b"b" * 20
    write_all(tiny_ring, [first])
    assert tiny_ring.read_frame() == first
    write_all(tiny_ring, [second])
    assert tiny_ring.read_frame() == second
    write_all(tiny_ring, [b"c"])  # and the cursors stay in step
    assert tiny_ring.read_frame() == b"c"


def test_batch_budget_rejects_overflow(tiny_ring):
    tiny_ring.begin_batch()
    assert tiny_ring.try_write(b"a" * 30)
    assert not tiny_ring.try_write(b"b" * 30)  # 38 + 38 > 64
    assert not tiny_ring.try_write(b"c" * 100)  # larger than the ring
    assert tiny_ring.try_write(b"d" * 10)  # smaller frames still fit


def test_oversized_frame_rejected_even_on_empty_ring(tiny_ring):
    tiny_ring.begin_batch()
    assert not tiny_ring.try_write(b"x" * 64)  # 8 + 64 > capacity


# -- corruption matrix --------------------------------------------------------


def test_torn_payload_fails_crc(ring):
    write_all(ring, [b"hello world"])
    ring.shm.buf[_HEADER.size + 2] ^= 0xFF
    with pytest.raises(TornFrame):
        ring.read_frame()


def test_torn_header_length_out_of_bounds(ring):
    write_all(ring, [b"hello"])
    _HEADER.pack_into(ring.shm.buf, 0, ring.capacity + 1, 0)
    with pytest.raises(TornFrame):
        ring.read_frame()


def test_torn_header_crc_mismatch(ring):
    write_all(ring, [b"hello"])
    size, crc = _HEADER.unpack_from(ring.shm.buf, 0)
    _HEADER.pack_into(ring.shm.buf, 0, size, crc ^ 1)
    with pytest.raises(TornFrame):
        ring.read_frame()


def test_double_wrap_sentinel_is_torn(ring):
    # A sentinel immediately after a wrap cannot be legitimate.
    _HEADER.pack_into(ring.shm.buf, 0, _WRAP, 0)
    with pytest.raises(TornFrame):
        ring.read_frame()


def test_unwritten_ring_reads_as_torn():
    r = ShmRing.create(256)  # zero-filled: length 0, crc 0 is frame b""
    try:
        # A zeroed header decodes as an empty frame (crc32(b"") == 0);
        # that is indistinguishable from a real empty frame by design —
        # the pipe protocol never reads frames that were not announced.
        assert r.read_frame() == b""
    finally:
        r.unlink()


# -- lifecycle ----------------------------------------------------------------


def test_unlink_is_idempotent_and_detaches():
    r = ShmRing.create(256)
    name = r.name
    r.unlink()
    r.unlink()
    with pytest.raises(FileNotFoundError):
        ShmRing.attach(name)


def test_attach_sees_writes():
    a = ShmRing.create(4096)
    try:
        b = ShmRing.attach(a.name)
        write_all(a, [b"ping", b"pong"])
        assert b.read_frame() == b"ping"
        assert b.read_frame() == b"pong"
        b.close()
    finally:
        a.unlink()
