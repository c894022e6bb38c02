"""Tests: narrowed, observable teardown (no more silent ``pass``).

The contract under test (the PR-10 bug-swatting pass over
:mod:`repro.node.procshard` / :mod:`repro.node.shmring`):

* suppressed teardown failures are **narrow** (``OSError`` /
  ``BufferError`` / the documented per-step types — a ``KeyError``
  still propagates), **counted** in the ``teardown.suppressed``
  serialization stat, and **visible** as a :class:`ResourceWarning`
  naming the step that failed;
* ``__del__`` on partially-constructed objects (``ShmRing.attach`` on
  a bad name, a facade that never finished ``__init__``) must not mask
  the original error with an ``AttributeError`` at GC time.
"""

import warnings

import pytest

from repro.node.procshard import ProcShardedWorld, _teardown_step
from repro.node.shmring import ShmRing
from repro.scope import Scope, entered


def test_teardown_step_suppresses_counts_and_warns():
    def boom():
        raise OSError("munmap failed")

    with entered(Scope()) as scope, \
            pytest.warns(ResourceWarning, match="ring close.*munmap failed"):
        ok = _teardown_step("ring close (test)", boom, OSError, BufferError)
    assert ok is False
    assert scope.stats["teardown.suppressed"] == 1


def test_teardown_step_success_is_silent():
    with entered(Scope()) as scope, warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _teardown_step("noop", lambda: None, OSError) is True
    assert scope.stats["teardown.suppressed"] == 0


def test_teardown_step_lets_unexpected_errors_propagate():
    def boom():
        raise KeyError("not a teardown error")

    with entered(Scope()) as scope, pytest.raises(KeyError):
        _teardown_step("bogus", boom, OSError, BufferError)
    assert scope.stats["teardown.suppressed"] == 0


def test_shmring_close_failure_is_counted_and_warned():
    ring = ShmRing.create(4096)
    name = ring.name

    class FussyShm:
        def __init__(self, shm):
            self._shm = shm
            self.name = shm.name
            self.size = shm.size

        def close(self):
            raise BufferError("memoryview still exported")

        def unlink(self):
            self._shm.unlink()

    real = ring.shm
    ring.shm = FussyShm(real)
    with entered(Scope()) as scope, pytest.warns(ResourceWarning, match=name):
        ring.close()
    assert scope.stats["teardown.suppressed"] == 1
    assert ring.shm is None  # close still completed
    real.close()
    real.unlink()


def test_shmring_unlink_survives_missing_segment():
    ring = ShmRing.create(4096)
    other = ShmRing.attach(ring.name)
    ring.unlink()
    with entered(Scope()) as scope, warnings.catch_warnings():
        warnings.simplefilter("error")
        other.unlink()  # already gone: silent, not a warning
    assert scope.stats["teardown.suppressed"] == 0


def test_shmring_del_on_partially_constructed_object():
    ring = object.__new__(ShmRing)  # attach() failed before __init__
    ring.__del__()  # must not raise AttributeError


def test_shmring_attach_bad_name_raises_cleanly():
    with pytest.raises(FileNotFoundError):
        ShmRing.attach("psm_does_not_exist_xyz")


def test_proc_world_del_on_partially_constructed_object():
    world = object.__new__(ProcShardedWorld)  # __init__ never ran
    world.__del__()  # must not raise (no _closed attribute yet)
