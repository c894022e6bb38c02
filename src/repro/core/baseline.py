"""Saga-style baseline rollback (Garcia-Molina & Salem, ref [4]).

Sagas compensate committed steps on the *resources* but restore the
transaction program's execution state from a savepoint image.  Applied
to mobile agents this means: run the logged compensating operations,
then restore the **entire** private data space — strongly *and* weakly
reversible objects — from the savepoint's before-image.

The paper argues (Sections 3.2 and 4.1) that this is wrong for mobile
agents: rollback produces genuinely new information that must be
integrated into the private agent data — refunded digital coins carry
*different serial numbers*, refunds may be reduced by fees or arrive as
credit notes.  Restoring the WRO image silently discards that
information: the agent ends up holding coins whose serials the mint has
retired (double-spend on next use) and loses any credit notes it
received.

This driver exists so the tests can show exactly that failure mode
against the paper's mechanism (``tests/test_baseline_saga.py``, and
the scorecard in ``tests/test_paper_claims.py``).  Its savepoints are
also larger: they carry the WRO image on top of the SRO image.

An agent that decides whether to roll back from its weakly reversible
objects never sees the compensation's signal under this driver, so it
rolls back to the same savepoint forever.  The driver detects that
instead of letting the kernel run into its event cap: the third
restore of one agent to one savepoint with an identical SRO + WRO
image raises :class:`~repro.errors.RollbackLivelock`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.agent.agent import MobileAgent
from repro.agent.packages import RollbackMode
from repro.core.rollback import BasicRollback
from repro.errors import RollbackLivelock
from repro.log.rollback_log import RollbackLog
from repro.storage.serialization import capture

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.runtime import World

#: Identical restores of one agent to one savepoint that make a livelock.
LIVELOCK_RESTORES = 3


class SagaRollback(BasicRollback):
    """Baseline: compensate resources, image-restore the whole agent."""

    mode = RollbackMode.SAGA

    def __init__(self, world: "World"):
        super().__init__(world)
        #: (agent, savepoint) -> (restored image, rollbacks completed
        #: at that restore, identical restores in a row).
        self._restores: dict[tuple[str, str], tuple[bytes, int, int]] = {}

    def _restore_at_savepoint(self, agent: MobileAgent, log: RollbackLog,
                              sp_id: str) -> None:
        agent.sro = log.reconstruct_sro(sp_id)
        wro_image = log.reconstruct_wro(sp_id)
        if wro_image is not None:
            # Clobber whatever the compensating operations produced —
            # the incorrectness under measurement.
            agent.wro = wro_image
            self.world.metrics.incr("saga.wro_image_restored")
        self._check_livelock(agent, sp_id)

    def _check_livelock(self, agent: MobileAgent, sp_id: str) -> None:
        """Raise on the third identical restore to one savepoint.

        A restore retried because its compensation transaction aborted
        happens before the rollback counts as completed, so it carries
        the same completed count and is not counted again.
        """
        record = self.world.record_or_none(agent.agent_id)
        completed = record.rollbacks_completed if record is not None else 0
        image = capture((agent.sro, agent.wro))
        key = (agent.agent_id, sp_id)
        last = self._restores.get(key)
        if last is None or last[0] != image:
            repeats = 1
        elif last[1] == completed:
            return
        else:
            repeats = last[2] + 1
        self._restores[key] = (image, completed, repeats)
        if repeats >= LIVELOCK_RESTORES:
            self.world.metrics.incr("rollback.livelock")
            raise RollbackLivelock(
                f"agent {agent.agent_id!r} restored to savepoint "
                f"{sp_id!r} with an identical SRO + WRO image "
                f"{repeats} times: saga rollback livelock")
