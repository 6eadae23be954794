"""The write controller's backpressure state machine.

RocksDB's write controller is three explicit regimes, not an ad-hoc
pair of if-statements:

* **OK** — writes are admitted at full speed;
* **SLOWDOWN** — L0 has reached the slowdown trigger: every put pays an
  extra delay so compaction can catch up (RocksDB's delayed-write
  rate);
* **STOP** — the frozen-memtable queue is full while the active
  memtable also needs rotating, or L0 hit the stop trigger: puts block
  on the write gate until a flush or compaction reopens it.

:class:`BackpressureState` owns the classification and the transition
bookkeeping — residency per state (simulated seconds), a transition
log, and the ``lsm.backpressure.*`` obs instruments (state gauge +
transition instants) when a hub is attached.  It deliberately creates
no simulation events: the DB evaluates it at the points writes are
gated and backgrounds complete, so attaching it never moves the
timeline (the lsm_fill golden-run pin depends on that).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: States, in escalation order; gauge values are the indices.
OK, SLOWDOWN, STOP = "ok", "slowdown", "stop"
STATES = (OK, SLOWDOWN, STOP)
_GAUGE_VALUE = {OK: 0, SLOWDOWN: 1, STOP: 2}


class BackpressureState:
    """Classifier + transition recorder for the write controller."""

    def __init__(self, config, obs=None):
        self.config = config
        self.obs = obs
        self.state = OK
        self._since = 0.0
        #: Simulated seconds spent in each state.
        self.residency: Dict[str, float] = {name: 0.0 for name in STATES}
        #: Transition log: (sim_time, from_state, to_state).
        self.transitions: List[Tuple[float, str, str]] = []

    # -- classification ------------------------------------------------------

    def classify(self, queue_full: bool, memtable_full: bool,
                 l0_count: int) -> str:
        """The regime the write controller is in right now."""
        if (queue_full and memtable_full) \
                or l0_count >= self.config.l0_stop_trigger:
            return STOP
        if l0_count >= self.config.l0_slowdown_trigger:
            return SLOWDOWN
        return OK

    # -- transition bookkeeping ----------------------------------------------

    def observe(self, state: str, now: float) -> str:
        """Record that the controller is in *state* at *now*.

        Called from the write gate and from background completions —
        the state is *sampled* at decision points, not continuously, so
        residency attributes each interval to the state that was
        current when the interval began.
        """
        if state == self.state:
            return state
        self.residency[self.state] += now - self._since
        self.transitions.append((now, self.state, state))
        previous, self.state, self._since = self.state, state, now
        obs = self.obs
        if obs is not None:
            obs.metrics.gauge("lsm.backpressure.state").set(
                _GAUGE_VALUE[state])
            obs.instant("lsm.backpressure", "transition",
                        frm=previous, to=state)
        return state

    def finish(self, now: float) -> Dict[str, float]:
        """Close the current interval and return the residency table."""
        self.residency[self.state] += now - self._since
        self._since = now
        return dict(self.residency)

    def residency_summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """Residency including the still-open interval (non-mutating)."""
        summary = dict(self.residency)
        if now is not None:
            summary[self.state] += now - self._since
        return summary
