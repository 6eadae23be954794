"""TraceRecorder: the capture sidecar at the host/workload boundary.

Rides the :mod:`repro.sidecar` plane under the ``trace`` slot.  The
instrumented call sites — ``DB.put_proc``/``get_proc``/``delete_proc``/
``scan_proc`` (the K/V host boundary), the OX-Block synchronous LBA API
(the raw-block boundary), and ``DbBench.quiesce`` (phase barriers) —
read ``sim.trace`` at call time and guard with ``is None``, so the
detached cost is two attribute loads per op (timed by the 2%
detached-sidecar gate in ``scripts/overhead_gate.py``).  Reading the
slot at call time rather than caching it at construction means a
recorder can attach to an already-built stack, which is how
``run_spec(..., trace_out=...)`` captures without a spec change.

The *boundary* filter keeps traces single-layer: a db-hosted stack
records ``host`` ops, a bare OX-Block stack records ``block`` ops, and
``"all"`` keeps both (each record carries its layer, and replay drives
the topmost recorded layer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import ReproError
from repro.sidecar import TRACE_SLOT, Sidecar
from repro.trace.format import TraceOp, write_trace

if TYPE_CHECKING:
    from repro.ocssd.device import OpenChannelSSD

BOUNDARIES = ("host", "block", "all")


class TraceRecorder(Sidecar):
    """Records workload-boundary ops from one device stack."""

    slot = TRACE_SLOT

    def __init__(self, boundary: str = "all"):
        super().__init__()
        if boundary not in BOUNDARIES:
            raise ReproError(
                f"TraceRecorder: boundary must be one of {BOUNDARIES}, "
                f"got {boundary!r}")
        self.boundary = boundary
        self.ops: List[TraceOp] = []
        self.sim = None

    # -- wiring (Sidecar protocol) ------------------------------------------

    def sidecar_targets(self, device: "OpenChannelSSD"):
        # The simulator carries the slot the hot-path guards read;
        # the device slot keeps the attach/detach lifecycle inspectable.
        return (device, device.sim)

    def _sidecar_wire(self, device: "OpenChannelSSD") -> None:
        self.sim = device.sim

    # -- capture hooks (called from instrumented layers) --------------------

    def host_op(self, kind: str, key: bytes = b"",
                value: Optional[bytes] = None, size: int = 0,
                stream: str = "") -> None:
        """One K/V op at the LSM host boundary.

        *value* is compressed to ``(fill, size)`` — see
        :mod:`repro.trace.format`; *size* carries the scan limit when
        there is no value.
        """
        if self.boundary == "block":
            return
        if value is not None:
            size = len(value)
        self.ops.append(TraceOp(
            t=self.sim.now, layer="host", kind=kind,
            stream=stream, key=key.decode("latin-1"), size=size,
            fill=(value[0] if value else 0)))

    def block_op(self, kind: str, lba: int = -1, sectors: int = 0,
                 fill: int = 0, stream: str = "") -> None:
        """One op at the OX-Block LBA boundary."""
        if self.boundary == "host":
            return
        self.ops.append(TraceOp(
            t=self.sim.now, layer="block", kind=kind, stream=stream,
            lba=lba, sectors=sectors, fill=fill))

    def barrier(self, name: str = "quiesce") -> None:
        """A phase barrier: replay quiesces the stack here, exactly as
        the capture run did between its fill and read phases."""
        if self.boundary == "block":
            return
        self.ops.append(TraceOp(t=self.sim.now, layer="host",
                                kind="barrier", stream=name))

    # -- persistence --------------------------------------------------------

    def write(self, path: str,
              meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Write the recorded ops to *path* (codec by suffix)."""
        return write_trace(path, self.ops, meta=meta)
