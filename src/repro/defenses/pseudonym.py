"""Pseudonym baseline: periodic MAC address changes.

Sec. II-B: pseudonym schemes (Gruteser & Grunwald; Jiang et al.)
"randomly change the MAC address of a user, so that [the] adversary
cannot track the entire traffic stream", but "only change MAC addresses
each session or when idle, [so] all the packets sent under one pseudonym
are still linkable".  The defense therefore partitions traffic at a
coarse *temporal* granularity (one flow per pseudonym epoch) without
altering any packet features inside an epoch — which is exactly why it
fails against per-window classification.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import DefendedTraffic, Defense, FusedPlan, FusedStage
from repro.traffic.trace import Trace
from repro.util.validation import require_positive

__all__ = ["PseudonymDefense"]

#: Epoch ids are int16 interface labels: 0 .. 32767.
_MAX_EPOCHS = int(np.iinfo(np.int16).max) + 1


class PseudonymDefense(Defense):
    """Split a trace into per-pseudonym epochs.

    Args:
        epoch: seconds between MAC address changes (a "session" length);
            the paper's criticism applies for any epoch much longer than
            the eavesdropping window W.
    """

    name = "pseudonym"

    def __init__(self, epoch: float = 300.0):
        require_positive(epoch, "epoch")
        self.epoch = float(epoch)

    def _epoch_ids(self, times: np.ndarray) -> np.ndarray:
        """The pseudonym epoch of each packet, counted from the first one.

        The ids become the flows' ``ifaces`` column (int16), so a trace
        spanning more epochs than int16 can number is refused rather
        than wrapped into negative ids that merge distinct epochs.
        """
        if not len(times):
            return np.zeros(0, dtype=np.int16)
        epochs = np.floor((times - float(times[0])) / self.epoch)
        count = int(epochs.max()) + 1
        if count > _MAX_EPOCHS:
            raise ValueError(
                f"pseudonym epoch={self.epoch:g}s splits the trace into "
                f"{count} epochs, but epoch ids are stored in the int16 "
                f"ifaces column, which numbers at most {_MAX_EPOCHS}; "
                "use a longer epoch"
            )
        return epochs.astype(np.int16)

    def apply(self, trace: Trace) -> DefendedTraffic:
        """Assign each packet to the pseudonym active at its timestamp."""
        relabeled = trace.with_ifaces(self._epoch_ids(trace.times))
        return DefendedTraffic(
            original=trace,
            flows=relabeled.split_by_iface(),
            extra_bytes=0,
        )

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        """Epoch partitioning as a plan (the ids ``apply`` splits by)."""
        # An empty trace plans zero flows, as apply() emits none.
        plan = FusedPlan.from_assignments(self._epoch_ids(np.asarray(times)))
        return plan.with_stages(
            (FusedStage(self.name, 1, (plan.n_flows,), 0, 0),)
        )
