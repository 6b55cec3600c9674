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

    def apply(self, trace: Trace) -> DefendedTraffic:
        """Assign each packet to the pseudonym active at its timestamp."""
        if len(trace) == 0:
            return DefendedTraffic(original=trace, flows={}, extra_bytes=0)
        start = float(trace.times[0])
        epoch_index = np.floor((trace.times - start) / self.epoch).astype(np.int16)
        relabeled = trace.with_ifaces(epoch_index)
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
        """Epoch partitioning as a plan (same arithmetic as ``apply``)."""
        # An empty trace plans zero flows, as apply() emits none.
        start = float(times[0]) if len(times) else 0.0
        epoch_index = np.floor((times - start) / self.epoch).astype(np.int16)
        plan = FusedPlan.from_assignments(epoch_index)
        return plan.with_stages(
            (FusedStage(self.name, 1, (plan.n_flows,), 0, 0),)
        )
