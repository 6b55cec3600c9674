"""Packet padding: the classical (and expensive) defense.

Sec. IV-D: "we pad all the packets to the maximum packet size (i.e.,
1576 bytes)".  The paper's per-application overheads match
``l_max / mean_size - 1`` of each application's *data-dominant
direction* (e.g. chatting: 1576/269.1 - 1 ≈ 485.7 %), so by default we
pad the data direction only — the uplink for uploading, the downlink
for every other application — and leave the sparse ack stream alone.
``pad_both_directions=True`` pads everything, for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.defenses.base import DefendedTraffic, Defense, FusedPlan, FusedStage
from repro.traffic.apps import AppType
from repro.traffic.packet import DOWNLINK, UPLINK, Direction
from repro.traffic.sizes import MAX_PACKET_SIZE
from repro.traffic.trace import Trace

__all__ = ["PacketPadding", "PadSizes", "data_direction_of"]


def data_direction_of(app: AppType | str | None) -> Direction:
    """The direction carrying an application's payload data.

    Uploading is "the only application which has low traffic in downlink
    but high traffic in uplink" (Sec. IV-C); everything else is
    downlink-dominant.  Unknown labels default to downlink.
    """
    if app is None:
        return DOWNLINK
    if isinstance(app, str):
        try:
            app = AppType(app)
        except ValueError:
            return DOWNLINK
    return UPLINK if app is AppType.UPLOADING else DOWNLINK


@dataclass(frozen=True)
class PadSizes:
    """Elementwise size transform of :class:`PacketPadding` (fused form).

    ``direction`` is the padded direction, or ``None`` for both.
    ``PacketPadding.apply`` rewrites its sizes with this same transform,
    so fused sizes are the materialized defended trace's by
    construction.
    """

    pad_to: int
    direction: int | None

    def __call__(self, sizes: np.ndarray, directions: np.ndarray) -> np.ndarray:
        if self.direction is None:
            return np.maximum(sizes, self.pad_to)
        return np.where(
            np.asarray(directions) == self.direction,
            np.maximum(sizes, self.pad_to),
            sizes,
        )


class PacketPadding(Defense):
    """Pad packets to a fixed length (default l_max = 1576 bytes)."""

    name = "padding"

    def __init__(
        self,
        pad_to: int = MAX_PACKET_SIZE,
        pad_both_directions: bool = False,
    ):
        if pad_to < 1:
            raise ValueError("pad_to must be positive")
        self.pad_to = int(pad_to)
        self.pad_both_directions = bool(pad_both_directions)

    def apply(self, trace: Trace) -> DefendedTraffic:
        """Pad the data direction (or both) of ``trace`` to ``pad_to`` bytes."""
        plan = self.fused_plan_columns(
            trace.times, trace.sizes, trace.directions, trace.label
        )
        padded = plan.size_transform(trace.sizes, trace.directions)
        return DefendedTraffic(
            original=trace,
            flows={0: trace.with_sizes(padded)},
            extra_bytes=plan.extra_bytes,
        )

    def fused_plan_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
        label: str | None,
    ) -> FusedPlan:
        """Padding fuses trivially: one flow, an elementwise size rewrite."""
        sizes = np.asarray(sizes)
        # extra = sum over covered packets of max(0, pad_to - size),
        # computed maskwise so no gathered copy of the column is made.
        deficit = np.maximum(self.pad_to - sizes, 0)
        if self.pad_both_directions:
            transform = PadSizes(self.pad_to, None)
            extra = int(deficit.sum())
        else:
            direction = int(data_direction_of(label))
            transform = PadSizes(self.pad_to, direction)
            extra = int(
                np.where(np.asarray(directions) == direction, deficit, 0).sum()
            )
        return FusedPlan.single_flow(
            len(sizes),
            size_transform=transform,
            stages=(FusedStage(self.name, 1, (1,), extra, 0),),
        )
