"""Baseline defenses the paper compares against (Sec. II-B, Sec. IV-D).

* :class:`PacketPadding` — pad every data packet to l_max = 1576 B.
* :class:`TrafficMorphing` — reshape one application's packet-size
  distribution into another's (Wright et al., NDSS 2009), via a
  monotone optimal-transport coupling with fragmentation for
  shrink cases.
* :class:`PseudonymDefense` — periodically change the MAC address
  (Gruteser/Grunwald, Jiang et al.); partitions the trace at a coarse
  granularity only.
* :func:`byte_overhead` — the overhead metric of Table VI.
"""

from repro.defenses.base import (
    Defense,
    DefendedTraffic,
    FusedPlan,
    FusedStage,
)
from repro.defenses.padding import PacketPadding
from repro.defenses.morphing import (
    MorphingMatrix,
    TrafficMorphing,
    monotone_coupling,
)
from repro.defenses.pseudonym import PseudonymDefense
from repro.defenses.overhead import byte_overhead, overhead_percent

__all__ = [
    "DefendedTraffic",
    "Defense",
    "FusedPlan",
    "FusedStage",
    "MorphingMatrix",
    "PacketPadding",
    "PseudonymDefense",
    "TrafficMorphing",
    "byte_overhead",
    "monotone_coupling",
    "overhead_percent",
]
