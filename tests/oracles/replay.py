"""Per-packet online replay of a :class:`~repro.core.base.Reshaper`.

Batch assignment (``assign_columns``) must equal what a freshly reset
scheduler emits packet by packet through ``assign_packet``.  Tests build
that reference here, on the instance they pass in — hand them a fresh
one to get the reset-semantics oracle.
"""

from __future__ import annotations

import numpy as np


def replay_packets(reshaper, trace) -> np.ndarray:
    """``assign_packet`` over every packet of ``trace``, in order (int16)."""
    out = np.empty(len(trace), dtype=np.int16)
    for index in range(len(trace)):
        out[index] = reshaper.assign_packet(
            time=float(trace.times[index]),
            size=int(trace.sizes[index]),
            direction=int(trace.directions[index]),
        )
    return out
