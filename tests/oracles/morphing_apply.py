"""The materializing form of :meth:`TrafficMorphing.apply`.

The production morpher builds its defended trace with one gather of the
source columns (:func:`repro.traffic.trace.fragment_packets`).  This
module keeps the earlier construction the tests compare it against:
select the unmorphed packets, build the morphed fragments as a second
trace with ``from_arrays(sort=True)``, merge the two with
``merge_traces``, and sample each packet's target size through one
boolean mask per source-support row.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import DefendedTraffic
from repro.defenses.morphing import monotone_coupling
from repro.defenses.padding import data_direction_of
from repro.mac.frames import FRAME_HEADER_BYTES
from repro.traffic.packet import Direction
from repro.traffic.trace import Trace, merge_traces
from repro.util.rng import derive_rng

COLUMNS = ("times", "sizes", "directions", "ifaces", "channels", "rssi")


def sample_targets(coupling, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``coupling.sample_targets`` with one ``indices == row`` scan per row."""
    conditional = coupling.conditional()
    indices = np.searchsorted(coupling.source_support, np.asarray(sizes, dtype=np.int64))
    indices = np.clip(indices, 0, len(coupling.source_support) - 1)
    out = np.empty(len(sizes), dtype=np.int64)
    cumulative = np.cumsum(conditional, axis=1)
    draws = rng.random(len(sizes))
    for row in np.unique(indices):
        members = indices == row
        columns = np.searchsorted(cumulative[row], draws[members], side="right")
        columns = np.minimum(columns, len(coupling.target_support) - 1)
        out[members] = coupling.target_support[columns]
    return out


def morph(
    trace: Trace,
    target_trace: Trace,
    data_direction: Direction | None = None,
    morph_all_packets: bool = False,
    seed: int = 0,
) -> DefendedTraffic:
    """What ``TrafficMorphing(target_trace, ...).apply(trace)`` returns."""
    target_direction = data_direction_of(target_trace.label)
    if morph_all_packets:
        mask = np.ones(len(trace), dtype=bool)
    else:
        direction = data_direction if data_direction is not None else data_direction_of(trace.label)
        mask = trace.directions == int(direction)
    target_sizes = target_trace.direction_view(target_direction).sizes
    if not mask.any() or len(target_sizes) == 0:
        return DefendedTraffic(original=trace, flows={0: trace}, extra_bytes=0)

    coupling = monotone_coupling(trace.sizes[mask], target_sizes)
    rng = derive_rng(seed, "morphing", trace.label or "?")
    morphed_sizes = sample_targets(coupling, trace.sizes[mask], rng)

    source_sizes = trace.sizes[mask]
    payload_capacity = np.maximum(morphed_sizes - FRAME_HEADER_BYTES, 1)
    fragments = np.where(
        morphed_sizes >= source_sizes,
        1,
        -(-source_sizes // payload_capacity),
    ).astype(np.int64)
    extra = int((fragments * morphed_sizes - source_sizes).sum())

    morphed_part = Trace.from_arrays(
        times=np.repeat(trace.times[mask], fragments),
        sizes=np.repeat(morphed_sizes, fragments),
        directions=np.repeat(trace.directions[mask], fragments),
        channels=np.repeat(trace.channels[mask], fragments),
        label=trace.label,
        sort=True,
    )
    defended = merge_traces([morphed_part, trace.select(~mask)], label=trace.label)
    return DefendedTraffic(original=trace, flows={0: defended}, extra_bytes=extra)


def assert_same_defense(defended: DefendedTraffic, expected: DefendedTraffic) -> None:
    """Both results carry the same one flow (columns, dtypes, label, meta) and cost."""
    flow, reference = defended.flows[0], expected.flows[0]
    for name in COLUMNS:
        column, oracle = getattr(flow, name), getattr(reference, name)
        assert column.dtype == oracle.dtype, name
        np.testing.assert_array_equal(column, oracle, err_msg=name)
    assert (flow.label, flow.meta) == (reference.label, reference.meta)
    assert defended.extra_bytes == expected.extra_bytes
