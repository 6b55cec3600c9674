"""A gather index over a :class:`~repro.defenses.base.FusedPlan`.

Production code never builds one: the fused kernel sorts by a
(flow, direction) key of its own.  Tests use it to read off which
source packets a plan puts in each flow.
"""

from __future__ import annotations

import numpy as np


def flow_bounds(plan) -> np.ndarray:
    """``(n_flows + 1,)`` prefix offsets into :func:`order`."""
    counts = np.bincount(plan.assignments, minlength=plan.n_flows)
    bounds = np.zeros(plan.n_flows + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def order(plan) -> np.ndarray:
    """Stable argsort of the plan's assignments (the flow gather index)."""
    return np.argsort(plan.assignments, kind="stable")


def flow_indices(plan, flow: int) -> np.ndarray:
    """Source-column indices of observable flow ``flow``, in time order."""
    bounds = flow_bounds(plan)
    return order(plan)[bounds[flow] : bounds[flow + 1]]
