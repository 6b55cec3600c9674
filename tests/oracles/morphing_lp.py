"""Wright et al.'s morphing matrix as an explicit linear program.

The oracle for :func:`repro.defenses.morphing.monotone_coupling`: on the
real line with ``|t - s|`` cost the comonotone coupling is optimal, so
its transport cost must equal the LP optimum.  Needs scipy, which only
the test suite depends on.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize


def morphing_matrix_lp(
    p: np.ndarray,
    q: np.ndarray,
    source_support: np.ndarray,
    target_support: np.ndarray,
) -> np.ndarray:
    """Solve Wright et al.'s morphing LP exactly.

    minimize Σᵢⱼ |tⱼ − sᵢ| πᵢⱼ  subject to  Σⱼ πᵢⱼ = pᵢ, Σᵢ πᵢⱼ = qⱼ.

    Returns the joint plan π with shape (len(source), len(target)).
    Intended for small alphabets (the LP has |S|·|T| variables).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    source_support = np.asarray(source_support, dtype=float)
    target_support = np.asarray(target_support, dtype=float)
    n_s, n_t = len(source_support), len(target_support)
    if p.shape != (n_s,) or q.shape != (n_t,):
        raise ValueError("distribution shapes do not match supports")
    if not (np.isclose(p.sum(), 1.0) and np.isclose(q.sum(), 1.0)):
        raise ValueError("p and q must be probability vectors")

    cost = np.abs(target_support[None, :] - source_support[:, None]).ravel()
    # Row-sum constraints then column-sum constraints.
    a_eq = np.zeros((n_s + n_t, n_s * n_t))
    for i in range(n_s):
        a_eq[i, i * n_t : (i + 1) * n_t] = 1.0
    for j in range(n_t):
        a_eq[n_s + j, j::n_t] = 1.0
    b_eq = np.concatenate([p, q])
    result = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"morphing LP failed: {result.message}")
    return result.x.reshape(n_s, n_t)
