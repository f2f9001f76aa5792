"""LP-optimal static mapping for *iterative* computations.

The paper's algorithms are iterative master/worker loops: every
iteration ends at a gather barrier, so the makespan decomposes as

    T(α) = max_i (arrival_i(α) + c_i(α))  +  (K − 1) · max_i c_i(α)

where ``c_i = α_i·A_i`` is rank i's per-iteration compute,
``arrival_i = Σ_{j≤i, j≠m} α_j·B_j`` is when its data lands (the master
scatters serially in rank order), and ``K`` is the iteration count.
This is the iterative-mapping problem of Legrand/Renard/Robert/Vivien
(the paper's ref [12]) specialized to our star topology — and it is a
*linear program* via the epigraph trick:

    minimize    t1 + (K − 1)·t2
    subject to  arrival_i + c_i ≤ t1     for all i
                c_i             ≤ t2     for all i
                Σ α_i = 1,  α ≥ 0

As ``K → ∞`` the solution approaches WEA's speed-proportional shares;
at ``K = 1`` it solves the one-shot scatter-plus-compute problem
*exactly*, dominating the DLT equal-completion heuristic (which keeps
every processor busy even when handing a slow-linked worker any load at
all is a net loss).  The ablation benchmark compares all three.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.platform import HeterogeneousPlatform
from repro.errors import ConfigurationError, PartitionError
from repro.types import FloatArray

__all__ = ["iterative_makespan", "optimal_iterative_fractions"]


def _costs(
    platform: HeterogeneousPlatform,
    mflops_per_iteration: float,
    megabits_total: float,
) -> tuple[FloatArray, FloatArray]:
    if mflops_per_iteration <= 0:
        raise ConfigurationError("mflops_per_iteration must be positive")
    if megabits_total < 0:
        raise ConfigurationError("megabits_total must be >= 0")
    p = platform.size
    master = platform.master_rank
    a = np.array(
        [platform.processor(i).cycle_time * mflops_per_iteration for i in range(p)]
    )
    b = np.zeros(p)
    for i in range(p):
        if i != master:
            b[i] = platform.network.capacity(master, i) * 1e-3 * megabits_total
    return a, b


def iterative_makespan(
    platform: HeterogeneousPlatform,
    fractions: FloatArray,
    iterations: int,
    mflops_per_iteration: float,
    megabits_total: float,
) -> float:
    """Evaluate the barrier-synchronized makespan model for given shares."""
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    alpha = np.asarray(fractions, dtype=float)
    if alpha.shape != (platform.size,):
        raise PartitionError(
            f"fractions shape {alpha.shape} != ({platform.size},)"
        )
    a, b = _costs(platform, mflops_per_iteration, megabits_total)
    master = platform.master_rank
    compute = alpha * a
    arrival = np.zeros(platform.size)
    sent = 0.0
    for i in range(platform.size):
        if i == master:
            continue
        sent += alpha[i] * b[i]
        arrival[i] = sent
    arrival[master] = sent  # master computes after its sends
    first = float((arrival + compute).max())
    rest = (iterations - 1) * float(compute.max())
    return first + rest


def optimal_iterative_fractions(
    platform: HeterogeneousPlatform,
    iterations: int,
    mflops_per_iteration: float,
    megabits_total: float,
) -> FloatArray:
    """Solve the iterative-mapping LP (module docstring) exactly.

    Returns:
        Optimal workload fractions ``α`` (sum to 1, non-negative).

    Raises:
        PartitionError: if the LP solver fails (should not happen for a
            feasible platform).
    """
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    # Imported lazily: this LP is the only scipy call in the package, and
    # no command but the partitioning ablation solves it.
    from scipy.optimize import linprog

    p = platform.size
    master = platform.master_rank
    a, b = _costs(platform, mflops_per_iteration, megabits_total)

    # Variables: [alpha_0..alpha_{p-1}, t1, t2]
    n_var = p + 2
    c = np.zeros(n_var)
    c[p] = 1.0
    c[p + 1] = float(iterations - 1)

    a_ub = []
    b_ub = []
    # arrival_i + c_i <= t1 — arrival is the prefix sum over workers in
    # rank order (master's own "arrival" is the full send time).
    for i in range(p):
        row = np.zeros(n_var)
        for j in range(p):
            if j == master:
                continue
            if (i == master) or (j <= i):
                row[j] += b[j]
        row[i] += a[i]
        row[p] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    # c_i <= t2
    for i in range(p):
        row = np.zeros(n_var)
        row[i] = a[i]
        row[p + 1] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)

    a_eq = np.zeros((1, n_var))
    a_eq[0, :p] = 1.0
    bounds = [(0.0, None)] * p + [(0.0, None), (0.0, None)]
    result = linprog(
        c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        A_eq=a_eq, b_eq=np.array([1.0]), bounds=bounds, method="highs",
    )
    if not result.success:
        raise PartitionError(f"iterative-mapping LP failed: {result.message}")
    alpha = np.maximum(result.x[:p], 0.0)
    return alpha / alpha.sum()
