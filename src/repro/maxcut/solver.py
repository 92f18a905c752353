"""Max-Cut solvers: annealed, greedy, and local search.

The annealed solver is the software analogue of the Table III chips:
single-spin Metropolis flips under a geometric temperature ramp, with
O(degree) incremental gain updates.  Greedy construction and
steepest-descent local search serve as baselines and as the reference
for quality checks (local search is a ½-approximation on non-negative
weights; the planted generators provide known-good cuts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.ising.numerics import boltzmann_accept_probability
from repro.maxcut.problem import MaxCutProblem
from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class MaxCutAnnealParams:
    """Tuning of the Metropolis Max-Cut annealer.

    The keyword-only configuration object :func:`anneal_maxcut` takes
    (API 1.3; the loose ``n_sweeps=...`` keywords were removed in 1.4,
    see ``docs/serving.md``).  Temperatures are in units of the mean
    \\|edge weight\\| (scale-free); one sweep proposes ``n_nodes``
    flips.
    """

    n_sweeps: int = 200
    t_start: float = 2.0
    t_end: float = 0.01
    record_every: int = 0

    def __post_init__(self) -> None:
        if self.n_sweeps < 1:
            raise ReproError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if self.t_start <= 0 or self.t_end <= 0 or self.t_end > self.t_start:
            raise ReproError("need 0 < t_end <= t_start")
        if self.record_every < 0:
            raise ReproError(
                f"record_every must be >= 0, got {self.record_every}"
            )


@dataclass
class MaxCutResult:
    """Result of a Max-Cut solve."""

    spins: np.ndarray
    cut_value: float
    flips_accepted: int = 0
    flips_proposed: int = 0
    trace: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposed flips accepted."""
        return self.flips_accepted / max(1, self.flips_proposed)


def _adjacency_lists(
    problem: MaxCutProblem,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    neighbors: List[List[int]] = [[] for _ in range(problem.n_nodes)]
    weights: List[List[float]] = [[] for _ in range(problem.n_nodes)]
    for (u, v), w in zip(problem.edges, problem.weights):
        neighbors[int(u)].append(int(v))
        weights[int(u)].append(float(w))
        neighbors[int(v)].append(int(u))
        weights[int(v)].append(float(w))
    return (
        [np.asarray(n, dtype=np.int64) for n in neighbors],
        [np.asarray(w) for w in weights],
    )


def greedy_maxcut(problem: MaxCutProblem, seed: SeedLike = None) -> MaxCutResult:
    """Assign nodes one by one to the side that maximises the cut."""
    rng = spawn_rng(seed)
    nbrs, wts = _adjacency_lists(problem)
    spins = np.zeros(problem.n_nodes)
    order = rng.permutation(problem.n_nodes)
    for node in order:
        assigned = spins[nbrs[node]] != 0
        # Gain of +1 vs -1: edges to already-assigned neighbours.
        bias = float(np.sum(wts[node][assigned] * spins[nbrs[node]][assigned]))
        spins[node] = -1.0 if bias > 0 else 1.0
    return MaxCutResult(spins=spins, cut_value=problem.cut_value(spins))


def local_search_improve(
    problem: MaxCutProblem, spins: np.ndarray, max_passes: int = 50
) -> MaxCutResult:
    """Flip any node with positive gain until a local optimum."""
    s = problem.validate_state(spins).copy()
    nbrs, wts = _adjacency_lists(problem)
    # gain(i) = σᵢ Σ w_ij σⱼ (see MaxCutProblem.flip_gain).
    gains = np.array(
        [s[i] * float(np.sum(wts[i] * s[nbrs[i]])) for i in range(problem.n_nodes)]
    )
    flips = 0
    for _ in range(max_passes):
        improved = False
        for i in np.argsort(-gains):
            i = int(i)
            if gains[i] <= 1e-12:
                break
            s[i] = -s[i]
            flips += 1
            improved = True
            gains[i] = -gains[i]
            for j, w in zip(nbrs[i], wts[i]):
                gains[int(j)] += 2.0 * w * s[int(j)] * s[i]
        if not improved:
            break
    return MaxCutResult(
        spins=s, cut_value=problem.cut_value(s), flips_accepted=flips
    )


def anneal_maxcut(
    problem: MaxCutProblem,
    *,
    params: Optional[MaxCutAnnealParams] = None,
    seed: SeedLike = None,
    initial_spins: Optional[np.ndarray] = None,
) -> MaxCutResult:
    """Metropolis single-spin-flip annealing.

    Tuning goes through the keyword-only ``params`` dataclass; ``seed``
    and ``initial_spins`` are per-call state and stay direct keywords::

        anneal_maxcut(problem, params=MaxCutAnnealParams(n_sweeps=400),
                      seed=7)

    The pre-1.3 loose form (``anneal_maxcut(problem, n_sweeps=400,
    ...)``) was removed in 1.4 and raises ``TypeError``.
    """
    p = params if params is not None else MaxCutAnnealParams()
    n_sweeps = p.n_sweeps
    t_start, t_end, record_every = p.t_start, p.t_end, p.record_every
    rng = spawn_rng(seed)
    n = problem.n_nodes
    s = (
        rng.choice([-1.0, 1.0], size=n)
        if initial_spins is None
        else problem.validate_state(initial_spins).copy()
    )
    nbrs, wts = _adjacency_lists(problem)
    mean_w = float(np.mean(np.abs(problem.weights))) or 1.0
    t0, t1 = t_start * mean_w, t_end * mean_w
    decay = (t1 / t0) ** (1.0 / max(1, n_sweeps - 1))

    cut = problem.cut_value(s)
    accepted = 0
    proposed = 0
    trace: List[Tuple[int, float]] = []
    temp = t0
    for sweep in range(n_sweeps):
        if record_every and sweep % record_every == 0:
            trace.append((sweep, cut))
        for i in rng.integers(0, n, size=n):
            i = int(i)
            proposed += 1
            gain = s[i] * float(np.sum(wts[i] * s[nbrs[i]]))
            # A flip worsens the cut by -gain; standard Metropolis accept.
            if gain >= 0 or rng.random() < boltzmann_accept_probability(
                -gain, temp
            ):
                s[i] = -s[i]
                cut += gain
                accepted += 1
        temp *= decay

    cut = problem.cut_value(s)  # cancel float drift
    if record_every:
        trace.append((n_sweeps, cut))
    return MaxCutResult(
        spins=s,
        cut_value=cut,
        flips_accepted=accepted,
        flips_proposed=proposed,
        trace=trace,
    )
