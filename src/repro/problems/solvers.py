"""Op-counted QUBO solvers shared by the serving backends.

Three solvers, one per registered backend's solving style, each
reporting the :mod:`repro.problems.opcount` counters of the kernel that
actually ran, so Table-I style algorithmic-cost comparisons work on
every workload:

* :func:`anneal_qubo_sequential` — temperature-annealed sequential
  Gibbs sampling (``dense-ising``'s style): the QUBO as a ``"01"``
  :class:`~repro.ising.model.IsingModel`, one
  :func:`~repro.ising.gibbs.gibbs_sweep` per temperature;
* :func:`anneal_qubo_chromatic` — chromatic-parallel Gibbs: the QUBO's
  interaction graph is greedily colored and each independent set
  updates simultaneously, the paper's odd/even cluster trick
  generalised (``cluster-cim``'s style);
* :func:`relax_qubo_simcim` — :func:`~repro.ising.simcim.simcim_optimize`
  on the compiled Ising form (``simcim``'s style).

Gibbs update rule on a QUBO: toggling bit ``i`` changes the energy by
``field_i = q_ii + Σ_{j≠i} q_(ij) x_j`` when going 0→1, so the
conditional Boltzmann probability is ``p(x_i=1) = σ(−field_i / T)``
(computed with the numerically stable sigmoid, RL001).  MAC counts
charge the sparse row work ``nnz(row i) + 1`` per field evaluation;
RNG draws charge one uniform per resampled bit; spin flips count bits
that actually changed value.  All solvers are deterministic for a
given seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.ising.gibbs import chromatic_groups, gibbs_sweep
from repro.ising.model import IsingModel
from repro.ising.numerics import stable_sigmoid
from repro.ising.simcim import SimCIMParams, simcim_optimize
from repro.problems.opcount import History, OpCounter
from repro.problems.qubo import QUBOProblem
from repro.utils.rng import SeedLike, spawn_rng


class QUBOAnnealOutcome:
    """Plain (picklable) result of one op-counted QUBO solve."""

    __slots__ = ("bits", "energy", "history")

    def __init__(
        self, bits: np.ndarray, energy: float, history: History
    ) -> None:
        self.bits = bits
        self.energy = float(energy)
        self.history = history

    def __repr__(self) -> str:
        return (
            f"QUBOAnnealOutcome(energy={self.energy:.6g}, "
            f"n_records={self.history.n_records})"
        )


def _split_matrix(
    problem: QUBOProblem,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diag, symmetric off-diagonal couplings, per-row MAC cost)."""
    upper = np.triu(problem.q, k=1)
    pair = upper + upper.T
    diag = np.diag(problem.q).copy()
    # One MAC per nonzero coupling touched, plus the diagonal add.
    row_cost = np.count_nonzero(pair, axis=1) + 1
    return diag, pair, row_cost


def _check_schedule(
    n_sweeps: int, t_start: float, t_end: float, record_every: int
) -> None:
    if n_sweeps < 1:
        raise ReproError(f"n_sweeps must be >= 1, got {n_sweeps}")
    if t_start < t_end:
        raise ReproError(
            f"t_start must be >= t_end, got {t_start} < {t_end}"
        )
    if t_end <= 0:
        raise ReproError(f"t_end must be > 0, got {t_end}")
    if record_every < 1:
        raise ReproError(f"record_every must be >= 1, got {record_every}")


def _temperatures(
    n_sweeps: int, t_start: float, t_end: float
) -> np.ndarray:
    """Geometric cooling schedule of length ``n_sweeps``."""
    return np.geomspace(t_start, t_end, n_sweeps)


def anneal_qubo_sequential(
    problem: QUBOProblem,
    *,
    n_sweeps: int = 200,
    t_start: float = 2.0,
    t_end: float = 0.05,
    seed: SeedLike = None,
    record_every: int = 10,
) -> QUBOAnnealOutcome:
    """Sequential Gibbs annealing over the bits, one at a time.

    The QUBO becomes a ``"01"`` Ising model with ``J = -pair / 2`` and
    ``h = -diag``, whose Gibbs gap is exactly ``-field_i``; each
    temperature of the cooling schedule is one :func:`gibbs_sweep`.
    """
    _check_schedule(n_sweeps, t_start, t_end, record_every)
    rng = spawn_rng(seed)
    diag, pair, _ = _split_matrix(problem)
    model = IsingModel(-pair / 2.0, -diag, convention="01")
    n = problem.n_vars
    ops = OpCounter()
    history = History()

    x = rng.integers(0, 2, size=n).astype(np.float64)
    ops.rng_draw(n)
    for sweep, temperature in enumerate(
        _temperatures(n_sweeps, t_start, t_end)
    ):
        x = gibbs_sweep(model, x, temperature, seed=rng, ops=ops)
        if sweep % record_every == 0:
            history.record(sweep, problem.energy(x), ops)
    energy = problem.energy(x)
    history.record(n_sweeps, energy, ops)
    return QUBOAnnealOutcome(x, energy, history)


def anneal_qubo_chromatic(
    problem: QUBOProblem,
    *,
    n_sweeps: int = 200,
    t_start: float = 2.0,
    t_end: float = 0.05,
    seed: SeedLike = None,
    record_every: int = 10,
) -> QUBOAnnealOutcome:
    """Chromatic-parallel Gibbs annealing (independent sets together).

    Bits in the same color class share no quadratic coupling, so their
    conditional distributions are independent and a whole class is
    resampled in one vectorised step — exactly the parallel-update
    argument the paper makes for its odd/even cluster phases.
    """
    _check_schedule(n_sweeps, t_start, t_end, record_every)
    rng = spawn_rng(seed)
    diag, pair, row_cost = _split_matrix(problem)
    n = problem.n_vars
    groups = chromatic_groups(n, problem.interaction_edges())
    ops = OpCounter()
    history = History()

    x = rng.integers(0, 2, size=n).astype(np.float64)
    ops.rng_draw(n)
    energy = problem.energy(x)
    for sweep, temperature in enumerate(
        _temperatures(n_sweeps, t_start, t_end)
    ):
        for group in groups:
            fields = diag[group] + pair[group] @ x
            ops.mac(int(row_cost[group].sum()))
            p_one = stable_sigmoid(-fields / temperature)
            draws = rng.random(group.size)
            ops.rng_draw(group.size)
            new = (draws < p_one).astype(np.float64)
            changed = new != x[group]
            # No intra-group couplings → the flip deltas are additive.
            energy += float(((new - x[group]) * fields).sum())
            x[group] = new
            ops.spin_flip(int(changed.sum()))
        if sweep % record_every == 0:
            history.record(sweep, energy, ops)
    history.record(n_sweeps, energy, ops)
    return QUBOAnnealOutcome(x, energy, history)


def relax_qubo_simcim(
    problem: QUBOProblem,
    *,
    params: Optional[SimCIMParams] = None,
    seed: SeedLike = None,
    record_every: int = 10,
) -> QUBOAnnealOutcome:
    """SimCIM mean-field relaxation on the compiled Ising form.

    Runs :func:`simcim_optimize` with an op counter and returns the
    best bit pattern seen, scored in QUBO energy (``H + ising_offset``).
    """
    if record_every < 1:
        raise ReproError(f"record_every must be >= 1, got {record_every}")
    model, ising_offset = problem.to_ising()
    relaxed = simcim_optimize(
        model,
        params=params,
        seed=seed,
        record_every=record_every,
        ops=OpCounter(),
    )
    history = relaxed.history
    assert history is not None
    for record in history.records:
        record["energy"] = float(record["energy"] + ising_offset)
    bits = QUBOProblem.spins_to_bits(relaxed.spins)
    return QUBOAnnealOutcome(bits, relaxed.energy + ising_offset, history)


def greedy_qubo_descent(
    problem: QUBOProblem,
    seed: SeedLike = None,
    max_passes: int = 64,
) -> Tuple[np.ndarray, float]:
    """Deterministic seeded greedy descent — the reference baseline.

    Starts from a seeded random bit vector and repeatedly sweeps,
    taking every single-bit flip that lowers the energy, until a full
    pass makes no change (or ``max_passes`` is hit).  Backends use this
    as the ``optimal_ratio`` denominator for QUBO plans.
    """
    if max_passes < 1:
        raise ReproError(f"max_passes must be >= 1, got {max_passes}")
    rng = spawn_rng(seed)
    diag, pair, _ = _split_matrix(problem)
    n = problem.n_vars
    x = rng.integers(0, 2, size=n).astype(np.float64)
    energy = problem.energy(x)
    for _ in range(max_passes):
        improved = False
        for i in range(n):
            field = float(diag[i]) + float(pair[i] @ x)
            delta = (1.0 - 2.0 * x[i]) * field
            if delta < 0.0:
                x[i] = 1.0 - x[i]
                energy += delta
                improved = True
        if not improved:
            break
    return x, energy


__all__: List[str] = [
    "QUBOAnnealOutcome",
    "anneal_qubo_sequential",
    "anneal_qubo_chromatic",
    "relax_qubo_simcim",
    "greedy_qubo_descent",
]
