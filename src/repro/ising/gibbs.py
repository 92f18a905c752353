"""Gibbs sampling sweeps: sequential and chromatic-parallel.

Sec. III-A: spins are normally updated one-by-one (Gibbs sampling) to
guarantee ergodicity, but spins with no mutual interaction may be
updated in parallel (chromatic Gibbs sampling, Gonzalez et al. 2011).
In the clustered TSP the interaction graph between *clusters* is a
cycle — cluster c only interacts with c-1 and c+1 — so two colours
suffice: all odd clusters update in one phase, all even clusters in the
other.  :func:`chromatic_groups` computes that colouring for a general
interaction graph (greedy colouring, exact 2-colouring for cycles);
:func:`gibbs_sweep` runs one sequential sweep on a dense
:class:`IsingModel` — the one sequential Gibbs kernel, shared by the
dense TSP annealer and the op-counted QUBO solver
(:func:`repro.problems.solvers.anneal_qubo_sequential`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IsingError
from repro.ising.model import IsingModel
from repro.ising.numerics import stable_sigmoid
from repro.utils.rng import SeedLike, spawn_rng

if TYPE_CHECKING:
    from repro.problems.opcount import OpCounter


def chromatic_groups(
    n_nodes: int, edges: Sequence[Tuple[int, int]]
) -> List[np.ndarray]:
    """Greedy graph colouring → groups of mutually independent nodes.

    Nodes in the same group share no edge, so their spins can be
    updated simultaneously without violating Gibbs-sampling
    correctness.  For a cycle of even length this returns exactly the
    odd/even two-colouring the paper uses; odd cycles need (and get)
    three colours.
    """
    if n_nodes < 1:
        raise IsingError(f"n_nodes must be >= 1, got {n_nodes}")
    adjacency: List[set] = [set() for _ in range(n_nodes)]
    for a, b in edges:
        if not (0 <= a < n_nodes and 0 <= b < n_nodes):
            raise IsingError(f"edge ({a}, {b}) out of range")
        if a == b:
            continue
        adjacency[a].add(b)
        adjacency[b].add(a)

    colors = np.full(n_nodes, -1, dtype=np.int64)
    for node in range(n_nodes):
        used = {int(colors[nb]) for nb in adjacency[node] if colors[nb] >= 0}
        color = 0
        while color in used:
            color += 1
        colors[node] = color
    n_colors = int(colors.max()) + 1
    return [np.nonzero(colors == c)[0] for c in range(n_colors)]


def cycle_groups(n_nodes: int) -> List[np.ndarray]:
    """Odd/even groups for a cycle interaction graph (the paper's case).

    For an even cycle this is the exact chromatic 2-colouring; for an
    odd cycle the last node forms a third group so no two adjacent
    clusters ever update together.
    """
    if n_nodes < 1:
        raise IsingError(f"n_nodes must be >= 1, got {n_nodes}")
    if n_nodes <= 2:
        return [np.array([i]) for i in range(n_nodes)]
    evens = np.arange(0, n_nodes - (n_nodes % 2), 2)
    odds = np.arange(1, n_nodes - (n_nodes % 2), 2)
    groups = [evens, odds]
    if n_nodes % 2 == 1:
        groups.append(np.array([n_nodes - 1]))
    return groups


def gibbs_sweep(
    model: IsingModel,
    spins: np.ndarray,
    temperature: float,
    seed: SeedLike = None,
    order: Optional[np.ndarray] = None,
    ops: Optional["OpCounter"] = None,
) -> np.ndarray:
    """One full Gibbs sweep over a dense Ising model.

    Each spin is resampled from its conditional Boltzmann distribution
    at ``temperature``, in index order or in the given ``order`` (a
    sequence of integer spin indices).  Returns a new spin array (input
    untouched).  Temperature 0 degenerates to greedy (deterministic
    sign/threshold; a uniform draw breaks exact ties only).

    ``ops`` is charged ``nnz(row) + 1`` MACs per visited spin, one RNG
    draw per draw taken and one spin flip per spin that changed value;
    it never alters the sweep or its RNG consumption.
    """
    if temperature < 0:
        raise IsingError(f"temperature must be >= 0, got {temperature}")
    rng = spawn_rng(seed)
    s = model.validate_state(spins).copy()
    n = model.n_spins
    idx = np.arange(n) if order is None else _check_order(order, n)
    J, h = model.couplings, model.field
    pm1 = model.convention == "pm1"
    down = -1.0 if pm1 else 0.0
    draws = flips = 0
    for i in idx.tolist():
        # Energy difference between σᵢ = up vs down state.
        field = 2.0 * float(J[i] @ s) + float(h[i])
        # pm1: H(up) - H(down) = -2·field → p(up) = 1/(1+exp(-2f/T));
        # 01:  H(1)  - H(0)    = -field   → p(1)  = 1/(1+exp(-f/T)).
        gap = 2.0 * field if pm1 else field
        if temperature == 0 and gap != 0:
            take_up = gap > 0
        else:
            # Exact ties at T = 0 are a fair coin.  Stable sigmoid:
            # naive 1/(1+exp(-gap/T)) overflows for large |gap| or tiny T.
            p_up = (
                0.5 if temperature == 0 else stable_sigmoid(gap / temperature)
            )
            draws += 1
            take_up = rng.random() < p_up
        new = 1.0 if take_up else down
        if new != s[i]:
            s[i] = new
            flips += 1
    if ops is not None:
        row_nnz = np.count_nonzero(J, axis=1)
        ops.mac(int(row_nnz[idx].sum()) + idx.size)
        ops.rng_draw(draws)
        ops.spin_flip(flips)
    return s


def _check_order(order: np.ndarray, n_spins: int) -> np.ndarray:
    """Visit order as an int array; non-integer or out-of-range
    entries are rejected instead of truncated or wrapped."""
    idx = np.asarray(order)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise IsingError(
            f"order must be a 1-D sequence of integer spin indices, got "
            f"dtype {idx.dtype} with shape {idx.shape}"
        )
    bad = idx[(idx < 0) | (idx >= n_spins)]
    if bad.size:
        raise IsingError(
            f"order entry {int(bad[0])} out of range for {n_spins} spins"
        )
    return idx
