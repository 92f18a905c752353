"""SimCIM-style mean-field Ising optimizer.

The coherent-Ising-machine simulation of Tiunov, Ulanov & Lvovsky
(Opt. Express 2019): each spin is relaxed to a continuous amplitude
``a_i ∈ [-1, 1]`` evolved by gradient-like mean-field dynamics

    a_i += dt · (p(t) · a_i + ζ · Σⱼ Jᵢⱼ aⱼ + ζ · hᵢ) + σ·√dt·ξ_i

with a pump ``p(t)`` ramping from below threshold (amplitudes decay)
to above (the Ising-aligned mode grows), Gaussian noise seeding the
symmetry breaking, and hard saturation at ``|a| = 1``.  ``sign(a)`` is
the Ising state.  Like the discrete simulated bifurcation solver in
:mod:`repro.maxcut.bifurcation`, every spin updates in parallel — the
same pitch as the paper's odd/even cluster updates — which is why both
are registered as serving backends next to the clustered CIM annealer.

Couplings follow the :class:`~repro.ising.model.IsingModel` convention
``H = -Σᵢⱼ Jᵢⱼ σᵢσⱼ - Σᵢ hᵢ σᵢ`` (double-counted sum), so descending
the energy means following ``+2ζ(Ja) + ζh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.errors import IsingError
from repro.ising.model import IsingModel
from repro.utils.rng import SeedLike, spawn_rng

if TYPE_CHECKING:
    from repro.problems.opcount import History, OpCounter


@dataclass(frozen=True)
class SimCIMParams:
    """Mean-field (SimCIM) dynamics parameters.

    Attributes
    ----------
    n_steps:
        Euler integration steps.
    dt:
        Time step.
    pump_start, pump_end:
        Linear pump ramp ``p(t)``; starts below threshold (negative:
        amplitudes decay) and ends above (amplitudes saturate).
    coupling_scale:
        Injection strength ζ; ``None`` uses the ``0.5/(σ_J·√n)``
        heuristic shared with the bifurcation solver.
    noise_sigma:
        Standard deviation of the per-step Gaussian noise that seeds
        the symmetry breaking (scaled by ``√dt``).
    """

    n_steps: int = 1000
    dt: float = 0.05
    pump_start: float = -2.0
    pump_end: float = 1.0
    coupling_scale: Optional[float] = None
    noise_sigma: float = 0.1

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise IsingError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.dt <= 0:
            raise IsingError(f"dt must be > 0, got {self.dt}")
        if self.pump_end <= self.pump_start:
            raise IsingError(
                f"pump must ramp upward, got start={self.pump_start} "
                f"end={self.pump_end}"
            )
        if self.coupling_scale is not None and self.coupling_scale <= 0:
            raise IsingError("coupling_scale must be > 0 when given")
        if self.noise_sigma < 0:
            raise IsingError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}"
            )


@dataclass
class SimCIMResult:
    """Result of one SimCIM relaxation.

    ``history`` is recorded only when an ``ops`` counter was given: the
    ``trace`` points with the cumulative op counts spent to reach them.
    """

    spins: np.ndarray
    energy: float
    trace: List[Tuple[int, float]] = field(default_factory=list)
    history: Optional["History"] = None


def simcim_optimize(
    model: IsingModel,
    *,
    params: Optional[SimCIMParams] = None,
    seed: SeedLike = None,
    record_every: int = 0,
    ops: Optional["OpCounter"] = None,
) -> SimCIMResult:
    """Relax ``model`` (±1 convention) with SimCIM mean-field dynamics.

    Returns the best state seen: the sign pattern of the amplitudes is
    scored every ``record_every`` steps (and always at the end), and
    the lowest-energy snapshot wins.

    ``ops`` is charged ``nnz(J) + 2n`` MACs per step (the ``J @ a``
    injection plus the pump and field adds), ``n`` RNG draws per noisy
    step, and one spin flip per amplitude sign change; each trace point
    then also lands in ``result.history``.  The counter never alters
    the dynamics or their RNG consumption.
    """
    if model.convention != "pm1":
        raise IsingError(
            f"SimCIM needs the pm1 spin convention, got {model.convention!r}"
        )
    if record_every < 0:
        raise IsingError(f"record_every must be >= 0, got {record_every}")
    params = params or SimCIMParams()
    rng = spawn_rng(seed)
    J = model.couplings
    h = model.field
    n = model.n_spins

    zeta = params.coupling_scale
    if zeta is None:
        sigma_j = float(np.sqrt((J**2).sum() / max(1, n * (n - 1))))
        zeta = 0.5 / (sigma_j * np.sqrt(n)) if sigma_j > 0 else 0.5

    # Deferred: repro.problems imports this module.
    from repro.problems.opcount import History

    history = History()
    step_macs = int(np.count_nonzero(J)) + 2 * n
    signs = np.ones(n)

    amplitudes = np.zeros(n)
    best_spins = np.ones(n)
    best_energy = model.energy(best_spins)
    trace: List[Tuple[int, float]] = []
    pump_span = params.pump_end - params.pump_start
    noise_scale = params.noise_sigma * np.sqrt(params.dt)

    for step in range(params.n_steps):
        pump = params.pump_start + pump_span * step / params.n_steps
        # Descending H = -aJa - ha: the injection term is +2ζ(Ja) + ζh
        # (the double-counted convention contributes the factor 2).
        drive = pump * amplitudes + zeta * (2.0 * (J @ amplitudes) + h)
        amplitudes = amplitudes + params.dt * drive
        if noise_scale:
            amplitudes = amplitudes + noise_scale * rng.standard_normal(n)
        np.clip(amplitudes, -1.0, 1.0, out=amplitudes)
        if ops is not None:
            ops.mac(step_macs)
            if noise_scale:
                ops.rng_draw(n)
            new_signs = _spins_of(amplitudes)
            ops.spin_flip(int((new_signs != signs).sum()))
            signs = new_signs

        if record_every and step % record_every == 0:
            spins = _spins_of(amplitudes)
            energy = model.energy(spins)
            trace.append((step, energy))
            if ops is not None:
                history.record(step, energy, ops)
            if energy < best_energy:
                best_energy, best_spins = energy, spins

    spins = _spins_of(amplitudes)
    energy = model.energy(spins)
    if energy <= best_energy:
        best_energy, best_spins = energy, spins
    if record_every:
        trace.append((params.n_steps, best_energy))
        if ops is not None:
            history.record(params.n_steps, best_energy, ops)
    return SimCIMResult(
        spins=best_spins,
        energy=best_energy,
        trace=trace,
        history=history if ops is not None else None,
    )


def _spins_of(amplitudes: np.ndarray) -> np.ndarray:
    """Sign pattern of the amplitudes (zeros break toward +1)."""
    spins = np.sign(amplitudes)
    spins[spins == 0] = 1.0
    return spins


def random_ising_model(
    n_spins: int,
    *,
    density: float = 0.5,
    coupling_sigma: float = 1.0,
    seed: SeedLike = None,
) -> IsingModel:
    """A random symmetric spin glass for benchmarks and the CLI.

    ``density`` is the fraction of (i, j) pairs with a non-zero
    Gaussian coupling of standard deviation ``coupling_sigma``; the
    diagonal is zero and the matrix is symmetrised.  Deterministic for
    a given seed.
    """
    if n_spins < 2:
        raise IsingError(f"n_spins must be >= 2, got {n_spins}")
    if not 0.0 < density <= 1.0:
        raise IsingError(f"density must be in (0, 1], got {density}")
    if coupling_sigma <= 0:
        raise IsingError(
            f"coupling_sigma must be > 0, got {coupling_sigma}"
        )
    rng = spawn_rng(seed)
    J = rng.normal(0.0, coupling_sigma, size=(n_spins, n_spins))
    if density < 1.0:
        J *= rng.random((n_spins, n_spins)) < density
    J = np.triu(J, k=1)
    J = J + J.T
    return IsingModel(J, convention="pm1")
