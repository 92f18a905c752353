"""The Ising model of Eq. (1)/(2).

``H = -Σᵢⱼ Jᵢⱼ σᵢ σⱼ - Σᵢ hᵢ σᵢ`` with σ ∈ {-1, +1} (spin convention)
or σ ∈ {0, 1} (QUBO / lattice-gas convention, used by the paper's TSP
mapping where σ_ik indicates "city k visited at order i").

The model stores a dense symmetric ``J`` with zero diagonal and
supports:

* total energy (Eq. 1),
* local energy of one spin (Eq. 2) — the quantity the CIM array
  computes as a MAC between the spin vector and one weight column,
* local fields for all spins at once (one matrix-vector product),
* single-spin-flip energy deltas.

Dense ``J`` limits this class to a few thousand spins; the clustered
annealer never builds it for the full problem — it exists to express
the *mathematics* and to serve as the reference implementation the CIM
window computation is tested against.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro.errors import IsingError

SpinConvention = Literal["pm1", "01"]


class IsingModel:
    """A dense Ising/QUBO model.

    Parameters
    ----------
    couplings:
        ``(n, n)`` symmetric interaction matrix ``J`` (zero diagonal).
    field:
        Optional ``(n,)`` external field ``h`` (defaults to zeros).
    convention:
        ``"pm1"`` for σ ∈ {-1,+1} (Eq. 1) or ``"01"`` for σ ∈ {0,1}
        (the TSP mapping of Eq. 3).  Energy formulas are identical;
        only the admissible spin values differ.
    """

    def __init__(
        self,
        couplings: np.ndarray,
        field: Optional[np.ndarray] = None,
        convention: SpinConvention = "pm1",
    ) -> None:
        J = np.asarray(couplings, dtype=np.float64)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise IsingError(f"couplings must be square, got shape {J.shape}")
        if not np.allclose(J, J.T, atol=1e-9):
            raise IsingError("couplings must be symmetric")
        if not np.allclose(np.diag(J), 0.0, atol=1e-12):
            raise IsingError("couplings must have zero diagonal")
        if convention not in ("pm1", "01"):
            raise IsingError(f"unknown convention {convention!r}")
        n = J.shape[0]
        h = np.zeros(n) if field is None else np.asarray(field, dtype=np.float64)
        if h.shape != (n,):
            raise IsingError(f"field must have shape ({n},), got {h.shape}")
        self._J = J
        self._h = h
        self._convention: SpinConvention = convention

    # ------------------------------------------------------------------
    @property
    def n_spins(self) -> int:
        """Number of spins."""
        return self._J.shape[0]

    @property
    def couplings(self) -> np.ndarray:
        """The symmetric coupling matrix ``J`` (view; do not mutate)."""
        return self._J

    @property
    def field(self) -> np.ndarray:
        """The external field ``h`` (view; do not mutate)."""
        return self._h

    @property
    def convention(self) -> SpinConvention:
        """Spin value convention, ``"pm1"`` or ``"01"``."""
        return self._convention

    # ------------------------------------------------------------------
    def validate_state(self, spins: np.ndarray) -> np.ndarray:
        """Check a spin vector against the model's convention."""
        s = np.asarray(spins, dtype=np.float64)
        if s.shape != (self.n_spins,):
            raise IsingError(
                f"state must have shape ({self.n_spins},), got {s.shape}"
            )
        low = -1.0 if self._convention == "pm1" else 0.0
        if not np.all((s == low) | (s == 1.0)):
            values = np.unique(s).tolist()
            raise IsingError(
                f"state values {values} invalid for convention "
                f"{self._convention!r}"
            )
        return s

    def energy(self, spins: np.ndarray) -> float:
        """Total Hamiltonian energy, Eq. (1).

        ``H = -σᵀJσ/...`` — note Eq. (1) sums every (i, j) ordered pair,
        i.e. each interaction is counted twice; we follow that paper
        convention exactly: ``H = -Σ_{i,j} J_ij σ_i σ_j - Σ_i h_i σ_i``
        with the double sum over all i ≠ j.
        """
        s = self.validate_state(spins)
        return float(-(s @ self._J @ s) - self._h @ s)

    def local_field(self, spins: np.ndarray) -> np.ndarray:
        """``Σⱼ Jᵢⱼ σⱼ + hᵢ`` for all i — the MAC output of the CIM array."""
        s = self.validate_state(spins)
        # Eq. (2) uses the double-counted convention consistently:
        # each neighbour contributes J_ij and J_ji (equal), hence 2J.
        return 2.0 * (self._J @ s) + self._h

    def local_energy(self, spins: np.ndarray, i: int) -> float:
        """Local energy of spin ``i``, Eq. (2): ``-(Σⱼ Jᵢⱼσⱼ + hᵢ)σᵢ``."""
        if not 0 <= i < self.n_spins:
            raise IsingError(f"spin index {i} out of range")
        s = self.validate_state(spins)
        field = 2.0 * float(self._J[i] @ s) + float(self._h[i])
        return -field * float(s[i])

    def flip_delta(self, spins: np.ndarray, i: int) -> float:
        """Energy change of flipping spin ``i`` (pm1) or toggling (01)."""
        s = self.validate_state(spins)
        field = 2.0 * float(self._J[i] @ s) + float(self._h[i])
        if self._convention == "pm1":
            return 2.0 * field * float(s[i])
        # 01 convention: σ' = 1 - σ, Δσ = 1 - 2σ.
        dsigma = 1.0 - 2.0 * float(s[i])
        return -field * dsigma

    def __repr__(self) -> str:
        return f"IsingModel(n_spins={self.n_spins}, convention={self._convention!r})"
