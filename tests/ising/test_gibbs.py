"""Tests for sequential and chromatic Gibbs sampling."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import IsingError
from repro.ising.gibbs import chromatic_groups, cycle_groups, gibbs_sweep
from repro.ising.model import IsingModel
from repro.ising.numerics import stable_sigmoid
from repro.problems.opcount import OpCounter
from repro.utils.rng import spawn_rng


def _cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


class TestChromaticGroups:
    def test_even_cycle_two_colors(self):
        groups = chromatic_groups(8, _cycle_edges(8))
        assert len(groups) == 2
        assert sorted(np.concatenate(groups).tolist()) == list(range(8))

    def test_odd_cycle_three_colors(self):
        groups = chromatic_groups(7, _cycle_edges(7))
        assert len(groups) == 3

    def test_independence_invariant(self):
        edges = _cycle_edges(10) + [(0, 5)]
        groups = chromatic_groups(10, edges)
        edge_set = {frozenset(e) for e in edges}
        for g in groups:
            for a in g:
                for b in g:
                    if a != b:
                        assert frozenset((int(a), int(b))) not in edge_set

    def test_no_edges_single_group(self):
        groups = chromatic_groups(5, [])
        assert len(groups) == 1 and groups[0].size == 5

    def test_bad_edge_rejected(self):
        with pytest.raises(IsingError):
            chromatic_groups(3, [(0, 7)])

    def test_empty_rejected(self):
        with pytest.raises(IsingError):
            chromatic_groups(0, [])


class TestCycleGroups:
    def test_even(self):
        groups = cycle_groups(6)
        assert [g.tolist() for g in groups] == [[0, 2, 4], [1, 3, 5]]

    def test_odd_gets_third_group(self):
        groups = cycle_groups(7)
        assert len(groups) == 3
        assert groups[2].tolist() == [6]
        # Validate independence on the cycle.
        for g in groups:
            lst = g.tolist()
            for a in lst:
                assert (a + 1) % 7 not in lst

    def test_tiny(self):
        assert len(cycle_groups(1)) == 1
        assert len(cycle_groups(2)) == 2

    def test_partition(self):
        for n in (2, 5, 8, 13):
            groups = cycle_groups(n)
            assert sorted(np.concatenate(groups).tolist()) == list(range(n))


class TestGibbsSweep:
    def _ferro(self, n=6):
        J = np.ones((n, n)) - np.eye(n)
        return IsingModel(J)

    def test_zero_temperature_aligns_ferromagnet(self):
        m = self._ferro()
        rng = np.random.default_rng(0)
        s = rng.choice([-1.0, 1.0], size=6)
        for _ in range(3):
            s = gibbs_sweep(m, s, temperature=0.0, seed=1)
        assert np.all(s == s[0])  # fully aligned

    def test_high_temperature_randomises(self):
        m = self._ferro()
        s = np.ones(6)
        flips = 0
        for seed in range(20):
            out = gibbs_sweep(m, s, temperature=1e6, seed=seed)
            flips += int(np.sum(out != s))
        assert flips > 10  # hot chain flips freely

    def test_input_not_mutated(self):
        m = self._ferro()
        s = np.ones(6)
        gibbs_sweep(m, s, temperature=1.0, seed=2)
        assert np.all(s == 1.0)

    def test_01_convention(self):
        J = np.ones((4, 4)) - np.eye(4)
        m = IsingModel(J, convention="01")
        s = np.zeros(4)
        out = gibbs_sweep(m, s, temperature=0.0, seed=3)
        # Positive couplings: all-ones minimises H in the 01 convention.
        assert np.all(out == 1.0)

    def test_negative_temperature_rejected(self):
        m = self._ferro()
        with pytest.raises(IsingError):
            gibbs_sweep(m, np.ones(6), temperature=-1.0)

    @pytest.mark.parametrize(
        "order", [[-1], [3.7], [4]], ids=["negative", "fractional", "past-end"]
    )
    def test_bad_order_rejected(self, order):
        # Not wrapped to the last spin, truncated to spin 3, or a bare
        # IndexError: every bad entry is an IsingError.
        m = self._ferro(4)
        with pytest.raises(IsingError, match="order"):
            gibbs_sweep(m, np.ones(4), temperature=1.0, seed=0, order=order)


class TestBoltzmannConditionals:
    """Property test: the sweep's conditional probabilities against
    brute-force Boltzmann enumeration, for both spin conventions.

    The kernel's ``gap`` expression must satisfy ``gap = H(down) -
    H(up)`` for the model's *double-counted* Hamiltonian ``H = -s·J·s -
    h·s``: the ``2.0 *`` local-field prefactor is the double-counting
    factor (shared by both conventions), while the extra pm1-only
    ``2.0 *`` on the gap is ``Δσ = 2``.  Enumerating every (state,
    spin) pair on small dense models pins that down exhaustively.
    """

    @staticmethod
    def _model(n, convention):
        rng = np.random.default_rng(n)
        J = rng.normal(size=(n, n))
        J = (J + J.T) / 2.0
        np.fill_diagonal(J, 0.0)
        return IsingModel(J, rng.normal(size=n), convention=convention)

    @pytest.mark.parametrize("convention", ["pm1", "01"])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_conditional_matches_enumeration(self, convention, n):
        m = self._model(n, convention)
        temperature = 0.7
        up = 1.0
        down = -1.0 if convention == "pm1" else 0.0
        for bits in itertools.product((down, up), repeat=n):
            s = np.array(bits)
            for i in range(n):
                s_up = s.copy()
                s_up[i] = up
                s_dn = s.copy()
                s_dn[i] = down
                # Brute-force Boltzmann conditional from full energies.
                p_ref = stable_sigmoid(
                    (m.energy(s_dn) - m.energy(s_up)) / temperature
                )
                # The kernel's conditional (zero diagonal makes the
                # field independent of s[i]).
                field = 2.0 * float(m.couplings[i] @ s) + float(m.field[i])
                gap = 2.0 * field if convention == "pm1" else field
                p_kernel = stable_sigmoid(gap / temperature)
                assert p_kernel == pytest.approx(p_ref, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("convention", ["pm1", "01"])
    def test_sweep_invariant_under_boltzmann(self, convention):
        # Detailed balance end-to-end: starting from the exact
        # Boltzmann distribution over all states, one sweep must leave
        # it invariant (computed by enumeration, no sampling noise).
        n = 4
        m = self._model(n, convention)
        temperature = 0.9
        up = 1.0
        down = -1.0 if convention == "pm1" else 0.0
        states = [np.array(b) for b in itertools.product((down, up), repeat=n)]
        energies = np.array([m.energy(s) for s in states])
        # Exact reference distribution on a 16-state model; the shift
        # bounds the exponent so the raw exp cannot overflow.
        w = np.exp(  # repro-lint: ignore[RL001]
            -(energies - energies.min()) / temperature
        )
        pi = w / w.sum()
        index = {tuple(s): k for k, s in enumerate(states)}

        # Exact one-sweep transition matrix (sequential spin updates).
        P = np.zeros((len(states), len(states)))
        for k, start in enumerate(states):
            probs = {tuple(start): 1.0}
            for i in range(n):
                nxt = {}
                for key, prob in probs.items():
                    s = np.array(key)
                    field = (
                        2.0 * float(m.couplings[i] @ s) + float(m.field[i])
                    )
                    gap = 2.0 * field if convention == "pm1" else field
                    p_up = stable_sigmoid(gap / temperature)
                    for val, p in ((up, p_up), (down, 1.0 - p_up)):
                        s2 = s.copy()
                        s2[i] = val
                        nxt[tuple(s2)] = nxt.get(tuple(s2), 0.0) + prob * p
                probs = nxt
            for key, prob in probs.items():
                P[k, index[key]] = prob
        assert np.allclose(pi @ P, pi, atol=1e-12)


class TestZeroTemperatureStreamDiscipline:
    """The greedy path must consume randomness only on actual ties."""

    def test_every_tie_consumes_stream_in_visit_order(self):
        # Degenerate model: all gaps are exactly zero, so each visited
        # spin consumes exactly one tie draw.
        n = 5
        m = IsingModel(np.zeros((n, n)))
        out = gibbs_sweep(m, np.ones(n), temperature=0.0, seed=11)
        rng = spawn_rng(11)
        expect = np.array(
            [1.0 if rng.random() < 0.5 else -1.0 for _ in range(n)]
        )
        assert np.array_equal(out, expect)

    def test_tie_free_spins_consume_no_draws(self):
        # Spin 0 is decided (h=5 → no tie) and must NOT burn a draw:
        # the ties at spins 1..3 start at the stream's first value.  A
        # kernel drawing unconditionally would shift every tie decision
        # by one stream position.
        n = 4
        h = np.array([5.0, 0.0, 0.0, 0.0])
        m = IsingModel(np.zeros((n, n)), h)
        ops = OpCounter()
        out = gibbs_sweep(m, -np.ones(n), temperature=0.0, seed=7, ops=ops)
        rng = spawn_rng(7)
        expect = np.array(
            [1.0] + [1.0 if rng.random() < 0.5 else -1.0 for _ in range(3)]
        )
        assert np.array_equal(out, expect)
        # The counter sees the same discipline: three draws, one MAC per
        # visit (empty rows), one flip per spin that left -1.
        assert ops.totals() == {
            "spin_flips": int((out == 1.0).sum()),
            "macs": n,
            "rng_draws": 3,
        }

    def test_all_decided_sweep_is_stream_pure(self):
        # No ties anywhere → the greedy sweep is a pure function; two
        # different seeds must agree bit-for-bit.
        rng = np.random.default_rng(21)
        n = 6
        J = rng.normal(size=(n, n))
        J = (J + J.T) / 2.0
        np.fill_diagonal(J, 0.0)
        m = IsingModel(J, rng.normal(size=n))
        s = rng.choice([-1.0, 1.0], size=n)
        a = gibbs_sweep(m, s, temperature=0.0, seed=1)
        b = gibbs_sweep(m, s, temperature=0.0, seed=2)
        assert np.array_equal(a, b)
