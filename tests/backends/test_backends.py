"""Per-backend behavior behind the SolverBackend interface."""

from __future__ import annotations

import copy
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.annealer.config import AnnealerConfig
from repro.annealer.hierarchical import ClusteredCIMAnnealer
from repro.backends import (
    BackendRunResult,
    problem_kind,
    resolve_backend,
)
from repro.errors import AnnealerError
from repro.ising.model import IsingModel
from repro.ising.schedule import VddSchedule
from repro.ising.simcim import random_ising_model
from repro.maxcut.generators import gset_style
from repro.maxcut.solver import greedy_maxcut
from repro.runtime.faults import ResultIntegrityError
from repro.tsp.generators import random_uniform
from repro.tsp.reference import reference_length
from repro.tsp.tour import tour_length


#: The result contract of every (backend, kind) pair, recorded before
#: the per-kind table replaced each backend's own gate, reference and
#: view: the decode view and reference of ``_contract_case`` and the
#: messages rejecting its result with ``length + 1`` and with a
#: malformed state.
CONTRACT_GOLDENS = {
    ("cluster-cim", "tsp"): dict(
        view={
            "backend": "cluster-cim",
            "tour": [9, 0, 8, 4, 1, 7, 5, 6, 3, 2],
            "length": 3134.144288547415,
        },
        reference=3134.1442885474144,
        tampered=(
            "corrupted result: reported length 3135.144288547415 does not "
            "match recomputed tour length 3134.144288547415"
        ),
        corrupted=(
            "corrupted tour: tour is not a permutation "
            "(missing/duplicate cities)"
        ),
    ),
    ("cluster-cim", "qubo"): dict(
        view={
            "backend": "cluster-cim",
            "bits": [0, 1, 0, 0, 0, 1, 0, 1, 0, 0],
            "energy": -17.0,
            "ops": {"spin_flips": 3, "macs": 20000, "rng_draws": 2010},
        },
        reference=-17.0,
        tampered=(
            "corrupted result: reported energy -16.0 does not match "
            "recomputed energy -17.0"
        ),
        corrupted="corrupted bits: state values must be 0/1",
    ),
    ("dense-ising", "tsp"): dict(
        view={
            "backend": "dense-ising",
            "tour": [0, 7, 5, 4, 9, 1, 8, 2, 3, 6],
            "length": 5206.87211742505,
        },
        reference=3134.1442885474144,
        tampered=(
            "corrupted result: reported length 5207.87211742505 does not "
            "match recomputed tour length 5206.87211742505"
        ),
        corrupted=(
            "corrupted tour: tour is not a permutation "
            "(missing/duplicate cities)"
        ),
    ),
    ("dense-ising", "qubo"): dict(
        view={
            "backend": "dense-ising",
            "bits": [0, 1, 0, 0, 0, 1, 0, 1, 0, 0],
            "energy": -17.0,
            "ops": {"spin_flips": 3, "macs": 20000, "rng_draws": 2010},
        },
        reference=-17.0,
        tampered=(
            "corrupted result: reported energy -16.0 does not match "
            "recomputed energy -17.0"
        ),
        corrupted="corrupted bits: state values must be 0/1",
    ),
    ("simcim", "ising"): dict(
        view={
            "backend": "simcim",
            "spins": [-1, -1, 1, -1, 1, -1, 1, -1],
            "energy": -12.757729275103465,
        },
        reference=0.0,
        tampered=(
            "corrupted result: reported energy -11.757729275103465 does "
            "not match recomputed energy -12.757729275103465"
        ),
        corrupted=(
            "corrupted spins: state values [2.0] invalid for "
            "convention 'pm1'"
        ),
    ),
    ("simcim", "qubo"): dict(
        view={
            "backend": "simcim",
            "bits": [0, 0, 1, 1, 1, 0, 0, 0, 1, 0],
            "energy": -19.0,
            "ops": {"spin_flips": 326, "macs": 110000, "rng_draws": 10000},
        },
        reference=-17.0,
        tampered=(
            "corrupted result: reported energy -18.0 does not match "
            "recomputed energy -19.0"
        ),
        corrupted="corrupted bits: state values must be 0/1",
    ),
    ("maxcut-sb", "maxcut"): dict(
        view={
            "backend": "maxcut-sb",
            "spins": [1, -1, -1, -1, -1, -1, 1, -1, -1, -1, -1, 1],
            "cut_value": 8.0,
        },
        reference=-7.0,
        tampered=(
            "corrupted result: reported objective -7.0 does not match "
            "recomputed cut -8.0"
        ),
        corrupted="corrupted spins: state values must be +-1",
    ),
}

CONTRACT_PAIRS = pytest.mark.parametrize("name,kind", list(CONTRACT_GOLDENS))


@lru_cache(maxsize=None)
def _contract_case(name, kind):
    """The problem and seed-3 result of one (backend, kind) pair."""
    from repro.problems import make_problem

    problem = {
        "tsp": lambda: random_uniform(10, seed=7),
        "qubo": lambda: make_problem("knapsack", 6, seed=2).to_qubo(),
        "ising": lambda: random_ising_model(8, seed=6),
        "maxcut": lambda: gset_style(12, seed=4),
    }[kind]()
    config = None
    if (name, kind) == ("cluster-cim", "tsp"):
        config = AnnealerConfig(
            schedule=VddSchedule(total_iterations=40, iterations_per_step=10)
        )
    impl = resolve_backend(name)
    return problem, impl.solve(impl.compile(problem, config), 3)


def _tampered(name, kind, **fields):
    """A copy of the pair's honest result with ``fields`` replaced."""
    bad = copy.copy(_contract_case(name, kind)[1])
    for key, value in fields.items():
        setattr(bad, key, value)
    return bad


@pytest.fixture
def tsp16():
    return random_uniform(16, seed=7)


@pytest.fixture
def fast_config():
    return AnnealerConfig(
        schedule=VddSchedule(total_iterations=40, iterations_per_step=10)
    )


class TestProblemKind:
    def test_kinds(self, tsp16):
        from repro.problems import make_problem

        assert problem_kind(tsp16) == "tsp"
        assert problem_kind(random_ising_model(4, seed=0)) == "ising"
        assert problem_kind(gset_style(8, seed=0)) == "maxcut"
        qubo = make_problem("coloring", 4, seed=0).to_qubo()
        assert problem_kind(qubo) == "qubo"

    def test_foreign_payload_rejected(self):
        with pytest.raises(
            AnnealerError,
            match=r"unsupported problem payload 'str' \(expected "
            r"TSPInstance, IsingModel, MaxCutProblem, or QUBOProblem\)",
        ):
            problem_kind("not a problem")

    @CONTRACT_PAIRS
    def test_decode_view_golden(self, name, kind):
        problem, result = _contract_case(name, kind)
        view = resolve_backend(name).decode(problem, result)
        assert view == CONTRACT_GOLDENS[name, kind]["view"]

    @CONTRACT_PAIRS
    def test_reference_golden(self, name, kind):
        problem, _ = _contract_case(name, kind)
        reference = resolve_backend(name).reference(problem, 3)
        assert reference == CONTRACT_GOLDENS[name, kind]["reference"]

    @CONTRACT_PAIRS
    def test_honest_result_accepted(self, name, kind):
        resolve_backend(name).validate_result(*_contract_case(name, kind))

    @CONTRACT_PAIRS
    def test_tampered_objective_golden(self, name, kind):
        problem, result = _contract_case(name, kind)
        bad = _tampered(name, kind, length=result.length + 1.0)
        with pytest.raises(ResultIntegrityError) as info:
            resolve_backend(name).validate_result(problem, bad)
        assert str(info.value) == CONTRACT_GOLDENS[name, kind]["tampered"]

    @CONTRACT_PAIRS
    def test_corrupted_state_golden(self, name, kind):
        problem, result = _contract_case(name, kind)
        n = len(result.tour)
        state = np.zeros(n) if kind == "tsp" else np.full(n, 2)
        bad = _tampered(name, kind, tour=state.astype(np.int64))
        with pytest.raises(ResultIntegrityError) as info:
            resolve_backend(name).validate_result(problem, bad)
        assert str(info.value) == CONTRACT_GOLDENS[name, kind]["corrupted"]

    @CONTRACT_PAIRS
    def test_nan_objective_rejected(self, name, kind):
        problem, _ = _contract_case(name, kind)
        bad = _tampered(name, kind, length=float("nan"))
        with pytest.raises(ResultIntegrityError, match="reported .* nan"):
            resolve_backend(name).validate_result(problem, bad)

    @CONTRACT_PAIRS
    @pytest.mark.parametrize("payload", [{"length": 1.0}, None])
    def test_wrong_type_rejected(self, name, kind, payload):
        problem, _ = _contract_case(name, kind)
        with pytest.raises(
            ResultIntegrityError,
            match="not an AnnealResult or BackendRunResult",
        ):
            resolve_backend(name).validate_result(problem, payload)


class TestCapabilityGuards:
    def test_kind_mismatch_names_backend_and_kinds(self, tsp16):
        with pytest.raises(
            AnnealerError,
            match=r"backend 'maxcut-sb' solves \['maxcut'\], got a 'tsp'",
        ):
            resolve_backend("maxcut-sb").compile(tsp16, None)

    def test_dense_ising_size_cap(self):
        big = random_uniform(65, seed=1)
        with pytest.raises(
            AnnealerError, match="limited to 64 cities, got 65"
        ):
            resolve_backend("dense-ising").compile(big, None)

    def test_simcim_rejects_01_convention(self):
        model = random_ising_model(6, seed=2)
        lattice_gas = IsingModel(
            model.couplings, model.field, convention="01"
        )
        with pytest.raises(AnnealerError, match="pm1 spin convention"):
            resolve_backend("simcim").compile(lattice_gas, None)

    def test_only_default_backend_is_batchable_and_configured(self):
        default = resolve_backend("cluster-cim").capabilities()
        assert default.batchable and default.accepts_config
        for name in ("dense-ising", "maxcut-sb", "simcim"):
            caps = resolve_backend(name).capabilities()
            assert not caps.batchable
            assert not caps.accepts_config


class TestClusterCIM:
    def test_solve_matches_direct_annealer(self, tsp16, fast_config):
        # The registry route must stay bit-identical to constructing
        # the paper's annealer by hand — same worker function.
        impl = resolve_backend("cluster-cim")
        plan = impl.compile(tsp16, fast_config)
        via_backend = impl.solve(plan, 5)
        direct = ClusteredCIMAnnealer(
            replace(fast_config, seed=5)
        ).solve(tsp16)
        assert via_backend.length == direct.length
        assert np.array_equal(via_backend.tour, direct.tour)

    def test_compile_defaults_missing_config(self, tsp16):
        plan = resolve_backend("cluster-cim").compile(tsp16, None)
        assert plan.config == AnnealerConfig()
        assert plan.backend == "cluster-cim"

    def test_reference_is_greedy_reference_length(self, tsp16):
        impl = resolve_backend("cluster-cim")
        assert impl.reference(tsp16, 3) == reference_length(tsp16, seed=3)

    def test_decode_view(self, tsp16, fast_config):
        impl = resolve_backend("cluster-cim")
        result = impl.solve(impl.compile(tsp16, fast_config), 1)
        view = impl.decode(tsp16, result)
        assert view["backend"] == "cluster-cim"
        assert sorted(view["tour"]) == list(range(16))
        assert view["length"] == pytest.approx(result.length)


class TestDenseIsing:
    def test_solve_yields_valid_tour(self, tsp16):
        impl = resolve_backend("dense-ising")
        result = impl.solve(impl.compile(tsp16, None), 3)
        impl.validate_result(tsp16, result)  # permutation + length agree
        assert result.length == pytest.approx(
            tour_length(tsp16, result.tour)
        )
        assert result.wall_time_s >= 0.0

    def test_deterministic_per_seed(self, tsp16):
        impl = resolve_backend("dense-ising")
        plan = impl.compile(tsp16, None)
        again = impl.solve(plan, 3)
        assert np.array_equal(again.tour, impl.solve(plan, 3).tour)

    def test_validate_rejects_tampered_length(self, tsp16):
        impl = resolve_backend("dense-ising")
        result = impl.solve(impl.compile(tsp16, None), 3)
        result.length += 1.0
        with pytest.raises(ResultIntegrityError, match="reported length"):
            impl.validate_result(tsp16, result)

    def test_validate_rejects_corrupted_tour(self, tsp16):
        impl = resolve_backend("dense-ising")
        result = impl.solve(impl.compile(tsp16, None), 3)
        result.tour = np.zeros(16, dtype=np.int64)  # not a permutation
        with pytest.raises(ResultIntegrityError, match="corrupted tour"):
            impl.validate_result(tsp16, result)


class TestMaxCutSB:
    def test_objective_is_negated_cut(self):
        problem = gset_style(30, seed=4)
        impl = resolve_backend("maxcut-sb")
        result = impl.solve(impl.compile(problem, None), 2)
        impl.validate_result(problem, result)
        spins = np.asarray(result.tour, dtype=np.float64)
        assert result.length == pytest.approx(-problem.cut_value(spins))

    def test_ratio_reads_cut_over_greedy(self):
        # Both objective and reference are negated, so the ratio is the
        # positive cut/greedy quality and > 1.0 means SB beat greedy.
        problem = gset_style(30, seed=4)
        impl = resolve_backend("maxcut-sb")
        result = impl.solve(impl.compile(problem, None), 2)
        ref = impl.reference(problem, 2)
        assert ref == -greedy_maxcut(problem, seed=2).cut_value
        assert ref < 0
        assert result.optimal_ratio(ref) > 0

    def test_validate_rejects_tampered_cut(self):
        problem = gset_style(30, seed=4)
        impl = resolve_backend("maxcut-sb")
        result = impl.solve(impl.compile(problem, None), 2)
        result.length -= 3.0
        with pytest.raises(ResultIntegrityError, match="recomputed cut"):
            impl.validate_result(problem, result)

    def test_decode_restores_positive_cut(self):
        problem = gset_style(30, seed=4)
        impl = resolve_backend("maxcut-sb")
        result = impl.solve(impl.compile(problem, None), 2)
        view = impl.decode(problem, result)
        assert view["backend"] == "maxcut-sb"
        assert view["cut_value"] == pytest.approx(-result.length)
        assert set(view["spins"]) <= {-1, 1}


class TestSimCIM:
    def test_energy_matches_model(self):
        model = random_ising_model(16, seed=6)
        impl = resolve_backend("simcim")
        result = impl.solve(impl.compile(model, None), 9)
        impl.validate_result(model, result)
        spins = np.asarray(result.tour, dtype=np.float64)
        assert result.length == pytest.approx(model.energy(spins))

    def test_no_reference_by_convention(self):
        # Arbitrary spin glasses have no quality denominator; ratios
        # read 0.0 rather than pretending a baseline exists.
        model = random_ising_model(16, seed=6)
        impl = resolve_backend("simcim")
        assert impl.reference(model, 9) == 0.0

    def test_validate_rejects_bad_spins(self):
        model = random_ising_model(16, seed=6)
        impl = resolve_backend("simcim")
        result = impl.solve(impl.compile(model, None), 9)
        result.tour = np.full(16, 2, dtype=np.int64)
        with pytest.raises(ResultIntegrityError, match="corrupted spins"):
            impl.validate_result(model, result)


class TestQUBOBackends:
    """The shared QUBO path behind all three annealing backends."""

    QUBO_BACKENDS = ("cluster-cim", "dense-ising", "simcim")

    @pytest.fixture
    def qubo(self):
        from repro.problems import make_problem

        return make_problem("coloring", 6, seed=2).to_qubo()

    @pytest.mark.parametrize("name", QUBO_BACKENDS)
    def test_capability_advertises_qubo(self, name):
        caps = resolve_backend(name).capabilities()
        assert "qubo" in caps.problem_kinds

    @pytest.mark.parametrize("name", QUBO_BACKENDS)
    def test_solve_validate_and_ops(self, qubo, name):
        impl = resolve_backend(name)
        result = impl.solve(impl.compile(qubo, None), 4)
        impl.validate_result(qubo, result)
        bits = np.asarray(result.tour, dtype=np.float64)
        assert set(np.unique(bits)) <= {0.0, 1.0}
        assert result.length == pytest.approx(qubo.energy(bits))
        assert result.ops["macs"] > 0
        assert result.ops["rng_draws"] > 0
        assert result.history is not None
        assert result.history.final_totals() == result.ops

    @pytest.mark.parametrize("name", QUBO_BACKENDS)
    def test_deterministic_per_seed(self, qubo, name):
        impl = resolve_backend(name)
        plan = impl.compile(qubo, None)
        first = impl.solve(plan, 4)
        again = impl.solve(plan, 4)
        assert np.array_equal(first.tour, again.tour)
        assert first.length == again.length
        assert first.ops == again.ops

    @pytest.mark.parametrize("name", QUBO_BACKENDS)
    def test_reference_is_greedy_descent(self, qubo, name):
        from repro.problems import greedy_qubo_descent

        impl = resolve_backend(name)
        _, greedy_energy = greedy_qubo_descent(qubo, seed=4)
        assert impl.reference(qubo, 4) == pytest.approx(greedy_energy)

    @pytest.mark.parametrize("name", QUBO_BACKENDS)
    def test_validate_rejects_tampered_energy(self, qubo, name):
        impl = resolve_backend(name)
        result = impl.solve(impl.compile(qubo, None), 4)
        result.length -= 5.0
        with pytest.raises(ResultIntegrityError, match="reported energy"):
            impl.validate_result(qubo, result)

    @pytest.mark.parametrize("name", QUBO_BACKENDS)
    def test_validate_rejects_corrupted_bits(self, qubo, name):
        impl = resolve_backend(name)
        result = impl.solve(impl.compile(qubo, None), 4)
        result.tour = np.full(qubo.n_vars, 2.0)
        with pytest.raises(ResultIntegrityError, match="corrupted bits"):
            impl.validate_result(qubo, result)

    @pytest.mark.parametrize("name", QUBO_BACKENDS)
    def test_decode_view(self, qubo, name):
        impl = resolve_backend(name)
        result = impl.solve(impl.compile(qubo, None), 4)
        view = impl.decode(qubo, result)
        assert view["backend"] == name
        assert view["energy"] == pytest.approx(result.length)
        assert set(view["bits"]) <= {0, 1}
        assert view["ops"] == result.ops

    def test_cluster_cim_rejects_config_for_qubo(self, qubo, fast_config):
        with pytest.raises(AnnealerError, match="AnnealerConfig"):
            resolve_backend("cluster-cim").compile(qubo, fast_config)


class TestBackendRunResult:
    """Sign conventions of optimal_ratio, pinned.

    ``length`` is always the minimised objective.  Same-sign ratios are
    positive quality numbers; a mixed-sign pair is reported as the raw
    negative quotient (not clamped) so callers can see the anomaly; a
    zero, NaN, or infinite reference yields 0.0 ("no baseline").
    """

    def test_zero_reference_means_no_ratio(self):
        result = BackendRunResult(tour=np.array([1, -1]), length=-3.0)
        assert result.optimal_ratio(0.0) == 0.0

    def test_nan_reference_means_no_ratio(self):
        result = BackendRunResult(tour=np.array([1, -1]), length=-3.0)
        assert result.optimal_ratio(float("nan")) == 0.0

    def test_infinite_reference_means_no_ratio(self):
        result = BackendRunResult(tour=np.array([1, -1]), length=-3.0)
        assert result.optimal_ratio(float("inf")) == 0.0

    def test_negative_reference_gives_positive_quality(self):
        result = BackendRunResult(tour=np.array([1, -1]), length=-30.0)
        assert result.optimal_ratio(-20.0) == pytest.approx(1.5)

    def test_positive_reference_matches_tsp_semantics(self):
        result = BackendRunResult(tour=np.arange(4), length=12.0)
        assert result.optimal_ratio(10.0) == pytest.approx(1.2)

    def test_mixed_signs_stay_negative_not_clamped(self):
        # A solver that crossed zero while its baseline did not: the
        # ratio goes negative instead of masquerading as quality.
        result = BackendRunResult(tour=np.array([1, -1]), length=-3.0)
        assert result.optimal_ratio(6.0) == pytest.approx(-0.5)
        flipped = BackendRunResult(tour=np.array([1, -1]), length=3.0)
        assert flipped.optimal_ratio(-6.0) == pytest.approx(-0.5)

    def test_zero_length_with_real_reference_is_exact_zero(self):
        # e.g. a planted coloring solved to optimality: 0 conflicts
        # over a positive greedy baseline reads as ratio 0.0.
        result = BackendRunResult(tour=np.array([1, -1]), length=0.0)
        assert result.optimal_ratio(4.0) == 0.0
