"""Wire-protocol round-trips and strict validation."""

from __future__ import annotations

import dataclasses
import json
from typing import ForwardRef, get_args

import numpy as np
import pytest

from repro.annealer.config import AnnealerConfig, NoiseSource, NoiseTarget
from repro.backends.base import _KINDS, ProblemLike, problem_kind
from repro.gateway.protocol import (
    PROBLEM_CODECS,
    REQUEST_SCHEMA,
    ProtocolError,
    decode,
    decode_solve_request,
    encode,
    encode_solve_request,
    error_payload,
    job_payload,
    parse_telemetry_frame,
)
from repro.ising.model import IsingModel
from repro.ising.schedule import VddSchedule
from repro.maxcut.problem import MaxCutProblem
from repro.problems.qubo import QUBOProblem
from repro.runtime.faults import FaultPlan
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.telemetry import RunTelemetry
from repro.sram.cell import SRAMCellParams
from repro.tsp.instance import TSPInstance


def wire_round_trip(request: SolveRequest) -> SolveRequest:
    """Encode → JSON text → decode, exactly like the HTTP path."""
    return decode_solve_request(json.loads(json.dumps(encode_solve_request(request))))


# ----------------------------------------------------------------------
# Golden wire pins: the exact ``json.dumps`` text of encoded requests,
# key order included.  Recorded from the hand-written codecs, before the
# codec was derived from the dataclasses; any byte of drift fails here.
# ----------------------------------------------------------------------
PIN_TSP = (
    '{"schema": "repro.solve_request/v1", "instance": {"kind": "tsp", '
    '"name": "pin5", "comment": "golden wire pin", "edge_weight_type": '
    '"EUC_2D", "coords": [[0.0, 0.0], [3.0, 0.5], [2.5, 4.0], [-1.0, '
    '2.0], [0.5, -1.5]]}, "seeds": [3, 1, 4], "config": {"strategy": '
    '"4", "schedule": {"vdd_start_mv": 320.0, "vdd_end_mv": 560.0, '
    '"vdd_step_mv": 30.0, "iterations_per_step": 25, '
    '"total_iterations": 150, "noisy_lsbs_start": 5, "weight_bits": 6, '
    '"lsb_countdown": false}, "top_size": 6, "weight_bits": 6, '
    '"cell_params": {"v50_mv": 310.0, "sigma_v_mv": 42.5, '
    '"bl_cap_ratio": 1.5}, "noise_source": "lfsr", "noise_target": '
    '"spins", "parallel_update": false, "seed": 11, "record_trace": '
    'true, "trace_every": 7}, "reference": 17.25, "options": '
    '{"max_workers": 2, "timeout_s": 30.0, "max_retries": 3, '
    '"chunk_size": 4, "strict": true, "max_inflight_per_job": 3, '
    '"max_pending_jobs": 9, "backoff_base_s": 0.01, "backoff_cap_s": '
    '0.25, "self_heal_budget": 1, "breaker_threshold": null, '
    '"fault_plan": {"seed": 5, "crash_rate": 0.1, "hang_rate": 0.05, '
    '"corrupt_rate": 0.02, "broken_pool_rate": 0.01, "hang_s": 0.75, '
    '"max_faults_per_run": 2}, "batch_size": 2}, "tag": "golden", '
    '"backend": "cluster-cim", "deadline_s": 45.5}'
)

PIN_ISING = (
    '{"schema": "repro.solve_request/v1", "instance": {"kind": '
    '"ising", "couplings": [[0.0, 1.0, -0.5], [1.0, 0.0, 2.0], [-0.5, '
    '2.0, 0.0]], "field": [0.5, -0.25, 0.0], "convention": "01"}, '
    '"seeds": [1, 2], "config": null, "reference": null, "options": '
    '{"max_workers": 1, "timeout_s": null, "max_retries": 1, '
    '"chunk_size": null, "strict": false, "max_inflight_per_job": '
    'null, "max_pending_jobs": 16, "backoff_base_s": 0.05, '
    '"backoff_cap_s": 1.0, "self_heal_budget": 2, "breaker_threshold": '
    '8, "fault_plan": null, "batch_size": 1}, "tag": "", "backend": '
    '"simcim", "deadline_s": null}'
)

PIN_MAXCUT = (
    '{"schema": "repro.solve_request/v1", "instance": {"kind": '
    '"maxcut", "n_nodes": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, '
    '3]], "weights": [1.0, 1.5, 2.0, 0.5], "name": "square"}, "seeds": '
    '[2], "config": null, "reference": null, "options": '
    '{"max_workers": 1, "timeout_s": null, "max_retries": 1, '
    '"chunk_size": null, "strict": false, "max_inflight_per_job": '
    'null, "max_pending_jobs": 16, "backoff_base_s": 0.05, '
    '"backoff_cap_s": 1.0, "self_heal_budget": 2, "breaker_threshold": '
    '8, "fault_plan": null, "batch_size": 1}, "tag": "", "backend": '
    '"maxcut-sb", "deadline_s": null}'
)

PIN_QUBO = (
    '{"schema": "repro.solve_request/v1", "instance": {"kind": "qubo", '
    '"n_vars": 3, "terms": [[0, 0, -1.0], [0, 1, 2.0], [1, 2, -0.5], '
    '[2, 2, 0.25]], "offset": 1.5, "name": "tri"}, "seeds": [7, 8], '
    '"config": null, "reference": null, "options": {"max_workers": 1, '
    '"timeout_s": null, "max_retries": 1, "chunk_size": null, '
    '"strict": false, "max_inflight_per_job": null, '
    '"max_pending_jobs": 16, "backoff_base_s": 0.05, "backoff_cap_s": '
    '1.0, "self_heal_budget": 2, "breaker_threshold": 8, "fault_plan": '
    'null, "batch_size": 1}, "tag": "", "backend": "dense-ising", '
    '"deadline_s": null}'
)

PIN_LEGACY = (
    '{"schema": "repro.solve_request/v1", "instance": {"kind": "tsp", '
    '"name": "tri3", "comment": "", "edge_weight_type": "GEOM", '
    '"coords": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]}, "seeds": [5, 6], '
    '"config": null, "reference": null, "options": {"max_workers": 1, '
    '"timeout_s": null, "max_retries": 1, "chunk_size": null, '
    '"strict": false, "max_inflight_per_job": null, '
    '"max_pending_jobs": 16, "backoff_base_s": 0.05, "backoff_cap_s": '
    '1.0, "self_heal_budget": 2, "breaker_threshold": 8, "fault_plan": '
    'null, "batch_size": 1}, "tag": "legacy", "backend": '
    '"cluster-cim", "deadline_s": null}'
)

PIN_LEGACY_DOC = (
    '{"schema": "repro.solve_request/v1", "instance": {"name": "tri3", '
    '"comment": "", "edge_weight_type": "GEOM", "coords": [[0.0, 0.0], '
    '[1.0, 0.0], [1.0, 1.0]]}, "seeds": [5, 6], "tag": "legacy"}'
)


def _golden_tsp_request() -> SolveRequest:
    instance = TSPInstance(
        coords=np.array(
            [[0.0, 0.0], [3.0, 0.5], [2.5, 4.0], [-1.0, 2.0], [0.5, -1.5]]
        ),
        name="pin5",
        comment="golden wire pin",
        edge_weight_type="EUC_2D",
    )
    config = AnnealerConfig(
        strategy="4",
        schedule=VddSchedule(
            vdd_start_mv=320.0,
            vdd_end_mv=560.0,
            vdd_step_mv=30.0,
            iterations_per_step=25,
            total_iterations=150,
            noisy_lsbs_start=5,
            weight_bits=6,
            lsb_countdown=False,
        ),
        top_size=6,
        weight_bits=6,
        cell_params=SRAMCellParams(
            v50_mv=310.0, sigma_v_mv=42.5, bl_cap_ratio=1.5
        ),
        noise_source=NoiseSource.LFSR,
        noise_target=NoiseTarget.SPINS,
        parallel_update=False,
        seed=11,
        record_trace=True,
        trace_every=7,
    )
    options = EnsembleOptions(
        max_workers=2,
        timeout_s=30.0,
        max_retries=3,
        chunk_size=4,
        strict=True,
        max_inflight_per_job=3,
        max_pending_jobs=9,
        backoff_base_s=0.01,
        backoff_cap_s=0.25,
        self_heal_budget=1,
        breaker_threshold=None,
        fault_plan=FaultPlan(
            seed=5,
            crash_rate=0.1,
            hang_rate=0.05,
            corrupt_rate=0.02,
            broken_pool_rate=0.01,
            hang_s=0.75,
            max_faults_per_run=2,
        ),
        batch_size=2,
    )
    return SolveRequest.build(
        instance,
        [3, 1, 4],
        config=config,
        reference=17.25,
        options=options,
        tag="golden",
        deadline_s=45.5,
    )


def _golden_ising_request() -> SolveRequest:
    model = IsingModel(
        np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 2.0], [-0.5, 2.0, 0.0]]),
        field=np.array([0.5, -0.25, 0.0]),
        convention="01",
    )
    return SolveRequest.build(model, [1, 2], backend="simcim")


def _golden_maxcut_request() -> SolveRequest:
    problem = MaxCutProblem(
        4,
        np.array([[0, 1], [1, 2], [2, 3], [0, 3]]),
        weights=np.array([1.0, 2.0, 0.5, 1.5]),
        name="square",
    )
    return SolveRequest.build(problem, [2], backend="maxcut-sb")


def _golden_qubo_request() -> SolveRequest:
    qubo = QUBOProblem.from_terms(
        3,
        [(0, 0, -1.0), (0, 1, 2.0), (1, 2, -0.5), (2, 2, 0.25)],
        offset=1.5,
        name="tri",
    )
    return SolveRequest.build(qubo, [7, 8], backend="dense-ising")


def _golden_legacy_request() -> SolveRequest:
    instance = TSPInstance(
        coords=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
        name="tri3",
    )
    return SolveRequest.build(instance, [5, 6], tag="legacy")


GOLDEN = {
    "tsp": (_golden_tsp_request, PIN_TSP),
    "ising": (_golden_ising_request, PIN_ISING),
    "maxcut": (_golden_maxcut_request, PIN_MAXCUT),
    "qubo": (_golden_qubo_request, PIN_QUBO),
    "legacy": (_golden_legacy_request, PIN_LEGACY),
}


class TestGoldenWire:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_encoding_is_byte_identical(self, name):
        build, pin = GOLDEN[name]
        assert json.dumps(encode_solve_request(build())) == pin

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_pin_decodes_and_re_encodes_identically(self, name):
        _, pin = GOLDEN[name]
        back = decode_solve_request(json.loads(pin))
        assert json.dumps(encode_solve_request(back)) == pin

    def test_pre_registry_document_decodes_to_its_request(self):
        # No instance "kind", no "backend" and only the fields an early
        # client sent: it must decode to the pinned default-backend request.
        doc = json.loads(PIN_LEGACY_DOC)
        assert "kind" not in doc["instance"] and "backend" not in doc
        back = decode_solve_request(doc)
        assert json.dumps(encode_solve_request(back)) == PIN_LEGACY
        expected = _golden_legacy_request()
        assert back.seeds == expected.seeds
        assert back.tag == expected.tag
        assert back.backend == expected.backend == "cluster-cim"
        assert back.options == expected.options
        np.testing.assert_array_equal(
            back.instance.coords, expected.instance.coords
        )


class TestSolveRequestRoundTrip:
    def test_basic_fields_lossless(self, make_request):
        request = make_request((5, 9, 13), tag="rt")
        back = wire_round_trip(request)
        assert back.seeds == (5, 9, 13)
        assert back.tag == "rt"
        assert back.reference is None
        np.testing.assert_array_equal(
            back.instance.coords, request.instance.coords
        )
        assert back.instance.edge_weight_type == (
            request.instance.edge_weight_type
        )

    def test_config_lossless(self, instance):
        config = AnnealerConfig(
            strategy="1/2",
            schedule=VddSchedule(
                total_iterations=100, iterations_per_step=20
            ),
            top_size=6,
            cell_params=SRAMCellParams(sigma_v_mv=24.0),
            noise_source=NoiseSource.LFSR,
            noise_target=NoiseTarget.SPINS,
            parallel_update=False,
            seed=3,
            record_trace=True,
            trace_every=5,
        )
        request = SolveRequest.build(instance, [1], config=config)
        back = wire_round_trip(request)
        assert back.config is not None
        assert back.config.strategy.name == "1/2"
        assert back.config.schedule == config.schedule
        assert back.config.cell_params == config.cell_params
        assert back.config.noise_source is NoiseSource.LFSR
        assert back.config.noise_target is NoiseTarget.SPINS
        assert back.config.parallel_update is False
        assert back.config.top_size == 6
        assert back.config.record_trace is True
        assert back.config.trace_every == 5

    def test_options_and_fault_plan_lossless(self, instance):
        options = EnsembleOptions(
            max_workers=3,
            timeout_s=12.5,
            max_retries=2,
            chunk_size=4,
            strict=True,
            max_inflight_per_job=5,
            max_pending_jobs=7,
            backoff_base_s=0.0,
            backoff_cap_s=0.5,
            self_heal_budget=1,
            breaker_threshold=None,
            fault_plan=FaultPlan(
                seed=42,
                crash_rate=0.2,
                hang_rate=0.1,
                corrupt_rate=0.05,
                broken_pool_rate=0.01,
                hang_s=1.5,
                max_faults_per_run=2,
            ),
        )
        request = SolveRequest.build(instance, [1, 2], options=options)
        back = wire_round_trip(request)
        assert back.options == options  # frozen dataclasses: deep equality

    def test_reference_survives(self, instance):
        request = SolveRequest.build(instance, [1], reference=123.5)
        assert wire_round_trip(request).reference == 123.5

    def test_deadline_survives(self, instance):
        request = SolveRequest.build(instance, [1], deadline_s=12.5)
        assert wire_round_trip(request).deadline_s == 12.5

    def test_deadline_absent_stays_none(self, instance):
        # Pre-deadline payloads (no "deadline_s" key) decode to an
        # unbounded request, and None survives the round trip.
        request = SolveRequest.build(instance, [1])
        assert wire_round_trip(request).deadline_s is None
        wire = encode_solve_request(request)
        del wire["deadline_s"]
        back = decode_solve_request(json.loads(json.dumps(wire)))
        assert back.deadline_s is None

    def test_solved_identically_after_round_trip(self, make_request):
        # The acceptance bar: a request that crossed the wire solves
        # bit-identically to the original object.
        from repro.annealer.batch import solve_ensemble

        request = make_request((21, 22))
        direct = solve_ensemble(request)
        wired = solve_ensemble(wire_round_trip(request))
        assert [r.length for r in wired.results] == [
            r.length for r in direct.results
        ]
        assert [list(r.tour) for r in wired.results] == [
            list(r.tour) for r in direct.results
        ]


class TestProblemUnionWire:
    """The tagged problem union + per-request backend on the wire."""

    def test_pre_backend_payload_decodes_to_default(self, make_request):
        # A recorded pre-1.3 body: no "backend" key, no instance
        # "kind" tag.  It must decode to the default cluster-CIM
        # request unchanged.
        from repro.tsp.instance import TSPInstance

        wire = encode_solve_request(make_request((5, 6)))
        del wire["backend"]
        del wire["instance"]["kind"]
        back = decode_solve_request(json.loads(json.dumps(wire)))
        assert back.backend == "cluster-cim"
        assert isinstance(back.instance, TSPInstance)
        assert back.seeds == (5, 6)

    def test_backend_field_survives_round_trip(self, instance):
        request = SolveRequest.build(instance, [1], backend="dense-ising")
        assert wire_round_trip(request).backend == "dense-ising"

    def test_ising_problem_lossless(self):
        from repro.ising.simcim import random_ising_model

        model = random_ising_model(6, seed=3)
        request = SolveRequest.build(model, [1, 2], backend="simcim")
        back = wire_round_trip(request)
        assert back.backend == "simcim"
        assert back.instance.convention == model.convention
        np.testing.assert_allclose(
            back.instance.couplings, model.couplings
        )

    def test_maxcut_problem_lossless(self):
        from repro.maxcut import gset_style

        problem = gset_style(12, seed=1)
        request = SolveRequest.build(problem, [3], backend="maxcut-sb")
        back = wire_round_trip(request)
        assert back.backend == "maxcut-sb"
        assert back.instance.n_nodes == problem.n_nodes
        assert back.instance.name == problem.name
        np.testing.assert_array_equal(
            np.asarray(back.instance.edges), np.asarray(problem.edges)
        )
        np.testing.assert_allclose(
            np.asarray(back.instance.weights), np.asarray(problem.weights)
        )

    def test_qubo_problem_lossless(self):
        from repro.problems import make_problem

        qubo = make_problem("coloring", 6, seed=4).to_qubo()
        request = SolveRequest.build(qubo, [7, 8], backend="cluster-cim")
        back = wire_round_trip(request)
        assert back.backend == "cluster-cim"
        assert back.instance.name == qubo.name
        assert back.instance.offset == qubo.offset
        np.testing.assert_array_equal(back.instance.q, qubo.q)
        # Re-encoding the decoded request is byte-identical.
        assert json.dumps(encode_solve_request(back), sort_keys=True) == (
            json.dumps(encode_solve_request(request), sort_keys=True)
        )

    def test_qubo_with_config_rejected_on_wire(self, make_request):
        from repro.gateway.protocol import encode_qubo_problem
        from repro.problems import make_problem

        qubo = make_problem("knapsack", 5, seed=0).to_qubo()
        wire = encode_solve_request(make_request((1,)))
        wire["instance"] = encode_qubo_problem(qubo)
        assert wire["config"] is not None
        with pytest.raises(ProtocolError, match="invalid solve request"):
            decode_solve_request(wire)

    def test_qubo_unknown_field_rejected(self):
        from repro.problems import make_problem

        qubo = make_problem("maxsat", 4, seed=0).to_qubo()
        request = SolveRequest.build(qubo, [1], backend="simcim")
        wire = encode_solve_request(request)
        wire["instance"]["penalty"] = 2.0
        with pytest.raises(
            ProtocolError, match="unknown fields.*penalty"
        ):
            decode_solve_request(wire)

    def test_pre_qubo_docs_unchanged_on_wire(self, make_request):
        # Wire-drift guard: adding the qubo union member must not
        # change the shape of the existing kinds' documents.
        wire = encode_solve_request(make_request((1, 2)))
        assert set(wire) == {
            "schema",
            "instance",
            "seeds",
            "config",
            "reference",
            "options",
            "tag",
            "backend",
            "deadline_s",
        }
        assert wire["instance"]["kind"] == "tsp"
        assert "qubo" not in json.dumps(wire)

    def test_unknown_backend_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["backend"] = "quantum-tunneler"
        with pytest.raises(ProtocolError, match="unknown backend"):
            decode_solve_request(wire)

    def test_unknown_problem_kind_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["instance"]["kind"] = "sudoku"
        with pytest.raises(ProtocolError, match="unknown problem kind"):
            decode_solve_request(wire)

    def test_capability_mismatch_rejected(self, make_request):
        # A TSP payload aimed at the Max-Cut backend is a 400, not a
        # worker-side crash.
        wire = encode_solve_request(make_request())
        wire["backend"] = "maxcut-sb"
        with pytest.raises(ProtocolError, match="invalid solve request"):
            decode_solve_request(wire)

    def test_config_rejected_for_configless_backend(self, make_request):
        wire = encode_solve_request(make_request((1,)))
        wire["backend"] = "dense-ising"
        assert wire["config"] is not None
        with pytest.raises(ProtocolError, match="invalid solve request"):
            decode_solve_request(wire)


class TestStrictValidation:
    def test_wrong_schema_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["schema"] = "repro.solve_request/v9"
        with pytest.raises(ProtocolError, match="expected schema"):
            decode_solve_request(wire)

    def test_missing_schema_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        del wire["schema"]
        with pytest.raises(ProtocolError, match="expected schema"):
            decode_solve_request(wire)

    def test_unknown_top_level_field_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["priority"] = "high"
        with pytest.raises(ProtocolError, match="unknown fields.*priority"):
            decode_solve_request(wire)

    def test_unknown_options_field_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["options"]["n_workers"] = 4
        with pytest.raises(ProtocolError, match="unknown fields.*n_workers"):
            decode_solve_request(wire)

    def test_unknown_fault_plan_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fields"):
            decode(FaultPlan, {"seed": 1, "explode_rate": 1.0}, "fault_plan")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decode_solve_request([1, 2, 3])

    @pytest.mark.parametrize(
        "seeds", [None, [], [1, "2"], [1, 2.5], [True, False], "12"]
    )
    def test_bad_seeds_rejected(self, make_request, seeds):
        wire = encode_solve_request(make_request())
        wire["seeds"] = seeds
        with pytest.raises(ProtocolError, match="seeds"):
            decode_solve_request(wire)

    def test_duplicate_seeds_rejected_as_protocol_error(self, make_request):
        wire = encode_solve_request(make_request())
        wire["seeds"] = [1, 1]
        with pytest.raises(ProtocolError, match="duplicate seeds"):
            decode_solve_request(wire)

    def test_missing_instance_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        del wire["instance"]
        with pytest.raises(ProtocolError, match="missing 'instance'"):
            decode_solve_request(wire)

    def test_bad_coords_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["instance"]["coords"] = [["a", "b"]]
        with pytest.raises(ProtocolError, match="coords"):
            decode_solve_request(wire)

    def test_bad_edge_weight_type_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["instance"]["edge_weight_type"] = "MANHATTAN"
        with pytest.raises(ProtocolError, match="invalid instance"):
            decode_solve_request(wire)

    def test_bad_option_types_rejected(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            decode(EnsembleOptions, {"max_workers": "four"}, "options")
        with pytest.raises(ProtocolError, match="must be a boolean"):
            decode(EnsembleOptions, {"strict": 1}, "options")
        with pytest.raises(ProtocolError, match="must be a number or null"):
            decode(EnsembleOptions, {"timeout_s": "soon"}, "options")

    def test_out_of_range_options_rejected(self):
        # Domain validation (EnsembleOptions.__post_init__) surfaces as
        # a protocol error, not a 500.
        with pytest.raises(ProtocolError, match="invalid options"):
            decode(EnsembleOptions, {"max_workers": 0}, "options")

    def test_bad_strategy_label_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["config"]["strategy"] = "5/6/7/8/9/10/11/12"
        with pytest.raises(ProtocolError, match="invalid config"):
            decode_solve_request(wire)


    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("schedule", "lsb_countdown", "yes"),
            ("schedule", "iterations_per_step", 50.0),
            ("schedule", "iterations_per_step", True),
            ("cell_params", "sigma_v_mv", True),
        ],
    )
    def test_bad_nested_config_types_rejected(
        self, make_request, section, key, value
    ):
        wire = encode_solve_request(make_request())
        wire["config"][section][key] = value
        with pytest.raises(
            ProtocolError, match=rf"config\.{section}\.{key} must be"
        ):
            decode_solve_request(wire)

    @pytest.mark.parametrize("edges", [[[0.7, 1.9]], [[0, 1], [True, 2]]])
    def test_non_integer_maxcut_endpoints_rejected(self, edges):
        # [0.7, 1.9] used to be truncated to the edge (0, 1).
        wire = json.loads(PIN_MAXCUT)
        wire["instance"]["edges"] = edges
        wire["instance"]["weights"] = [1.0] * len(edges)
        with pytest.raises(ProtocolError, match="integer pairs"):
            decode_solve_request(wire)

class TestFaultPlanCodec:
    def test_none_passes_through(self):
        assert encode(None) is None
        options = decode(EnsembleOptions, {"fault_plan": None}, "options")
        assert options.fault_plan is None

    def test_defaults_fill_missing_fields(self):
        plan = decode(FaultPlan, {"seed": 9, "crash_rate": 0.3}, "fault_plan")
        assert plan == FaultPlan(seed=9, crash_rate=0.3)

    def test_options_round_trip_without_plan(self):
        options = EnsembleOptions(max_workers=2)
        assert decode(EnsembleOptions, encode(options), "options") == options


def _codec_samples():
    """Wire dataclass → values that, between them, set every field to
    a non-default.  (Only ``cluster-cim`` takes a config, so a second
    request carries the non-default backend.)"""
    request = _golden_tsp_request()
    config = request.config
    other = SolveRequest.build(request.instance, [9], backend="dense-ising")
    return {
        SolveRequest: [request, other],
        EnsembleOptions: [request.options],
        FaultPlan: [request.options.fault_plan],
        AnnealerConfig: [config],
        VddSchedule: [config.schedule],
        SRAMCellParams: [config.cell_params],
    }


def _field_default(f):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


class TestDerivedCodec:
    """The codec walks the dataclasses, so the wire cannot drift from
    them: every field is on the wire, and every field survives it."""

    @pytest.mark.parametrize(
        "cls", list(_codec_samples()), ids=lambda cls: cls.__name__
    )
    def test_encoded_keys_are_the_fields(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        for value in _codec_samples()[cls]:
            assert list(encode(value)) == names
            if cls is SolveRequest:
                assert list(encode_solve_request(value)) == ["schema", *names]

    @pytest.mark.parametrize(
        "cls", list(_codec_samples()), ids=lambda cls: cls.__name__
    )
    def test_every_field_non_default_round_trips(self, cls):
        samples = _codec_samples()[cls]
        for f in dataclasses.fields(cls):
            default = _field_default(f)
            if default is dataclasses.MISSING:
                continue
            assert any(
                encode(getattr(value, f.name)) != encode(default)
                for value in samples
            ), f"no sample sets {cls.__name__}.{f.name}"
        for value in samples:
            if cls is SolveRequest:
                back = wire_round_trip(value)
                assert encode(back) == encode(value)
                for f in dataclasses.fields(cls):
                    if f.name != "instance":
                        assert getattr(back, f.name) == getattr(value, f.name)
            else:
                wire = json.loads(json.dumps(encode(value)))
                assert decode(cls, wire, cls.__name__) == value

    def test_every_problem_union_member_has_a_kind_codec(self):
        samples = {
            "TSPInstance": _golden_tsp_request().instance,
            "IsingModel": _golden_ising_request().instance,
            "MaxCutProblem": _golden_maxcut_request().instance,
            "QUBOProblem": _golden_qubo_request().instance,
        }
        members = {
            arg.__forward_arg__
            if isinstance(arg, ForwardRef)
            else arg.__name__
            for arg in get_args(ProblemLike)
        }
        assert members == set(samples)
        assert {problem_kind(p) for p in samples.values()} == set(
            PROBLEM_CODECS
        )
        # A new kind needs one kind-table entry plus one codec.
        assert set(PROBLEM_CODECS) == set(_KINDS)

class TestTelemetryFrames:
    def frame(self, **overrides):
        record = RunTelemetry(
            seed=4,
            wall_time_s=1.25,
            length=101.5,
            optimal_ratio=1.05,
            level_times_s=[0.5, 0.75],
            trials_proposed=100,
            trials_accepted=10,
            retries=1,
            worker="pool@job-0007",
            faults_injected=["crash"],
            backoff_s=0.05,
            first_error="AnnealerError('injected')",
        )
        payload = json.loads(record.to_json_line())
        payload.update(overrides)
        return json.dumps(payload)

    def test_frame_round_trip_lossless(self):
        line = self.frame()
        back = parse_telemetry_frame(line)
        assert back == parse_telemetry_frame(back.to_json_line())
        assert back.seed == 4
        assert back.worker == "pool@job-0007"
        assert back.job_id == "job-0007"
        assert back.faults_injected == ["crash"]

    def test_unknown_fields_tolerated(self):
        # A newer server may stream counters this client predates.
        line = self.frame(gpu_joules=3.5, queue_wait_s=0.1)
        back = parse_telemetry_frame(line)
        assert back.seed == 4 and back.length == 101.5

    def test_schema_version_within_v1_accepted(self):
        line = self.frame(schema="repro.run_telemetry/v1.3")
        assert parse_telemetry_frame(line).seed == 4

    def test_foreign_schema_rejected(self):
        line = self.frame(schema="repro.job/v1")
        with pytest.raises(ProtocolError, match="run_telemetry"):
            parse_telemetry_frame(line)

    def test_missing_schema_rejected(self):
        payload = json.loads(self.frame())
        del payload["schema"]
        with pytest.raises(ProtocolError, match="run_telemetry"):
            parse_telemetry_frame(json.dumps(payload))

    def test_missing_seed_rejected(self):
        payload = json.loads(self.frame())
        del payload["seed"]
        with pytest.raises(ProtocolError, match="no 'seed'"):
            parse_telemetry_frame(json.dumps(payload))

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            parse_telemetry_frame("event: run")


class TestResponsePayloads:
    def test_error_payload_versioned(self):
        payload = error_payload("overloaded", "busy", retry=True)
        assert payload["schema"] == "repro.error/v1"
        assert payload["error"] == "overloaded"
        assert payload["retry"] is True

    def test_job_payload_versioned(self):
        payload = job_payload("job-0001", "pending", seeds=3)
        assert payload["schema"] == "repro.job/v1"
        assert payload["job_id"] == "job-0001"
        assert "shard" not in payload
        assert payload["seeds"] == 3

    def test_request_schema_constant(self, make_request):
        assert encode_solve_request(make_request())["schema"] == REQUEST_SCHEMA
