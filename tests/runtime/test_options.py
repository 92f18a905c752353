"""Tests for the frozen options / request value types."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import AnnealerError
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.tsp.generators import random_uniform


@pytest.fixture(scope="module")
def instance():
    return random_uniform(30, seed=11)


class TestEnsembleOptions:
    def test_defaults(self):
        opts = EnsembleOptions()
        assert opts.max_workers == 1
        assert opts.timeout_s is None
        assert opts.max_retries == 1
        assert opts.strict is False
        assert opts.max_pending_jobs == 16

    def test_frozen(self):
        opts = EnsembleOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.max_workers = 4  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_workers": 0}, "max_workers"),
            ({"max_retries": -1}, "max_retries"),
            ({"timeout_s": 0}, "timeout_s"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"max_inflight_per_job": 0}, "max_inflight_per_job"),
            ({"max_pending_jobs": 0}, "max_pending_jobs"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(AnnealerError, match=match):
            EnsembleOptions(**kwargs)

    def test_effective_inflight_defaults_to_twice_workers(self):
        assert EnsembleOptions(max_workers=3).effective_inflight_per_job == 6
        assert (
            EnsembleOptions(max_workers=3, max_inflight_per_job=2)
            .effective_inflight_per_job
            == 2
        )


class TestSolveRequest:
    def test_seeds_normalised_to_int_tuple(self, instance):
        request = SolveRequest.build(instance, [3.0, 1, 2])
        assert request.seeds == (3, 1, 2)
        assert isinstance(request.seeds, tuple)

    def test_empty_seeds_rejected(self, instance):
        with pytest.raises(AnnealerError, match="at least one seed"):
            SolveRequest.build(instance, [])

    def test_duplicate_seeds_rejected(self, instance):
        with pytest.raises(AnnealerError, match="duplicate seeds"):
            SolveRequest.build(instance, [1, 2, 1])

    def test_frozen(self, instance):
        request = SolveRequest.build(instance, [1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.seeds = (9,)  # type: ignore[misc]

    def test_default_options_attached(self, instance):
        assert SolveRequest.build(instance, [1]).options == EnsembleOptions()

    def test_range_accepted(self, instance):
        assert SolveRequest.build(instance, range(4)).seeds == (0, 1, 2, 3)

    @pytest.mark.parametrize("tag", ["team/a", "a b", "x?y", "café", "a@b"])
    def test_tag_outside_job_id_alphabet_rejected(self, instance, tag):
        # The tag becomes part of the job id (URL path, worker field).
        with pytest.raises(AnnealerError, match="tag may use only"):
            SolveRequest.build(instance, [1], tag=tag)

    def test_tag_alphabet_accepted(self, instance):
        assert SolveRequest.build(instance, [1], tag="Team_a-9").tag == "Team_a-9"
        assert SolveRequest.build(instance, [1]).tag == ""

    def test_service_name_shares_the_rule(self):
        from repro.runtime.service import AnnealingService

        with pytest.raises(AnnealerError, match="service name may use only"):
            AnnealingService(name="shard/0")
