"""Tour goldens: every noise mode of the clustered annealer, pinned exactly.

Each case pins the tour (sha1 of its ``int64`` bytes), the exact tour
length, and ``chip.summary()``.  The trace case also pins the sha1 of
``repr(trace.samples)``, so every recorded ``(level, iteration,
objective)`` point is held to the last bit.  The goldens were recorded
with the per-seed serial solve; any change to the trial kernel, the
level loop or the hierarchy descent that moves a single swap fails
here.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.annealer.config import AnnealerConfig, NoiseSource, NoiseTarget
from repro.annealer.hierarchical import ClusteredCIMAnnealer
from repro.tsp.generators import make_paper_instance, random_clustered

SUMMARY_KEYS = (
    "p", "n_clusters", "n_arrays", "capacity_bits", "mac_cycles",
    "macs_performed", "writeback_events", "weights_written",
    "weight_bits_written", "seam_transfers", "bits_transferred",
    "levels_processed",
)

#: Configurations of the clustered80 cases, by name.
CONFIGS: Dict[str, AnnealerConfig] = {
    "sram": AnnealerConfig(),
    "none": AnnealerConfig(noise_source=NoiseSource.NONE),
    "lfsr": AnnealerConfig(noise_source=NoiseSource.LFSR),
    "metropolis": AnnealerConfig(noise_source=NoiseSource.METROPOLIS),
    "spins": AnnealerConfig(noise_target=NoiseTarget.SPINS),
    "trace": AnnealerConfig(record_trace=True),
    "sequential": AnnealerConfig(parallel_update=False),
}

_PARALLEL = (3, 40, 4, 43200, 14400, 123200, 40, 83160, 301455, 14400, 43200, 5)
_SEQUENTIAL = (3, 40, 4, 43200, 123200, 123200, 40, 83160, 301455, 0, 0, 5)

Golden = Tuple[str, float, Tuple[int, ...], Optional[str]]

#: (config name, seed) -> (tour sha1, length, summary values, trace sha1)
CLUSTERED80: Dict[Tuple[str, int], Golden] = {
    ("sram", 300): ("d66683ab56c21c78191dd4c9d5d938c03397ee64", 4507.392553954529, _PARALLEL, None),
    ("sram", 301): ("3b26151bb5c934f05bd90cac51b35ddfb146e806", 4507.354784218533, _PARALLEL, None),
    ("sram", 302): ("46073f73674e1c77fd0693153e61385440013f74", 4525.437212444314, _PARALLEL, None),
    ("none", 300): ("ca89882386aa2191d7ceb07155c731b36f278bd0", 4533.057643064449, _PARALLEL, None),
    ("none", 301): ("ebe53051d8bfd2391206d61e0564b2d1100f8856", 4543.414031990173, _PARALLEL, None),
    ("none", 302): ("6273c56b836bb8a33ed0d1c2a6d3e52ef770b3bb", 4533.057643064449, _PARALLEL, None),
    ("lfsr", 300): ("a6b03358381d675b04323b38697b42a90def50f4", 4506.314117074838, _PARALLEL, None),
    ("lfsr", 301): ("a637f323c0e959f0c1db5e2739caa27cb48b9d06", 4508.941937530048, _PARALLEL, None),
    ("lfsr", 302): ("6a87e100bd091bd083a35778ad84aa6daec48275", 4510.818405604998, _PARALLEL, None),
    ("metropolis", 300): ("bce35b3238daeb16a710ee6b718a431da054594d", 4506.276347338841, _PARALLEL, None),
    ("metropolis", 301): ("98112a70acbca6fd1edbeed500b9ee3e0b6c4998", 4507.392553954529, _PARALLEL, None),
    ("metropolis", 302): ("8a18ca20c9c9271c77e76054199ac1f0cdeb83ef", 4513.672545793965, _PARALLEL, None),
    ("spins", 300): ("e7e01c1853131b297bac5b852f926dc85cd5e75d", 5408.185337054905, _PARALLEL, None),
    ("spins", 301): ("d3c948b34d4a5a8f8fe1ad42073b3c03c8804fff", 5444.270578511489, _PARALLEL, None),
    ("spins", 302): ("a442e990482eb1456bc6ed95170288301b492eb8", 5120.4659758326525, _PARALLEL, None),
    ("trace", 300): ("d66683ab56c21c78191dd4c9d5d938c03397ee64", 4507.392553954529, _PARALLEL,
                     "a425546530d9fded0f013fd07ea1b49722817c22"),
    ("trace", 301): ("3b26151bb5c934f05bd90cac51b35ddfb146e806", 4507.354784218533, _PARALLEL,
                     "059156e20409e0d686fad73c243c0a5a42aa26f4"),
    ("trace", 302): ("46073f73674e1c77fd0693153e61385440013f74", 4525.437212444314, _PARALLEL,
                     "8a484337d7cd30efe0a175fa6654ff3875fc05b5"),
    ("sequential", 300): ("d66683ab56c21c78191dd4c9d5d938c03397ee64", 4507.392553954529, _SEQUENTIAL, None),
    ("sequential", 301): ("3b26151bb5c934f05bd90cac51b35ddfb146e806", 4507.354784218533, _SEQUENTIAL, None),
    ("sequential", 302): ("5f251622b0a766f5db6d0e87da8b57dea83b48d2", 4507.354784218533, _SEQUENTIAL, None),
}

#: seed -> golden of the pcb3038 analog at the default configuration.
PCB3038: Dict[int, Golden] = {
    0: ("efc05ea4ff575c2df22c875c984ee5a7c696eec0", 181802.99156511633,
        (3, 1519, 152, 1640520, 32000, 4294400, 72, 2898720, 10507860, 1212800, 3638400, 9), None),
    1: ("882658ef9daca93e7662331ebea572e8b96e5847", 182785.35803087847,
        (3, 1519, 152, 1640520, 30400, 4264000, 64, 2878200, 10433475, 1152400, 3457200, 8), None),
    2: ("e5954163042ca1f3de9357191022fdaf2de66838", 180954.72176996584,
        (3, 1519, 152, 1640520, 28800, 4243200, 64, 2864160, 10382580, 1091600, 3274800, 8), None),
}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def assert_matches_golden(result, golden: Golden) -> None:
    """``result`` is bit-identical to the recorded solve."""
    tour_sha, length, summary, trace_sha = golden
    assert _sha1(np.asarray(result.tour, dtype=np.int64).tobytes()) == tour_sha
    assert result.length == length  # exact, not approx
    assert result.chip.summary() == dict(zip(SUMMARY_KEYS, summary))
    assert list(result.chip.summary()) == list(SUMMARY_KEYS)
    if trace_sha is None:
        assert result.trace is None
    else:
        assert _sha1(repr(result.trace.samples).encode()) == trace_sha


@pytest.fixture(scope="module")
def clustered80():
    return random_clustered(80, n_clusters=4, seed=2024)


@pytest.mark.parametrize("name, seed", sorted(CLUSTERED80))
def test_clustered80_serial_solve_matches_golden(clustered80, name, seed):
    result = ClusteredCIMAnnealer(replace(CONFIGS[name], seed=seed)).solve(
        clustered80
    )
    assert_matches_golden(result, CLUSTERED80[(name, seed)])


@pytest.mark.parametrize("seed", sorted(PCB3038))
def test_pcb3038_serial_solve_matches_golden(seed):
    instance = make_paper_instance("pcb3038", seed=2024)
    result = ClusteredCIMAnnealer(AnnealerConfig(seed=seed)).solve(instance)
    assert_matches_golden(result, PCB3038[seed])
