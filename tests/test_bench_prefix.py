"""The benchmark's determinism contract, checked in the tier-1 suite.

perfbench/workloads.py turns a seed into a fixed sequence of jobs, and the
digest of the first `prefix_jobs` jobs' artifacts must not change when only
the simulator's speed changes. This test loads that module read-only, runs
each workload's prefix at seed 201 and compares the digests pinned for the
current artifacts.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

PREFIX_DIGESTS = {
    "bn_query": "86129f95c4db2e9f",
    "stereo_anneal": "55ecf194a9f6fa3b",
    "dpmm_cluster": "8df320d7b6771348",
    "precision_sweep": "c8f38ff1b4745917",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(PREFIX_DIGESTS))
def test_prefix_digest_at_seed_201(name, workloads, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(201)
    digests = []
    for index in range(workload.prefix_jobs):
        inputs = workload.make_input(ctx, index)
        output = workload.run(ctx, inputs)
        assert workload.check(ctx, inputs, output)[1]
        digests.append(workloads.artifact_digest(
            workload.artifacts(ctx, inputs, output, tmp_path)))
    prefix = hashlib.sha256("".join(digests).encode()).hexdigest()[:16]
    assert prefix == PREFIX_DIGESTS[name]
