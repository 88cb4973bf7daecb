"""The benchmark's library requests, run in-process at their tiny size.

They read the result attributes and records of every solver, so a
renamed attribute fails here instead of in a benchmark run.  The
perfbench files are imported, never changed.
"""

import importlib.util
import random
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts perfbench/ on sys.path for its imports
    return module


@pytest.mark.parametrize("workload", ["finite-large", "operators-large"])
def test_tiny_library_requests_give_no_wrong_output(workloads, tmp_path, workload):
    spec = workloads.inputs.TINY[workload]
    rng = random.Random(101)
    p = workloads.Pass(str(tmp_path), traced=False)
    workloads.finite_requests(p, spec, rng)
    workloads.operator_requests(p, spec, rng)
    assert p.attempted > 0
    assert p.wrong == []
    assert all(crash["known_defect"] for crash in p.crashes), p.crashes
