"""The CI workflow names the test files and benchmark workloads that exist.

``.github/workflows/tier1.yml`` is read as plain text, so a renamed test file
or workload shows up here instead of on the first hosted run.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
# The test files the py310 job leaves out, since it installs no numpy
NEED_NUMPY = {"test_geomplan.py", "test_bench_tracing.py"}


def py310_test_files():
    job = WORKFLOW[WORKFLOW.index("\n  py310:"):]
    return re.findall(r"tests/(test_\w+\.py)", job)


def test_py310_job_names_only_existing_test_files():
    named = py310_test_files()
    assert named and len(named) == len(set(named))
    assert [name for name in named if not (ROOT / "tests" / name).is_file()] == []


def test_every_test_file_runs_in_py310_unless_it_needs_numpy():
    files = {path.name for path in (ROOT / "tests").glob("test_*.py")}
    assert NEED_NUMPY <= files
    assert files - NEED_NUMPY == set(py310_test_files())


def test_benchmark_smoke_loop_names_exactly_the_declared_workloads():
    (loop,) = re.findall(r"for w in ([^;]*); do", WORKFLOW)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert sorted(loop.split()) == sorted(w["name"] for w in declared)
