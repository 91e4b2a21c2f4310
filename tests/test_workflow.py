"""The CI workflow names the test files and benchmark workloads that exist.

``.github/workflows/tier1.yml`` is read as plain text, so a renamed test file
or workload shows up here instead of on the first hosted run.  The py310 job
runs the whole tests directory but the files that need numpy.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
# The test files the py310 job leaves out, since it installs no numpy
NEED_NUMPY = {"test_geomplan.py", "test_bench_tracing.py"}


def py310_pytest_command():
    job = WORKFLOW[WORKFLOW.index("\n  py310:"):]
    step = job[job.index("PYTHONPATH=src python -m pytest"):]
    return step[:step.index("\n      - ")].split()


def py310_ignored_files():
    return [arg.removeprefix("--ignore=tests/") for arg in py310_pytest_command()
            if arg.startswith("--ignore=")]


def test_py310_job_names_only_existing_test_files():
    assert [name for name in py310_ignored_files() if not (ROOT / "tests" / name).is_file()] == []


def test_every_test_file_runs_in_py310_unless_it_needs_numpy():
    ignored = py310_ignored_files()
    assert len(ignored) == len(set(ignored)) and set(ignored) == NEED_NUMPY


def test_py310_job_runs_the_whole_tests_directory():
    command = py310_pytest_command()
    assert "tests" in command
    assert [arg for arg in command if arg.startswith("tests/")] == []


def test_benchmark_smoke_loop_names_exactly_the_declared_workloads():
    (loop,) = re.findall(r"for w in ([^;]*); do", WORKFLOW)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert sorted(loop.split()) == sorted(w["name"] for w in declared)
