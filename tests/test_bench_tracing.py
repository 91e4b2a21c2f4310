"""The benchmark harness still fits the package.

``bench/tracing.py`` rebinds functions and methods of the package by name,
and ``bench/workloads.py`` builds its inputs through the package's public
API.  Deleting or renaming a name the tracer rebinds, or changing a call the
workloads make, must fail here, not only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_rebinds_every_name_it_lists():
    tracing = bench_module("tracing")

    class Recording(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.listed = []

        def rebind_method(self, name, *args):
            self.listed.append(name)
            super().rebind_method(name, *args)

        def rebind_function(self, name, *args):
            self.listed.append(name)
            super().rebind_function(name, *args)

    from tcbundles import obstruct

    original = obstruct.symm_sphere_test
    tracer = Recording()
    try:
        tracing.instrument(tracer)
        assert obstruct.symm_sphere_test is not original
        assert "obstruct.symm_sphere_test" in tracer.listed
        missing = [name for name in tracer.listed if not tracer.rebind_sites[name]]
        assert not missing
    finally:
        tracer.restore()
    assert obstruct.symm_sphere_test is original


@pytest.mark.parametrize("name", sorted(bench_module("workloads").WORKLOADS))
def test_workload_inputs_build(name):
    # what the harness's set_up does, then each operation of one pass the way
    # the harness runs and checks it, untimed
    workload = bench_module("workloads").WORKLOADS[name](0, ROOT)
    ops = next(workload.passes())
    assert ops and {op.case for op in ops} == set(workload.cases)
    for op in ops:
        workload.before_op()
        result = op.run()
        status, notes = op.check(result, op.render(result))
        assert status == "ok", (op.key, notes)
