"""The benchmark's tracer finds every package name it rebinds.

``bench/tracing.py`` rebinds functions and methods of the package by name.
Deleting or renaming one of them must fail here, not only in the traced
benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_rebinds_every_name_it_lists():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))

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
