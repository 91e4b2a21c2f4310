"""Byte identity of the ``--machine`` stream on every shipped spec.

The files under ``tests/golden/`` hold the full stdout of ``tcbundles
criteria <spec> --machine`` and ``tcbundles ring <spec> --which W --machine``
for each spec in ``specs/``.  A change to any verdict, witness, bound or
presentation shows up here; a deliberate one regenerates the file and says
so in CHANGES.md.
"""

from pathlib import Path

import pytest

from tcbundles.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = sorted(p.stem for p in (ROOT / "specs").glob("*.spec"))
CASES = [(f"criteria_{s}", ["criteria", s]) for s in SPECS] + [
    (f"ring_{which}_{s}", ["ring", s, "--which", which])
    for s in SPECS
    for which in ("proj", "qtilde", "grassmann", "feder")
]


def test_every_spec_has_golden_files():
    assert len(SPECS) == 4
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_machine_output_is_byte_identical(capsys, name, argv):
    command, spec, *rest = argv
    code = main([command, str(ROOT / "specs" / f"{spec}.spec"), *rest, "--machine"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
