"""Byte identity of the ``--machine`` stream on every shipped spec.

The files under ``tests/golden/`` hold the full stdout of ``tcbundles
criteria <spec> --machine`` and ``tcbundles ring <spec> --which W --machine``
for each spec in ``specs/`` and in ``tests/specs/``.  The shipped specs all
have untruncated bases; the specs under ``tests/`` have truncated ones, so
their files pin rings completed by truncated Buchberger.  A change to any
verdict, witness, bound or presentation shows up here; a deliberate one
regenerates the file and says so in CHANGES.md.

``planner_n<N>.txt`` holds the stdout of ``tcbundles planner --n N --samples
2000 --seed 0 --machine``.  Its counts, bound and verdict are compared byte
for byte; its float fields, whose last digits depend on numpy's summation
order, within fixed tolerances.

``human/<spec>.txt`` holds, for each spec, the stdout of ``tcbundles
criteria <spec>`` and of ``tcbundles ring <spec> --which W`` for the four
rings, without ``--machine``, each after a ``$ tcbundles ...`` line naming
the command (``human_transcript``).
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tcbundles.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = sorted(p.stem for p in (ROOT / "specs").glob("*.spec"))
SPEC_FILES = {p.stem: p for d in (ROOT / "specs", ROOT / "tests" / "specs")
              for p in d.glob("*.spec")}
RINGS = ("proj", "qtilde", "grassmann", "feder")
CASES = [(f"criteria_{s}", ["criteria", s]) for s in sorted(SPEC_FILES)] + [
    (f"ring_{which}_{s}", ["ring", s, "--which", which])
    for s in sorted(SPEC_FILES)
    for which in RINGS
]
PLANNER_NS = (1, 3, 5, 7)
PLANNER_EXACT = ("n", "samples", "seed", "cover_failures", "continuity_bound", "passed")
PLANNER_ERRORS = ("max_endpoint_error", "max_diagonal_error", "equivariance_error")


def test_every_spec_has_golden_files():
    assert len(SPECS) == 4
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(
        [name for name, _ in CASES] + [f"planner_n{n}" for n in PLANNER_NS]
    )


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_machine_output_is_byte_identical(capsys, name, argv):
    command, spec, *rest = argv
    code = main([command, str(SPEC_FILES[spec]), *rest, "--machine"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_ring_dumps_name_groebner_f2_exactly_when_truncated():
    for path in sorted(GOLDEN.glob("ring_*.txt")):
        lines = path.read_text(encoding="utf-8").splitlines()
        truncated = any(line.startswith("truncation=") for line in lines)
        assert ("strategy=groebner_f2" in lines) == truncated, path.name
        assert ("strategy=monic_tower" in lines) != truncated, path.name


def _fields(text):
    return dict(line.split("=", 1) for line in text.splitlines())


@pytest.mark.parametrize("n", PLANNER_NS)
def test_planner_report_matches_golden(capsys, n):
    code = main(["planner", "--n", str(n), "--samples", "2000", "--seed", "0", "--machine"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    got = _fields(captured.out)
    want = _fields((GOLDEN / f"planner_n{n}.txt").read_text(encoding="utf-8"))
    assert list(got) == list(want)
    for key in PLANNER_EXACT:
        assert got[key] == want[key], key
    assert float(got["continuity_max_step"]) == pytest.approx(
        float(want["continuity_max_step"]), rel=1e-12, abs=0.0)
    for key in PLANNER_ERRORS:
        assert float(got[key]) <= 1e-9, key
        assert abs(float(got[key]) - float(want[key])) <= 1e-10, key


def human_transcript(spec):
    """The human output of ``criteria`` and of each ring dump for one spec."""
    parts = []
    for command, *flags in [["criteria"]] + [["ring", "--which", w] for w in RINGS]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(SPEC_FILES[spec]), *flags])
        assert code == 0 and err.getvalue() == "", (command, flags, err.getvalue())
        parts.append(" ".join(["$ tcbundles", command, f"{spec}.spec", *flags]) + "\n")
        parts.append(out.getvalue())
    return "".join(parts)


@pytest.mark.parametrize("spec", sorted(SPEC_FILES))
def test_human_output_matches_golden(spec):
    want = (GOLDEN / "human" / f"{spec}.txt").read_text(encoding="utf-8")
    assert human_transcript(spec) == want
