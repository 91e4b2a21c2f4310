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

The human form of every report, without ``--machine``, is its ``--machine``
lines under a title: the first three lines, joined by ``", "`` with each
``=`` read as a space, after ``<command>: ``, then every later line indented
by two spaces with its first ``=`` written as `` = ``.  That rule, checked on
each ``criteria`` and ``ring`` case above and two planner reports, and the
``--machine`` files pin every byte of the human output, so it has no golden
files of its own.
"""

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


# The three keys that open each command's report, which its human title names
TITLE_KEYS = {"criteria": ["field", "rank", "k_max"], "ring": ["which", "coeffs", "strategy"],
              "planner": ["n", "samples", "seed"]}
RULE_CASES = [(name, [command, str(SPEC_FILES[spec]), *rest]) for name, (command, spec, *rest)
              in CASES] + [(f"planner_n{n}", ["planner", "--n", str(n), "--samples", "2000"])
                           for n in (1, 3)]


@pytest.mark.parametrize("name,argv", RULE_CASES, ids=[name for name, _ in RULE_CASES])
def test_human_output_is_the_machine_lines_under_a_title(capsys, name, argv):
    assert main([*argv, "--machine"]) == 0
    machine = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    human = captured.out.splitlines()
    command = argv[0]
    assert [line.partition("=")[0] for line in machine[:3]] == TITLE_KEYS[command]
    title = ", ".join(" ".join(line.split("=", 1)) for line in machine[:3])
    assert human[0] == f"{command}: {title}"
    assert human[1:] == ["  {} = {}".format(*line.split("=", 1)) for line in machine[3:]]
