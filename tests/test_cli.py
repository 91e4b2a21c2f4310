"""End-to-end command line tests: parsing, criteria output, dumps, planner."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tcbundles
from tcbundles import Coeffs, KField, PolyRing, render_polynomial
from tcbundles.cli import main, parse_spec_file, run_criteria
from tcbundles.geomplan import MAX_SAMPLE_COORDINATES
from tcbundles import bundles, obstruct
from tcbundles.obstruct import (feder_of, grassmann_of, projective_of, q_tilde_of,
                                sphere_quotient_ring)
from tcbundles.ringquot import ModuleBasisError, Presentation

MILNOR = "specs/milnor_r2.spec"
COMPLEX = "specs/complex_n2.spec"
PETERSON = "specs/peterson_r1.spec"
RP3 = "specs/rp3_bundle.spec"
ROOT = Path(__file__).resolve().parent.parent
ALL_SPECS = sorted(p for d in ("specs", "tests/specs") for p in (ROOT / d).glob("*.spec"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_map(out):
    pairs = [line.partition("=") for line in out.strip().splitlines()]
    return {key: value for key, _, value in pairs}


# -- criteria on the shipped spec files -----------------------------------------------


def test_criteria_milnor_machine(capsys):
    code, out, err = run_cli(capsys, "criteria", MILNOR, "--machine")
    assert code == 0 and err == ""
    got = machine_map(out)
    assert got["field"] == "R"
    assert got["rank"] == "5"
    assert got["k_max"] == "8"
    assert got["sphere_divisibility.min_k"] == "1"
    assert got["sphere_divisibility.witness"] == "1"
    assert got["symm_sphere.min_k"] == "2"
    assert got["symm_sphere.witness"] == "t^4"
    assert got["proj_pair_f2.min_k"] == "7"
    assert got["proj_pair_f2.witness_k"] == "6"
    assert got["proj_pair_f2.witness"] == "S^3*T^3"
    assert got["symm_proj.min_k"] == "8"
    assert got["integral_sphere"] == "not_evaluated_twisted_coefficients"
    assert got["caveat"].startswith("cohomology shadow only")


def test_milnor_witness_equals_the_symmetric_form():
    spec = parse_spec_file(MILNOR)
    pres, e = q_tilde_of(spec.bundle, Coeffs.F2)
    witness = e ** 6
    assert witness == pres.element("S^3*T^3")
    assert witness == pres.element("T^4*S^2 + T^2*S^4")
    assert (e ** 7).is_zero()


def test_criteria_complex_machine(capsys):
    code, out, err = run_cli(capsys, "criteria", COMPLEX, "--machine")
    assert code == 0 and err == ""
    got = machine_map(out)
    assert got["field"] == "C"
    assert got["k_max"] == "14"  # default max(2*rank*d + 2, dim_B/d + 2*rank - 2), dim_B = 0
    assert got["proj_pair_z.min_k"] == "4"
    assert got["proj_pair_z.witness_k"] == "3"
    assert got["proj_pair_z.witness"] == "6*S^2*T"
    assert got["proj_pair_f2.min_k"] == "3"
    assert got["proj_pair_f2.witness"] == "S*T"
    assert got["symm_proj.min_k"] == "4"
    assert "integral_sphere" not in got
    assert "sphere_divisibility.min_k" not in got


def test_complex_witness_carries_the_binomial_coefficient():
    spec = parse_spec_file(COMPLEX)
    pres, e = q_tilde_of(spec.bundle, Coeffs.INT)
    assert e ** 3 == pres.element("3*S^2*T - 3*S*T^2")
    assert (e ** 4).is_zero()
    assert not (e ** 3).is_zero()


def test_criteria_peterson_machine(capsys):
    code, out, err = run_cli(capsys, "criteria", PETERSON, "--machine")
    assert code == 0 and err == ""
    got = machine_map(out)
    assert got["k_max"] == "6"
    assert got["symm_proj.min_k"] == "4"
    assert got["symm_proj.witness_k"] == "3"
    assert got["symm_proj.witness"] == "Y^2*X"
    assert got["proj_pair_f2.min_k"] == "3"
    assert got["proj_pair_f2.witness"] == "S*T"
    assert got["symm_sphere.witness"] == "t^2"


def test_criteria_rp3_machine(capsys):
    code, out, err = run_cli(capsys, "criteria", RP3, "--machine")
    assert code == 0 and err == ""
    got = machine_map(out)
    assert got["rank"] == "2"
    assert got["sphere_divisibility.min_k"] == "2"
    assert got["sphere_divisibility.witness"] == "x"
    assert got["symm_sphere.min_k"] == "5"
    assert got["symm_sphere.witness"] == "x^3*t"
    assert got["proj_pair_f2.min_k"] == "4"
    assert got["proj_pair_f2.witness"] == "x^3"
    assert got["symm_proj.min_k"] == "5"


def test_criteria_human_output(capsys):
    code, out, err = run_cli(capsys, "criteria", MILNOR)
    assert code == 0 and err == ""
    assert "bundle: field R, rank 5 (n = 4, d = 1), search bound k_max = 8" in out
    assert "proj_pair_f2: nonzero at k=6, witness S^3*T^3; zero at k=7" in out
    assert "integral sphere criteria" in out
    assert "note: cohomology shadow only" in out


def test_criteria_machine_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "criteria", MILNOR, "--machine")
        assert code == 0
        runs.append((out, err))
    assert runs[0] == runs[1]


def test_witnesses_are_canonical_normal_forms():
    """Every reported witness re-parses and re-reduces to the same string."""
    for path in (MILNOR, COMPLEX, PETERSON, RP3):
        spec = parse_spec_file(path)
        presentations = {
            "symm_sphere": projective_of(spec.bundle)[0],
            "proj_pair_f2": q_tilde_of(spec.bundle, Coeffs.F2)[0],
            "symm_proj": feder_of(spec.bundle)[0],
        }
        if spec.field is KField.R:
            presentations["sphere_divisibility"] = sphere_quotient_ring(spec.bundle)
        if spec.bundle.base.ring.coeffs is Coeffs.INT:
            presentations["proj_pair_z"] = q_tilde_of(spec.bundle, Coeffs.INT)[0]
        for result in run_criteria(spec):
            if result.witness is None or result.name not in presentations:
                continue
            pres = presentations[result.name]
            assert render_polynomial(pres.element(result.witness).poly) == result.witness


def test_kmax_flag_limits_the_search(capsys):
    code, out, err = run_cli(capsys, "criteria", MILNOR, "--machine", "--kmax", "5")
    assert code == 0 and err == ""
    got = machine_map(out)
    assert got["k_max"] == "5"
    assert got["proj_pair_f2.min_k"] == "not_found_up_to_5"
    assert got["proj_pair_f2.witness_k"] == "5"
    assert got["proj_pair_f2.witness"] == "S^2*T^3 + S^3*T^2"


def test_negative_kmax_flag_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "criteria", MILNOR, "--kmax", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--kmax" in err


def test_negative_kmax_option_reports_line(tmp_path, capsys):
    path = write_spec(tmp_path, "field = R\nrank = 2\n[options]\nkmax = -3\n")
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 2 and out == ""
    assert f"{path}:4:" in err and "kmax" in err


def test_truncation_below_one_reports_line(tmp_path, capsys):
    path = write_spec(tmp_path, "field = R\nrank = 2\n[base]\ngenerator x 1\ntruncation 0\n")
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:5: ") and "truncation" in err


def test_rank_below_two_reports_line(tmp_path, capsys):
    path = write_spec(tmp_path, "field = R\nrank = 1\n")
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:2: ") and "rank" in err


def test_default_bound_is_decisive_on_a_truncated_base(tmp_path, capsys):
    # base F2[a:1, b:1, c:2] truncated at degree 6: the old bound 2*rank*d + 2
    # = 8 stopped at not_found_up_to_8 for both projective criteria
    path = write_spec(
        tmp_path,
        "field = R\nrank = 3\n[base]\ngenerator a 1\ngenerator b 1\n"
        "generator c 2\ntruncation 6\n[classes]\nw1 = a+b\nw2 = a*b+c\nw3 = a*c\n",
    )
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 0 and err == ""
    got = machine_map(out)
    assert got["k_max"] == "10"
    assert got["sphere_divisibility.min_k"] == "4"
    assert got["symm_sphere.min_k"] == "5"
    assert got["proj_pair_f2.min_k"] == "9"
    assert got["proj_pair_f2.witness_k"] == "8"
    assert got["symm_proj.min_k"] == "10"
    assert got["symm_proj.witness_k"] == "9"


def test_coeffs_flag_overrides_the_ring(capsys):
    code, out, _ = run_cli(capsys, "criteria", COMPLEX, "--machine", "--coeffs", "f2")
    assert code == 0
    got = machine_map(out)
    assert "proj_pair_z.min_k" not in got
    assert got["proj_pair_f2.min_k"] == "3"

    code, out, _ = run_cli(capsys, "criteria", COMPLEX, "--machine", "--coeffs", "z")
    assert code == 0
    got = machine_map(out)
    assert got["proj_pair_z.min_k"] == "4"
    assert got["proj_pair_f2.min_k"] == "3"


# -- spec file errors ------------------------------------------------------------------


def write_spec(tmp_path, text):
    path = tmp_path / "case.spec"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_bad_relation_reports_file_and_line(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        "field = R\nrank = 2\n\n[base]\ngenerator x 1\nrelation x^^4\n",
    )
    code, out, err = run_cli(capsys, "criteria", path)
    assert code == 2 and out == ""
    assert f"{path}:6:" in err
    assert "bad relation" in err


def test_unknown_section_reports_line(tmp_path, capsys):
    path = write_spec(tmp_path, "field = R\nrank = 2\n[bogus]\n")
    code, _, err = run_cli(capsys, "criteria", path)
    assert code == 2
    assert f"{path}:3:" in err


def test_missing_field_is_an_error(tmp_path, capsys):
    path = write_spec(tmp_path, "rank = 3\n")
    code, _, err = run_cli(capsys, "criteria", path)
    assert code == 2
    assert "field" in err


def test_bad_field_tag_reports_line(tmp_path, capsys):
    path = write_spec(tmp_path, "field = Q\nrank = 3\n")
    code, _, err = run_cli(capsys, "criteria", path)
    assert code == 2
    assert f"{path}:1:" in err


def test_bad_class_key_reports_line(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        "field = R\nrank = 2\n[base]\ngenerator x 1\nrelation x^3\n"
        "[classes]\na1 = x\n",
    )
    code, _, err = run_cli(capsys, "criteria", path)
    assert code == 2
    assert f"{path}:7:" in err
    assert "w3" in err  # the message shows the expected shape


@pytest.mark.parametrize("text,line,key", [
    ("field = R\nfield = C\nrank = 2\n", 2, "field"),
    ("field = R\nrank = 3\nrank = 2\n", 3, "rank"),
    ("field = C\nrank = 2\ncoeffs = z\ncoeffs = f2\n", 4, "coeffs"),
    ("field = C\nrank = 2\ncoeffs = z\n[options]\ncoeffs = f2\n", 5, "coeffs"),
    ("field = R\nrank = 2\n[base]\ngenerator a 1\ntruncation 4\ntruncation 6\n",
     6, "truncation"),
    ("field = R\nrank = 2\n[options]\nkmax = 3\nkmax = 5\n", 5, "kmax"),
    ("field = R\nrank = 2\n[base]\ngenerator a 1\nrelation a^3\n"
     "[classes]\nw1 = a\nw1 = 0\n", 8, "w1"),
    ("field = R\nrank = 2\n[base]\ngenerator a 1\nrelation a^3\n"
     "[classes]\nw2 = a^2\nw02 = 0\n", 8, "w2"),
], ids=["field", "rank", "coeffs", "coeffs_in_options", "truncation", "kmax", "w1", "w02"])
def test_duplicate_key_reports_line(tmp_path, capsys, text, line, key):
    path = write_spec(tmp_path, text)
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 2 and out == ""
    assert err == f"error: {path}:{line}: duplicate {key}\n"


@pytest.mark.parametrize("text,line,message", [
    ("field = R\nrank = 2\n[base]\ngenerator x 1\ngenerator x 2\n", 5,
     "duplicate generator name 'x'"),
    ("field = R\nrank = 2\n[base]\ngenerator 1x 1\n", 4, "invalid generator name '1x'"),
    ("field = R\nrank = 2\n[base]\ngenerator x 1\ngenerator y 0\n", 5,
     "generator 'y' needs a positive integer degree"),
    ("field = C\nrank = 2\n[base]\ngenerator x 2\ngenerator y 3\n", 5,
     "odd-degree generator 'y' is not supported over Z"),
], ids=["duplicate", "invalid_name", "degree_0", "odd_degree_over_z"])
def test_generator_error_reports_line(tmp_path, capsys, text, line, message):
    path = write_spec(tmp_path, text)
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 2 and out == ""
    assert err == f"error: {path}:{line}: {message}\n"


@pytest.mark.parametrize("text,line", [
    ("field = C\nrank = 2\n[base]\ngenerator a 2\ntruncation 6\n", 5),
    ("field = R\nrank = 2\ncoeffs = z\n[base]\ngenerator a 2\ntruncation 6\n", 6),
], ids=["default_coeffs", "coeffs_z"])
def test_truncation_over_z_reports_line(tmp_path, capsys, text, line):
    path = write_spec(tmp_path, text)
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 2 and out == ""
    assert err == f"error: {path}:{line}: truncation needs coeffs = f2, got z\n"


def test_coeffs_flag_lets_the_file_repeat_coeffs(tmp_path, capsys):
    path = write_spec(tmp_path, "field = C\nrank = 2\ncoeffs = z\n[options]\ncoeffs = z\n")
    code, out, err = run_cli(capsys, "criteria", path, "--machine", "--coeffs", "f2")
    assert code == 0 and err == ""
    assert "proj_pair_z.min_k" not in machine_map(out)


def test_class_index_above_rank_reports_line(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        "field = R\nrank = 2\n[base]\ngenerator x 1\nrelation x^3\n"
        "[classes]\nw1 = x\nw7 = x^7\n",
    )
    code, out, err = run_cli(capsys, "criteria", path, "--machine")
    assert code == 2 and out == ""
    assert err == f"error: {path}:8: class index 7 outside 1..2\n"


def test_spec_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    path = tmp_path / "rp3_bundle.spec"
    path.write_bytes(b"\xef\xbb\xbf" + (ROOT / RP3).read_bytes())
    code, out, err = run_cli(capsys, "criteria", str(path), "--machine")
    assert code == 0 and err == ""
    assert out == (ROOT / "tests" / "golden" / "criteria_rp3_bundle.txt").read_text(
        encoding="utf-8")


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "criteria", "specs/no_such_file.spec")
    assert code == 2
    assert "no_such_file" in err


def test_comments_and_blank_lines_are_ignored(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        "# header comment\nfield = R  # trailing\n\nrank = 2\n\n[options]\nkmax = 3\n",
    )
    code, out, _ = run_cli(capsys, "criteria", path, "--machine")
    assert code == 0
    assert machine_map(out)["k_max"] == "3"


def test_inhomogeneous_class_is_rejected(tmp_path, capsys):
    path = write_spec(
        tmp_path,
        "field = R\nrank = 2\n[base]\ngenerator x 1\nrelation x^3\n"
        "[classes]\nw1 = x^2\n",
    )
    code, _, err = run_cli(capsys, "criteria", path)
    assert code == 2
    assert "w_1" in err or "degree" in err


# -- presentation dumps ----------------------------------------------------------------


def test_ring_dump_relations_reparse(capsys):
    code, out, err = run_cli(capsys, "ring", RP3, "--which", "proj", "--machine")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    got = machine_map(out)
    assert got["which"] == "proj"
    gens = [
        line.partition("=")[2] for line in lines if line.startswith("generator.")
    ]
    ring = PolyRing(
        Coeffs.F2 if got["coeffs"] == "f2" else Coeffs.INT,
        [(g.split(":")[0], int(g.split(":")[1])) for g in gens],
    )
    relations = [
        line.partition("=")[2] for line in lines if line.startswith("relation.")
    ]
    assert relations
    for rel in relations:
        parsed = ring.parse(rel)
        assert render_polynomial(parsed) == rel
    assert got["class.e_zeta"] == "t + x"
    assert ring.parse(got["class.e_eta"]) == ring.parse("t")


def test_ring_dump_qtilde_euler_class(capsys):
    code, out, _ = run_cli(capsys, "ring", MILNOR, "--which", "qtilde", "--machine")
    assert code == 0
    got = machine_map(out)
    assert got["class.e_alpha_tilde"] == "T + S"
    assert got["coeffs"] == "f2"


def test_ring_dump_all_kinds_run(capsys):
    for which in ("proj", "qtilde", "grassmann", "feder"):
        code, out, err = run_cli(capsys, "ring", PETERSON, "--which", which, "--machine")
        assert code == 0, (which, err)
        assert machine_map(out)["which"] == which


@pytest.mark.parametrize("path", ALL_SPECS, ids=[p.stem for p in ALL_SPECS])
def test_rings_rebuilt_from_their_relations_are_equal(path):
    bundle = parse_spec_file(str(path)).bundle
    for build in (projective_of, q_tilde_of, grassmann_of, feder_of):
        pres = build(bundle)[0]
        again = Presentation(pres.ring, pres.relations, truncation=pres.truncation)
        assert again == pres and hash(again) == hash(pres), build.__name__


def test_ring_dump_human_mentions_strategy(capsys):
    code, out, _ = run_cli(capsys, "ring", PETERSON, "--which", "feder")
    assert code == 0
    assert "feder presentation over F2" in out
    assert "strategy:" in out
    assert "e_alpha = " in out


@pytest.mark.parametrize("argv", [("ring", PETERSON, "--which", "grassmann"),
                                  ("ring", PETERSON, "--which", "feder"),
                                  ("criteria", PETERSON)],
                         ids=["grassmann", "feder", "criteria"])
def test_failed_freeness_check_is_a_check_failure(monkeypatch, capsys, argv):
    def fail(pres, base, cells, truncation, what):
        raise ModuleBasisError(f"{what} fails freeness at degree 0: 0 != 1")

    # a cached ring would skip the check
    for cached in (projective_of, q_tilde_of, grassmann_of, feder_of, sphere_quotient_ring):
        cached.cache_clear()
    monkeypatch.setattr(bundles, "verify_cell_dimensions", fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("check failure: ") and "fails freeness at degree 0" in err


def test_criteria_completes_the_plane_ring_once(monkeypatch):
    # the unordered-pairs ring extends the cached plane ring
    calls = []
    real = obstruct.grassmann_ring
    monkeypatch.setattr(obstruct, "grassmann_ring", lambda b: calls.append(b) or real(b))
    for cached in (projective_of, q_tilde_of, grassmann_of, feder_of, sphere_quotient_ring):
        cached.cache_clear()
    run_criteria(parse_spec_file(str(ROOT / "tests/specs/truncated_r4_t12.spec")))
    assert len(calls) == 1


# -- planner subcommand ----------------------------------------------------------------


def test_planner_machine_passes_and_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run_cli(
            capsys, "planner", "--n", "3", "--samples", "500", "--seed", "1", "--machine"
        )
        assert code == 0 and err == ""
        runs.append(out)
    assert runs[0] == runs[1]
    got = machine_map(runs[0])
    assert got["passed"] == "true"
    assert got["n"] == "3"
    assert got["samples"] == "500"
    assert got["cover_failures"] == "0"


def test_planner_even_sphere_exits_2(capsys):
    code, out, err = run_cli(capsys, "planner", "--n", "2", "--samples", "10")
    assert code == 2 and out == ""
    assert "section" in err


def test_planner_needs_a_positive_sample_count(capsys):
    for samples in ("0", "-5"):
        code, out, err = run_cli(capsys, "planner", "--n", "3", "--samples", samples,
                                 "--machine")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "samples" in err


def test_planner_needs_a_seed_of_at_least_zero(capsys):
    code, out, err = run_cli(capsys, "planner", "--n", "3", "--samples", "10", "--seed", "-1",
                             "--machine")
    assert code == 2 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_planner_needs_a_positive_sphere_dimension(capsys):
    code, out, err = run_cli(capsys, "planner", "--n", "-1", "--samples", "5", "--machine")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n must be" in err


def test_planner_rejects_sizes_above_the_coordinate_cap(capsys):
    # each case is refused before anything is drawn: 5 x 10^9 sample
    # coordinates, 4 over the cap, and a 10^4 x 10^4 rotation
    just_over = str(MAX_SAMPLE_COORDINATES // 4 + 1)
    for n, samples in (("1000000001", "5"), ("3", just_over), ("9999", "1")):
        code, out, err = run_cli(capsys, "planner", "--n", n, "--samples", samples,
                                 "--machine")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "coordinates" in err


def test_planner_human_output(capsys):
    code, out, _ = run_cli(
        capsys, "planner", "--n", "1", "--samples", "200", "--seed", "3"
    )
    assert code == 0
    assert "sphere planner on S^1" in out
    assert "passed = true" in out


# -- lazy numpy ----------------------------------------------------------------------

LAZY_IMPORT_CHECK = textwrap.dedent("""
    import contextlib, io, sys
    import tcbundles
    from tcbundles import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["criteria", "specs/rp3_bundle.spec"]) == 0
        assert cli.main(["ring", "specs/rp3_bundle.spec", "--which", "feder"]) == 0
    print("numpy" in sys.modules)
    from tcbundles import geomplan
    for name in tcbundles._GEOMPLAN_NAMES:
        assert getattr(tcbundles, name) is getattr(geomplan, name), name
    try:
        tcbundles.no_such_name
    except AttributeError:
        print("ok")
""")


def test_criteria_and_ring_run_without_numpy():
    root = Path(__file__).resolve().parent.parent
    src = str(Path(tcbundles.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LAZY_IMPORT_CHECK], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "ok"]
    assert len(tcbundles._GEOMPLAN_NAMES) == 22
