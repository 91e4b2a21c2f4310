"""Exit code and stderr of the CLI on spec files with one fault each.

``FAULTS`` is a table of spec texts.  Each has one fault (a few add a
second, later fault to show which one is reported first), so together they
reach every ``SpecFileError`` the reader raises, in every section, and the
order in which a line's checks run.  ``tests/golden/spec_errors.json``
holds the exit code and stderr of each case, with the spec's path written
as ``<spec>``; stdout is always empty.  A change to any message, line
number or exit code shows up here; a deliberate one regenerates the entry
with ``run_fault`` and says so in CHANGES.md.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tcbundles.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "spec_errors.json"

HEAD = "field = R\nrank = 2\n"
BASE = HEAD + "[base]\ngenerator x 1\nrelation x^3\n"

# (case id, spec text, bytes or None for a missing file, subcommand and flags)
FAULTS = [
    ("missing_file", None, "criteria"),
    ("not_utf8", HEAD.encode() + b"# \xff\xfe\n", "criteria"),
    # header
    ("header_without_equals", "field = R\nrank 2\n", "criteria"),
    ("header_unknown_key", "field = R\ncolour = red\nrank = 2\n", "criteria"),
    ("header_empty_key", "field = R\n = 2\n", "criteria"),
    ("bad_field_tag", "field = Q\nrank = 3\n", "criteria"),
    ("empty_field_tag", "field =\nrank = 3\n", "criteria"),
    ("rank_not_an_integer", "field = R\nrank = two\n", "criteria"),
    ("rank_below_two", "field = R\nrank = 1\n", "criteria"),
    ("bad_coeffs", "field = C\nrank = 2\ncoeffs = q\n", "criteria"),
    ("kmax_in_header", HEAD + "kmax = 3\n", "criteria"),
    ("kmax_in_header_not_an_integer", HEAD + "kmax = x\n", "criteria"),
    ("kmax_in_header_below_zero", HEAD + "kmax = -1\n", "criteria"),
    ("truncation_in_header", HEAD + "truncation = 5\n", "criteria"),
    ("truncation_in_header_below_one", HEAD + "truncation = 0\n", "criteria"),
    ("relation_in_header", HEAD + "relation = x^2\n", "criteria"),
    ("relation_in_header_long", HEAD + "relation = x^2+x*y+y^2\n", "criteria"),
    ("generator_in_header", HEAD + "generator = x 1\n", "criteria"),
    ("missing_field", "rank = 3\n", "criteria"),
    ("missing_rank", "field = R\n", "criteria"),
    ("missing_rank_after_sections", "field = R\n[options]\nkmax = 3\n", "criteria"),
    ("first_fault_wins", "field = Q\nrank = 1\n", "criteria"),
    ("line_fault_before_missing_field", "rank = 2\n[classes]\na1 = x\n", "criteria"),
    # duplicates and the order of a line's checks
    ("duplicate_field", "field = R\nfield = C\nrank = 2\n", "criteria"),
    ("duplicate_rank", "field = R\nrank = 3\nrank = 2\n", "criteria"),
    ("duplicate_rank_parsed_first", "field = R\nrank = 3\nrank = x\n", "criteria"),
    ("duplicate_coeffs", "field = C\nrank = 2\ncoeffs = z\ncoeffs = f2\n", "criteria"),
    ("duplicate_coeffs_in_options",
     "field = C\nrank = 2\ncoeffs = z\n[options]\ncoeffs = f2\n", "criteria"),
    ("duplicate_truncation", BASE + "truncation 4\ntruncation 6\n", "criteria"),
    ("duplicate_truncation_parsed_first", BASE + "truncation 4\ntruncation x\n", "criteria"),
    ("duplicate_kmax", HEAD + "[options]\nkmax = 3\nkmax = 5\n", "criteria"),
    ("duplicate_kmax_before_parse", HEAD + "[options]\nkmax = 3\nkmax = x\n", "criteria"),
    ("duplicate_coeffs_option_before_parse",
     HEAD + "[options]\ncoeffs = f2\ncoeffs = q\n", "criteria"),
    ("duplicate_class", BASE + "[classes]\nw1 = x\nw1 = 0\n", "criteria"),
    ("duplicate_class_w02", BASE + "[classes]\nw2 = x^2\nw02 = 0\n", "criteria"),
    ("coeffs_repeats_under_flag",
     "field = C\nrank = 2\ncoeffs = z\ncoeffs = z\n[options]\ncoeffs = z\nkmax = -1\n",
     "criteria --coeffs f2"),
    ("bad_coeffs_under_flag", "field = C\nrank = 2\ncoeffs = q\n", "criteria --coeffs f2"),
    ("bad_coeffs_option_under_flag",
     HEAD + "[options]\ncoeffs = q\nkmax = x\n", "criteria --coeffs f2"),
    # sections
    ("unknown_section", HEAD + "[bogus]\n", "criteria"),
    ("section_name_case_and_space", HEAD + "[ Options ]\nseed = 1\n", "criteria"),
    # [base]
    ("generator_usage", HEAD + "[base]\ngenerator x\n", "criteria"),
    ("generator_usage_extra_word", HEAD + "[base]\ngenerator x 1 2\n", "criteria"),
    ("generator_degree_not_an_integer", HEAD + "[base]\ngenerator x one\n", "criteria"),
    ("generator_prefix_word", HEAD + "[base]\ngenerators x 1\nGENERATOR x 2\n", "criteria"),
    ("generator_duplicate_name", HEAD + "[base]\ngenerator x 1\ngenerator x 2\n", "criteria"),
    ("generator_invalid_name", HEAD + "[base]\ngenerator 1x 1\n", "criteria"),
    ("generator_degree_zero", HEAD + "[base]\ngenerator x 1\ngenerator y 0\n", "criteria"),
    ("generator_odd_degree_over_z",
     "field = C\nrank = 2\n[base]\ngenerator x 2\ngenerator y 3\n", "criteria"),
    ("relation_needs_an_expression", HEAD + "[base]\ngenerator x 1\nrelation\n", "criteria"),
    ("relation_only_a_comment",
     HEAD + "[base]\ngenerator x 1\nrelation # x^3\n", "criteria"),
    ("bad_relation", HEAD + "[base]\ngenerator x 1\nrelation x^^4\n", "criteria"),
    ("relation_prefix_word", HEAD + "[base]\ngenerator x 1\nrelationx^^4\n", "criteria"),
    ("relation_unknown_generator", HEAD + "[base]\ngenerator x 1\nrelation y^2\n", "criteria"),
    ("relation_not_monic",
     HEAD + "[base]\ngenerator x 1\ngenerator y 1\nrelation x*y\n", "criteria"),
    ("relation_not_homogeneous", HEAD + "[base]\ngenerator x 1\nrelation x^2+x\n", "criteria"),
    ("truncation_usage", HEAD + "[base]\ngenerator x 1\ntruncation\n", "criteria"),
    ("truncation_usage_two_values", HEAD + "[base]\ngenerator x 1\ntruncation 4 5\n",
     "criteria"),
    ("truncation_not_an_integer", HEAD + "[base]\ngenerator x 1\ntruncation eight\n",
     "criteria"),
    ("truncation_below_one", HEAD + "[base]\ngenerator x 1\ntruncation 0\n", "criteria"),
    ("truncation_over_z", "field = C\nrank = 2\n[base]\ngenerator a 2\ntruncation 6\n",
     "criteria"),
    ("truncation_over_z_by_coeffs",
     HEAD + "coeffs = z\n[base]\ngenerator a 2\ntruncation 6\n", "criteria"),
    ("truncation_over_z_by_flag", HEAD + "[base]\ngenerator a 2\ntruncation 6\n",
     "criteria --coeffs z"),
    ("unknown_base_entry", HEAD + "[base]\ngens x 1\n", "criteria"),
    ("base_entry_with_equals", HEAD + "[base]\ngenerator = x\n", "criteria"),
    # [classes]
    ("class_without_equals", BASE + "[classes]\nw1 x\n", "criteria"),
    ("class_key_shape", BASE + "[classes]\na1 = x\n", "criteria"),
    ("class_key_upper_case", BASE + "[classes]\nW1 = x\n", "criteria"),
    ("class_key_without_index", BASE + "[classes]\nw = x\n", "criteria"),
    ("class_key_trailing_letter", BASE + "[classes]\nw1a = x\n", "criteria"),
    ("class_key_superscript_digit", BASE + "[classes]\nw² = 0\n", "criteria"),
    ("class_index_above_rank", BASE + "[classes]\nw1 = x\nw7 = x^7\n", "criteria"),
    ("class_index_zero", BASE + "[classes]\nw0 = 1\n", "criteria"),
    ("bad_class_expression", BASE + "[classes]\nw1 = x^^2\n", "criteria"),
    ("empty_class_expression", BASE + "[classes]\nw1 =\n", "criteria"),
    ("class_expression_with_equals", BASE + "[classes]\nw1 = x = y\n", "criteria"),
    ("class_wrong_degree", BASE + "[classes]\nw1 = x^2\n", "criteria"),
    ("class_not_homogeneous", BASE + "[classes]\nw1 = x+x^2\n", "criteria"),
    # [options]
    ("option_without_equals", HEAD + "[options]\nkmax 3\n", "criteria"),
    ("unknown_option", HEAD + "[options]\nseed = 3\n", "criteria"),
    ("header_key_as_option", HEAD + "[options]\nfield = C\n", "criteria"),
    ("class_key_as_option", BASE + "[classes]\nw1 = x\n[options]\nw1 = x\n", "criteria"),
    ("kmax_option_not_an_integer", HEAD + "[options]\nkmax = many\n", "criteria"),
    ("kmax_option_below_zero", HEAD + "[options]\nkmax = -3\n", "criteria"),
    ("bad_coeffs_option", HEAD + "[options]\ncoeffs = q\n", "criteria"),
    # flags and the other subcommand
    ("kmax_flag_below_zero", "field = Q\n", "criteria --kmax -1"),
    ("ring_missing_rank", "field = R\n", "ring --which proj"),
    ("ring_bad_relation", HEAD + "[base]\ngenerator x 1\nrelation x^^4\n",
     "ring --which feder"),
    ("ring_unbounded_base", HEAD + "[base]\ngenerator x 1\n", "ring --which grassmann"),
]


def run_fault(directory, text, command):
    """Run the CLI on ``text`` written to ``directory``; return (code, stdout, stderr).

    The spec's path is written as ``<spec>`` in both streams.
    """
    path = Path(directory) / "case.spec"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text, encoding="utf-8")
    subcommand, *flags = command.split()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([subcommand, str(path), *flags])
    return (code, out.getvalue().replace(str(path), "<spec>"),
            err.getvalue().replace(str(path), "<spec>"))


def test_every_fault_has_a_golden_entry():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(case for case, _, _ in FAULTS)


@pytest.mark.parametrize("case,text,command", FAULTS, ids=[case for case, _, _ in FAULTS])
def test_fault_matches_golden(tmp_path, case, text, command):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    code, out, err = run_fault(tmp_path, text, command)
    assert out == ""
    assert (code, err) == (want["code"], want["stderr"])
