"""Command-line frontend.

Three subcommands:

* ``criteria <spec-file>`` runs every applicable vanishing criterion and
  reports minimal vanishing powers with nonzero witnesses;
* ``planner --n N`` builds the two-rule sphere planner and verifies it
  numerically;
* ``ring <spec-file> --which ...`` dumps a presentation's completed relations.

Spec files are line-oriented text: ``key = value`` headers followed by
optional ``[base]``, ``[classes]`` and ``[options]`` sections.  See the
README for the grammar.  Each report is a list of deterministic ``key=value``
lines, printed as they are with ``--machine``.  Without it the first three
lines become a title after the command's name and the rest are indented as
``key = value``.  Exit codes: 0 ok, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Iterator

from .bundles import BundleError, BundleSpec, GeometryError, KField, make_bundle
from .obstruct import (
    InternalDisagreementError,
    NotFoundUpTo,
    criteria_table,
    default_k_max,
    feder_of,
    first_vanishing,
    grassmann_of,
    projective_of,
    q_tilde_of,
)
from .polyalg import (
    Coeffs,
    GradingError,
    ParseError,
    PolyRing,
    render_polynomial,
)
from .ringquot import Element, ModuleBasisError, Presentation, PresentationError

STABLE_RANGE_CAVEAT = (
    "cohomology shadow only: passing a criterion does not certify the stable "
    "condition; stable-range hypothesis dim B < (2k-1)n - 2 not checked"
)


class SpecFileError(Exception):
    """Malformed spec file, with position information."""

    def __init__(self, message: str, path: str, line_no: int | None = None):
        where = f"{path}:{line_no}" if line_no is not None else path
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass
class ParsedSpec:
    bundle: BundleSpec
    k_max: int | None
    field: KField
    coeffs: Coeffs


# Least value of each integer key, checked where it is parsed so that the
# error carries its line.
_INT_MINIMUM = {"rank": 2, "truncation": 1, "kmax": 0}
# The keys each section takes; a [classes] key is w<i>.  A key of another
# section in the header belongs in a section, reported after a kmax or
# truncation value is parsed.
_SECTION_KEYS = {
    "": ("field", "rank", "coeffs"),
    "base": ("generator", "relation", "truncation"),
    "options": ("kmax", "coeffs"),
}
# The words that follow the key on a [base] line, where there is a fixed number
_BASE_USAGE = {"generator": "<name> <degree>", "truncation": "<degree>"}


def _entries(raw_lines: list[str], path: str) -> Iterator[tuple[str, str, str, int]]:
    """Yield (section, key, value, line) for each entry, the header as section "";
    a [base] entry is named by the first word of its line and its value is that line."""
    section = ""
    for line_no, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("base", "classes", "options"):
                raise SpecFileError(f"unknown section [{section}]", path, line_no)
        elif section == "base":
            key = line.split()[0].lower()
            if key not in _SECTION_KEYS["base"]:
                raise SpecFileError(f"unknown base entry {line!r}", path, line_no)
            yield section, key, line, line_no
        elif "=" not in line:
            shape = "w<i> = <expression>" if section == "classes" else "key = value"
            raise SpecFileError(f"expected {shape}", path, line_no)
        else:
            key, _, value = line.partition("=")
            key = key.strip()
            if section == "classes" and not (key.startswith("w") and key[1:].isdecimal()):
                raise SpecFileError(f"class key must look like w3, got {key!r}", path, line_no)
            key = f"w{int(key[1:])}" if section == "classes" else key.lower()
            yield section, key, value.strip(), line_no


def _parse_value(section: str, key: str, value: str, path: str, line_no: int) -> object:
    """Parse the value of one entry; a bad value is an error at its line."""
    if section == "classes":
        return value  # an expression, parsed once the base is built
    if section == "base":
        if key == "relation":
            expr = value[len("relation"):].strip()
            if not expr:
                raise SpecFileError("relation needs an expression", path, line_no)
            return expr
        parts = value.split()
        if len(parts) != len(_BASE_USAGE[key].split()) + 1:
            raise SpecFileError(f"usage: {key} {_BASE_USAGE[key]}", path, line_no)
        if key == "generator":
            try:
                return parts[1], int(parts[2])
            except ValueError as exc:
                raise SpecFileError("generator degree must be an integer", path, line_no) from exc
        value = parts[1]
    if key == "field":
        try:
            return KField.from_tag(value)
        except BundleError as exc:
            raise SpecFileError(str(exc), path, line_no) from exc
    if key in _INT_MINIMUM:
        try:
            number = int(value)
        except ValueError as exc:
            raise SpecFileError(f"{key} must be an integer, got {value!r}", path, line_no) from exc
        if number < _INT_MINIMUM[key]:
            raise SpecFileError(f"{key} must be >= {_INT_MINIMUM[key]}, got {number}",
                                path, line_no)
        return number
    if key == "coeffs":
        if value.lower() in ("f2", "gf2", "mod2"):
            return Coeffs.F2
        if value.lower() in ("z", "int", "integer"):
            return Coeffs.INT
        raise SpecFileError(f"coeffs must be f2 or z, got {value!r}", path, line_no)
    if key in _SECTION_KEYS["base"]:
        return value  # a header generator or relation, which belongs in a section
    raise SpecFileError(f"unknown key {key!r}", path, line_no)


def parse_spec_file(path: str, coeffs_override: Coeffs | None = None) -> ParsedSpec:
    """Read a bundle description from a sectioned line-oriented text file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise SpecFileError(str(exc), path) from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise SpecFileError(f"not UTF-8 text: byte 0x{bad:02x} ({exc.reason})", path) from exc

    values: dict[str, object] = {}  # field, rank, coeffs, truncation, kmax and each w<i>
    lines: dict[str, int] = {}  # the line of each key in values
    generators: list[tuple[str, int, int]] = []  # (name, degree, line)
    relations: list[tuple[str, int]] = []  # (expression, line)
    for section, key, value, line_no in _entries(raw_lines, path):
        # coeffs given by the caller overrides the file, so it may repeat
        overridden = key == "coeffs" and coeffs_override is not None
        if section != "options":  # parsed before the repeat check
            value = _parse_value(section, key, value, path, line_no)
        elif key not in _SECTION_KEYS[section]:
            raise SpecFileError(f"unknown option {key!r}", path, line_no)
        if key in lines and not overridden:
            raise SpecFileError(f"duplicate {key}", path, line_no)
        if section == "" and key not in _SECTION_KEYS[section]:
            raise SpecFileError(f"{key} belongs in a section", path, line_no)
        if section == "options":  # options are parsed after the repeat check
            value = _parse_value(section, key, value, path, line_no)
        if key == "generator":
            generators.append((*value, line_no))
        elif key == "relation":
            relations.append((value, line_no))
        elif not overridden:
            values[key] = value
            lines[key] = line_no

    field, rank, truncation = values.get("field"), values.get("rank"), values.get("truncation")
    if field is None:
        raise SpecFileError("missing 'field = R|C|H'", path)
    if rank is None:
        raise SpecFileError("missing 'rank = <integer>'", path)
    coeffs = coeffs_override or values.get("coeffs") or field.coeffs

    if truncation is not None and coeffs is not Coeffs.F2:
        raise SpecFileError(f"truncation needs coeffs = f2, got {coeffs.value.lower()}",
                            path, lines["truncation"])
    # one generator at a time, so an error carries the line of its generator
    ring = PolyRing(coeffs, [])
    for name, degree, line_no in generators:
        try:
            ring = ring.with_generators([(name, degree)])
        except GradingError as exc:
            raise SpecFileError(str(exc), path, line_no) from exc

    rel_polys = []
    for expr, line_no in relations:
        try:
            rel_polys.append(ring.parse(expr))
        except ParseError as exc:
            raise SpecFileError(f"bad relation: {exc}", path, line_no) from exc
    try:
        base = Presentation(ring, rel_polys, truncation=truncation)
    except PresentationError as exc:
        raise SpecFileError(str(exc), path) from exc

    class_map: dict[int, Element] = {}
    classes = [(int(key[1:]), values[key], lines[key]) for key in values if key.startswith("w")]
    for idx, expr, line_no in classes:  # (index, expression, line)
        if not 1 <= idx <= rank:
            raise SpecFileError(f"class index {idx} outside 1..{rank}", path, line_no)
        try:
            class_map[idx] = base.element(expr)
        except ParseError as exc:
            raise SpecFileError(f"bad class expression: {exc}", path, line_no) from exc
    try:
        bundle = make_bundle(field, rank, base, class_map)
    except BundleError as exc:
        raise SpecFileError(str(exc), path) from exc
    return ParsedSpec(bundle=bundle, k_max=values.get("kmax"), field=field, coeffs=coeffs)


# -- criteria -------------------------------------------------------------------


@dataclass
class CriterionResult:
    name: str
    min_k: int | NotFoundUpTo
    witness: str | None

    @property
    def found(self) -> bool:
        return isinstance(self.min_k, int)

    @property
    def witness_k(self) -> int | None:
        if self.witness is None:
            return None
        return self.min_k - 1 if self.found else self.min_k.k_max


def _search_bound(spec: ParsedSpec, k_max: int | None) -> int:
    """``k_max`` if given, else the spec's kmax, else ``default_k_max``."""
    if k_max is not None:
        return k_max
    return spec.k_max if spec.k_max is not None else default_k_max(spec.bundle)


def run_criteria(spec: ParsedSpec, k_max: int | None = None) -> list[CriterionResult]:
    k_max = _search_bound(spec, k_max)
    results = []
    for name, seq, _ in criteria_table(spec.bundle):
        min_k, witness = first_vanishing(seq, k_max)
        rendered = None if witness is None else render_polynomial(witness.poly)
        results.append(CriterionResult(name, min_k, rendered))
    return results


def _criteria_lines(spec: ParsedSpec, results: list[CriterionResult], k_max: int) -> list[str]:
    out = [f"field={spec.field.tag}", f"rank={spec.bundle.rank}", f"k_max={k_max}"]
    for r in results:
        min_k = r.min_k if r.found else f"not_found_up_to_{r.min_k.k_max}"
        out.append(f"{r.name}.min_k={min_k}")
        if r.witness_k is not None:
            out.append(f"{r.name}.witness_k={r.witness_k}")
            out.append(f"{r.name}.witness={r.witness}")
    if spec.field is KField.R:
        out.append("integral_sphere=not_evaluated_twisted_coefficients")
    out.append(f"caveat={STABLE_RANGE_CAVEAT}")
    return out


# -- presentation dumps ------------------------------------------------------------


# The rings --which names: each one's cached builder and the classes it returns
_RINGS = {
    "proj": (projective_of, ("e_zeta", "e_eta")),
    "qtilde": (q_tilde_of, ("e_alpha_tilde",)),
    "grassmann": (grassmann_of, ("Y", "Z")),
    "feder": (feder_of, ("e_lambda", "e_alpha", "w_d_beta")),
}


def _ring_dump(spec: ParsedSpec, which: str) -> list[str]:
    build, names = _RINGS[which]
    pres, *classes = build(spec.bundle)
    out = [f"which={which}", f"coeffs={pres.ring.coeffs.value.lower()}",
           f"strategy={pres.strategy.value}"]
    if pres.truncation is not None:
        out.append(f"truncation={pres.truncation}")
    for i, (name, deg) in enumerate(pres.ring.generators()):
        out.append(f"generator.{i}={name}:{deg}")
    for i, rel in enumerate(pres.relations):
        out.append(f"relation.{i}={render_polynomial(rel)}")
    for name, el in zip(names, classes):
        out.append(f"class.{name}={render_polynomial(el.poly)}")
    return out


# -- entry point --------------------------------------------------------------------

# The values --coeffs takes and the coefficients each one selects
_COEFFS_FLAG = {"f2": Coeffs.F2, "z": Coeffs.INT}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcbundles",
        description="Vanishing criteria and motion planners for sphere and "
        "projective bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crit = sub.add_parser("criteria", help="run the vanishing criteria from a spec file")
    crit.add_argument("--kmax", type=int, default=None)

    plan = sub.add_parser("planner", help="build and verify the sphere planner")
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--samples", type=int, default=10000)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--machine", action="store_true")

    ring = sub.add_parser("ring", help="dump a completed presentation")
    ring.add_argument("--which", choices=list(_RINGS), required=True)
    for command in (crit, ring):
        command.add_argument("spec")
        command.add_argument("--coeffs", choices=list(_COEFFS_FLAG), default=None)
        command.add_argument("--machine", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    code = 0
    try:
        if args.command == "criteria":
            if args.kmax is not None and args.kmax < 0:
                print(f"error: --kmax must be >= 0, got {args.kmax}", file=sys.stderr)
                return 2
            spec = parse_spec_file(args.spec, _COEFFS_FLAG.get(args.coeffs))
            k_max = _search_bound(spec, args.kmax)
            lines = _criteria_lines(spec, run_criteria(spec, k_max), k_max)
        elif args.command == "planner":
            # geomplan pulls in numpy, which criteria and ring never need
            from .geomplan import build_sphere_planner, verify_planner

            report = verify_planner(build_sphere_planner(args.n), args.samples, args.seed)
            code = 0 if report.passed else 1
            lines = report.lines()
        else:
            spec = parse_spec_file(args.spec, _COEFFS_FLAG.get(args.coeffs))
            lines = _ring_dump(spec, args.which)
    except (SpecFileError, BundleError, PresentationError, GradingError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalDisagreementError, ModuleBasisError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    if not args.machine:
        # the three lines that name the run are the title; the rest read key = value
        title = ", ".join(line.replace("=", " ", 1) for line in lines[:3])
        lines = [f"{args.command}: {title}", *(f"  {line.replace('=', ' = ', 1)}"
                                               for line in lines[3:])]
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
