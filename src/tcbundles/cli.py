"""Command-line frontend.

Three subcommands:

* ``criteria <spec-file>`` runs every applicable vanishing criterion and
  reports minimal vanishing powers with nonzero witnesses;
* ``planner --n N`` builds the two-rule sphere planner and verifies it
  numerically;
* ``ring <spec-file> --which ...`` dumps a completed presentation.

Spec files are line-oriented text: ``key = value`` headers followed by
optional ``[base]``, ``[classes]`` and ``[options]`` sections.  See the
README for the grammar.  ``--machine`` switches to deterministic key=value
output.  Exit codes: 0 ok, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .bundles import BundleError, BundleSpec, KField, make_bundle
from .geomplan import GeometryError, build_sphere_planner, verify_planner
from .obstruct import (
    InternalDisagreementError,
    NotFoundUpTo,
    default_k_max,
    feder_of,
    first_vanishing,
    grassmann_of,
    powers,
    projective_of,
    q_tilde_of,
    sphere_powers,
    symm_proj_powers,
    symm_sphere_powers,
)
from .polyalg import (
    Coeffs,
    GradingError,
    ParseError,
    PolyRing,
    render_polynomial,
)
from .ringquot import Element, Presentation, PresentationError, Strategy

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


def _parse_header_value(key: str, value: str, path: str, line_no: int) -> object:
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
    raise SpecFileError(f"unknown key {key!r}", path, line_no)


def parse_spec_file(path: str, coeffs_override: Coeffs | None = None) -> ParsedSpec:
    """Read a bundle description from a sectioned line-oriented text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise SpecFileError(str(exc), path) from exc

    field: KField | None = None
    rank: int | None = None
    coeffs: Coeffs | None = coeffs_override
    generators: list[tuple[str, int]] = []
    relations: list[tuple[str, int]] = []  # (expression, line)
    truncation: int | None = None
    classes: list[tuple[int, str, int]] = []  # (index, expression, line)
    k_max: int | None = None
    section = ""

    for line_no, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("base", "classes", "options"):
                raise SpecFileError(f"unknown section [{section}]", path, line_no)
            continue
        if section == "":
            if "=" not in line:
                raise SpecFileError("expected key = value", path, line_no)
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            parsed = _parse_header_value(key, value, path, line_no)
            if key == "field":
                field = parsed
            elif key == "rank":
                rank = parsed
            elif key == "coeffs":
                if coeffs_override is None:
                    coeffs = parsed
            else:
                raise SpecFileError(f"{key} belongs in a section", path, line_no)
        elif section == "base":
            if line.lower().startswith("generator"):
                parts = line.split()
                if len(parts) != 3:
                    raise SpecFileError("usage: generator <name> <degree>", path, line_no)
                try:
                    generators.append((parts[1], int(parts[2])))
                except ValueError as exc:
                    raise SpecFileError("generator degree must be an integer", path, line_no) from exc
            elif line.lower().startswith("relation"):
                expr = line[len("relation"):].strip()
                if not expr:
                    raise SpecFileError("relation needs an expression", path, line_no)
                relations.append((expr, line_no))
            elif line.lower().startswith("truncation"):
                parts = line.split()
                if len(parts) != 2:
                    raise SpecFileError("usage: truncation <degree>", path, line_no)
                truncation = _parse_header_value("truncation", parts[1], path, line_no)
            else:
                raise SpecFileError(f"unknown base entry {line!r}", path, line_no)
        elif section == "classes":
            if "=" not in line:
                raise SpecFileError("expected w<i> = <expression>", path, line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            if not (key.startswith("w") and key[1:].isdigit()):
                raise SpecFileError(f"class key must look like w3, got {key!r}", path, line_no)
            classes.append((int(key[1:]), value.strip(), line_no))
        else:  # options
            if "=" not in line:
                raise SpecFileError("expected key = value", path, line_no)
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if key == "kmax":
                k_max = _parse_header_value("kmax", value, path, line_no)
            elif key == "coeffs":
                if coeffs_override is None:
                    coeffs = _parse_header_value("coeffs", value, path, line_no)
            else:
                raise SpecFileError(f"unknown option {key!r}", path, line_no)

    if field is None:
        raise SpecFileError("missing 'field = R|C|H'", path)
    if rank is None:
        raise SpecFileError("missing 'rank = <integer>'", path)
    if coeffs is None:
        coeffs = Coeffs.F2 if field is KField.R else Coeffs.INT

    try:
        ring = PolyRing(coeffs, generators)
    except (GradingError, ValueError) as exc:
        raise SpecFileError(str(exc), path) from exc

    rel_polys = []
    for expr, line_no in relations:
        try:
            rel_polys.append(ring.parse(expr))
        except ParseError as exc:
            raise SpecFileError(f"bad relation: {exc}", path, line_no) from exc
    strategy = Strategy.GROEBNER_F2 if truncation is not None else Strategy.MONIC_TOWER
    try:
        base = Presentation(ring, rel_polys, strategy, truncation).complete()
    except PresentationError as exc:
        raise SpecFileError(str(exc), path) from exc

    class_map: dict[int, Element] = {}
    for idx, expr, line_no in classes:
        try:
            class_map[idx] = base.element(expr)
        except ParseError as exc:
            raise SpecFileError(f"bad class expression: {exc}", path, line_no) from exc
    try:
        bundle = make_bundle(field, rank, base, class_map)
    except BundleError as exc:
        raise SpecFileError(str(exc), path) from exc
    return ParsedSpec(bundle=bundle, k_max=k_max, field=field, coeffs=coeffs)


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


def run_criteria(spec: ParsedSpec, k_max: int | None = None) -> list[CriterionResult]:
    b = spec.bundle
    if k_max is None:
        k_max = spec.k_max if spec.k_max is not None else default_k_max(b)
    searches = []
    if b.field is KField.R:
        searches += [("sphere_divisibility", sphere_powers(b)),
                     ("symm_sphere", symm_sphere_powers(b))]
    if b.base.ring.coeffs is Coeffs.INT:
        searches.append(("proj_pair_z", powers(q_tilde_of(b, Coeffs.INT)[1])))
    searches += [("proj_pair_f2", powers(q_tilde_of(b, Coeffs.F2)[1])),
                 ("symm_proj", symm_proj_powers(b))]
    results = []
    for name, seq in searches:
        min_k, witness = first_vanishing(seq, k_max)
        rendered = None if witness is None else render_polynomial(witness.poly)
        results.append(CriterionResult(name, min_k, rendered))
    return results


def _criteria_lines(spec: ParsedSpec, results: list[CriterionResult], k_max: int,
                    machine: bool) -> list[str]:
    out = []
    if machine:
        out.append(f"field={spec.field.tag}")
        out.append(f"rank={spec.bundle.rank}")
        out.append(f"k_max={k_max}")
        for r in results:
            if r.found:
                out.append(f"{r.name}.min_k={r.min_k}")
            else:
                out.append(f"{r.name}.min_k=not_found_up_to_{r.min_k.k_max}")
            if r.witness_k is not None:
                out.append(f"{r.name}.witness_k={r.witness_k}")
                out.append(f"{r.name}.witness={r.witness}")
        if spec.field is KField.R:
            out.append("integral_sphere=not_evaluated_twisted_coefficients")
        out.append(f"caveat={STABLE_RANGE_CAVEAT}")
        return out
    out.append(
        f"bundle: field {spec.field.tag}, rank {spec.bundle.rank} "
        f"(n = {spec.bundle.n}, d = {spec.bundle.d}), search bound k_max = {k_max}"
    )
    for r in results:
        if r.found and r.min_k == 0:
            out.append(f"  {r.name}: zero ring, vanishes at k=0")
        elif r.found:
            out.append(
                f"  {r.name}: nonzero at k={r.witness_k}, witness {r.witness}; "
                f"zero at k={r.min_k}"
            )
        else:
            out.append(
                f"  {r.name}: no vanishing up to k={r.min_k.k_max}, "
                f"witness {r.witness}"
            )
    if spec.field is KField.R:
        out.append(
            "  integral sphere criteria over a general base need twisted "
            "coefficients: not evaluated"
        )
    out.append(f"note: {STABLE_RANGE_CAVEAT}")
    return out


# -- presentation dumps ------------------------------------------------------------


def _ring_dump(spec: ParsedSpec, which: str, machine: bool) -> list[str]:
    b = spec.bundle
    named: list[tuple[str, Element]]
    if which == "proj":
        pres, e_zeta, e_eta = projective_of(b)
        named = [("e_zeta", e_zeta), ("e_eta", e_eta)]
    elif which == "qtilde":
        pres, e_at = q_tilde_of(b, None)
        named = [("e_alpha_tilde", e_at)]
    elif which == "grassmann":
        pres, y, z = grassmann_of(b)
        named = [("Y", y), ("Z", z)]
    elif which == "feder":
        pres, e_lambda, e_alpha, w_d_beta = feder_of(b)
        named = [("e_lambda", e_lambda), ("e_alpha", e_alpha), ("w_d_beta", w_d_beta)]
    else:
        raise ValueError(f"unknown ring {which!r}")

    out = []
    if machine:
        out.append(f"which={which}")
        out.append(f"coeffs={'f2' if pres.ring.coeffs is Coeffs.F2 else 'z'}")
        out.append(f"strategy={pres.strategy.value}")
        if pres.truncation is not None:
            out.append(f"truncation={pres.truncation}")
        for i, (name, deg) in enumerate(pres.ring.generators()):
            out.append(f"generator.{i}={name}:{deg}")
        for i, rel in enumerate(pres.relations):
            out.append(f"relation.{i}={render_polynomial(rel)}")
        for name, el in named:
            out.append(f"class.{name}={render_polynomial(el.poly)}")
        return out
    gens = ", ".join(f"{name} (deg {deg})" for name, deg in pres.ring.generators())
    out.append(f"{which} presentation over {'F2' if pres.ring.coeffs is Coeffs.F2 else 'Z'}")
    out.append(f"  generators: {gens}")
    out.append(f"  strategy: {pres.strategy.value}")
    if pres.truncation is not None:
        out.append(f"  truncation: degree > {pres.truncation} is zero")
    for rel in pres.relations:
        out.append(f"  relation: {render_polynomial(rel)}")
    for name, el in named:
        out.append(f"  {name} = {render_polynomial(el.poly)}")
    return out


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcbundles",
        description="Vanishing criteria and motion planners for sphere and "
        "projective bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crit = sub.add_parser("criteria", help="run the vanishing criteria from a spec file")
    crit.add_argument("spec")
    crit.add_argument("--kmax", type=int, default=None)
    crit.add_argument("--coeffs", choices=["f2", "z"], default=None)
    crit.add_argument("--machine", action="store_true")

    plan = sub.add_parser("planner", help="build and verify the sphere planner")
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--samples", type=int, default=10000)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--machine", action="store_true")

    ring = sub.add_parser("ring", help="dump a completed presentation")
    ring.add_argument("spec")
    ring.add_argument(
        "--which", choices=["proj", "qtilde", "grassmann", "feder"], required=True
    )
    ring.add_argument("--coeffs", choices=["f2", "z"], default=None)
    ring.add_argument("--machine", action="store_true")
    return parser


def _coeffs_flag(value: str | None) -> Coeffs | None:
    if value is None:
        return None
    return Coeffs.F2 if value == "f2" else Coeffs.INT


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "criteria":
            if args.kmax is not None and args.kmax < 0:
                print(f"error: --kmax must be >= 0, got {args.kmax}", file=sys.stderr)
                return 2
            spec = parse_spec_file(args.spec, _coeffs_flag(args.coeffs))
            k_max = args.kmax if args.kmax is not None else (
                spec.k_max if spec.k_max is not None else default_k_max(spec.bundle)
            )
            results = run_criteria(spec, k_max)
            for line in _criteria_lines(spec, results, k_max, args.machine):
                print(line)
            return 0
        if args.command == "planner":
            report = verify_planner(build_sphere_planner(args.n), args.samples, args.seed)
            if args.machine:
                for line in report.lines():
                    print(line)
            else:
                print(f"sphere planner on S^{args.n}: 2 rules, "
                      f"{args.samples} samples, seed {args.seed}")
                for line in report.lines()[3:]:
                    print(f"  {line.replace('=', ' = ', 1)}")
            return 0 if report.passed else 1
        if args.command == "ring":
            spec = parse_spec_file(args.spec, _coeffs_flag(args.coeffs))
            for line in _ring_dump(spec, args.which, args.machine):
                print(line)
            return 0
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BundleError, PresentationError, GradingError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalDisagreementError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
