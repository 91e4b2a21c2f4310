"""The benchmark's workloads: inputs made from a seed, the timed calls into
the package's public API, and the checks on every output.

Each workload is an endless cycle of passes; a pass is one list of
operations.  An operation's ``run`` is the only code that is timed.
Rendering, checking and cache clearing happen outside the timed region.

Check statuses: ``ok``; ``wrong`` (an output disagrees with its reference);
``indecisive`` (a search reports ``not_found_up_to_K`` although the ring's
finite top degree bounds the nilpotency degree above K); ``not_passed`` (a
planner report with ``passed=false``); ``raised``.  Every status except
``ok`` counts as a failed operation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

SHIPPED_SPECS = ("complex_n2", "milnor_r2", "peterson_r1", "rp3_bundle")
LADDER_FIELDS = ("R", "C", "H")
LADDER_RANKS = (3, 5, 9, 17, 33)
TRUNCATIONS = (4, 5, 6, 7, 8)
PLANNER_NS = (3, 5, 7)
PLANNER_SAMPLES = 10_000
# criteria-truncated draws its classes from a fixed panel, not from the
# seed: the cost of one draw varies by about 15% (sd/mean at t = 8), which
# made seeded draws spread total_s by 23% between seeds.
PANEL_SEED = 0
PANEL_SIZE = 2
# Monomials of F2[a:1, b:1, c:2] by degree, for the random classes w_1..w_3.
TRUNCATED_MONOMIALS = {
    1: ("a", "b"),
    2: ("a^2", "a*b", "b^2", "c"),
    3: ("a^3", "a^2*b", "a*b^2", "b^3", "a*c", "b*c"),
}


@dataclass
class Op:
    case: str
    key: str  # operations with equal keys have equal inputs
    run: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object, str], tuple[str, list[str]]]


class Workload:
    name: str
    cases: tuple[str, ...]
    top_case: str

    def passes(self):
        """Yield one list of operations per pass, forever."""
        raise NotImplementedError

    def before_op(self) -> None:
        """Hygiene run outside timing before every timed operation."""


# -- criteria ------------------------------------------------------------------


def result_lines(results) -> str:
    """The criterion lines of ``tcbundles criteria --machine``."""
    out = []
    for r in results:
        if r.found:
            out.append(f"{r.name}.min_k={r.min_k}")
        else:
            out.append(f"{r.name}.min_k=not_found_up_to_{r.min_k.k_max}")
        if r.witness_k is not None:
            out.append(f"{r.name}.witness_k={r.witness_k}")
            out.append(f"{r.name}.witness={r.witness}")
    return "\n".join(out)


def least_vanishing_power(e, limit: int):
    """(k, e^(k-1)) for the least k <= limit with e^k = 0, else (None, e^limit).

    Powers are built one multiplication at a time, independently of the
    search the CLI runs.
    """
    prev, power = None, e.pres.one()
    for k in range(limit + 1):
        if power.is_zero():
            return k, prev
        if k < limit:
            prev, power = power, power * e
    return None, power


class _CriteriaWorkload(Workload):
    def __init__(self) -> None:
        from tcbundles import cli, obstruct

        self.cli = cli
        self.caches = (obstruct.projective_of, obstruct.q_tilde_of,
                       obstruct.grassmann_of, obstruct.feder_of,
                       obstruct.sphere_quotient_ring)

    def before_op(self) -> None:
        # BundleSpec hashes by value: without this a repeated bundle would
        # time a dictionary lookup instead of the ring builds.
        for cache in self.caches:
            cache.cache_clear()
            if cache.cache_info().currsize != 0:
                raise RuntimeError(f"{cache.__name__} is not empty at op start")

    def _op(self, case: str, key: str, spec, check) -> Op:
        return Op(case, key, lambda: self.cli.run_criteria(spec), result_lines, check)


class CriteriaTower(_CriteriaWorkload):
    """The shipped specs plus trivial R, C and H bundles over a point.

    Inputs are fixed; the seed only permutes the order of operations in each
    pass.  References are checked in.
    """

    name = "criteria-tower"
    top_case = "H33"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        self.rng = random.Random(seed)
        self.specs = tower_specs(root)
        self.reference = load_reference()
        if set(self.specs) != set(self.reference):
            raise RuntimeError("reference cases do not match the workload")
        self.cases = tuple(self.specs)

    def _check(self, case: str):
        want = "\n".join(self.reference[case])
        return lambda _result, got: ("ok" if got == want else "wrong", [])

    def passes(self):
        while True:
            order = list(self.cases)
            self.rng.shuffle(order)
            yield [self._op(c, c, self.specs[c], self._check(c)) for c in order]


def tower_specs(root: Path) -> dict:
    """Parsed specs of the criteria-tower cases, by case name."""
    from tcbundles import KField, cli, trivial_bundle

    specs = {f"spec:{name}": cli.parse_spec_file(str(root / "specs" / f"{name}.spec"))
             for name in SHIPPED_SPECS}
    for tag in LADDER_FIELDS:
        for rank in LADDER_RANKS:
            b = trivial_bundle(KField.from_tag(tag), rank)
            specs[f"{tag}{rank}"] = cli.ParsedSpec(
                bundle=b, k_max=None, field=b.field, coeffs=b.base.ring.coeffs)
    return specs


def load_reference() -> dict[str, list[str]]:
    """The checked-in criterion lines per tower case, validated against the
    closed forms for the trivial ladder: proj_pair_f2 = 2n-1 and
    proj_pair_z = symm_proj = 2n, with n = rank - 1."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    for tag in LADDER_FIELDS:
        for rank in LADDER_RANKS:
            lines = cases[f"{tag}{rank}"]
            n = rank - 1
            want = {"proj_pair_f2": 2 * n - 1, "symm_proj": 2 * n}
            if tag != "R":
                want["proj_pair_z"] = 2 * n
            for name, k in want.items():
                if f"{name}.min_k={k}" not in lines:
                    raise RuntimeError(f"reference {tag}{rank}: {name} is not {k}")
    return cases


class CriteriaTruncated(_CriteriaWorkload):
    """Rank-3 real bundles over F2[a:1, b:1, c:2] truncated at t = 4..8.

    The classes w_1, w_2, w_3 come from a fixed panel of draws, each w_i a
    random F2 sum of the monomials of its degree with w_3 nonzero.  A pass
    runs the whole t ladder on every draw of the panel; the seed permutes
    the order of operations.  References are computed from the completed
    rings after each operation, outside timing.
    """

    name = "criteria-truncated"
    cases = tuple(f"t{t}" for t in TRUNCATIONS)
    top_case = f"t{TRUNCATIONS[-1]}"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__()
        from tcbundles import Coeffs, KField, PolyRing, Presentation, Strategy, make_bundle

        self.rng = random.Random(seed)
        ring = PolyRing(Coeffs.F2, [("a", 1), ("b", 1), ("c", 2)])
        bases = {t: Presentation(ring, [], Strategy.GROEBNER_F2, t).complete()
                 for t in TRUNCATIONS}
        panel = random.Random(PANEL_SEED)
        self.ops = []
        for d in range(PANEL_SIZE):
            classes = draw_classes(panel)
            for t, base in bases.items():
                b = make_bundle(KField.R, 3, base, classes)
                spec = self.cli.ParsedSpec(bundle=b, k_max=None, field=KField.R,
                                           coeffs=Coeffs.F2)
                self.ops.append(self._op(f"t{t}", f"t{t}/draw{d}", spec,
                                         self._checker(spec, classes)))

    def passes(self):
        while True:
            order = list(self.ops)
            self.rng.shuffle(order)
            yield order

    def _checker(self, spec, classes):
        draw = " ".join(f"w{i}={classes.get(i, '0')}" for i in (1, 2, 3))

        def check(results, _got: str) -> tuple[str, list[str]]:
            status, notes = check_against_rings(spec.bundle, results)
            return status, [draw] + notes

        return check


def check_against_rings(b, results) -> tuple[str, list[str]]:
    """Compare each verdict and witness to powers computed in the rings
    the operation left in the caches."""
    from tcbundles import Coeffs, obstruct, render_polynomial

    classes = {
        "sphere_divisibility": lambda: obstruct.sphere_quotient_ring(b).element(b.w(b.n).poly),
        "symm_sphere": lambda: obstruct.projective_of(b)[1],
        "proj_pair_f2": lambda: obstruct.q_tilde_of(b, Coeffs.F2)[1],
        "symm_proj": lambda: obstruct.feder_of(b)[2],
    }
    if [r.name for r in results] != list(classes):
        return "wrong", ["unexpected criteria " + ",".join(r.name for r in results)]
    status, notes = "ok", []
    for r in results:
        e = classes[r.name]()
        k_max = r.min_k if r.found else r.min_k.k_max
        k, power = least_vanishing_power(e, k_max)
        if r.found:
            if k != r.min_k:
                return "wrong", [f"{r.name}: min_k {r.min_k}, reference {k}"]
            want = None if k == 0 else render_polynomial(power.poly)
        else:
            if k is not None:
                return "wrong", [f"{r.name}: not found up to {k_max}, reference {k}"]
            want = render_polynomial(power.poly)
            top = e.pres.top_degree()
            if top is not None and e.degree() > 0:
                bound = top // e.degree() + 1
                if bound <= k_max:
                    return "wrong", [f"{r.name}: nilpotent by {bound} <= {k_max}"]
                true_k, _ = least_vanishing_power(e, bound)
                status = "indecisive"
                notes.append(f"{r.name}: not_found_up_to_{k_max}, true min_k {true_k}"
                             f" (nilpotency bound {bound})")
        if r.witness != want:
            return "wrong", [f"{r.name}: witness differs from reference"]
    return status, notes


def draw_classes(rng: random.Random) -> dict[int, str]:
    """w_i as a random F2 sum of the degree-i monomials, w_3 nonzero; a zero
    class is left out of the mapping."""
    classes = {}
    for i, monomials in TRUNCATED_MONOMIALS.items():
        while True:
            picked = [m for m in monomials if rng.random() < 0.5]
            if picked or i != 3:
                break
        if picked:
            classes[i] = "+".join(picked)
    return classes


# -- planner --------------------------------------------------------------------


class PlannerVerify(Workload):
    """verify_planner(build_sphere_planner(n), 10_000, seed) for n = 3, 5, 7."""

    name = "planner-verify"
    cases = tuple(f"n{n}" for n in PLANNER_NS)
    top_case = f"n{PLANNER_NS[-1]}"

    def __init__(self, seed: int, root: Path) -> None:
        from tcbundles import geomplan

        self.geomplan = geomplan
        self.seed = seed

    def _op(self, n: int) -> Op:
        gp = self.geomplan
        return Op(
            f"n{n}",
            f"n{n}",
            lambda: gp.verify_planner(gp.build_sphere_planner(n), PLANNER_SAMPLES, self.seed),
            lambda report: "\n".join(report.lines()),
            lambda report, _got: ("ok" if report.passed else "not_passed", []),
        )

    def passes(self):
        while True:
            yield [self._op(n) for n in PLANNER_NS]


WORKLOADS = {w.name: w for w in (CriteriaTower, CriteriaTruncated, PlannerVerify)}
