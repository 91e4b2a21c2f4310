"""Euler-class power criteria bounding the complexity of fibrewise motion planning.

Each criterion is a power sequence: the powers e^0, e^1, e^2, ... of a named
Euler class in the appropriate presented cohomology ring, one reduced
multiplication per step.  A nonzero k-th power obstructs motion planners
with k+1 local rules; the criteria therefore report lower-bound information
only.  Wherever the literature supplies a second, independent way to compute
the same verdict (degreewise linear algebra, long division in t, a
module-basis reduction), that route advances in lockstep and the first
mismatch raises :class:`InternalDisagreementError` rather than returning.
:func:`first_vanishing` reads the least vanishing power and its witness off
a power sequence, and :func:`criteria_table` lists the sequence and Euler
class of every criterion that applies to a bundle.  Four per-k tests answer
for one k: :func:`sphere_divisibility_test` runs the divisibility route
alone, and :func:`gysin_equivalence_check`, :func:`symm_sphere_test` and
:func:`symm_proj_test` read the k-th term of a checked sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator, TypeVar

from .bundles import (
    BundleError,
    BundleSpec,
    KField,
    _degree_bound,
    feder_ring,
    grassmann_ring,
    make_bundle,
    projective_ring,
    q_tilde_ring,
    reduce_mod2,
)
from .polyalg import Coeffs
from .ringquot import (
    Element,
    Presentation,
    free_presentation,
)


class InternalDisagreementError(RuntimeError):
    """Two independent computations of one criterion disagreed: a bug, never
    a legitimate verdict."""


@dataclass(frozen=True)
class NotFoundUpTo:
    """Returned when no vanishing power exists up to and including k_max."""

    k_max: int


def default_k_max(b: BundleSpec) -> int:
    """Search bound max(2*(n+1)*d + 2, dim_B // d + 2n), dim_B the base's top
    degree; just the first term when the base has none.

    The Feder ring tops out at dim_B + (2n-1)d and e(alpha) has degree d, so
    e(alpha)^k = 0 by k = dim_B // d + 2n; every other criterion ring has a
    smaller top-degree/degree ratio, so no search stops short of nilpotency.
    """
    bound = 2 * b.rank * b.d + 2
    dim_b = b.base.top_degree()
    if dim_b is None:
        return bound
    return max(bound, dim_b // b.d + 2 * b.rank - 2)


def powers(e: Element) -> Iterator[Element]:
    """The power sequence e^0, e^1, e^2, ..., one reduced multiplication per step."""
    power = e.pres.one()
    while True:
        yield power
        power = power * e


def _lockstep(
    what: str, seq: Iterator[Element], verdicts: Iterator[bool], routes: tuple[str, str]
) -> Iterator[Element]:
    """Pass ``seq`` through, raising at the first k where e^k = 0 disagrees
    with the k-th verdict of the second route."""
    for k, (power, other) in enumerate(zip(seq, verdicts)):
        if power.is_zero() != other:
            raise InternalDisagreementError(
                f"{what} routes disagree at k={k}: "
                f"{routes[0]}={power.is_zero()}, {routes[1]}={other}"
            )
        yield power


def first_vanishing(
    seq: Iterable[Element], k_max: int
) -> tuple[int | NotFoundUpTo, Element | None]:
    """The least k <= k_max with e^k = 0 in a power sequence and the witness
    e^(k-1) (None for k = 0), or NotFoundUpTo(k_max) and the witness e^k_max.

    No term past e^k_max is computed.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    witness = None
    for k, power in enumerate(seq):
        if power.is_zero():
            return k, witness
        if k == k_max:
            return NotFoundUpTo(k_max), power
        witness = power


_T = TypeVar("_T")


def _term(seq: Iterator[_T], k: int) -> _T:
    """The k-th term of a power sequence, after every check up to k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return next(islice(seq, k, None))


# -- cached ring constructions ---------------------------------------------------
#
# The criteria, the per-k tests and the CLI share these constructions; the
# specs are immutable and hashable, so plain memoization is safe.


@lru_cache(maxsize=None)
def projective_of(b: BundleSpec) -> tuple[Presentation, Element, Element]:
    return projective_ring(b)


@lru_cache(maxsize=None)
def q_tilde_of(b: BundleSpec, coeffs: Coeffs | None = None) -> tuple[Presentation, Element]:
    if coeffs is Coeffs.INT and b.base.ring.coeffs is Coeffs.F2:
        raise BundleError("cannot lift an F2 bundle description to Z")
    return q_tilde_ring(reduce_mod2(b) if coeffs is Coeffs.F2 else b)


@lru_cache(maxsize=None)
def grassmann_of(b: BundleSpec) -> tuple[Presentation, Element, Element]:
    return grassmann_ring(b)


@lru_cache(maxsize=None)
def feder_of(b: BundleSpec) -> tuple[Presentation, Element, Element, Element]:
    return feder_ring(b, grassmann_of(b)[0])


def _require_real_f2(b: BundleSpec, what: str) -> None:
    if b.field is not KField.R:  # BundleSpec rejects a real bundle over Z
        raise BundleError(f"{what} applies to real bundles with F2 coefficients")


# -- sphere bundle: divisibility vs. quotient ------------------------------------


def _f2_in_span(columns: list[int], target: int) -> bool:
    """Membership of a target bit-vector in the F2 span of column bit-vectors."""
    pivots: dict[int, int] = {}  # by leading bit

    def reduced(v: int) -> int:
        while pivot := pivots.get(v.bit_length()):
            v ^= pivot
        return v

    for col in columns:
        if v := reduced(col):
            pivots[v.bit_length()] = v
    return not reduced(target)


def sphere_divisibility_test(b: BundleSpec, k: int) -> bool:
    """Is w_n^k divisible by w_(n+1) in the base ring?

    Decided by degreewise F2 linear algebra: the standard monomials of the
    source degree k*n - (n+1) are multiplied by w_(n+1) and the resulting
    vectors are tested for spanning w_n^k in degree k*n.  Divisibility is
    exactly the vanishing of the Euler class power upstairs in the sphere
    bundle, by the exactness of the Gysin sequence.
    """
    _require_real_f2(b, "the sphere divisibility test")
    if k < 0:
        raise ValueError("k must be >= 0")
    return _divisible_by_top_class(b, b.w(b.n) ** k)


def _divisible_by_top_class(b: BundleSpec, target: Element) -> bool:
    base = b.base
    if target.is_zero():
        return True
    wtop = b.w(b.rank)
    if wtop.is_zero():
        return False
    index: dict[int, int] = {}  # a bit per packed monomial of base, numbered on first sight

    def bits(e: Element) -> int:
        return sum(1 << index.setdefault(m, len(index)) for m in e._terms)

    columns = [bits(base.element(base.ring.monomial(m)) * wtop)
               for m in base.standard_monomials(target.degree() - b.rank)]
    return _f2_in_span(columns, bits(target))


@lru_cache(maxsize=None)
def sphere_quotient_ring(b: BundleSpec) -> Presentation:
    """The base ring modulo the ideal (w_(n+1)): the image of the pullback to
    the sphere bundle."""
    wtop = b.w(b.rank)
    if wtop.is_zero():
        return b.base
    return b.base.extend(b.base.ring, [wtop.poly], _degree_bound(b.base))


def sphere_powers(b: BundleSpec) -> Iterator[Element]:
    """Powers of w_n in the sphere quotient ring, each checked against the
    divisibility of w_n^k by w_(n+1) in the base."""
    _require_real_f2(b, "the sphere divisibility test")
    w_n = b.w(b.n)
    divisible = (_divisible_by_top_class(b, p) for p in powers(w_n))
    quotient = powers(sphere_quotient_ring(b).element(w_n.poly))
    return _lockstep("sphere-bundle", quotient, divisible, ("quotient", "divisibility"))


def gysin_equivalence_check(b: BundleSpec, k: int) -> bool:
    """Run the divisibility test and the quotient-ring computation of the same
    vanishing statement up to k; raise on any mismatch, else return the
    shared verdict."""
    return _term(sphere_powers(b), k).is_zero()


# -- symmetrized sphere criterion -------------------------------------------------


def _t_division_powers(b: BundleSpec) -> Iterator[dict[int, Element]]:
    """x_n^k for k = 0, 1, ..., as the nonzero base coefficients of t^j.

    Each step multiplies by x_n = sum_j (-1)^j w_(n-j) t^j once and takes the
    remainder under the monic fibre relation (-1)^(n+1) x_(n+1), written
    t^(n+1) -> -(lower terms).
    """
    n, base = b.n, b.base

    def coefficients(i: int, sign: int) -> dict[int, Element]:
        return {j: b.w(i - j) if sign * (-1) ** j == 1 else -b.w(i - j)
                for j in range(i + 1) if not b.w(i - j).is_zero()}

    x_n = coefficients(n, 1)
    tail = coefficients(n + 1, (-1) ** (n + 1))
    del tail[n + 1]
    power = {0: base.one()}
    while True:
        yield power
        work: dict[int, Element] = {}
        for i, c in power.items():
            for j, x in x_n.items():
                term = c * x
                work[i + j] = work[i + j] + term if i + j in work else term
        while work and max(work) > n:
            top = max(work)
            lead = work.pop(top)
            for j, w in tail.items():
                slot = top - (n + 1) + j
                term = lead * w
                work[slot] = work[slot] - term if slot in work else -term
        power = {j: c for j, c in work.items() if not c.is_zero()}


def symm_sphere_powers(b: BundleSpec) -> Iterator[Element]:
    """Powers of e(zeta) in the projectivization, each checked against x_n^k
    by long division in t over the base."""
    _require_real_f2(b, "the symmetrized sphere test")
    _, e_zeta, _ = projective_of(b)
    by_division = (not p for p in _t_division_powers(b))
    return _lockstep("symmetrized sphere", powers(e_zeta), by_division,
                     ("quotient", "long division"))


def symm_sphere_test(b: BundleSpec, k: int) -> bool:
    """Does e(zeta)^k vanish in the projectivization?

    Computed once in the quotient presentation and once by univariate long
    division by the monic fibre relation with base-reduced coefficients; the
    answers must agree.
    """
    return _term(symm_sphere_powers(b), k).is_zero()


# -- closed forms for low powers ---------------------------------------------------


def euler_power_x_coordinates(b: BundleSpec, power: int) -> list[Element]:
    """Coordinates of e(zeta)^power on the module basis x_0, ..., x_n, as
    elements of the base.

    The projectivization is free over the base on 1, t, ..., t^n, and
    e(zeta)^power = x_n^power has its t-coordinates from the long division
    by the monic fibre relation (:func:`_t_division_powers`).  They are
    converted to the x-basis by back-substitution through the unitriangular
    change of basis x_j = sum_i (-1)^i t^i w_(j-i).
    """
    base = b.base
    t_coords = _term(_t_division_powers(b), power)
    c = [base.zero()] * (b.n + 1)
    for i in range(b.n, -1, -1):
        a = t_coords.get(i, base.zero())
        acc = a if i % 2 == 0 else -a
        for j in range(i + 1, b.n + 1):
            acc = acc - c[j] * b.w(j - i)
        c[i] = acc
    return c


def closed_form_check(n: int) -> bool:
    """Verify the displayed formulas for e(zeta)^2 and e(zeta)^3 with fully
    generic classes: a free F2 base on symbols w1, ..., w(n+1).

      e^2 = w_n x_n + w_(n+1) x_(n-1)
      e^3 = (w_n^2 + w_(n-1) w_(n+1)) x_n + w_n w_(n+1) x_(n-1) + w_(n+1)^2 x_(n-2)
    """
    if not 2 <= n <= 6:
        raise ValueError("closed forms are checked for 2 <= n <= 6")
    gens = [(f"w{i}", i) for i in range(1, n + 2)]
    base = free_presentation(Coeffs.F2, gens)
    b = make_bundle(KField.R, n + 1, base, {i: f"w{i}" for i in range(1, n + 2)})

    sq = euler_power_x_coordinates(b, 2)
    want_sq = [base.zero()] * (n + 1)
    want_sq[n] = b.w(n)
    want_sq[n - 1] = b.w(n + 1)

    cube = euler_power_x_coordinates(b, 3)
    want_cube = [base.zero()] * (n + 1)
    want_cube[n] = b.w(n) * b.w(n) + b.w(n - 1) * b.w(n + 1)
    want_cube[n - 1] = b.w(n) * b.w(n + 1)
    want_cube[n - 2] = b.w(n + 1) * b.w(n + 1)

    return sq == want_sq and cube == want_cube


# -- projective criteria -----------------------------------------------------------


def symm_proj_powers(b: BundleSpec) -> Iterator[Element]:
    """Powers of e(alpha) in the unordered-pairs (Feder) ring, each checked
    against the module-basis reduction: e(alpha)^k = 0 exactly when k >= 1
    and w_d(beta)^(k-1) = Y^(k-1) = 0 in the plane ring."""
    _, _, e_alpha, _ = feder_of(b)
    _, y, _ = grassmann_of(b)
    reduced = chain([False], (p.is_zero() for p in powers(y)))
    return _lockstep("unordered-pairs", powers(e_alpha), reduced,
                     ("direct", "plane-ring reduction"))


def symm_proj_test(b: BundleSpec, k: int) -> bool:
    """Does e(alpha)^k vanish in the unordered-pairs (Feder) ring?

    Also evaluates the module-basis reduction -- e(alpha)^k is nonzero
    exactly when w_d(beta)^(k-1) is nonzero in the plane ring -- and
    raises if the two verdicts differ.
    """
    return _term(symm_proj_powers(b), k).is_zero()


def criteria_table(b: BundleSpec) -> list[tuple[str, Iterator[Element], Element]]:
    """Name, checked power sequence and Euler class of every criterion that
    applies to ``b``, in report order; each class is the one its sequence
    powers, from the same cached ring."""
    table = []
    if b.field is KField.R:
        table += [("sphere_divisibility", sphere_powers(b),
                   sphere_quotient_ring(b).element(b.w(b.n).poly)),
                  ("symm_sphere", symm_sphere_powers(b), projective_of(b)[1])]
    pairs = [("proj_pair_z", Coeffs.INT)] if b.base.ring.coeffs is Coeffs.INT else []
    for name, coeffs in pairs + [("proj_pair_f2", Coeffs.F2)]:
        e = q_tilde_of(b, coeffs)[1]
        table.append((name, powers(e), e))
    table.append(("symm_proj", symm_proj_powers(b), feder_of(b)[2]))
    return table


# -- the integral point-sphere table ------------------------------------------------


@dataclass(frozen=True)
class PointSphereRow:
    """Integral verdicts for the trivial rank n+1 sphere bundle over a point.

    ``values[k]`` is the integer value of e^k in H^(kn) of the n-sphere for
    k = 0, 1, 2 (the group is Z for kn in {0, n} and 0 above), ``minimal_k``
    the first vanishing power and ``witness`` the last nonzero value.
    """

    n: int
    minimal_k: int
    witness: str
    values: tuple[str, str, str]


def point_sphere_table(n: int) -> PointSphereRow:
    """Exact integral computation over a point: the Euler class of the
    complement of the diagonal is (1 + (-1)^n) times the fundamental class,
    and every higher power lands in a vanishing cohomology group."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e1 = 1 + (-1) ** n
    values = ("1", str(e1), "0")
    if e1 == 0:
        return PointSphereRow(n, 1, "1", values)
    return PointSphereRow(n, 2, str(e1), values)
