"""The F2 verdicts against degreewise row reduction on each ring's raw relations.

Each ring is written out here from explicit sums over the bundle's classes:
the projectivization, the ordered pairs of lines, the planes and the
unordered pairs of lines, all over a base given by raw relations: a
truncated base, or a monic tower whose quotient vanishes above its box corner.
A power e^k vanishes when it lies in the ideal of those relations, decided by
``oracles.f2_ideal_member``, which shares no code with the package's
completion, reduction or packing.  Each ring's basis is checked against the
same ideal: its elements lie in it, it is reduced, and it leaves the
quotient's dimension in every degree.  Over a tower only the plane and
unordered-pairs rings are completed, so only their bases are checked.  The
random bundles are small; the two truncated specs under ``tests/specs/`` run
the same checks at ladder scale.
"""

import random
from operator import le
from pathlib import Path

import pytest

from tcbundles import (
    BundleSpec,
    Coeffs,
    KField,
    Polynomial,
    PolyRing,
    Presentation,
    default_k_max,
)
from tcbundles.cli import parse_spec_file
from tcbundles.obstruct import (
    feder_of,
    first_vanishing,
    grassmann_of,
    powers,
    projective_of,
    q_tilde_of,
    symm_proj_powers,
    symm_sphere_powers,
)

from oracles import (
    f2_ideal_member,
    f2_quotient_dimension,
    monomials_of_degree,
    naive_pow,
    p_closed_form,
)


def random_poly(rng: random.Random, ring: PolyRing, degree: int) -> Polynomial:
    return Polynomial(ring, {m: 1 for m in monomials_of_degree(ring, degree)
                             if rng.random() < 0.6})


def random_bundle(seed: int, tower: bool = False) -> tuple[BundleSpec, list[Polynomial]]:
    """A real bundle of rank 2 or 3 over an F2 base, and the base's raw
    relations: 0-2 random ones under a truncation, or with ``tower`` a monic
    tower that relates every generator x_i by x_i^m plus random terms."""
    rng = random.Random(seed)
    rank = rng.randint(2, 3)
    gens = [(f"x{i + 1}", rng.choice((1, 1, 2))) for i in range(rng.randint(1, 2))]
    ring = PolyRing(Coeffs.F2, gens)
    if tower:
        raw = []
        for i, (name, d) in enumerate(gens):
            m = rng.randint(2, 3)
            # the other terms of degree m*d have x_i below m and no later generator
            tail = {e: 1 for e in monomials_of_degree(ring, m * d)
                    if e[i] < m and not any(e[i + 1:]) and rng.random() < 0.6}
            raw.append(ring.gen(name) ** m + Polynomial(ring, tail))
        base = Presentation(ring, raw)
    else:
        truncation = rng.randint(3, 6)
        degree = rng.randint(2, truncation)  # one degree, so one relation can reduce the other
        raw = [random_poly(rng, ring, degree) for _ in range(rng.randint(0, 2))]
        base = Presentation(ring, raw, truncation=truncation)
    classes = [base.element(random_poly(rng, ring, i)) for i in range(1, rank + 1)]
    return BundleSpec(KField.R, rank, base, classes), raw


class RawRing:
    """The base generators and raw relations with fibre generators adjoined."""

    def __init__(self, b: BundleSpec, raw: list[Polynomial], fibre, truncation: int):
        base = b.base.ring
        self.ring = PolyRing(Coeffs.F2, list(zip(base.names, base.degrees)) + fibre)
        self.truncation = truncation
        pad = (0,) * len(fibre)

        def lift(p: Polynomial) -> Polynomial:
            return Polynomial(self.ring, {e + pad: c for e, c in p.terms.items()})

        self.w = [self.ring.one()] + [lift(c.poly) for c in b.classes] + [self.ring.zero()]
        self.relations = [lift(r) for r in raw]
        if b.base.truncation is not None:
            # every monomial of base degree above the truncation is a multiple
            # of one of degree truncation + 1, ..., truncation + (largest degree)
            above = range(b.base.truncation + 1, b.base.truncation + max(base.degrees) + 1)
            self.relations += [self.ring.monomial(m + pad)
                               for top in above for m in monomials_of_degree(base, top)]

    def vanishes(self, p: Polynomial) -> bool:
        return p.degree() > self.truncation or f2_ideal_member(self.ring, self.relations, p)


def projective(b: BundleSpec, raw: list[Polynomial]) -> tuple[RawRing, Polynomial]:
    n = b.n
    proj = RawRing(b, raw, [("t", 1)], b.base.degree_bound + n)
    t = proj.ring.gen("t")

    def x(i: int) -> Polynomial:  # x_i = sum_j (-t)^(i-j) w_j
        return sum((t ** (i - j) * proj.w[j] for j in range(i + 1)), proj.ring.zero())

    proj.relations.append(x(n + 1))
    return proj, x(n)


def ordered_pairs(b: BundleSpec, raw: list[Polynomial]) -> tuple[RawRing, Polynomial]:
    n = b.n
    qt = RawRing(b, raw, [("S", 1), ("T", 1)], b.base.degree_bound + 2 * n - 1)
    s, t = qt.ring.gen("S"), qt.ring.gen("T")

    def h(i: int) -> Polynomial:  # complete homogeneous h_i(S, T)
        return sum((s ** j * t ** (i - j) for j in range(i + 1)), qt.ring.zero())

    qt.relations.append(sum((s ** (n + 1 - j) * qt.w[j] for j in range(n + 2)), qt.ring.zero()))
    qt.relations.append(sum((h(i) * qt.w[n - i] for i in range(n + 1)), qt.ring.zero()))
    return qt, t + s


def planes(b: BundleSpec, raw: list[Polynomial], extra=()) -> RawRing:
    n = b.n
    plane = RawRing(b, raw, [("Y", 1), ("Z", 2), *extra], b.base.degree_bound + 2 * n + 2)
    ring = plane.ring

    def p_xi(i: int) -> Polynomial:
        return sum((p_closed_form(ring, i - j) * plane.w[j] for j in range(i + 1)), ring.zero())

    plane.relations += [p_xi(n), ring.gen("Z") * p_xi(n - 1) + plane.w[n + 1]]
    return plane


def unordered_pairs(b: BundleSpec, raw: list[Polynomial]) -> tuple[RawRing, Polynomial]:
    feder = planes(b, raw, [("X", 1)])
    y, x = feder.ring.gen("Y"), feder.ring.gen("X")
    feder.relations.append(x ** 2 + x * y)
    return feder, y + x


def check_against_raw_ring(seq, raw: RawRing, e: Polynomial, k_max: int) -> int:
    """The package's least vanishing power and witness of ``seq`` are those
    of e in the raw ring; returns the power."""
    k, witness = first_vanishing(seq, k_max)
    assert isinstance(k, int), k
    for j in range(k):
        assert not raw.vanishes(naive_pow(e, j)), j
    assert raw.vanishes(naive_pow(e, k))
    if k == 0:
        assert witness is None
    else:
        assert witness.pres.ring == raw.ring
        assert raw.vanishes(witness.poly + naive_pow(e, k - 1))
    return k


def check_reduced_basis(pres: Presentation, raw: RawRing) -> None:
    """Every basis element lies in the raw ideal, the basis is reduced (no
    lead divides another lead or a tail term), and its standard monomials
    count the raw quotient in every degree."""
    assert pres.ring == raw.ring
    for m in range(raw.truncation + 1):
        assert pres.dimension(m) == f2_quotient_dimension(raw.ring, raw.relations, m), m
    leads = [r.leading_exponents() for r in pres.relations]
    for r, lead in zip(pres.relations, leads):
        assert f2_ideal_member(raw.ring, raw.relations, r), r
        for m in r.terms:
            assert not any(other != lead and all(map(le, other, m)) for other in leads), r


# Each ring of a bundle: the package's presentation and the raw ring it presents
RINGS = {
    "base": lambda b, raw: (b.base, RawRing(b, raw, [], b.base.degree_bound)),
    "proj": lambda b, raw: (projective_of(b)[0], projective(b, raw)[0]),
    "qtilde": lambda b, raw: (q_tilde_of(b, Coeffs.F2)[0], ordered_pairs(b, raw)[0]),
    "plane": lambda b, raw: (grassmann_of(b)[0], planes(b, raw)),
    "feder": lambda b, raw: (feder_of(b)[0], unordered_pairs(b, raw)[0]),
}


def f2_verdicts(b: BundleSpec, raw: list[Polynomial]) -> list[int]:
    """The symm_sphere, proj_pair_f2 and symm_proj powers, each checked."""
    k_max = default_k_max(b)
    return [check_against_raw_ring(symm_sphere_powers(b), *projective(b, raw), k_max),
            check_against_raw_ring(powers(q_tilde_of(b, Coeffs.F2)[1]),
                                   *ordered_pairs(b, raw), k_max),
            check_against_raw_ring(symm_proj_powers(b), *unordered_pairs(b, raw), k_max)]


@pytest.mark.parametrize("seed", range(20))
def test_f2_verdicts_match_the_raw_relations(seed):
    b, raw = random_bundle(seed)
    f2_verdicts(b, raw)
    for ring in RINGS.values():
        check_reduced_basis(*ring(b, raw))


# A tower base and the rings that stay towers keep their tails unreduced
@pytest.mark.parametrize("seed", range(8))
def test_f2_verdicts_over_a_tower_match_the_raw_relations(seed):
    b, raw = random_bundle(seed, tower=True)
    f2_verdicts(b, raw)
    for which in ("plane", "feder"):
        check_reduced_basis(*RINGS[which](b, raw))


def ladder_bundle(name: str) -> BundleSpec:
    return parse_spec_file(str(Path(__file__).resolve().parent / "specs" / f"{name}.spec")).bundle


# Both ladder bases are pure truncations, so their raw relations are []
@pytest.mark.parametrize("name,ks", [("truncated_r3_t8", [6, 11, 12]),
                                     ("truncated_r4_t12", [6, 15, 16])])
def test_f2_verdicts_match_the_raw_relations_at_ladder_scale(name, ks):
    assert f2_verdicts(ladder_bundle(name), []) == ks


@pytest.mark.parametrize("name,which", [("truncated_r3_t8", which) for which in RINGS] + [
    ("truncated_r4_t12", which) for which in ("proj", "qtilde", "plane")])
def test_ladder_bases_are_the_reduced_bases_of_their_raw_ideals(name, which):
    check_reduced_basis(*RINGS[which](ladder_bundle(name), []))
