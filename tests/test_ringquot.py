"""Presented quotient rings: completion, normal forms, module bases."""

import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcbundles import (
    Coeffs,
    KField,
    ModuleBasisError,
    ParseError,
    Polynomial,
    PolyRing,
    Presentation,
    PresentationError,
    RingMismatchError,
    Strategy,
    free_presentation,
    make_bundle,
    point_presentation,
)
from tcbundles import ringquot
from tcbundles.bundles import _plane_relations, feder_ring, grassmann_ring
from tcbundles.cli import parse_spec_file, run_criteria
from tcbundles.obstruct import (
    feder_of,
    grassmann_of,
    projective_of,
    q_tilde_of,
    sphere_quotient_ring,
)
from tcbundles.ringquot import (
    _guard,
    _pack,
    _unpack,
    _width,
    verify_cell_dimensions,
)

from oracles import f2_ideal_member, f2_quotient_dimension, tower_normal_form
from oracles import monomials_of_degree as _monomials_of_degree
from oracles import standard_monomials as oracle_standard_monomials

ROOT = Path(__file__).resolve().parent.parent


def milnor_ring(n: int) -> Presentation:
    """F2[S,T]/(S^(n+1), T^n + S*T^(n-1) + ... + S^n), a monic tower."""
    ring = PolyRing(Coeffs.F2, [("S", 1), ("T", 1)])
    h = ring.parse(" + ".join(f"S^{i}*T^{n - i}" for i in range(n + 1)))
    s_rel = ring.parse(f"S^{n + 1}")
    return Presentation(ring, [s_rel, h])


def planes_of_r3() -> Presentation:
    """F2[Y,Z]/(Y^2+Z, Z*Y), the planes in R^3, via Buchberger completion."""
    ring = PolyRing(Coeffs.F2, [("Y", 1), ("Z", 2)])
    rels = [ring.parse("Y^2 + Z"), ring.parse("Z*Y")]
    return Presentation(ring, rels, truncation=20)


# -- complete -----------------------------------------------------------------


def test_complete_planes_rank_three():
    pres = planes_of_r3()
    dims = [pres.dimension(m) for m in range(0, 6)]
    assert dims == [1, 1, 1, 0, 0, 0]
    assert sum(dims) == 3  # same total rank as lines in R^3
    assert pres.element("Z") == pres.element("Y^2")
    assert pres.element("Z*Y").is_zero()


def test_complete_tower_returned_unchanged():
    # a tower and a reduced basis are complete: building again from their
    # relations keeps them as they are
    for pres in (milnor_ring(2), planes_of_r3()):
        again = Presentation(pres.ring, pres.relations, truncation=pres.truncation)
        assert again.relations == pres.relations


@pytest.mark.parametrize("truncation", [None, 3])
def test_the_strategy_argument_is_ignored(truncation):
    # the truncation alone chooses how the relations are completed
    tower = milnor_ring(2)
    want = Presentation(tower.ring, tower.relations, truncation=truncation)
    for strategy in (None, *Strategy):
        got = Presentation(tower.ring, tower.relations, strategy, truncation)
        assert got == want and hash(got) == hash(want)
        assert (got.strategy is Strategy.GROEBNER_F2) == (truncation is not None)


def test_complete_single_monic_relation_already_complete():
    ring = PolyRing(Coeffs.F2, [("T", 1)])
    pres = Presentation(ring, [ring.parse("T^3")])
    again = Presentation(ring, [ring.parse("T^3")], truncation=10)
    assert [r.terms for r in pres.relations] == [{(3,): 1}]
    assert pres.standard_monomials(2) == again.standard_monomials(2) == [(2,)]


# -- normal_form --------------------------------------------------------------


def test_normal_form_monic_fibre_relation():
    n = 3
    gens = [(f"w{i}", i) for i in range(1, n + 2)] + [("T", 1)]
    ring = PolyRing(Coeffs.F2, gens)
    relation = ring.parse("T^4 + w1*T^3 + w2*T^2 + w3*T + w4")
    pres = Presentation(ring, [relation])
    got = pres.normal_form(ring.parse("T^4"))
    assert got == ring.parse("w1*T^3 + w2*T^2 + w3*T + w4")


def test_normal_form_zero():
    pres = milnor_ring(2)
    assert pres.normal_form(pres.ring.zero()).is_zero()


def test_normal_form_t4_matches_brute_force():
    pres = milnor_ring(2)
    ring = pres.ring
    t4 = ring.parse("T^4")
    nf = pres.normal_form(t4)
    # the engine's answer differs from T^4 by an ideal member, and is itself
    # reduced to a representative outside the ideal (T^4 is in the ideal here)
    assert f2_ideal_member(ring, list(pres.relations), t4 + nf)
    assert nf.is_zero() == f2_ideal_member(ring, list(pres.relations), t4)


def test_normal_form_idempotent_linear_multiplicative():
    pres = milnor_ring(3)
    ring = pres.ring
    samples = [ring.parse(s) for s in ("T^2", "S*T^3 + S^2", "(T+S)^4", "S^5 + T")]
    for a in samples:
        na = pres.normal_form(a)
        assert pres.normal_form(na) == na
        for b in samples:
            assert pres.normal_form(a + b) == pres.normal_form(
                pres.normal_form(a) + pres.normal_form(b)
            )
            assert pres.normal_form(a * b) == pres.normal_form(
                pres.normal_form(a) * pres.normal_form(b)
            )


# -- is_zero -----------------------------------------------------------------


def test_is_zero_examples():
    pres = milnor_ring(2)
    assert pres.element("S^3").is_zero()
    assert not pres.element(1).is_zero()
    assert not (milnor_ring(4).element("T + S") ** 6).is_zero()


# -- elements -------------------------------------------------------------------


def test_element_arithmetic_and_coercion():
    pres = milnor_ring(2)
    t, s = pres.element("T"), pres.element("S")
    assert t * t == s * t + s * s  # the fibre relation in action
    assert (t + s) ** 2 == t * t + s * s
    assert t - t == pres.zero()
    assert 1 * t == t and t * 1 == t
    assert t + 0 == t
    assert hash(pres.element("T")) == hash(t)


def test_element_pow_matches_repeated_multiplication():
    # square and multiply lands on the same canonical normal form as the
    # product e * e * ... * e, in a monic tower and in a Groebner quotient
    for pres, text in ((milnor_ring(4), "T + S"), (planes_of_r3(), "Y + Z")):
        e = pres.element(text)
        product = pres.one()
        for k in range(10):
            assert e ** k == product
            product = product * e
    with pytest.raises(ValueError):
        milnor_ring(2).element("T") ** -1


def test_element_cross_presentation_mismatch():
    from tcbundles import RingMismatchError

    a = milnor_ring(2).element("T")
    b = milnor_ring(3).element("T")
    with pytest.raises((PresentationError, RingMismatchError)):
        a + b


def cube_ring() -> Presentation:
    """F2[x]/(x^3), built afresh: each call gives an equal, distinct presentation."""
    ring = PolyRing(Coeffs.F2, [("x", 1)])
    return Presentation(ring, [ring.parse("x^3")])


# Every way an operand enters a presentation, applied to x in F2[x]/(x^3)
OPERAND_ENTRIES = {
    "element": lambda e, op: e.pres.element(op),
    "+": lambda e, op: e + op,
    "*": lambda e, op: e * op,
    "==": lambda e, op: e == op,
    "make_bundle": lambda e, op: make_bundle(KField.R, 2, e.pres, {1: op}).w(1),
}
# what each entry gives for an operand equal to x, and for the int 0
OPERAND_RESULTS = {
    "element": ("x", "0"),
    "+": ("0", "x"),
    "*": ("x^2", "0"),
    "==": (True, False),
    "make_bundle": ("x", "0"),
}
# each operand kind, and the error it raises (None: it is taken)
OPERAND_KINDS = {
    "same element": (lambda e: e, None),
    "equal presentation's element": (lambda e: cube_ring().element("x"), None),
    "foreign element": (
        lambda e: Presentation(e.pres.ring, [e.pres.ring.parse("x^4")]).element("x"),
        RingMismatchError),
    "same-ring polynomial": (lambda e: e.pres.ring.gen("x"), None),
    "other-ring polynomial": (
        lambda e: PolyRing(Coeffs.F2, [("x", 1), ("y", 1)]).gen("x"), RingMismatchError),
    "string": (lambda e: "x", None),
    "bad string": (lambda e: "x +", ParseError),
    "int": (lambda e: 0, None),
    "other type": (lambda e: 1.5, TypeError),
}
# the kinds that ``element`` converts but ``==`` does not: they never equal an Element
UNCONVERTED_BY_EQ = {"same-ring polynomial", "string"}


@pytest.mark.parametrize("kind", OPERAND_KINDS)
@pytest.mark.parametrize("entry", OPERAND_ENTRIES)
def test_every_entry_takes_each_operand_kind_by_one_rule(entry, kind):
    e = cube_ring().element("x")
    make, error = OPERAND_KINDS[kind]
    operand = make(e)
    run = OPERAND_ENTRIES[entry]
    if entry == "==" and (error is not None or kind in UNCONVERTED_BY_EQ):
        assert run(e, operand) is False
        assert e != operand
    elif error is not None:
        with pytest.raises(error):
            run(e, operand)
    else:
        got = run(e, operand)
        want = OPERAND_RESULTS[entry][kind == "int"]
        if entry == "==":
            assert got is want
        else:
            assert str(got) == want and got.pres == e.pres
        if entry == "element" and kind.endswith("element"):
            assert got is operand  # an element of an equal presentation is kept


def test_relation_from_another_ring_rejected():
    ring = PolyRing(Coeffs.F2, [("x", 1)])
    other = PolyRing(Coeffs.F2, [("y", 1)])
    with pytest.raises(PresentationError, match="relation lives in a different ring"):
        Presentation(ring, [other.parse("y^2")], truncation=3)


# -- strategy validation ----------------------------------------------------------


def test_tower_rejects_non_monic_relation():
    ring = PolyRing(Coeffs.F2, [("Y", 1), ("Z", 2)])
    with pytest.raises(PresentationError) as exc:
        Presentation(ring, [ring.parse("Y^2 + Z"), ring.parse("Z*Y")])
    assert "GROEBNER_F2" in str(exc.value)


def test_tower_rejects_duplicate_designated_generator():
    ring = PolyRing(Coeffs.F2, [("S", 1), ("T", 1)])
    rels = [ring.parse("T^2"), ring.parse("T^3")]
    with pytest.raises(PresentationError):
        Presentation(ring, rels)


def test_groebner_requires_truncation_and_f2():
    # without a truncation only a monic tower is accepted; with one, only F2
    ring = PolyRing(Coeffs.F2, [("Y", 1), ("Z", 2)])
    with pytest.raises(PresentationError, match="not monic"):
        Presentation(ring, [ring.parse("Z*Y")])
    zring = PolyRing(Coeffs.INT, [("Y", 2), ("Z", 4)])
    for rels in ([zring.parse("Z*Y")], [zring.parse("Y^3")], []):
        with pytest.raises(PresentationError, match="requires F2 coefficients"):
            Presentation(zring, rels, truncation=10)


def test_inhomogeneous_relation_rejected():
    ring = PolyRing(Coeffs.F2, [("T", 1)])
    with pytest.raises(PresentationError):
        Presentation(ring, [ring.parse("T^2 + T")])


def test_truncation_must_be_positive():
    ring = PolyRing(Coeffs.F2, [("T", 1)])
    with pytest.raises(PresentationError):
        Presentation(ring, [], truncation=0)


# -- truncation semantics -----------------------------------------------------------


def test_truncation_kills_high_degrees():
    ring = PolyRing(Coeffs.F2, [("Y", 1)])
    pres = Presentation(ring, [], truncation=3)
    assert not pres.element("Y^3").is_zero()
    assert pres.element("Y^4").is_zero()
    assert pres.standard_monomials(4) == []
    assert pres.top_degree() == 3


def test_dimension_against_brute_force():
    pres = planes_of_r3()
    for m in range(0, 8):
        assert pres.dimension(m) == f2_quotient_dimension(
            pres.ring, [pres.ring.parse("Y^2 + Z"), pres.ring.parse("Z*Y")], m
        )


def test_groebner_is_zero_matches_linear_algebra_on_all_monomials():
    ring = PolyRing(Coeffs.F2, [("Y", 1), ("Z", 2)])
    raw = [ring.parse("Y^2 + Z"), ring.parse("Z*Y")]
    pres = Presentation(ring, raw, truncation=9)
    checked = 0
    for degree in range(0, 10):
        for exps in [(a, b) for a in range(10) for b in range(5)
                     if a + 2 * b == degree]:
            mono = ring.monomial(exps)
            assert pres.element(mono).is_zero() == f2_ideal_member(ring, raw, mono)
            checked += 1
    assert checked == 30


def test_constant_relation_rejected():
    ring = PolyRing(Coeffs.F2, [("T", 1)])
    with pytest.raises(PresentationError):
        Presentation(ring, [ring.one()])


def test_unbounded_presentation_top_degree_none():
    pres = free_presentation(Coeffs.F2, [("w1", 1)])
    assert pres.top_degree() is None


def test_point_presentation_is_one_dimensional():
    pres = point_presentation(Coeffs.F2)
    assert pres.dimension(0) == 1
    assert pres.top_degree() == 0


# -- free module bases ----------------------------------------------------------------


def x4_base() -> Presentation:
    ring = PolyRing(Coeffs.F2, [("x", 1)])
    return Presentation(ring, [ring.parse("x^4")])


def test_cell_dimensions_accept_a_projective_tower():
    # F2[x, t]/(x^4, t^3 + x*t^2) is free over F2[x]/(x^4) on 1, t, t^2
    ring = PolyRing(Coeffs.F2, [("x", 1), ("t", 1)])
    pres = Presentation(ring, [ring.parse("x^4"), ring.parse("t^3 + x*t^2")])
    verify_cell_dimensions(pres, x4_base(), [1, 1, 1], 8, "projective tower")


def test_cell_dimensions_detect_a_missing_fibre_cell():
    ring = PolyRing(Coeffs.F2, [("x", 1), ("t", 1)])
    pres = Presentation(ring, [ring.parse("x^4"), ring.parse("t^3")])
    with pytest.raises(ModuleBasisError):
        verify_cell_dimensions(pres, x4_base(), [1, 1], 6, "tower")  # true basis needs t^2


def test_cell_dimension_check_fails_at_the_first_wrong_degree():
    # F2[a, X]/(X^2) truncated at 4 over the base F2[a] truncated at 2: fibre
    # cells 1 + q agree in degrees 0..2, but a^3 survives in degree 3
    base = Presentation(PolyRing(Coeffs.F2, [("a", 1)]), [], truncation=2)
    ring = PolyRing(Coeffs.F2, [("a", 1), ("X", 1)])
    loose = Presentation(ring, [ring.parse("X^2")], truncation=4)
    with pytest.raises(ModuleBasisError, match="fails freeness at degree 3: 2 != 1"):
        verify_cell_dimensions(loose, base, [1, 1], 4, "toy ring")
    with pytest.raises(ModuleBasisError, match="at degree 2: 2 != 3"):
        verify_cell_dimensions(loose, base, [1, 1, 1], 4, "toy ring")
    tight = Presentation(ring, [ring.parse("X^2"), ring.parse("a^3")], truncation=4)
    verify_cell_dimensions(tight, base, [1, 1], 4, "toy ring")


# -- one reducer: integral towers against the stack oracle ------------------------


def random_integral_tower(rng, skip=0.2):
    """Relations +-g^m + tail over Z, one per designated generator, with the
    tail in earlier generators and lower powers of g; each generator goes
    without a relation with probability ``skip``."""
    ring = PolyRing(Coeffs.INT, [(f"g{i}", rng.choice((2, 4))) for i in range(3)])
    rels = []
    for i in range(ring.ngens):
        if rng.random() < skip:
            continue  # a generator without a relation
        m = rng.randint(1, 3)
        degree = m * ring.degrees[i]
        lead = tuple(m if j == i else 0 for j in range(ring.ngens))
        terms = {lead: rng.choice((1, -1))}
        for exps in _monomials_of_degree(ring, degree):
            if not any(exps[i + 1:]) and exps[i] < m and rng.random() < 0.7:
                terms[exps] = rng.choice((-2, -1, 1, 2))
        rels.append(Polynomial(ring, terms))
    return ring, rels


def random_integral_polynomial(rng, ring):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(ring.ngens))
        terms[exps] = rng.randint(-3, 3)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("seed", range(25))
def test_integral_tower_normal_forms_match_stack_oracle(seed):
    rng = random.Random(seed)
    ring, rels = random_integral_tower(rng)
    pres = Presentation(ring, rels)
    for _ in range(6):
        p = random_integral_polynomial(rng, ring) * random_integral_polynomial(rng, ring)
        assert pres.normal_form(p) == tower_normal_form(rels, p)


# -- bases sorted by lead ---------------------------------------------------------


def out_of_order_tower(coeffs: Coeffs) -> tuple[Presentation, list[Polynomial]]:
    """F2[x:1, y:2]/(x^5, y^2 + x^2*y), or Z[x:2, y:4]/(x^5, y^2 - x^2*y)
    (Z takes even degrees only): the generator order is not the lead order,
    as x^5 lies above y^2."""
    scale = 1 if coeffs is Coeffs.F2 else 2
    ring = PolyRing(coeffs, [("x", scale), ("y", 2 * scale)])
    tail = "+" if coeffs is Coeffs.F2 else "-"
    rels = [ring.parse("x^5"), ring.parse(f"y^2 {tail} x^2*y")]
    return Presentation(ring, rels), rels


def _sorted_basis_cases() -> dict:
    def truncated_base():
        ring = PolyRing(Coeffs.F2, [("a", 1), ("b", 1)])
        return Presentation(ring, [ring.parse("a*b + a^2"), ring.parse("b^3")], truncation=6)

    def extended(base, top):
        ring = base.ring.with_generators([("t", 1)])
        return base.extend(ring, [ring.parse(f"t^2 + {ring.names[0]}*t")], top)

    def feder():
        b = parse_spec_file(str(ROOT / "tests" / "specs" / "truncated_r3_t8.spec")).bundle
        return feder_ring(b, grassmann_ring(b)[0])[0]

    return {
        "tower_f2": lambda: out_of_order_tower(Coeffs.F2)[0],
        "tower_z": lambda: out_of_order_tower(Coeffs.INT)[0],
        "truncated_to_truncated": lambda: extended(truncated_base(), 7),
        "tower_to_truncated": lambda: extended(out_of_order_tower(Coeffs.F2)[0], 8),
        "sphere_quotient_truncated": lambda: sphere_quotient_ring(
            make_bundle(KField.R, 2, truncated_base(), {1: "a", 2: "b^2"})),
        "sphere_quotient_tower": lambda: sphere_quotient_ring(
            make_bundle(KField.R, 2, out_of_order_tower(Coeffs.F2)[0], {2: "y"})),
        "feder": feder,
    }


SORTED_BASIS_CASES = _sorted_basis_cases()


@pytest.mark.parametrize("case", SORTED_BASIS_CASES)
def test_every_basis_is_stored_strictly_increasing_by_lead(case):
    # _reduce stops each divisor scan at the first lead above the term
    pres = SORTED_BASIS_CASES[case]()
    leads = [lead for lead, _ in pres._basis[1]]
    assert len(leads) > 1
    assert all(a < b for a, b in zip(leads, leads[1:]))


@pytest.mark.parametrize("coeffs", [Coeffs.F2, Coeffs.INT])
def test_normal_forms_in_a_tower_out_of_lead_order_match_the_stack_oracle(coeffs):
    # an early exit over the leads in generator order would meet x^5 first
    # and keep y^2 as standard
    pres, rels = out_of_order_tower(coeffs)
    ring = pres.ring
    monomials = [ring.monomial(e) for m in range(pres.degree_bound + 3)
                 for e in _monomials_of_degree(ring, m)]
    for p in monomials:
        assert pres.normal_form(p) == tower_normal_form(rels, p)
    rng = random.Random(0)
    for _ in range(20):
        p = sum((rng.choice((-2, -1, 1, 3)) * rng.choice(monomials) for _ in range(4)),
                ring.zero())
        assert pres.normal_form(p * p) == tower_normal_form(rels, p * p)


def test_normal_forms_after_a_truncated_extension_of_that_tower_match_the_stack_oracle():
    base, rels = out_of_order_tower(Coeffs.F2)
    ring = base.ring.with_generators([("t", 1)])
    lifted = [r.lift(ring) for r in rels]
    top = 9
    pres = base.extend(ring, [], top)
    for m in range(top + 2):
        for e in _monomials_of_degree(ring, m):
            p = ring.monomial(e)
            assert pres.normal_form(p) == tower_normal_form(lifted, p, top)


@pytest.mark.parametrize("coeffs,degree", [(Coeffs.F2, 1)])
def test_truncated_tower_relations_above_the_truncation_change_nothing(coeffs, degree):
    # their exponents overflow the fields of the truncation's width
    ring = PolyRing(coeffs, [("x", degree), ("y", degree)])
    for text in (["y^40"], ["x^9"], ["x^2", "y^17"]):
        rels = [ring.parse(r) for r in text]
        for truncation in range(degree, 9, degree):
            pres = Presentation(ring, rels, truncation=truncation)
            for m in range(truncation + 1):
                for e in _monomials_of_degree(ring, m):
                    p = ring.monomial(e)
                    assert pres.normal_form(p) == tower_normal_form(rels, p, truncation)


# -- Buchberger against sympy ------------------------------------------------------


# Three generators of degree 1 truncated at 3..5 (drawn from the seed), and
# three cases with four generators truncated at 7: sympy needs about 0.5 s
# for each of those, and about 5 s for five generators.
SYMPY_CASES = [(3, None, seed) for seed in range(20)] + [(4, 7, seed) for seed in range(3)]


def sympy_truncated_basis(ring, rels, top):
    """The reduced grlex Groebner basis of ``rels`` plus every monomial of
    degree ``top + 1``, computed by sympy over F2, as the term sets of its
    elements of degree <= ``top``.  Every generator must have degree 1."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(" ".join(ring.names))

    def to_expr(terms):
        return sum(sympy.Mul(*(g ** e for g, e in zip(gens, exps))) for exps in terms)

    above = [to_expr([e]) for e in _monomials_of_degree(ring, top + 1)]
    order = gens[::-1]  # sympy's first generator is the most significant
    basis = sympy.groebner([to_expr(r.terms) for r in rels] + above, *order,
                           order="grlex", modulus=2)
    want = set()
    for g in basis.exprs:
        poly = sympy.Poly(g, *order, modulus=2)
        if poly.total_degree() <= top:
            want.add(frozenset(m[::-1] for m, c in poly.terms() if int(c) % 2))
    return want


@pytest.mark.parametrize(
    "ngens,top,seed", SYMPY_CASES,
    ids=[str(seed) if top is None else f"{ngens}gens_t{top}_{seed}"
         for ngens, top, seed in SYMPY_CASES])
def test_truncated_buchberger_matches_sympy(ngens, top, seed):
    pytest.importorskip("sympy")
    rng = random.Random(seed)
    ring = PolyRing(Coeffs.F2, [(f"x{i}", 1) for i in range(ngens)])
    if top is None:
        top = rng.randint(3, 5)
    rels = []
    for _ in range(rng.randint(2, 4)):
        degree = rng.randint(2, top)
        monos = sorted(_monomials_of_degree(ring, degree))
        rels.append(Polynomial(ring, {e: 1 for e in rng.sample(monos, rng.randint(1, 3))}))
    pres = Presentation(ring, rels, truncation=top)
    assert {frozenset(r.terms) for r in pres.relations} == sympy_truncated_basis(ring, rels, top)


# -- the two completion shortcuts: monomial pairs and redundant leads ----------------


def test_later_lead_divides_an_earlier_one():
    # the lead x*y of the second relation divides the first, x^2*y, which
    # therefore leaves the basis; the pair of the two gives x^3
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 1)])
    rels = [ring.parse("x^2*y"), ring.parse("x^2 + x*y")]
    pres = Presentation(ring, rels, truncation=4)
    assert pres.relations == (ring.parse("x*y + x^2"), ring.parse("x^3"))
    assert {frozenset(r.terms) for r in pres.relations} == sympy_truncated_basis(ring, rels, 4)
    assert pres.element("x^2*y").is_zero() and not pres.element("y^4").is_zero()
    for m in range(5):
        assert pres.dimension(m) == f2_quotient_dimension(ring, rels, m), m


def test_monomial_relations_complete_to_their_minimal_generators():
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 1), ("z", 2)])
    # x^2*y joins first and is then divided by the later x*y; x*y*z is
    # reduced to zero by x*y before it joins; z^4 lies above the truncation
    rels = [ring.parse(m) for m in ("x^2*y", "y*z^2", "x*y", "x*y*z", "x^4", "z^4")]
    pres = Presentation(ring, rels, truncation=6)
    assert pres.relations == tuple(ring.parse(m) for m in ("x*y", "x^4", "y*z^2"))
    leads = [r.leading_exponents() for r in pres.relations]
    assert leads == [(1, 1, 0), (4, 0, 0), (0, 1, 2)]
    for m in range(7):
        assert pres.dimension(m) == f2_quotient_dimension(ring, rels, m), m


@pytest.mark.parametrize("seed", range(10))
def test_random_monomial_relations_complete_to_their_minimal_generators(seed):
    rng = random.Random(seed)
    degrees = [rng.choice((1, 2, 3)) for _ in range(rng.randint(2, 4))]
    ring = PolyRing(Coeffs.F2, [(f"x{i}", d) for i, d in enumerate(degrees)])
    top = rng.randint(4, 8)
    monos = [m for d in range(1, top + 2) for m in _monomials_of_degree(ring, d)]
    picked = rng.sample(monos, min(len(monos), rng.randint(3, 12)))
    pres = Presentation(ring, [ring.monomial(m) for m in picked], truncation=top)
    minimal = {m for m in picked if ring.weighted_degree(m) <= top
               and not any(d != m and all(x <= y for x, y in zip(d, m)) for d in picked)}
    assert {r.leading_exponents() for r in pres.relations} == minimal
    assert all(len(r.terms) == 1 for r in pres.relations)


@pytest.mark.parametrize("seed", range(4))
def test_truncated_base_with_a_fibre_relation_matches_sympy_and_oracles(seed):
    # the raw relations of a projective ring over a truncated base: the
    # monomials above the base truncation in a and b, and a monic fibre
    # relation in t of rank r
    rng = random.Random(seed)
    ring = PolyRing(Coeffs.F2, [("a", 1), ("b", 1), ("t", 1)])
    bound, rank = rng.randint(2, 3), rng.randint(2, 3)
    rels = above_truncation(PolyRing(Coeffs.F2, [("a", 1), ("b", 1)]), ring, bound)
    fibre = ring.monomial((0, 0, rank))
    for i in range(1, rank + 1):
        base_monos = _monomials_of_degree(PolyRing(Coeffs.F2, [("a", 1), ("b", 1)]), i)
        w = {e + (0,): 1 for e in base_monos if rng.random() < 0.5}
        fibre = fibre + Polynomial(ring, w) * ring.monomial((0, 0, rank - i))
    rels.append(fibre)
    top = bound + rank - 1
    pres = Presentation(ring, rels, truncation=top)
    assert {frozenset(r.terms) for r in pres.relations} == sympy_truncated_basis(ring, rels, top)
    for m in range(top + 1):
        assert pres.dimension(m) == f2_quotient_dimension(ring, rels, m), m
    assert all(f2_ideal_member(ring, rels, r) for r in pres.relations)


# -- the completion's work, pinned --------------------------------------------------

# (spec, `_reduce` calls, heap pops) inside `_buchberger` while `run_criteria`
# builds every ring of the spec from cold caches.  The reduced basis is
# unique, so these counts move only when the completion does more or less
# work; a change that moves one updates this table and says why.
COMPLETION_WORK = [
    ("truncated_r3_t8", 15, 87),
    ("truncated_r4_t12", 212, 10_429),
]


@pytest.mark.parametrize("spec,reduces,pops", COMPLETION_WORK,
                         ids=[spec for spec, _, _ in COMPLETION_WORK])
def test_completion_work_is_pinned(monkeypatch, spec, reduces, pops):
    counts = {"reduce": 0, "pop": 0}
    inside = []  # non-empty while _buchberger runs
    buchberger, reduce, heappop = ringquot._buchberger, ringquot._reduce, ringquot.heappop

    def counted(name, f):
        def wrapper(*args):
            counts[name] += bool(inside)
            return f(*args)
        return wrapper

    def spy(*args):
        inside.append(True)
        try:
            return buchberger(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(ringquot, "_buchberger", spy)
    monkeypatch.setattr(ringquot, "_reduce", counted("reduce", reduce))
    monkeypatch.setattr(ringquot, "heappop", counted("pop", heappop))
    for cached in (projective_of, q_tilde_of, grassmann_of, feder_of, sphere_quotient_ring):
        cached.cache_clear()
    run_criteria(parse_spec_file(str(ROOT / "tests" / "specs" / f"{spec}.spec")))
    assert (counts["reduce"], counts["pop"]) == (reduces, pops)


# -- extending a completed presentation ---------------------------------------------


def random_relation(rng: random.Random, ring: PolyRing, degree: int) -> Polynomial:
    return Polynomial(ring, {m: 1 for m in _monomials_of_degree(ring, degree)
                             if rng.random() < 0.5})


def above_truncation(base_ring: PolyRing, ring: PolyRing, bound: int) -> list[Polynomial]:
    """The monomials of ``base_ring``, whose generators lead ``ring``, in
    degrees bound + 1 .. bound + its largest generator degree, in ``ring``:
    they generate the ideal of every base monomial above the bound."""
    pad = (0,) * (ring.ngens - base_ring.ngens)
    return [ring.monomial(m + pad)
            for degree in range(bound + 1, bound + max(base_ring.degrees) + 1)
            for m in _monomials_of_degree(base_ring, degree)]


def reducible_tail_tower() -> Presentation:
    """F2[x, y]/(x^2, y^3 + x^2*y), a tower whose lead x^2 divides the tail
    x^2*y; its box corner is in degree 3.  Its tail enters a truncated
    extension unreduced, and the extension's basis must hold y^3."""
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 1)])
    return Presentation(ring, [ring.parse("x^2"), ring.parse("y^3 + x^2*y")])


# Tower bases and the truncation of their extension: below, at and above the
# box corner of the reducible-tail tower, and the free F2[x]
TOWER_BASES = {f"tail_t{top}": (reducible_tail_tower, top) for top in (3, 4, 6)}
TOWER_BASES["free_t4"] = (lambda: free_presentation(Coeffs.F2, [("x", 1)]), 4)


@pytest.mark.parametrize("case", [*range(12), *TOWER_BASES])
def test_extend_equals_completing_the_raw_relations(case):
    # new relations of any shape, in the new generator or in the base's own:
    # the completion that starts from the base's basis gives the same ring as
    # completing the base's raw relations, a truncated base's monomials above
    # its truncation and the new relations from scratch.  A seed draws a
    # truncated base; a tower's relations alone are its raw ones
    rng = random.Random(case)
    if case in TOWER_BASES:
        make, top = TOWER_BASES[case]
        base = make()
        raw = list(base.relations)
    else:
        base_ring = PolyRing(Coeffs.F2, [("a", 1), ("b", rng.choice((1, 2)))])
        bound = rng.randint(2, 5)
        raw = [random_relation(rng, base_ring, rng.randint(2, bound))
               for _ in range(rng.randint(0, 2))]
        base = Presentation(base_ring, raw, truncation=bound)
    ring = base.ring.with_generators([("t", rng.choice((1, 2)))])
    lifted = [r.lift(ring) for r in raw]
    if base.truncation is not None:
        top = base.truncation + rng.randint(0, 3)
        lifted += above_truncation(base.ring, ring, base.truncation)
    new = [random_relation(rng, ring, rng.randint(1, top)) for _ in range(rng.randint(1, 3))]
    want = Presentation(ring, lifted + new, truncation=top)
    assert base.extend(ring, new, top) == want


def test_a_truncated_extension_of_a_tower_starts_from_its_basis(monkeypatch):
    # F2[x]/(x^4) has its box corner in degree 3, so its packed basis is
    # empty: x^4, the minimal monomial above the corner, enters the plane
    # ring's completion finished, and only the two plane relations are paired
    calls, buchberger = [], ringquot._buchberger

    def spy(known, relations, *layout):
        calls.append((list(known), [dict(r) for r in relations]))
        return buchberger(known, relations, *layout)

    monkeypatch.setattr(ringquot, "_buchberger", spy)
    b = parse_spec_file(str(ROOT / "specs" / "rp3_bundle.spec")).bundle
    pres = grassmann_ring(b)[0]
    [(known, relations)] = calls
    assert known == [(_pack((4, 0, 0), pres._width, pres.ring.degrees), ())]
    assert relations == [pres._packed(r) for r in _plane_relations(b)[1]]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("bound", [3, 7])
def test_extend_packs_the_truncation_monomials_at_the_new_width(bound, seed):
    # a^(bound+1) fills the guard bit of a field at the base's width when
    # bound + 1 is a power of 2: the monomials must be packed, and tested
    # against the base relation's lead, at the new width
    rng = random.Random(seed)
    base_ring = PolyRing(Coeffs.F2, [("a", 1), ("b", 1)])
    raw = [random_relation(rng, base_ring, rng.randint(2, bound))]
    base = Presentation(base_ring, raw, truncation=bound)
    ring = base_ring.with_generators([("t", 1)])
    top = bound + rng.randint(1, 3)
    new = [random_relation(rng, ring, rng.randint(1, top)) for _ in range(rng.randint(1, 2))]
    lifted = [r.lift(ring) for r in raw] + above_truncation(base_ring, ring, bound)
    want = Presentation(ring, lifted + new, truncation=top)
    got = base.extend(ring, new, top)
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("seed", range(4))
def test_extend_below_the_base_truncation_drops_the_basis_above_it(seed):
    rng = random.Random(seed)
    base_ring = PolyRing(Coeffs.F2, [("a", 1), ("b", rng.choice((1, 2)))])
    raw = [random_relation(rng, base_ring, rng.randint(2, 4)) for _ in range(2)]
    base = Presentation(base_ring, raw, truncation=6)
    ring = base_ring.with_generators([("t", 1)])
    top = rng.randint(2, 5)
    new = [random_relation(rng, ring, rng.randint(1, top))]
    want = Presentation(ring, [r.lift(ring) for r in raw] + new, truncation=top)
    got = base.extend(ring, new, top)
    assert got == want and hash(got) == hash(want)


# generators of rings that F2[a:1, b:1] does not lead in order at their
# degrees: neither ``extend`` nor ``lift`` takes them
NOT_LED = pytest.mark.parametrize("gens", [[("b", 1), ("a", 1), ("t", 1)],
                                           [("t", 1), ("a", 1), ("b", 1)],
                                           [("a", 1), ("b", 2), ("t", 1)],
                                           [("a", 1), ("t", 1)]],
                                  ids=["swapped", "behind", "degree", "missing"])


@NOT_LED
@pytest.mark.parametrize("truncation", [None, 3])
def test_extend_requires_the_old_generators_to_lead_at_their_degrees(gens, truncation):
    base_ring = PolyRing(Coeffs.F2, [("a", 1), ("b", 1)])
    base = Presentation(base_ring, [base_ring.parse("a^2"), base_ring.parse("b^3")],
                        truncation=truncation)
    with pytest.raises(PresentationError, match="old generators must lead the new ring"):
        base.extend(PolyRing(Coeffs.F2, gens), [], 4)


@NOT_LED
def test_lift_requires_the_old_generators_to_lead_at_their_degrees(gens):
    base_ring = PolyRing(Coeffs.F2, [("a", 1), ("b", 1)])
    with pytest.raises(RingMismatchError, match="begins with this ring's generators"):
        base_ring.parse("a*b + b^2").lift(PolyRing(Coeffs.F2, gens))


def test_extend_keeps_the_coefficients():
    zring = PolyRing(Coeffs.INT, [("a", 2)])
    base = Presentation(zring, [zring.parse("a^2")])
    with pytest.raises(PresentationError, match="old generators must lead the new ring"):
        base.extend(zring.to_f2().with_generators([("t", 1)]), [], 4)


def test_lift_keeps_the_coefficients():
    zring = PolyRing(Coeffs.INT, [("a", 2)])
    with pytest.raises(RingMismatchError, match="begins with this ring's generators"):
        zring.parse("a^2").lift(zring.to_f2().with_generators([("t", 1)]))


def test_extend_reduces_a_finished_tail_by_a_new_lead():
    # ab + a^2 enters finished; the new lead a^2 divides its tail, which the
    # last pass must reduce away
    ring = PolyRing(Coeffs.F2, [("a", 1), ("b", 1)])
    base = Presentation(ring, [ring.parse("a*b + a^2")], truncation=4)
    want = Presentation(ring, [ring.parse("a*b + a^2"), ring.parse("a^2")], truncation=4)
    assert base.extend(ring, [ring.parse("a^2")], 4) == want
    assert want.relations == (ring.parse("a^2"), ring.parse("a*b"))


def test_truncated_extension_of_a_tower_keeps_its_relations_above_the_box_corner():
    # F2[x]/(x^2) has its box corner in degree 1, so its packed basis leaves
    # x^2 out; x^2 enters the extension as the minimal monomial above the corner
    base_ring = PolyRing(Coeffs.F2, [("x", 1)])
    base = Presentation(base_ring, [base_ring.parse("x^2")])
    ring = base_ring.with_generators([("y", 1)])
    pres = base.extend(ring, [], 3)
    assert pres.relations == (ring.parse("x^2"),)
    assert pres.element("x^2").is_zero()
    assert pres.dimensions(3) == [1, 2, 2, 2]


def test_extend_leaves_out_base_relations_above_the_truncation():
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 2)])
    base = Presentation(ring, [ring.parse("x^2"), ring.parse("y^2")])
    quotient = base.extend(ring, [ring.parse("x*y")], 3)
    assert quotient.relations == (ring.parse("x^2"), ring.parse("x*y"))
    assert quotient.strategy is Strategy.GROEBNER_F2


def test_untruncated_extension_stays_a_tower():
    base = milnor_ring(2)
    ring = base.ring.with_generators([("u", 1)])
    pres = base.extend(ring, [ring.parse("u^2 + S*u")], None)
    assert pres == Presentation(ring, [r.lift(ring) for r in base.relations]
                                + [ring.parse("u^2 + S*u")])
    truncated_milnor = Presentation(base.ring, base.relations, truncation=4)
    for truncated in (planes_of_r3(), truncated_milnor):
        with pytest.raises(PresentationError, match="requires a truncation degree"):
            truncated.extend(truncated.ring, [], None)


# -- mixed-degree completion against the linear-algebra oracles ---------------------


@pytest.mark.parametrize("seed", range(20))
def test_mixed_degree_completion_matches_oracles(seed):
    rng = random.Random(seed)
    degrees = [rng.choice((1, 2, 3)) for _ in range(rng.randint(4, 5))]
    ring = PolyRing(Coeffs.F2, [(f"x{i}", d) for i, d in enumerate(degrees)])
    top = rng.randint(8, 10)
    rels = []
    for _ in range(rng.randint(3, 5)):
        monos = []
        while not monos:
            monos = sorted(_monomials_of_degree(ring, rng.randint(2, 4)))
        picked = rng.sample(monos, min(rng.randint(2, 4), len(monos)))
        rels.append(Polynomial(ring, {e: 1 for e in picked}))
    pres = Presentation(ring, rels, truncation=top)

    for m in range(top + 1):
        assert pres.dimension(m) == f2_quotient_dimension(ring, rels, m), m
    assert all(f2_ideal_member(ring, rels, r) for r in pres.relations)
    leads = [r.leading_exponents() for r in pres.relations]
    assert not any(a != b and all(x <= y for x, y in zip(a, b))
                   for a in leads for b in leads)
    shuffled = rels + [rng.choice(rels)]
    rng.shuffle(shuffled)
    again = Presentation(ring, shuffled, truncation=top)
    assert again.relations == pres.relations


# -- the dimension walk against the enumeration oracle -----------------------------


def rebuilt(pres):
    """``pres`` built again from its own completed relations, which must
    give an equal presentation."""
    again = Presentation(pres.ring, pres.relations, truncation=pres.truncation)
    assert again == pres and hash(again) == hash(pres)
    return again


def check_walk_against_oracle(pres, top, bound):
    """``dimensions``, ``standard_monomials`` and ``top_degree`` of ``pres``
    against brute-force enumeration in degrees up to ``top``; ``bound`` is a
    degree above which every graded piece is zero."""
    want = [oracle_standard_monomials(pres, m) for m in range(top + 1)]
    assert pres.dimensions(top) == [len(w) for w in want]
    assert pres.dimensions(top // 2) == [len(w) for w in want[:top // 2 + 1]]
    for m in range(-1, top + 2):
        assert pres.standard_monomials(m) == oracle_standard_monomials(pres, m), m
        assert pres.dimension(m) == len(oracle_standard_monomials(pres, m)), m
    scan = next((m for m in range(bound, -1, -1) if oracle_standard_monomials(pres, m)), -1)
    assert pres.top_degree() == scan
    # a fresh copy that first walks a short way and then further
    fresh = rebuilt(pres)
    assert fresh.dimensions(1) == [len(w) for w in want[:2]]
    assert fresh.dimensions(top) == [len(w) for w in want]


@pytest.mark.parametrize("seed", range(20))
def test_walk_matches_oracle_on_random_truncated_f2(seed):
    rng = random.Random(seed)
    degrees = [rng.choice((1, 2, 3)) for _ in range(rng.randint(3, 5))]
    ring = PolyRing(Coeffs.F2, [(f"x{i}", d) for i, d in enumerate(degrees)])
    truncation = rng.randint(6, 10)
    rels = []
    for _ in range(rng.randint(2, 5)):
        monos = []
        while not monos:
            monos = _monomials_of_degree(ring, rng.randint(2, 5))
        picked = rng.sample(monos, min(rng.randint(1, 3), len(monos)))
        rels.append(Polynomial(ring, {e: 1 for e in picked}))
    pres = Presentation(ring, rels, truncation=truncation)
    check_walk_against_oracle(pres, truncation + 2, truncation)


@pytest.mark.parametrize("seed", range(10))
def test_walk_matches_oracle_on_random_integral_towers(seed):
    rng = random.Random(seed)
    ring, rels = random_integral_tower(rng, skip=0.0)
    pres = Presentation(ring, rels)
    # every generator has a pure-power lead g^m, so nothing survives above
    # the sum of (m - 1) deg g
    bound = sum(r.degree() - d for r, d in zip(rels, ring.degrees))
    check_walk_against_oracle(pres, bound + 2, bound)


def test_walk_on_the_point_and_the_zero_ring():
    point = point_presentation(Coeffs.INT)
    check_walk_against_oracle(point, 3, 0)
    assert point.dimensions(3) == [1, 0, 0, 0]
    assert point.standard_monomials(0) == [()]
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 2)])
    zero = Presentation(ring, [ring.one()], truncation=4)
    check_walk_against_oracle(zero, 5, 4)
    assert zero.dimensions(4) == [0] * 5 and zero.top_degree() == -1


def test_walk_outside_the_degree_range():
    # F2[x:1, y:2]/(x^3) truncated at 5
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 2)])
    pres = Presentation(ring, [ring.parse("x^3")], truncation=5)
    assert pres.dimensions(-1) == [] and pres.standard_monomials(-1) == []
    assert pres.dimension(-3) == 0
    assert pres.dimensions(8) == [1, 1, 2, 1, 2, 1, 0, 0, 0]
    assert pres.dimensions(2) == [1, 1, 2]
    assert pres.standard_monomials(4) == [(2, 1), (0, 2)]
    assert pres.standard_monomials(6) == [] and pres.dimension(7) == 0


# -- the packed monomial encoding --------------------------------------------------------


@st.composite
def packed_vectors(draw, size: int):
    """A field width, generator degrees and ``size`` exponent vectors of one
    length that the width holds.

    The width is the one for degree 2^k - 1 or for 2^k, so both sides of a
    bit boundary come up, and the entries favour 0, 2^k - 1 and the largest
    exponent that degree allows.
    """
    k = draw(st.integers(0, 45))
    top = draw(st.sampled_from((2**k - 1, 2**k)))
    entry = st.sampled_from((0, 2**k - 1, top)) | st.integers(0, top)
    n = draw(st.integers(1, 5))
    degrees = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    vectors = draw(st.lists(st.tuples(*[entry] * n), min_size=size, max_size=size))
    return _width(top), degrees, vectors


@st.composite
def dividing_pair(draw):
    """A width, degrees and exponent vectors a, b that it holds, with b
    dividing a."""
    width, degrees, (a,) = draw(packed_vectors(1))
    b = tuple(draw(st.integers(0, x)) for x in a)
    return width, degrees, a, b


def _degree(e, degrees) -> int:
    return sum(x * d for x, d in zip(e, degrees))


@given(packed_vectors(1))
def test_pack_roundtrip_leaves_the_guard_bits_clear(case):
    width, degrees, (a,) = case
    m = _pack(a, width, degrees)
    assert _unpack(m, len(a), width) == a
    assert m & _guard(len(a), width) == 0
    assert m >> len(a) * width == _degree(a, degrees)


@given(packed_vectors(2))
def test_guard_test_is_the_exponentwise_divisibility_test(case):
    # the degree field sits above the guarded fields and never changes the test
    width, degrees, (a, b) = case
    guard = _guard(len(a), width)
    divides = ((_pack(a, width, degrees) | guard) - _pack(b, width, degrees)) & guard == guard
    assert divides == all(x >= y for x, y in zip(a, b))


@given(dividing_pair())
def test_packed_difference_is_the_quotient(case):
    width, degrees, a, b = case
    guard = _guard(len(a), width)
    pa, pb = _pack(a, width, degrees), _pack(b, width, degrees)
    assert ((pa | guard) - pb) & guard == guard
    quotient = tuple(x - y for x, y in zip(a, b))
    assert pa - pb == _pack(quotient, width, degrees)


@given(packed_vectors(8))
def test_packed_order_within_a_degree_is_graded_lex(case):
    # the degree field on top makes integer order graded-lex across degrees too
    width, degrees, vectors = case
    ring = PolyRing(Coeffs.F2, [(f"x{i}", d) for i, d in enumerate(degrees)])
    packed = sorted(vectors, key=lambda e: _pack(e, width, degrees))
    assert packed == sorted(vectors, key=ring.order_key)


@st.composite
def truncated_pair(draw):
    """A truncation, degrees and two exponent vectors each of degree at most
    the truncation."""
    trunc = draw(st.integers(1, 2**20) | st.sampled_from((1, 2, 3, 4, 7, 8, 15, 16)))
    n = draw(st.integers(1, 5))
    degrees = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pair = []
    for _ in range(2):
        room, e = trunc, []
        for d in draw(st.permutations(range(n))):
            x = draw(st.integers(0, room // degrees[d]))
            room -= x * degrees[d]
            e.append((d, x))
        pair.append(tuple(x for _, x in sorted(e)))
    return trunc, degrees, pair


@given(truncated_pair())
def test_products_never_carry_and_truncate_by_one_compare(case):
    trunc, degrees, (a, b) = case
    n, width = len(a), _width(trunc)
    product = _pack(a, width, degrees) + _pack(b, width, degrees)
    degree = _degree(a, degrees) + _degree(b, degrees)
    assert _unpack(product, n, width) == tuple(x + y for x, y in zip(a, b))
    assert product >> n * width == degree
    assert (product < (trunc + 1) << n * width) == (degree <= trunc)


@given(truncated_pair(), st.lists(st.integers(0, 2**22), min_size=1, max_size=5))
def test_packing_above_the_truncation_lands_at_or_above_the_limit(case, wild):
    # exponents too wide for their field only set more bits
    trunc, degrees, _ = case
    e = tuple(wild[i % len(wild)] for i in range(len(degrees)))
    width = _width(trunc)
    limit = (trunc + 1) << len(e) * width
    assert (_pack(e, width, degrees) < limit) == (_degree(e, degrees) <= trunc)


def test_wide_monomials_after_a_narrow_reduction():
    # a ring with a free generator packs at the width of the cap, so a
    # monomial of degree 2^40 still fits after a product of degree 4
    free = free_presentation(Coeffs.INT, [("x", 2), ("y", 2)])
    ring = free.ring
    assert free.element("x*y").poly == ring.parse("x*y")
    wide = ring.monomial((2**40, 1))
    assert free.normal_form(wide) == wide
    tower = Presentation(ring, [ring.parse("x^3")])
    assert tower.element("y").poly == ring.parse("y")  # too narrow for x^3
    assert tower.element("x^2*y + y^2").poly == ring.parse("x^2*y + y^2")
    assert tower.normal_form(ring.monomial((2**40, 0))).is_zero()
    assert tower.normal_form(ring.monomial((2, 2**40))) == ring.monomial((2, 2**40))
    assert free.element("x*y") ** 2**40 == free.element(ring.monomial((2**40, 2**40)))
    big = 2**40
    binomial = {(j, big - j): math.comb(big, j) for j in range(3)}
    assert (tower.element("x + y") ** big).poly == Polynomial(ring, binomial)
    f2 = free_presentation(Coeffs.F2, [("x", 1), ("y", 1)])
    assert f2.element("x + y") ** 2**40 == f2.element(f"x^{2**40} + y^{2**40}")


# -- packed element arithmetic against normal forms of polynomials ------------------------


def _packed_kinds() -> dict[str, Presentation]:
    f2 = PolyRing(Coeffs.F2, [("a", 1), ("b", 1), ("c", 2)])
    truncated = Presentation(f2, [f2.parse("a^2*b + b*c"), f2.parse("a*c^2 + b^3*c")],
                             truncation=7)
    zring = PolyRing(Coeffs.INT, [("x", 2), ("y", 2)])
    tower = Presentation(zring, [zring.parse("y^2 + 3*x*y - 2*x^2")])
    return {
        "f2_truncated": truncated,
        "f2_free": free_presentation(Coeffs.F2, [("a", 1), ("b", 1), ("c", 2)]),
        "z_tower": tower,
    }


PACKED_KINDS = _packed_kinds()


@st.composite
def packed_operands(draw):
    """A presentation of one of the three kinds and two polynomials of its
    ring with a few terms of degree at most 8."""
    pres = PACKED_KINDS[draw(st.sampled_from(sorted(PACKED_KINDS)))]
    ring = pres.ring
    coeff = st.integers(0, 1) if ring.coeffs is Coeffs.F2 else st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 8 // d) for d in ring.degrees]).filter(
        lambda e: ring.weighted_degree(e) <= 8)
    polys = [Polynomial(ring, draw(st.dictionaries(exps, coeff, max_size=4)))
             for _ in range(2)]
    return pres, polys


@given(packed_operands(), st.integers(0, 4))
def test_packed_element_arithmetic_matches_normal_forms(case, k):
    pres, (p, q) = case
    nf = pres.normal_form
    a, b = pres.element(p), pres.element(q)
    assert (a + b).poly == nf(p + q)
    assert (a - b).poly == nf(p - q)
    assert (-a).poly == nf(-p)
    assert (a * b).poly == nf(p * q)
    assert (a ** k).poly == nf(p ** k)
    assert (a == b) == (nf(p) == nf(q))
    assert a - b == pres.element(p - q) and hash(a - b) == hash(pres.element(p - q))
    assert a.degree() == nf(p).degree()
    assert a.is_zero() == nf(p).is_zero()
    assert pres.element(a.poly) == a


def test_untruncated_power_sequences_match_normal_forms():
    for name, base in (("f2_free", "a + b*c"), ("z_tower", "x + 2*y")):
        pres = PACKED_KINDS[name]
        e, p = pres.element(base), pres.ring.parse(base)
        power = pres.one()
        for k in range(16):
            assert power.poly == pres.normal_form(p ** k)
            assert power == e ** k
            power = power * e
    free = PACKED_KINDS["f2_free"]
    low = free.element("c^4 + a") - free.element("c^4")
    assert low == free.element("a") and hash(low) == hash(free.element("a"))


def _zero_and_one_cases() -> dict:
    def zero_ring():
        ring = PolyRing(Coeffs.F2, [("a", 1)])
        return Presentation(ring, [ring.one()], truncation=3)

    truncated = PolyRing(Coeffs.F2, [("a", 1), ("b", 1), ("c", 1)])
    return {
        "zero_ring": zero_ring,
        "point_f2": lambda: point_presentation(Coeffs.F2),
        "point_z": lambda: point_presentation(Coeffs.INT),
        "z_tower": lambda: out_of_order_tower(Coeffs.INT)[0],
        "f2_truncated": lambda: Presentation(
            truncated, [truncated.parse("a^2 + b*c"), truncated.parse("c^3")], truncation=8),
        "f2_free": lambda: PACKED_KINDS["f2_free"],
    }


ZERO_AND_ONE_CASES = _zero_and_one_cases()


@pytest.mark.parametrize("case", ZERO_AND_ONE_CASES)
def test_zero_and_one_are_the_elements_of_0_and_1(case):
    pres = ZERO_AND_ONE_CASES[case]()
    for built, want in ((pres.zero(), pres.element(0)), (pres.one(), pres.element(1))):
        assert built == want and hash(built) == hash(want)
        assert built.is_zero() == want.is_zero()
    assert pres.zero().is_zero()
    assert pres.one().is_zero() == (case == "zero_ring")


# -- identity: == compares like with like, and equal objects hash alike --------------------


def _twins() -> dict[str, tuple[Presentation, Presentation]]:
    """An F2 tower, a Z tower and a truncated F2 ring, each with an equal, distinct twin."""
    again = _packed_kinds()
    twins = {name: (PACKED_KINDS[name], again[name]) for name in ("z_tower", "f2_truncated")}
    return {"f2_tower": (milnor_ring(3), milnor_ring(3)), **twins}


TWINS = _twins()


@st.composite
def identity_operands(draw):
    """``a``, a random Element of one of the three kinds or a random Polynomial
    of its ring, and ``b``, an operand ``a`` might be taken to equal: ``a``
    built again in the equal, distinct twin (its presentation or ring),
    ``a.poly``, ``str(a)`` or a small int."""
    pres, twin = TWINS[draw(st.sampled_from(sorted(TWINS)))]
    ring = pres.ring
    coeff = st.integers(0, 1) if ring.coeffs is Coeffs.F2 else st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 4 // d) for d in ring.degrees])
    p = Polynomial(ring, draw(st.dictionaries(exps, coeff, max_size=3)))
    if draw(st.booleans()):
        a = pres.element(p)
        copies = [twin.element(p), a.poly]
    else:
        a = p
        copies = [Polynomial(twin.ring, p.terms)]
    return a, draw(st.sampled_from([*copies, str(a)]) | st.integers(-2, 2))


@given(identity_operands())
def test_equal_operands_hash_alike(case):
    a, b = case
    assert (a == b) == (b == a) == (not a != b)
    if a == b:
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_equality_converts_no_operand():
    pres = cube_ring()
    ring = pres.ring
    e = pres.element("x")
    assert e != "x" and e != ring.gen("x") and pres.one() != 1 and ring.one() != 1
    assert len({e, "x", ring.gen("x"), cube_ring().element("x")}) == 3
    assert len({ring.one(), 1, ring.const(1)}) == 2


def test_towers_that_print_different_relations_differ():
    # y's relation (degree 4) lies above the box corner 3, so it packs empty
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 2)])
    twisted = Presentation(ring, [ring.parse("x^2"), ring.parse("y^2 + x^2*y")])
    plain = Presentation(ring, [ring.parse("x^2"), ring.parse("y^2")])
    assert twisted != plain and len({twisted, plain}) == 2
    again = Presentation(ring, [ring.parse("x^2"), ring.parse("y^2 + x^2*y")])
    assert twisted == again and hash(twisted) == hash(again)
    proj = [projective_of(make_bundle(KField.R, 2, base, {}))[0] for base in (twisted, plain)]
    assert [str(p.relations[1]) for p in proj] == ["y^2 + x^2*y", "y^2"]


def test_a_tower_reads_the_same_in_any_order():
    ring = PolyRing(Coeffs.F2, [("x", 1), ("y", 2)])
    rels = [ring.parse("x^2"), ring.parse("y^2 + x^2*y")]
    given, reversed_ = Presentation(ring, rels), Presentation(ring, rels[::-1])
    assert given == reversed_ and hash(given) == hash(reversed_)
    assert [str(r) for r in reversed_.relations] == ["x^2", "y^2 + x^2*y"]
    projective_of.cache_clear()
    for base in (given, reversed_):
        projective_of(make_bundle(KField.R, 2, base, {}))
    assert projective_of.cache_info().currsize == 1


@pytest.mark.parametrize("seed", range(10))
def test_full_tower_vanishes_above_its_box_corner(seed):
    rng = random.Random(seed)
    ring, rels = random_integral_tower(rng, skip=0.0)
    pres = Presentation(ring, rels)
    corner = sum(r.degree() - d for r, d in zip(rels, ring.degrees))
    assert pres.top_degree() == pres.degree_bound == corner
    box = [ring.monomial(e) for m in range(corner + 1) for e in pres.standard_monomials(m)]
    for a in box:
        for b in box:
            if a.degree() + b.degree() > corner:
                assert (pres.element(a) * pres.element(b)).is_zero()
                assert tower_normal_form(rels, a * b, None).is_zero()


def test_reaching_the_cap_raises_on_a_ring_with_a_free_generator():
    free = free_presentation(Coeffs.F2, [("x", 1)])
    assert free.degree_bound is None
    x = free.element("x")
    for _ in range(61):
        x = x * x
    assert x.degree() == 2**61
    with pytest.raises(PresentationError):
        x * x
    with pytest.raises(PresentationError):
        free.element("x") ** 2**62
    with pytest.raises(PresentationError):
        free.element(free.ring.monomial((2**62,)))
    with pytest.raises(PresentationError):
        free.dimensions(2**62)
    with pytest.raises(PresentationError):
        free.dimension(2**62)
    with pytest.raises(PresentationError):
        free.standard_monomials(2**62)
    tower = PACKED_KINDS["z_tower"]  # x has no relation
    with pytest.raises(PresentationError):
        tower.element("x") ** 2**61
    # a bounded ring takes an element, a power or a single degree at any
    # height, as everything above its bound is zero; a list of dimensions up
    # to the cap has a length no list can reach, on every ring
    cube = Presentation(free.ring, [free.ring.parse("x^3")])
    assert cube.degree_bound == 2
    assert (cube.element("x") ** 2**70).is_zero()
    assert cube.standard_monomials(2**70) == []
    for degree in (3, 10**7, 2**62, 2**70):
        assert cube.dimension(degree) == 0
    assert cube._dims is None  # no walk and no list of a degree's length
    for top in (2**62, 2**70):
        with pytest.raises(PresentationError):
            cube.dimensions(top)


def test_elements_differ_from_polynomials_of_another_ring():
    x = free_presentation(Coeffs.F2, [("x", 1)]).element("x")
    y = PolyRing(Coeffs.F2, [("y", 1)]).parse("y")
    assert not x == y
    assert x != y
    assert x != free_presentation(Coeffs.F2, [("y", 1)]).element("y")
