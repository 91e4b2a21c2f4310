"""Polynomial layer: exact arithmetic, grading, parsing, rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from tcbundles import (
    Coeffs,
    GradingError,
    ParseError,
    Polynomial,
    PolyRing,
    RingMismatchError,
    parse_polynomial,
    render_polynomial,
)

from oracles import naive_mul, naive_pow

ST_F2 = PolyRing(Coeffs.F2, [("S", 1), ("T", 1)])
ST_Z = PolyRing(Coeffs.INT, [("S", 2), ("T", 2)])


def f2(text: str) -> Polynomial:
    return ST_F2.parse(text)


def zz(text: str) -> Polynomial:
    return ST_Z.parse(text)


# -- addition -----------------------------------------------------------------


def test_add_char2_cancellation():
    assert (f2("T+S") + f2("T+S")).is_zero()


def test_add_integer():
    assert zz("T") + zz("S") == zz("T+S")


def test_add_square_vs_frobenius():
    square = naive_mul(f2("T+S"), f2("T+S"))
    assert (f2("T^2+S^2") + square).is_zero()


def test_add_ring_mismatch():
    with pytest.raises(RingMismatchError):
        f2("T") + zz("T")


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_every_operator_converts_and_checks_its_operand_in_one_rule(op):
    run = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[op]
    t = zz("T")
    assert run(t, 3) == run(t, ST_Z.const(3))  # an int is a constant
    equal_ring = PolyRing(Coeffs.INT, [("S", 2), ("T", 2)])
    assert run(t, equal_ring.gen("T")) == run(t, zz("T"))  # an equal ring is the same ring
    with pytest.raises(RingMismatchError):
        run(t, f2("T"))
    with pytest.raises(RingMismatchError):
        run(t, PolyRing(Coeffs.INT, [("S", 2)]).gen("S"))
    with pytest.raises(TypeError):
        run(t, 1.5)


# -- multiplication -----------------------------------------------------------


def test_mul_difference_of_squares():
    assert zz("T-S") * zz("T+S") == zz("T^2-S^2")


def test_mul_identity():
    p = zz("3*T^2 - 2*S*T + S^2")
    assert ST_Z.one() * p == p


def test_mul_frobenius_square():
    assert f2("T+S") * f2("T+S") == f2("T^2+S^2")


# -- powers ---------------------------------------------------------------------


def test_pow_zero_is_one():
    assert f2("T+S") ** 0 == ST_F2.one()


def test_pow_two_frobenius():
    assert f2("T+S") ** 2 == f2("T^2+S^2")


def test_pow_six_free_ring():
    assert f2("T+S") ** 6 == f2("T^6 + T^4*S^2 + T^2*S^4 + S^6")
    assert f2("T+S") ** 6 == naive_pow(f2("T+S"), 6)


# -- parsing ------------------------------------------------------------------------


def test_parse_two_terms():
    p = f2("T^2 + S*T")
    assert p.terms == {(0, 2): 1, (1, 1): 1}


def test_parse_cube():
    assert f2("(T+S)^3") == f2("T^3 + T^2*S + T*S^2 + S^3")


def test_parse_with_named_classes():
    ring = PolyRing(Coeffs.F2, [("w1", 1), ("w2", 2), ("T", 1)])
    p = ring.parse("w1*T + w2")
    assert p.terms == {(1, 0, 1): 1, (0, 1, 0): 1}


def test_parse_whitespace_insensitive():
    assert f2(" T ^ 2+S * T ") == f2("T^2+S*T")


def test_parse_implicit_product():
    assert f2("S T") == f2("S*T")
    assert f2("2(T+S)") == f2("0")  # 2 = 0 over F2
    assert zz("2(T+S)") == zz("2*T + 2*S")


def test_parse_unary_minus_and_integers():
    assert zz("-3*T + T") == zz("-2*T")
    with pytest.raises(ParseError):
        zz("T - - S")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        f2("T^2 + + S")
    assert "position 6" in str(exc.value)
    assert exc.value.pos == 6


def test_parse_unknown_generator():
    with pytest.raises(ParseError):
        f2("T + U")


def test_parse_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        f2("(T+S")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        f2("T+S)")


# -- rendering ------------------------------------------------------------------


def test_render_descending_order():
    assert render_polynomial(f2("S^2 + T^2 + S*T")) == "T^2 + S*T + S^2"


def test_render_signs_and_coefficients():
    assert render_polynomial(zz("-3*T^2 + S^2")) == "-3*T^2 + S^2"
    assert render_polynomial(zz("S^2 - T^2")) == "-T^2 + S^2"
    assert render_polynomial(ST_Z.zero()) == "0"
    assert render_polynomial(ST_Z.const(-7)) == "-7"


def test_render_parse_roundtrip_examples():
    for text in ("T^6 + T^4*S^2 + S^6", "-5*T^2*S^4 + 2*S^2", "1", "0"):
        p = zz(text)
        assert parse_polynomial(render_polynomial(p), ST_Z) == p


# -- grading --------------------------------------------------------------------


def test_degrees_and_homogeneity():
    p = zz("T^2*S + S^3")  # weighted degree 6 with deg S = deg T = 2
    assert p.degree() == 6
    assert p.is_homogeneous()
    assert not zz("T + T^2").is_homogeneous()


def test_homogeneous_product_degree():
    a, b = zz("T^2 + S*T"), zz("S^3 - T^3")
    assert (a * b).is_homogeneous()
    assert (a * b).degree() == a.degree() + b.degree()


def test_odd_degree_generator_rejected_over_z():
    with pytest.raises(GradingError):
        PolyRing(Coeffs.INT, [("x", 1)])
    PolyRing(Coeffs.F2, [("x", 1)])  # fine in characteristic 2


def test_generator_declaration_errors():
    with pytest.raises(GradingError):
        PolyRing(Coeffs.F2, [("x", 0)])
    with pytest.raises(GradingError):
        PolyRing(Coeffs.F2, [("x", 1), ("x", 2)])
    with pytest.raises(GradingError):
        PolyRing(Coeffs.F2, [("2x", 1)])


# -- random properties -------------------------------------------------------------

RANDOM_RING = {
    Coeffs.F2: PolyRing(Coeffs.F2, [(f"g{i}", i % 2 + 1) for i in range(5)]),
    Coeffs.INT: PolyRing(Coeffs.INT, [(f"g{i}", (i % 2 + 1) * 2) for i in range(5)]),
}


def polynomials(coeffs: Coeffs):
    ring = RANDOM_RING[coeffs]
    exps = st.tuples(*[st.integers(0, 8 // d) for d in ring.degrees])
    coeff = st.just(1) if coeffs is Coeffs.F2 else st.integers(-9, 9)
    return st.dictionaries(exps, coeff, max_size=6).map(
        lambda terms: Polynomial(ring, terms)
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Coeffs)).flatmap(
    lambda c: st.tuples(polynomials(c), polynomials(c), polynomials(c))
))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == naive_mul(a, b)


@settings(max_examples=40, deadline=None)
@given(polynomials(Coeffs.F2), polynomials(Coeffs.F2))
def test_frobenius(a, b):
    s = a + b
    assert s * s == a * a + b * b


@settings(max_examples=20, deadline=None)
@given(polynomials(Coeffs.INT), st.integers(0, 10))
def test_pow_matches_naive(a, k):
    assert a ** k == naive_pow(a, k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Coeffs)).flatmap(lambda c: polynomials(c)))
def test_parse_render_roundtrip(p):
    assert parse_polynomial(render_polynomial(p), p.ring) == p


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Coeffs)).flatmap(lambda c: polynomials(c)), st.integers(0, 3))
def test_lift_pads_every_exponent_vector(p, extra):
    ring = p.ring.with_generators([(f"h{i}", 2) for i in range(extra)])
    lifted = p.lift(ring)
    assert lifted.ring == ring
    assert lifted.terms == {e + (0,) * extra: c for e, c in p.terms.items()}
