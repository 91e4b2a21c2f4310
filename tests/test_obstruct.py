"""Vanishing criteria: minimal powers, divisibility, dual-route agreement."""

import math
import random

import pytest

from tcbundles import (
    BundleError,
    BundleSpec,
    Coeffs,
    KField,
    NotFoundUpTo,
    Polynomial,
    PolyRing,
    Presentation,
    closed_form_check,
    Element,
    InternalDisagreementError,
    default_k_max,
    euler_power_x_coordinates,
    free_presentation,
    gysin_equivalence_check,
    make_bundle,
    point_sphere_table,
    projective_x_classes,
    sphere_divisibility_test,
    sphere_quotient_ring,
    symm_proj_test,
    symm_sphere_test,
    trivial_bundle,
)
from tcbundles.cli import parse_spec_file
from tcbundles.obstruct import (
    criteria_table,
    first_vanishing,
    grassmann_of,
    powers,
    projective_of,
    q_tilde_of,
    symm_proj_powers,
)

from oracles import f2_ideal_member
from oracles import monomials_of_degree as _monomials_of_degree


def truncated_base(gens, truncation):
    ring = PolyRing(Coeffs.F2, gens)
    return Presentation(ring, [], truncation=truncation)


def rp4_line_bundle(w2_zero=False):
    """Rank-2 bundle over F2[x]/(x^4) with w1 = x and w2 = x^2 or 0."""
    base = truncated_base([("x", 1)], 3)
    classes = {1: "x"} if w2_zero else {1: "x", 2: "x^2"}
    return make_bundle(KField.R, 2, base, classes)


def random_real_bundle(rng: random.Random, n_max: int = 4) -> BundleSpec:
    rank = rng.randint(2, n_max + 1)
    ngens = rng.randint(1, 2)
    gens = [(f"x{i + 1}", rng.randint(1, 2)) for i in range(ngens)]
    base = truncated_base(gens, rng.randint(3, 7))
    classes = {}
    for i in range(1, rank + 1):
        mons = [m for m in _monomials_of_degree(base.ring, i) if rng.random() < 0.6]
        classes[i] = base.element(Polynomial(base.ring, {m: 1 for m in mons}))
    return BundleSpec(KField.R, rank, base, [classes[i] for i in range(1, rank + 1)])


# -- the least vanishing power of a plain class ------------------------------------


def min_k(e: Element, k_max: int):
    return first_vanishing(powers(e), k_max)[0]


def test_min_k_point_euler_class():
    for n in (1, 2, 3, 4):
        _, e_zeta, _ = projective_of(trivial_bundle(KField.R, n + 1))
        assert min_k(e_zeta, 10) == 2


def test_min_k_zero_element():
    pres, e_zeta, _ = projective_of(trivial_bundle(KField.R, 3))
    assert min_k(pres.zero(), 10) == 1


def test_min_k_milnor():
    pres, e = q_tilde_of(trivial_bundle(KField.R, 5))
    assert first_vanishing(powers(e), 16) == (7, pres.element("S^3*T^3"))


def test_min_k_not_found_is_a_value():
    pres, e = q_tilde_of(trivial_bundle(KField.R, 5))
    out = min_k(e, 3)
    assert out == NotFoundUpTo(3)
    assert isinstance(out, NotFoundUpTo)


def test_min_k_monotone_consistency():
    rng = random.Random(11)
    for _ in range(20):
        b = random_real_bundle(rng, 3)
        _, e_zeta, _ = projective_of(b)
        k = min_k(e_zeta, 12)
        if isinstance(k, int):
            assert (e_zeta ** k).is_zero()
            assert k == 0 or not (e_zeta ** (k - 1)).is_zero()


# -- sphere divisibility -----------------------------------------------------------


def test_divisibility_zero_top_class_means_nilpotency():
    b = rp4_line_bundle(w2_zero=True)
    x = b.base.element("x")
    for k in range(1, 6):
        want = (x ** k).is_zero()
        assert sphere_divisibility_test(b, k) == want


def test_divisibility_over_point():
    b = trivial_bundle(KField.R, 4)
    for k in range(1, 5):
        assert sphere_divisibility_test(b, k)


def test_divisibility_rp4_example():
    b = rp4_line_bundle()
    assert not sphere_divisibility_test(b, 1)  # x not divisible by x^2
    assert sphere_divisibility_test(b, 2)  # x^2 = 1 * x^2


def test_divisibility_witness_by_exhaustion():
    # degree-0 quotients over F2 are just {0, 1}: check k=2 by hand
    b = rp4_line_bundle()
    w1, w2 = b.w(1), b.w(2)
    assert w1 * w1 == w2 * b.base.one()
    assert w1 != w2 * b.base.one()


def test_divisibility_requires_real_f2():
    with pytest.raises(BundleError):
        sphere_divisibility_test(trivial_bundle(KField.C, 3), 1)


# -- gysin equivalence ---------------------------------------------------------------


def test_gysin_point_k1():
    assert gysin_equivalence_check(trivial_bundle(KField.R, 3), 1)


def test_gysin_rp4_k2():
    assert gysin_equivalence_check(rp4_line_bundle(), 2)


def test_gysin_rp4_w2_zero_k3():
    b = rp4_line_bundle(w2_zero=True)
    assert not sphere_divisibility_test(b, 3)  # x^3 is not zero
    # both routes agree on the negative verdict; no disagreement raised
    assert gysin_equivalence_check(b, 3) is False
    assert gysin_equivalence_check(b, 4) is True  # x^4 = 0


def test_gysin_random_bundles_never_disagree():
    rng = random.Random(23)
    for _ in range(60):
        b = random_real_bundle(rng)
        for k in range(1, default_k_max(b) + 1):
            assert gysin_equivalence_check(b, k) == sphere_divisibility_test(b, k)


def test_sphere_quotient_is_base_mod_top_class():
    b = rp4_line_bundle()
    quotient = sphere_quotient_ring(b)
    image = quotient.element(b.w(2).poly)
    assert image.is_zero()
    assert not quotient.element("x").is_zero()


def test_sphere_quotient_needs_a_bounded_base():
    base = free_presentation(Coeffs.F2, [("x", 1)])
    b = make_bundle(KField.R, 2, base, {1: "x", 2: "x^2"})
    with pytest.raises(BundleError, match="^base has unbounded degrees; give it a truncation$"):
        sphere_quotient_ring(b)


# -- symmetrized sphere ---------------------------------------------------------------


def test_symm_sphere_k1_always_false():
    rng = random.Random(5)
    for _ in range(10):
        b = random_real_bundle(rng, 3)
        assert not symm_sphere_test(b, 1)


def test_symm_sphere_point_k2():
    for n in range(1, 5):
        b = trivial_bundle(KField.R, n + 1)
        assert symm_sphere_test(b, 2)


def test_symm_sphere_zero_top_class_formula():
    # with w_(n+1) = 0 the power collapses to w_n^(k-1) x_n
    rng = random.Random(17)
    for _ in range(20):
        b = random_real_bundle(rng, 3)
        classes = list(b.classes)
        classes[b.n] = b.base.zero()
        b = BundleSpec(b.field, b.rank, b.base, classes)
        w_n = b.w(b.n)
        for k in range(2, 6):
            assert symm_sphere_test(b, k) == (w_n ** (k - 1)).is_zero()


def test_symm_sphere_dual_route_on_random_bundles():
    # symm_sphere_test raises InternalDisagreementError if the quotient
    # reduction and the long-division route ever part ways
    rng = random.Random(29)
    for _ in range(200):
        b = random_real_bundle(rng)
        for k in range(1, default_k_max(b) + 1):
            symm_sphere_test(b, k)


# -- closed forms ------------------------------------------------------------------


def test_closed_forms_range():
    for n in range(2, 7):
        assert closed_form_check(n)
    with pytest.raises(ValueError):
        closed_form_check(1)
    with pytest.raises(ValueError):
        closed_form_check(7)


def test_euler_square_all_classes_zero():
    for n in (1, 2, 3):
        b = trivial_bundle(KField.R, n + 1)
        _, e_zeta, _ = projective_of(b)
        assert (e_zeta * e_zeta).is_zero()
        coords = euler_power_x_coordinates(b, 2)
        assert all(c.is_zero() for c in coords)


def test_euler_power_x_coordinates_reconstruct():
    # the long division serves every field and both coefficient rings
    bundles = [rp4_line_bundle()]
    bundles += [random_real_bundle(random.Random(seed)) for seed in range(20)]
    bundles += [trivial_bundle(f, rank) for f in KField for rank in (2, 3, 4)]
    bundles += [parse_spec_file(f"specs/{name}.spec").bundle for name in SHIPPED_SPECS]
    bundles.append(parse_spec_file("tests/specs/truncated_r3_t8.spec").bundle)
    for b in bundles:
        pres, e_zeta, _ = projective_of(b)
        xs = projective_x_classes(b, pres)
        for power in range(5):
            coords = euler_power_x_coordinates(b, power)
            assert all(c.pres == b.base for c in coords)
            acc = pres.zero()
            for c, x in zip(coords, xs):
                acc = acc + pres.element(c.poly.lift(pres.ring)) * x
            assert acc == e_zeta ** power, (b, power)


# -- ordered projective pairs ---------------------------------------------------------


def test_proj_pair_milnor():
    for r in (1, 2):
        n = 2 ** r
        b = trivial_bundle(KField.R, n + 1)
        k = 2 ** (r + 1) - 1
        pres, e = q_tilde_of(b)
        want = pres.element(f"T^{n}*S^{n - 2} + T^{n - 2}*S^{n}")
        assert first_vanishing(powers(e), k) == (k, want)
        assert e ** (k - 1) == want and (e ** k).is_zero()


def test_proj_pair_complex_binomial():
    for n in range(1, 5):
        b = trivial_bundle(KField.C, n + 1)
        k = 2 * n - 1
        pres, e = q_tilde_of(b)
        assert not (e ** k).is_zero()
        sign = (-1) ** n
        coeff = math.comb(2 * n - 1, n)
        t, s = pres.element("T"), pres.element("S")
        assert e ** k == sign * coeff * (t ** (n - 1) * s ** n - t ** n * s ** (n - 1))


def test_proj_pair_quaternionic():
    for n in (1, 2):
        b = trivial_bundle(KField.H, 2 * n + 1)
        _, e = q_tilde_of(b)
        assert not (e ** (4 * n - 1)).is_zero()


def test_proj_pair_mod2_commutes_with_reduction():
    for n in range(1, 5):
        b = trivial_bundle(KField.C, n + 1)
        pres_z, e_z = q_tilde_of(b, Coeffs.INT)
        pres_2, e_2 = q_tilde_of(b, Coeffs.F2)
        for k in range(0, default_k_max(b) + 1):
            lifted = (e_z ** k).poly.mod2(pres_2.ring)
            assert pres_2.normal_form(lifted) == (e_2 ** k).poly


# -- unordered projective pairs -------------------------------------------------------


def test_symm_proj_peterson():
    for r in (1, 2):
        b = trivial_bundle(KField.R, 2 ** r + 1)
        assert not symm_proj_test(b, 2 ** (r + 1) - 1)
        assert symm_proj_test(b, 2 ** (r + 1))


def test_symm_proj_k1_nonzero():
    rng = random.Random(31)
    for _ in range(10):
        b = random_real_bundle(rng, 3)
        assert not symm_proj_test(b, 1)


def test_symm_proj_dual_route_on_random_bundles():
    rng = random.Random(37)
    for _ in range(30):
        b = random_real_bundle(rng, 3)
        for k in range(1, 2 * b.rank + 2):
            symm_proj_test(b, k)  # raises on any internal disagreement


# -- the integral point table ----------------------------------------------------------


def test_point_sphere_odd():
    for n in (1, 3, 5, 7):
        row = point_sphere_table(n)
        assert row.minimal_k == 1
        assert row.values == ("1", "0", "0")


def test_point_sphere_even():
    for n in (2, 4, 6, 8):
        row = point_sphere_table(n)
        assert row.minimal_k == 2
        assert row.witness == "2"
        assert row.values == ("1", "2", "0")


def test_point_sphere_rejects_bad_n():
    with pytest.raises(ValueError):
        point_sphere_table(0)


# -- brute-force cross-checks -----------------------------------------------------------


def test_divisibility_matches_ideal_membership():
    # w_n^k divisible by w_(n+1) in the base <=> w_n^k lies in the ideal
    # (w_(n+1)) + (truncation monomials); checked against the row-reduction
    # oracle on a slice of random bundles
    rng = random.Random(41)
    for _ in range(25):
        b = random_real_bundle(rng, 3)
        base = b.base
        ring = base.ring
        trunc = base.truncation
        ideal = [p for p in [b.w(b.n + 1).poly] if not p.is_zero()]
        for k in range(1, 7):
            target = base.normal_form(b.w(b.n).poly ** k)
            if target.degree() > trunc or k * b.n > trunc:
                continue
            want = f2_ideal_member(ring, ideal, target) if ideal else target.is_zero()
            assert sphere_divisibility_test(b, k) == want


# -- the power sequences behind every criterion -----------------------------------------


SHIPPED_SPECS = ("complex_n2", "milnor_r2", "peterson_r1", "rp3_bundle")


def brute_force_vanishing(e, k_max):
    """The least k <= k_max with e ** k = 0 and the witness e ** (k - 1),
    else NotFoundUpTo(k_max) and e ** k_max, each power computed afresh."""
    for k in range(k_max + 1):
        if (e ** k).is_zero():
            return k, (e ** (k - 1) if k else None)
    return NotFoundUpTo(k_max), e ** k_max


def shipped_and_random_bundles():
    bundles = [parse_spec_file(f"specs/{name}.spec").bundle for name in SHIPPED_SPECS]
    rng = random.Random(43)
    bundles += [random_real_bundle(rng, 3) for _ in range(8)]
    return bundles


def test_sequences_match_brute_force_powers():
    for b in shipped_and_random_bundles():
        for k_max in (2, default_k_max(b)):
            for name, seq, e in criteria_table(b):
                got = first_vanishing(seq, k_max)
                assert got == brute_force_vanishing(e, k_max), (b, name, k_max)
                if k_max == default_k_max(b):
                    assert isinstance(got[0], int), (b, name)  # decisive


def test_first_vanishing_reads_no_term_past_k_max():
    pres, e = q_tilde_of(trivial_bundle(KField.R, 5))
    read = []

    def logged():
        for k, power in enumerate(powers(e)):
            read.append(k)
            yield power

    assert first_vanishing(logged(), 3) == (NotFoundUpTo(3), e ** 3)
    assert read == [0, 1, 2, 3]
    assert first_vanishing(powers(pres.zero()), 0) == (NotFoundUpTo(0), pres.one())
    assert first_vanishing(powers(pres.zero()), 5) == (1, pres.one())
    with pytest.raises(ValueError):
        first_vanishing(powers(e), -1)


def test_proj_pair_search_makes_one_multiplication_per_power(monkeypatch):
    calls = []
    multiply = Element.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    for rank in (3, 5, 9, 17):
        b = trivial_bundle(KField.R, rank)
        _, e = q_tilde_of(b, Coeffs.F2)  # warm the ring cache
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Element, "__mul__", counted)
            min_k, _ = first_vanishing(powers(e), default_k_max(b))
        assert min_k == 2 * (rank - 1) - 1
        assert len(calls) == min_k


def test_disagreeing_route_raises_at_the_first_mismatch(monkeypatch):
    # over R^5, Y^6 != 0 = Y^7 in the plane ring and e(alpha)^8 is the first
    # zero power; handing the reduction route Y^2 in place of Y makes it
    # claim e(alpha)^5 = 0, which the direct route refutes at k = 5
    from tcbundles import obstruct

    b = trivial_bundle(KField.R, 5)
    pres, y, z = grassmann_of(b)
    monkeypatch.setattr(obstruct, "grassmann_of", lambda _b: (pres, y * y, z))
    with pytest.raises(InternalDisagreementError, match="k=5"):
        first_vanishing(symm_proj_powers(b), default_k_max(b))


def test_default_k_max_reaches_the_nilpotency_degree():
    # every criterion ring with a finite top degree kills its Euler class by
    # top // deg e + 1, and the default bound is never below that
    rng = random.Random(47)
    bundles = [random_real_bundle(rng, 3) for _ in range(12)]
    bundles += [trivial_bundle(f, r) for f in KField for r in (2, 3, 4)]
    for b in bundles:
        for name, _, e in criteria_table(b):
            top = e.pres.top_degree()
            if e.is_zero() or top is None:
                continue
            assert default_k_max(b) >= top // e.degree() + 1, (b, name)


def test_default_k_max_rule():
    assert default_k_max(trivial_bundle(KField.C, 3)) == 14
    assert default_k_max(rp4_line_bundle()) == max(2 * 2 + 2, 3 + 2 * 2 - 2)
    base = truncated_base([("a", 1), ("b", 1), ("c", 2)], 8)
    b = make_bundle(KField.R, 3, base, {1: "a+b", 2: "a*b+c", 3: "a*c"})
    assert default_k_max(b) == 12
