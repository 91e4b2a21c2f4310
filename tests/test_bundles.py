"""Bundle ring constructors: projective, ordered pairs, planes, unordered pairs."""

import random
from pathlib import Path

import pytest

from tcbundles import (
    BundleError,
    BundleSpec,
    Coeffs,
    GradingError,
    KField,
    PolyRing,
    Polynomial,
    Presentation,
    Strategy,
    feder_ring,
    free_presentation,
    gaussian_binomial_two,
    grassmann_ring,
    make_bundle,
    point_presentation,
    projective_ring,
    projective_x_classes,
    q_tilde_ring,
    reduce_mod2,
    trivial_bundle,
)
from tcbundles import ringquot
from tcbundles.bundles import _plane_relations, _twisted
from tcbundles.cli import parse_spec_file
from tcbundles.obstruct import q_tilde_of
from tcbundles.ringquot import ModuleBasisError, verify_cell_dimensions

from oracles import gaussian_binomial_series, p_closed_form
from oracles import monomials_of_degree as _monomials_of_degree
from test_obstruct import random_real_bundle

ROOT = Path(__file__).resolve().parent.parent


def rp_base(m: int) -> Presentation:
    ring = PolyRing(Coeffs.F2, [("x", 1)])
    return Presentation(ring, [ring.parse(f"x^{m + 1}")])


def generic_base(n: int, coeffs: Coeffs = Coeffs.F2, d: int = 1) -> Presentation:
    gens = [(f"w{i}", i * d) for i in range(1, n + 2)]
    return free_presentation(coeffs, gens)


def generic_bundle(field: KField, n: int, coeffs: Coeffs = Coeffs.F2) -> BundleSpec:
    base = generic_base(n, coeffs, field.d)
    return make_bundle(field, n + 1, base, {i: f"w{i}" for i in range(1, n + 2)})


# -- BundleSpec validation -----------------------------------------------------


def test_field_tags_and_degrees():
    assert KField.R.d == 1 and KField.C.d == 2 and KField.H.d == 4
    assert KField.from_tag("C") is KField.C
    with pytest.raises(BundleError):
        KField.from_tag("O")


def test_rank_must_give_positive_n():
    with pytest.raises(BundleError):
        trivial_bundle(KField.R, 1)
    assert trivial_bundle(KField.R, 2).n == 1


def test_real_bundles_need_f2():
    base = point_presentation(Coeffs.INT)
    with pytest.raises(BundleError):
        BundleSpec(KField.R, 3, base, [base.zero()] * 3)


def test_class_degree_checked():
    base = generic_base(2)
    with pytest.raises(BundleError):
        make_bundle(KField.R, 3, base, {1: "w2"})
    with pytest.raises(BundleError):
        make_bundle(KField.C, 3, point_presentation(Coeffs.INT), {1: 1})


def test_class_index_checked():
    with pytest.raises(BundleError):
        make_bundle(KField.R, 3, point_presentation(), {4: 0})


def test_inhomogeneous_class_rejected():
    base = generic_base(3)
    with pytest.raises(BundleError):
        make_bundle(KField.R, 4, base, {2: "w2 + w1"})  # mixes degrees 2 and 1


def test_base_generator_names_reserved_for_fibre_classes():
    ring = PolyRing(Coeffs.F2, [("T", 2)])
    base = Presentation(ring, [], truncation=6)
    with pytest.raises(BundleError):
        BundleSpec(KField.R, 2, base, [base.zero()] * 2)


def test_disconnected_base_rejected():
    # a base whose degree-0 part vanishes is rejected by
    # test_bundle_spec_rejects_its_base_or_classes; here the w(0) = 1 and
    # w(i > rank) = 0 conventions
    b = trivial_bundle(KField.R, 3)
    assert b.w(0) == b.base.one()
    assert b.w(5).is_zero()


def _disconnected_base() -> Presentation:
    # the relation 1 kills every degree, degree 0 too: ``relation 1`` with a
    # ``truncation`` in a spec's [base] builds this
    ring = PolyRing(Coeffs.F2, [("x", 1)])
    return Presentation(ring, [ring.one()], truncation=3)


@pytest.mark.parametrize("base, classes, message", [
    (_disconnected_base, lambda base: [base.zero()] * 2, "must be connected"),
    (lambda: rp_base(3), lambda base: [base.zero()] * 3, "need 2 classes"),
    (lambda: rp_base(3), lambda base: [rp_base(4).element("x"), base.zero()],
     "class w_1 does not live in the base"),
])
def test_bundle_spec_rejects_its_base_or_classes(base, classes, message):
    base = base()
    with pytest.raises(BundleError, match=message):
        BundleSpec(KField.R, 2, base, classes(base))


def test_bundle_equality_and_hash():
    a = trivial_bundle(KField.R, 3)
    b = trivial_bundle(KField.R, 3)
    assert a == b and hash(a) == hash(b)
    assert a != trivial_bundle(KField.R, 4)


def test_reduce_mod2_on_integral_bundle():
    b = trivial_bundle(KField.C, 3)
    b2 = reduce_mod2(b)
    assert b2.base.ring.coeffs is Coeffs.F2
    assert reduce_mod2(b2) is b2


# -- projective ring ----------------------------------------------------------


def test_projective_point_real():
    b = trivial_bundle(KField.R, 3)  # lines in a trivial R^3, i.e. P(R^3)
    pres, e_zeta, e_eta = projective_ring(b)
    assert pres.ring.names == ("t",)
    assert [r for r in pres.relations] == [pres.ring.parse("t^3")]
    assert e_zeta == pres.element("t^2")
    assert e_eta == pres.element("t")
    assert pres.dimension(2) == 1 and pres.dimension(3) == 0


def test_projective_point_complex_sign():
    b = trivial_bundle(KField.C, 2)
    pres, e_zeta, e_eta = projective_ring(b)
    assert [r.terms for r in pres.relations] == [{(2,): 1}]
    # zeta + eta is trivial, so e(zeta) = -e(eta) integrally
    assert e_zeta == -pres.element("t")
    assert e_eta == pres.element("t")
    assert (e_zeta * e_eta).is_zero()


def test_projective_line_bundle_over_projective_space():
    m, n = 3, 1
    b = make_bundle(KField.R, n + 1, rp_base(m), {1: "x"})
    pres, e_zeta, _ = projective_ring(b)
    fibre_rel = pres.relations[-1]
    assert fibre_rel == pres.ring.parse("t^2 + x*t")
    assert e_zeta == pres.element("t + x")


def test_projective_euler_product_identity():
    # e(zeta) e(eta) = e(xi) = w_(n+1) with fully generic classes
    for n in (1, 2, 3):
        b = generic_bundle(KField.R, n)
        pres, e_zeta, e_eta = projective_ring(b)
        lifted = pres.element(b.w(n + 1).poly.lift(pres.ring))
        assert e_zeta * e_eta == lifted
    for n in (1, 2):
        b = generic_bundle(KField.C, n, Coeffs.INT)
        pres, e_zeta, e_eta = projective_ring(b)
        lifted = pres.element(b.w(n + 1).poly.lift(pres.ring))
        assert e_zeta * e_eta == lifted


def test_projective_x_classes_satisfy_recursion():
    n = 3
    b = generic_bundle(KField.R, n)
    pres, e_zeta, _ = projective_ring(b)
    xs = projective_x_classes(b, pres)
    t = pres.element("t")
    assert xs[0] == pres.one()
    for i in range(1, n + 1):
        w_i = pres.element(b.w(i).poly.lift(pres.ring))
        assert xs[i] == t * xs[i - 1] + w_i
    assert e_zeta == xs[n]


def test_projective_relations_homogeneous():
    for field, coeffs in ((KField.R, Coeffs.F2), (KField.C, Coeffs.INT)):
        b = generic_bundle(field, 2, coeffs)
        pres, _, _ = projective_ring(b)
        for r in pres.relations:
            assert r.is_homogeneous()


# -- ordered pairs of lines (the deleted-square model) -----------------------------


def test_q_tilde_milnor_presentation():
    n = 2
    b = trivial_bundle(KField.R, n + 1)
    pres, e = q_tilde_ring(b)
    texts = {str_of(r) for r in pres.relations}
    assert texts == {"S^3", "T^2 + S*T + S^2"}
    assert e == pres.element("T + S")


def test_q_tilde_complex_point_presentation():
    n = 2
    b = trivial_bundle(KField.C, n + 1)
    pres, e = q_tilde_ring(b)
    texts = {str_of(r) for r in pres.relations}
    assert texts == {"S^3", "T^2 + S*T + S^2"}
    assert e == pres.element("T") - pres.element("S")


def test_q_tilde_symmetry_under_swapping_the_factors():
    for field, coeffs in ((KField.R, Coeffs.F2), (KField.C, Coeffs.INT)):
        b = generic_bundle(field, 2, coeffs)
        pres, _ = q_tilde_ring(b)
        s, t = pres.ring.index("S"), pres.ring.index("T")
        for r in pres.relations:
            swapped = {}
            for exps, c in r.terms.items():
                e = list(exps)
                e[s], e[t] = e[t], e[s]
                swapped[tuple(e)] = c
            assert pres.normal_form(Polynomial(pres.ring, swapped)).is_zero()


def test_q_tilde_telescoping_identity():
    ring = PolyRing(Coeffs.INT, [("S", 2), ("T", 2)])
    for i in range(0, 6):
        h = ring.parse(" + ".join(f"S^{j}*T^{i - j}" for j in range(i + 1)))
        lhs = ring.parse("T - S") * h
        assert lhs == ring.parse(f"T^{i + 1} - S^{i + 1}")


def test_q_tilde_requires_even_classes_over_z():
    b = generic_bundle(KField.R, 2)
    pres, e = q_tilde_ring(b)  # a real bundle's ring is over F2
    assert pres.ring.coeffs is Coeffs.F2
    with pytest.raises((BundleError, GradingError)):
        q_tilde_of(b, Coeffs.INT)


# -- the fibre relations against their explicit sums --------------------------------


def test_fibre_relations_match_their_explicit_sums():
    # x_i = sum_j (-t)^(i-j) w_j, and the second ordered-pair relation r2 through
    # (T - S)*h_i = T^(i+1) - S^(i+1): (T - S)*r2 = sum_i (-1)^i (T^(i+1) - S^(i+1)) w_(n-i).
    # Completion may flip a relation's sign over Z.
    bundles = [trivial_bundle(field, rank) for field in KField for rank in (2, 3, 5)]
    bundles += [generic_bundle(KField.R, n) for n in (1, 2, 3)]
    bundles += [generic_bundle(KField.C, n, Coeffs.INT) for n in (1, 2)]
    for b in bundles:
        n = b.n
        pres, e_zeta, _ = projective_ring(b)
        w = [b.w(j).poly.lift(pres.ring) for j in range(n + 2)]
        t = pres.ring.gen("t")
        x = [sum(((-t) ** (i - j) * w[j] for j in range(i + 1)), pres.ring.zero())
             for i in range(n + 2)]
        assert pres.relations[-1] in (x[n + 1], -x[n + 1])
        assert projective_x_classes(b, pres) == [pres.element(x_i) for x_i in x[:n + 1]]
        assert e_zeta == pres.element(x[n])

        pres, _ = q_tilde_ring(b)
        ring = pres.ring
        w = [b.w(j).poly.lift(ring) for j in range(n + 2)]
        S, T = ring.gen("S"), ring.gen("T")
        r1 = sum(((-S) ** (n + 1 - j) * w[j] for j in range(n + 2)), ring.zero())
        telescoped = sum(((-1) ** i * (T ** (i + 1) - S ** (i + 1)) * w[n - i]
                          for i in range(n + 1)), ring.zero())
        rel1, rel2 = pres.relations[-2:]
        assert rel1 in (r1, -r1)
        assert (T - S) * rel2 in (telescoped, -telescoped)


# -- the p-polynomials of the plane relations -------------------------------------


def p_polynomials(coeffs: Coeffs) -> tuple[PolyRing, list[Polynomial]]:
    """p_0, ..., p_8 of p_(i+1) = Y*p_i + Z*p_(i-1): the twisted sums of a
    bundle whose classes are all zero."""
    scale = 2 if coeffs is Coeffs.INT else 1
    ring = PolyRing(coeffs, [("Y", scale), ("Z", 2 * scale)])
    zero_classes = trivial_bundle(KField.R if coeffs is Coeffs.F2 else KField.C, 2)
    return ring, _twisted(zero_classes, ring, ring.gen("Y"), ring.gen("Z"), 8)


def test_p_polynomials_small_f2():
    ring, p = p_polynomials(Coeffs.F2)
    assert p[0] == ring.one()
    assert p[1] == ring.parse("Y")
    assert p[2] == ring.parse("Y^2 + Z")
    assert p[3] == ring.parse("Y^3")
    assert p[4] == ring.parse("Y^4 + Y^2*Z + Z^2")


def test_p_polynomials_small_integral():
    ring, p = p_polynomials(Coeffs.INT)
    assert p[3] == ring.parse("Y^3 + 2*Y*Z")
    assert p[4] == ring.parse("Y^4 + 3*Y^2*Z + Z^2")


def test_p_polynomial_closed_form():
    for coeffs in (Coeffs.F2, Coeffs.INT):
        ring, p = p_polynomials(coeffs)
        for i in range(0, 9):
            assert p[i] == p_closed_form(ring, i)


def test_p_xi_reduces_to_p_for_zero_classes():
    # with every class zero the plane relations are p_n and Z*p_(n-1)
    for rank in (2, 3, 4, 5):
        ring, rels = _plane_relations(trivial_bundle(KField.R, rank))
        p = [p_closed_form(ring, i) for i in range(rank)]
        assert rels == [p[rank - 1], ring.gen("Z") * p[rank - 2]]


def test_p_xi_recursion_identity():
    # the plane relations are p_n^xi and Z*p_(n-1)^xi + w_((n+1)d), with
    # p_i^xi = sum_j p_(i-j) w_(jd); as plain polynomials,
    # p_(n+1)^xi = Y*p_n^xi + Z*p_(n-1)^xi + w_((n+1)d)
    for n in (2, 3, 4):
        gens = [(f"w{i}", i) for i in range(1, n + 2)]
        base = Presentation(PolyRing(Coeffs.F2, gens), [], truncation=n + 1)
        b = make_bundle(KField.R, n + 1, base, {i: f"w{i}" for i in range(1, n + 2)})
        ring, rels = _plane_relations(b)
        p = [p_closed_form(ring, i) for i in range(n + 2)]
        lifted = [ring.one()] + [ring.gen(f"w{i}") for i in range(1, n + 2)]

        def p_xi(i):
            return sum((p[i - j] * lifted[j] for j in range(i + 1)), ring.zero())

        assert rels[0] == p_xi(n)
        assert ring.gen("Y") * rels[0] + rels[1] == p_xi(n + 1)


# -- planes rings ------------------------------------------------------------------


def test_grassmann_point_rank_three():
    b = trivial_bundle(KField.R, 3)
    pres, y, z = grassmann_ring(b)
    dims = [pres.dimension(m) for m in range(0, 4)]
    assert dims == [1, 1, 1, 0]
    assert y == pres.element("Y")
    assert z == pres.element("Z")
    assert pres.element("Z") == pres.element("Y^2")  # Z = Y^2 holds here
    assert pres.element("Z*Y").is_zero()


def test_grassmann_matches_q_binomial_dimensions():
    for n in (1, 2, 3):
        b = trivial_bundle(KField.R, n + 1)
        pres, _, _ = grassmann_ring(b)
        series = gaussian_binomial_two(n + 1)
        for m in range(len(series)):
            assert pres.dimension(m) == series[m]
        for m in range(len(series), (pres.truncation or 0) + 1):
            assert pres.dimension(m) == 0


def test_gaussian_binomial_against_series_oracle():
    for m in range(2, 21):
        got = gaussian_binomial_two(m)
        want = gaussian_binomial_series(m, len(got) + 4)
        assert got == want[: len(got)]
        assert all(c == 0 for c in want[len(got):])


def generic_truncated_bundle(n: int, trunc: int) -> BundleSpec:
    gens = [(f"w{i}", i) for i in range(1, n + 2)]
    ring = PolyRing(Coeffs.F2, gens)
    base = Presentation(ring, [], truncation=trunc)
    return make_bundle(KField.R, n + 1, base, {i: f"w{i}" for i in range(1, n + 2)})


def test_grassmann_relations_homogeneous_and_verified():
    for n in (1, 2, 3):
        b = generic_truncated_bundle(n, 6)
        pres, _, _ = grassmann_ring(b)  # checks freeness over the base degreewise
        for r in pres.relations:
            assert r.is_homogeneous()


def test_grassmann_quaternionic_degrees():
    b = trivial_bundle(KField.H, 3, Coeffs.F2)
    pres, y, z = grassmann_ring(b)
    iy = pres.ring.index("Y")
    assert pres.ring.degrees[iy] == 4
    assert y.degree() == 4 and z.degree() == 8


# -- unordered pairs (Feder model) ------------------------------------------------


def test_feder_point_small():
    b = trivial_bundle(KField.R, 2)
    pres, e_lambda, e_alpha, w_d_beta = feder_ring(b, grassmann_ring(b)[0])
    total = sum(pres.dimension(m) for m in range(0, (pres.truncation or 0) + 1))
    assert total == 2  # same total rank as lines in R^2
    assert e_lambda == pres.element("X")
    assert e_alpha == pres.element("Y + X")
    assert w_d_beta == pres.element("Y")


def test_feder_x_relation():
    for rank in (2, 3, 4):
        b = trivial_bundle(KField.R, rank)
        pres, e_lambda, e_alpha, w_d_beta = feder_ring(b, grassmann_ring(b)[0])
        d = b.d
        assert (e_lambda * (e_lambda ** d + w_d_beta)).is_zero()


def feder_cells(b: BundleSpec) -> list[int]:
    """Fibre cells of the unordered-pairs ring over the base by degree:
    [n+1 choose 2]_(q^d) * (1 + q + ... + q^d)."""
    plane = [c for e in gaussian_binomial_two(b.n + 1) for c in [e] + [0] * (b.d - 1)]
    return [sum(plane[max(0, m - b.d):m + 1]) for m in range(len(plane) + b.d)]


def test_feder_free_over_planes_basis():
    # the free-module dimensions over the base, on a nontrivial base
    m, n = 2, 1
    base = rp_base(m)
    b = make_bundle(KField.R, n + 1, base, {1: "x"})
    pres, e_lambda, e_alpha, w_d_beta = feder_ring(b, grassmann_ring(b)[0])
    verify_cell_dimensions(pres, base, feder_cells(b), pres.truncation, "pair ring")
    assert e_alpha == e_lambda ** b.d + pres.element(
        w_d_beta.poly
    )  # Y = e(alpha) + e(lambda)^d rearranged
    assert not e_alpha.is_zero()


def feder_panel() -> dict[str, BundleSpec]:
    """The bundles of the six golden specs and twelve random truncated ones."""
    rng = random.Random(31)
    specs = sorted(p for d in ("specs", "tests/specs") for p in (ROOT / d).glob("*.spec"))
    panel = {p.stem: parse_spec_file(str(p)).bundle for p in specs}
    panel.update((f"random{i}", random_real_bundle(rng, 3)) for i in range(12))
    return panel


FEDER_PANEL = feder_panel()


@pytest.mark.parametrize("name", FEDER_PANEL)
def test_feder_walk_counts_the_plane_cells_times_the_x_powers(name):
    # feder_ring checks its leads; the standard-monomial walk confirms the
    # dimensions those leads imply
    b = FEDER_PANEL[name]
    pres = feder_ring(b, grassmann_ring(b)[0])[0]
    verify_cell_dimensions(pres, reduce_mod2(b).base, feder_cells(b), pres.truncation,
                           "pair ring")


def test_feder_raises_unless_its_leads_are_the_planes_and_x_power(monkeypatch):
    b = generic_truncated_bundle(2, 4)
    plane = grassmann_ring(b)[0]

    def extend_without_the_base(self, ring, relations, truncation):
        return Presentation(ring, relations, truncation=truncation)

    monkeypatch.setattr(Presentation, "extend", extend_without_the_base)
    with pytest.raises(ModuleBasisError, match="not free over the plane ring"):
        feder_ring(b, plane)


@pytest.mark.parametrize("name", [n for n in FEDER_PANEL if not n.startswith("random")]
                         + ["random0"])
def test_feder_extends_the_completed_plane_without_pairs(monkeypatch, name):
    b = FEDER_PANEL[name]
    plane = grassmann_ring(b)[0]
    calls = []
    reduce = ringquot._reduce
    monkeypatch.setattr(ringquot, "_reduce", lambda *args: calls.append(1) or reduce(*args))
    pres = feder_ring(b, plane)[0]
    # X^(d+1) + X*Y reduced once on entry, each non-empty tail once at the end
    # and the three returned classes: no S-pair, and the plane is not
    # completed again.  No tail in the plane's generators holds a multiple
    # of X^(d+1), so no tail empties at the end.
    tails = sum(len(r.terms) > 1 for r in pres.relations)
    assert len(calls) == 1 + tails + 3


def test_projective_and_pair_rings_complete_without_unpacking_a_lead(monkeypatch):
    # every new lead is a power of a new generator, coprime to the truncated
    # base's leads and to the other new lead: no pair needs an lcm, so the
    # completion unpacks no lead, of the finished basis or a new one
    b = FEDER_PANEL["truncated_r4_t12"]
    completions, unpacked = [], []
    unpack, buchberger = ringquot._unpack, ringquot._buchberger

    def counted(*args):
        completions.append(1)
        monkeypatch.setattr(ringquot, "_unpack", lambda *a: unpacked.append(a) or unpack(*a))
        try:
            return buchberger(*args)
        finally:
            monkeypatch.setattr(ringquot, "_unpack", unpack)

    monkeypatch.setattr(ringquot, "_buchberger", counted)
    projective_ring(b)
    q_tilde_ring(b)
    assert len(completions) == 2 and unpacked == []


def test_feder_complex_bundle_reduces_mod_two():
    # any field is accepted; coefficients drop to F2 and e(alpha) sits in
    # degree d
    b = trivial_bundle(KField.C, 3)
    pres, e_lambda, e_alpha, _ = feder_ring(b, grassmann_ring(b)[0])
    assert pres.ring.coeffs is Coeffs.F2
    assert e_lambda.degree() == 1
    assert e_alpha.degree() == 2


# -- truncation bookkeeping ---------------------------------------------------------


def test_truncated_base_extension_switches_strategy():
    ring = PolyRing(Coeffs.F2, [("x", 1)])
    base = Presentation(ring, [], truncation=3)
    b = make_bundle(KField.R, 2, base, {1: "x"})
    pres, _, _ = projective_ring(b)
    assert pres.strategy is Strategy.GROEBNER_F2
    assert pres.truncation == 3 + 1 * 1  # base truncation + fibre budget n*d


def test_bounded_tower_base_stays_a_tower():
    # a monic tower with finite top degree needs no truncation bookkeeping
    b = make_bundle(KField.R, 2, rp_base(3), {1: "x"})
    pres, _, _ = projective_ring(b)
    assert pres.strategy is Strategy.MONIC_TOWER
    assert pres.truncation is None
    assert pres.top_degree() == 3 + 1  # x^3 t survives


def test_free_base_extension_keeps_tower():
    b = generic_bundle(KField.R, 2)
    pres, _, _ = projective_ring(b)
    assert pres.strategy is Strategy.MONIC_TOWER
    assert pres.truncation is None


def test_default_grassmann_truncation_bound():
    m, n = 3, 1
    b = make_bundle(KField.R, n + 1, rp_base(m), {1: "x"})
    pres, _, _ = grassmann_ring(b)
    assert pres.truncation == m + 2 * n * 1 + 1 + 1


# -- helpers ------------------------------------------------------------------------


def str_of(p: Polynomial) -> str:
    from tcbundles import render_polynomial

    return render_polynomial(p)


def test_monomial_enumeration_matches_degrees():
    ring = PolyRing(Coeffs.F2, [("Y", 1), ("Z", 2)])
    mons = list(_monomials_of_degree(ring, 4))
    assert set(mons) == {(4, 0), (2, 1), (0, 2)}
