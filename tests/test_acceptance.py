"""Acceptance gate.

One test per shipped guarantee; each prints a single ``<name>: PASS/FAIL``
line (visible with ``pytest -s`` or in captured output) and enforces the
stated wall-clock budget where one applies.  All algebraic checks are exact;
all numeric checks use the tolerances fixed in the geometry module.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from tcbundles import (
    Coeffs,
    KField,
    closed_form_check,
    default_k_max,
    gysin_equivalence_check,
    point_sphere_table,
    proj_pair_test,
    proj_roundtrip_error,
    sphere_divisibility_test,
    sphere_roundtrip_error,
    symm_proj_test,
    symm_sphere_test,
    trivial_bundle,
    build_sphere_planner,
    verify_planner,
)
from tcbundles.obstruct import (
    InternalDisagreementError,
    feder_of,
    grassmann_of,
    projective_of,
    q_tilde_of,
    sphere_quotient_ring,
)
from tcbundles.polyalg import Polynomial

from oracles import f2_ideal_member
from oracles import monomials_of_degree as _monomials_of_degree
from test_obstruct import random_real_bundle


def clear_presentation_caches():
    for cached in (projective_of, q_tilde_of, grassmann_of, feder_of,
                   sphere_quotient_ring):
        cached.cache_clear()


@contextmanager
def criterion(name, budget=None):
    clear_presentation_caches()
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"{name}: FAIL (took {elapsed:.2f}s, budget {budget:g}s)")
        pytest.fail(f"{name} exceeded its {budget:g}s budget: {elapsed:.2f}s")
    within = f", budget {budget:g}s" if budget is not None else ""
    print(f"{name}: PASS ({elapsed:.2f}s{within})")


def test_a1_ordered_pair_powers_over_f2():
    with criterion("A1 ordered-pair Euler powers over F2", budget=1.0):
        for r in (1, 2, 3):
            n = 2 ** r
            pres, e = q_tilde_of(trivial_bundle(KField.R, n + 1), Coeffs.F2)
            t, s = pres.element("T"), pres.element("S")
            witness = t ** n * s ** (n - 2) + t ** (n - 2) * s ** n
            assert e ** (2 ** (r + 1) - 2) == witness
            assert not witness.is_zero()
            assert (e ** (2 ** (r + 1) - 1)).is_zero()


def test_a2_integral_and_quaternionic_pair_powers():
    with criterion("A2 integral/quaternionic ordered-pair powers", budget=2.0):
        for n in range(1, 6):
            pres, e = q_tilde_of(trivial_bundle(KField.C, n + 1))
            assert pres.ring.coeffs is Coeffs.INT
            t, s = pres.element("T"), pres.element("S")
            sign = (-1) ** n
            coeff = math.comb(2 * n - 1, n)
            want = sign * coeff * (t ** (n - 1) * s ** n - t ** n * s ** (n - 1))
            assert e ** (2 * n - 1) == want
            assert not want.is_zero()
        for n in (1, 2):
            b = trivial_bundle(KField.H, 2 * n + 1)
            assert not proj_pair_test(b, 4 * n - 1)


def test_a3_closed_forms_for_low_euler_powers():
    with criterion("A3 closed forms for squared/cubed Euler class", budget=5.0):
        for n in range(2, 6):
            assert closed_form_check(n)


def test_a4_unordered_pairs_agree_with_plane_reduction():
    with criterion("A4 unordered-pair powers with plane-ring reduction", budget=10.0):
        for r in (1, 2):
            n = 2 ** r
            b = trivial_bundle(KField.R, n + 1)
            k = 2 ** (r + 1)
            assert symm_proj_test(b, k - 1) is False
            assert symm_proj_test(b, k) is True
            _, _, e_alpha, _ = feder_of(b)
            _, y, _ = grassmann_of(b)
            for j in range(1, k + 1):
                assert (e_alpha ** j).is_zero() == (y ** (j - 1)).is_zero()


def test_a5_divisibility_routes_agree_on_random_bundles():
    with criterion("A5 Gysin/divisibility route agreement, 200 random bundles"):
        rng = random.Random(20240814)
        disagreements = 0
        bundles = 0
        for _ in range(200):
            b = random_real_bundle(rng)
            bundles += 1
            for k in range(default_k_max(b) + 1):
                try:
                    shared = gysin_equivalence_check(b, k)
                except InternalDisagreementError:
                    disagreements += 1
                    continue
                if shared != sphere_divisibility_test(b, k):
                    disagreements += 1
        assert bundles == 200
        assert disagreements == 0


def test_a6_point_sphere_table():
    with criterion("A6 integral point-sphere table, n = 1..8"):
        for n in range(1, 9):
            row = point_sphere_table(n)
            assert row.values[0] == "1"
            assert row.values[2] == "0"
            if n % 2:
                assert row.minimal_k == 1
                assert row.values[1] == "0"
            else:
                assert row.minimal_k == 2
                assert row.witness == "2"
                assert row.values[1] == "2"


def test_a7_symmetrized_sphere_over_a_point():
    with criterion("A7 symmetrized sphere criterion over a point, n = 1..8"):
        for n in range(1, 9):
            b = trivial_bundle(KField.R, n + 1)
            assert symm_sphere_test(b, 1) is False
            assert symm_sphere_test(b, 2) is True


def test_a8_planner_verification_and_chart_roundtrips():
    with criterion("A8 planner verification and chart roundtrips", budget=10.0):
        planner = build_sphere_planner(3)
        report = verify_planner(planner, samples=10_000, seed=0)
        assert report.passed
        assert report.max_endpoint_error < 1e-9
        assert report.max_diagonal_error < 1e-9
        assert report.cover_failures == 0
        assert report.continuity_max_step <= report.continuity_bound
        assert report.equivariance_error < 1e-9
        assert sphere_roundtrip_error(3, 1000, seed=0) < 1e-9
        for field in (KField.R, KField.C, KField.H):
            assert proj_roundtrip_error(field, 4, 1000, seed=0) < 1e-9


def test_a9_reduction_agrees_with_brute_force_linear_algebra():
    with criterion("A9 normal forms vs degreewise linear algebra"):
        mismatches = 0
        checked = 0

        pres, _ = q_tilde_of(trivial_bundle(KField.R, 3), Coeffs.F2)
        assert pres.truncation is None
        for degree in range(pres.top_degree() + 1):
            for mono in _monomials_of_degree(pres.ring, degree):
                poly = Polynomial(pres.ring, {mono: 1})
                checked += 1
                if pres.element(poly).is_zero() != f2_ideal_member(
                    pres.ring, list(pres.relations), poly
                ):
                    mismatches += 1

        gpres, _, _ = grassmann_of(trivial_bundle(KField.R, 3))
        assert gpres.truncation is not None
        for degree in range(gpres.truncation + 1):
            for mono in _monomials_of_degree(gpres.ring, degree):
                poly = Polynomial(gpres.ring, {mono: 1})
                checked += 1
                if gpres.element(poly).is_zero() != f2_ideal_member(
                    gpres.ring, list(gpres.relations), poly
                ):
                    mismatches += 1

        assert checked == 26
        assert mismatches == 0
