"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately naive: plain dict convolution for products,
row-reduction over F2 for ideal membership, and a power-series product for
the Gaussian binomial.  None of it shares code with the package internals,
except two planner replays that run the package's kernels the plain way:
the equivariance replay runs the geodesic kernel one trial at a time, so
that it checks the batched trials of ``verify_planner`` bit for bit, and the
section-crossing replay evaluates every piece of the rule at every t, with
its own two-output chart formula, so that it checks the rule's piecewise
evaluation bit for bit.  The arc formula is written out in one pass, so that
it checks the package's arc, whose per-pair part runs once per pair, bit for
bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from tcbundles import Coeffs, Polynomial, PolyRing


# -- naive polynomial arithmetic ------------------------------------------------


def naive_mul_terms(a: dict, b: dict, mod2: bool) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    if mod2:
        return {e: 1 for e, c in out.items() if c % 2 == 1}
    return {e: c for e, c in out.items() if c != 0}


def naive_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    terms = naive_mul_terms(a.terms, b.terms, a.ring.coeffs is Coeffs.F2)
    return Polynomial(a.ring, terms)


def naive_pow(a: Polynomial, k: int) -> Polynomial:
    ngens = a.ring.ngens
    acc = {(0,) * ngens: 1}
    for _ in range(k):
        acc = naive_mul_terms(acc, a.terms, a.ring.coeffs is Coeffs.F2)
    return Polynomial(a.ring, acc)


# -- degreewise F2 ideal membership -----------------------------------------------


def monomials_of_degree(ring: PolyRing, degree: int) -> list[tuple]:
    """Every exponent vector of exact weighted degree, in lexicographic order."""
    found: list[tuple] = []

    def rec(i: int, rest: int, prefix: list[int]) -> None:
        if i == ring.ngens:
            if rest == 0:
                found.append(tuple(prefix))
            return
        d = ring.degrees[i]
        for e in range(rest // d + 1):
            rec(i + 1, rest - e * d, prefix + [e])

    rec(0, degree, [])
    return found


@lru_cache(maxsize=64)
def _ideal_piece(ring: PolyRing, relations: tuple[Polynomial, ...],
                 degree: int) -> tuple[dict, dict[int, int]]:
    """The monomials of one degree, indexed, and an echelon basis of the
    ideal's piece in that degree, keyed by each row's highest monomial.

    Spans the piece by multiplying each relation with every monomial of the
    complementary degree, then row-reduces the products.  Cached, so that
    the checks of one ring share each degree's piece; callers only read it.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(ring, degree))}
    pivots: dict[int, int] = {}
    for r in relations:
        shift = degree - r.degree()
        if shift < 0:
            continue
        for m in monomials_of_degree(ring, shift):
            row = 0
            for e, c in naive_mul_terms({m: 1}, r.terms, True).items():
                row ^= 1 << index[e]
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
    return index, pivots


def f2_ideal_member(ring: PolyRing, relations: list[Polynomial],
                    p: Polynomial) -> bool:
    """Is the homogeneous ``p`` in the ideal generated by ``relations``?"""
    if p.is_zero():
        return True
    index, pivots = _ideal_piece(ring, tuple(relations), p.degree())
    target = 0
    for e, c in p.terms.items():
        if c % 2 == 1:
            target ^= 1 << index[e]
    while target:
        top = target.bit_length() - 1
        if top not in pivots:
            return False
        target ^= pivots[top]
    return True


def f2_quotient_dimension(ring: PolyRing, relations: list[Polynomial],
                          degree: int) -> int:
    """dim of (free ring / ideal) in one degree, by rank over F2."""
    index, pivots = _ideal_piece(ring, tuple(relations), degree)
    return len(index) - len(pivots)


# -- standard monomials by enumeration ----------------------------------------------


def standard_monomials(pres, degree: int) -> list[tuple]:
    """Monomials of one degree that no lead of the completed ``pres`` divides,
    in graded-lex order, found by testing every monomial against every lead."""
    if degree < 0 or (pres.truncation is not None and degree > pres.truncation):
        return []
    leads = [r.leading_exponents() for r in pres.relations]
    out = [m for m in monomials_of_degree(pres.ring, degree)
           if not any(all(x <= y for x, y in zip(lead, m)) for lead in leads)]
    out.sort(key=pres.ring.order_key)
    return out


# -- plane polynomials in closed form ----------------------------------------------


def p_closed_form(ring: PolyRing, i: int) -> Polynomial:
    """p_i = sum_j binom(i-j, j) Y^(i-2j) Z^j, an independent derivation of
    p_(i+1) = Y*p_i + Z*p_(i-1) with p_0 = 1, p_1 = Y."""
    y, z = ring.gen("Y"), ring.gen("Z")
    terms = (math.comb(i - j, j) * y ** (i - 2 * j) * z ** j for j in range(i // 2 + 1))
    return sum(terms, ring.zero())


# -- Gaussian binomial by power series --------------------------------------------


def gaussian_binomial_series(m: int, terms: int) -> list[int]:
    """Coefficients of (1-q^m)(1-q^(m-1)) / ((1-q)(1-q^2)) as a power series."""
    num = [Fraction(0)] * terms
    num[0] = Fraction(1)

    def mul_poly(series: list[Fraction], poly: dict[int, int]) -> list[Fraction]:
        out = [Fraction(0)] * terms
        for shift, c in poly.items():
            for i in range(terms - shift):
                out[i + shift] += c * series[i]
        return out

    def div_one_minus(series: list[Fraction], k: int) -> list[Fraction]:
        # multiply by 1/(1-q^k) = 1 + q^k + q^2k + ...
        out = list(series)
        for i in range(k, terms):
            out[i] += out[i - k]
        return out

    num = mul_poly(num, {0: 1, m: -1})
    num = mul_poly(num, {0: 1, m - 1: -1})
    num = div_one_minus(num, 1)
    num = div_one_minus(num, 2)
    assert all(c.denominator == 1 for c in num)
    return [int(c) for c in num]


# -- rewriting modulo a monic tower ---------------------------------------------------


def tower_normal_form(relations: list[Polynomial], p: Polynomial,
                      truncation: int | None = None) -> Polynomial:
    """Normal form of ``p`` modulo a monic tower, by unmerged stack rewriting.

    Each relation is ``lc * g^m + rest`` with ``lc = +-1``, where ``g`` is
    the last generator it involves, so ``g^m`` rewrites to ``-lc * rest``.
    Terms are popped one at a time, rewritten by the latest applicable
    generator and pushed back without merging coefficients; terms above the
    truncation degree are dropped.  Works over F2 and over Z.
    """
    ring = p.ring
    rules = []
    for rel in relations:
        gidx = max(i for exps in rel.terms for i, e in enumerate(exps) if e > 0)
        power = max(exps[gidx] for exps in rel.terms)
        lead = tuple(power if i == gidx else 0 for i in range(ring.ngens))
        lc = rel.coefficient(lead)
        repl = {e: -lc * c for e, c in rel.terms.items() if e != lead}
        rules.append((gidx, power, repl))
    rules.sort(key=lambda r: -r[0])
    out: dict = {}
    stack = list(p.terms.items())
    while stack:
        exps, coeff = stack.pop()
        if coeff == 0:
            continue
        if truncation is not None and ring.weighted_degree(exps) > truncation:
            continue
        for gidx, power, repl in rules:
            if exps[gidx] >= power:
                rest = list(exps)
                rest[gidx] -= power
                for rexps, rc in repl.items():
                    stack.append((tuple(a + b for a, b in zip(rest, rexps)), coeff * rc))
                break
        else:
            out[exps] = out.get(exps, 0) + coeff
    return Polynomial(ring, out)


# -- the planner's equivariance trials, one at a time ---------------------------------


def planner_equivariance_error(n: int, samples: int, seed: int) -> float:
    """``equivariance_error`` of ``verify_planner`` at (n, samples, seed), by the
    per-trial loop: one QR, one pair and two geodesics per trial, replayed
    from the seed after the two ``(samples, n + 1)`` sample draws."""
    import numpy as np

    from tcbundles.geomplan import _arc, _max_distance, _random_units

    rng = np.random.default_rng(seed)
    dim = n + 1
    rng.standard_normal((samples, dim))
    rng.standard_normal((samples, dim))
    equivariance = 0.0
    eq_grid = np.linspace(-1.0, 1.0, 9)
    for _ in range(100):
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        u, v = _random_units(rng, 2, dim)
        if float(np.dot(u, v)) < -1.0 + 1e-6:
            continue
        lhs = _arc(g @ u, g @ v)(eq_grid)
        rhs = _arc(u, v)(eq_grid) @ g.T
        equivariance = max(equivariance, _max_distance(lhs, rhs))
    return equivariance


# -- the great-circle arc, in one pass ----------------------------------------------------


def arc_path(t, u, v):
    """``geomplan._arc(u, v)(t)`` written out in one pass: the angle and the
    normal direction are worked out together with the path, and the rows with
    u = v are kept at u by an ``np.where`` that runs whether or not any row
    has u = v."""
    import numpy as np

    from tcbundles.bundles import GeometryError

    cos_theta = np.clip(np.einsum("...i,...i->...", u, v), -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if np.any(theta > np.pi - 1e-9):
        raise GeometryError("geodesic undefined for antipodal points")
    sin_theta = np.sin(theta)
    fixed = sin_theta < 1e-12
    w = (v - cos_theta[..., None] * u) / np.where(fixed, 1.0, sin_theta)[..., None]
    angle = theta * np.asarray(t, dtype=float)
    path = np.cos(angle)[..., None] * u + np.sin(angle)[..., None] * w
    return np.where(fixed[..., None], u, path)


# -- the section-crossing rule, every piece at every t ---------------------------------


def section_crossing_path(t, x, y):
    """``build_sphere_planner(n).rules[1].path(x, y)(t)`` by the full-grid
    formula: both chart segments and the whole crossing are evaluated for
    every t, then one is kept by a chain of ``np.where``."""
    import numpy as np

    from tcbundles.geomplan import _pi_inverse_raw, _sigma_raw, complex_structure

    u0, w = _pi_inverse_raw(x, y)
    t = np.asarray(t, dtype=float)[..., None]
    # both outputs of the ball-bundle chart at (u0, (|2t| - 1) w), written out
    scaled = (np.abs(2.0 * t) - 1.0) * w
    s2 = np.einsum("...i,...i->...", scaled, scaled)[..., None]
    near_u0 = ((1.0 - s2) * u0 + 2.0 * scaled) / (1.0 + s2)
    near_minus_u0 = ((s2 - 1.0) * u0 + 2.0 * scaled) / (1.0 + s2)
    crossing = _sigma_raw(complex_structure(u0), 2.0 * t[..., 0], u0)
    return np.where(t >= 0.5, near_u0, np.where(t <= -0.5, near_minus_u0, crossing))
