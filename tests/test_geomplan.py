"""Numeric geometry: scalar algebra, geodesics, charts, planners, verification."""

import math

import numpy as np
import pytest

from tcbundles import (
    GeometryError,
    KField,
    Planner,
    PlannerRule,
    ProjPoint,
    SpherePoint,
    build_sphere_planner,
    complex_structure,
    geodesic_c,
    line_error,
    lines_equal,
    pi_inverse,
    pi_map,
    proj_pi_inverse,
    proj_pi_map,
    proj_rho,
    proj_roundtrip_error,
    proj_sigma,
    rho_sphere,
    sigma_sphere,
    sphere_roundtrip_error,
    verify_planner,
)
from tcbundles import geomplan
from tcbundles.geomplan import (
    GEOM_TOL,
    SCALAR_TOL,
    _arc,
    _dot,
    _pi_inverse_raw,
    k_conj,
    k_inner,
    k_mul,
    k_scalar_mul,
)
from oracles import arc_path, planner_equivariance_error, section_crossing_path

RNG = np.random.default_rng(20240817)


def unit(vec):
    arr = np.asarray(vec, dtype=float)
    return arr / np.linalg.norm(arr)


def random_sphere_point(dim, rng=RNG):
    return unit(rng.standard_normal(dim))


def random_line(field, m, rng=RNG):
    return ProjPoint(field, unit(rng.standard_normal((m, field.d))))


def random_rotation(dim, rng=RNG):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_units(count, dim, rng=RNG):
    vecs = rng.standard_normal((count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def random_realified_unitary(m, rng=RNG):
    """A random element of U(m) acting on R^(2m) with coordinates
    (Re z_0, Im z_0, Re z_1, ...), so it commutes with complex_structure."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    g = np.empty((2 * m, 2 * m))
    g[0::2, 0::2] = q.real
    g[0::2, 1::2] = -q.imag
    g[1::2, 0::2] = q.imag
    g[1::2, 1::2] = q.real
    return g


def orthogonal_line(field, line, rng=RNG):
    """A random line orthogonal to the given one (Gram-Schmidt on reps)."""
    u = line.rep
    raw = rng.standard_normal(u.shape)
    raw = raw - k_scalar_mul(field, k_conj(field, k_inner(field, u, raw)), u)
    return ProjPoint(field, unit(raw))


# -- scalar algebra ------------------------------------------------------------------


QUAT_BASIS = [np.eye(4)[i] for i in range(4)]


def test_quaternion_multiplication_table():
    one, i, j, k = QUAT_BASIS
    table = {
        (0, 0): one, (0, 1): i, (0, 2): j, (0, 3): k,
        (1, 0): i, (1, 1): -one, (1, 2): k, (1, 3): -j,
        (2, 0): j, (2, 1): -k, (2, 2): -one, (2, 3): i,
        (3, 0): k, (3, 1): j, (3, 2): -i, (3, 3): -one,
    }
    for (a, b), want in table.items():
        got = k_mul(KField.H, QUAT_BASIS[a], QUAT_BASIS[b])
        assert np.allclose(got, want), (a, b, got)


def test_quaternion_multiplication_associative():
    for _ in range(50):
        a, b, c = RNG.standard_normal((3, 4))
        left = k_mul(KField.H, k_mul(KField.H, a, b), c)
        right = k_mul(KField.H, a, k_mul(KField.H, b, c))
        assert np.allclose(left, right, atol=1e-12)


def test_quaternion_norm_multiplicative():
    for _ in range(50):
        a, b = RNG.standard_normal((2, 4))
        prod = k_mul(KField.H, a, b)
        assert math.isclose(
            float(np.linalg.norm(prod)),
            float(np.linalg.norm(a) * np.linalg.norm(b)),
            rel_tol=1e-12,
        )


def test_quaternion_conj_reverses_products():
    for _ in range(50):
        a, b = RNG.standard_normal((2, 4))
        lhs = k_conj(KField.H, k_mul(KField.H, a, b))
        rhs = k_mul(KField.H, k_conj(KField.H, b), k_conj(KField.H, a))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_complex_mul_matches_python_complex():
    for _ in range(50):
        a, b = RNG.standard_normal((2, 2))
        prod = k_mul(KField.C, a, b)
        want = complex(*a) * complex(*b)
        assert math.isclose(prod[0], want.real, abs_tol=1e-12)
        assert math.isclose(prod[1], want.imag, abs_tol=1e-12)


def test_k_inner_conjugate_symmetry():
    for field, m in [(KField.R, 5), (KField.C, 4), (KField.H, 3)]:
        u = RNG.standard_normal((m, field.d))
        v = RNG.standard_normal((m, field.d))
        lhs = k_inner(field, u, v)
        rhs = k_conj(field, k_inner(field, v, u))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_k_inner_of_self_is_squared_norm():
    for field, m in [(KField.R, 5), (KField.C, 4), (KField.H, 3)]:
        u = RNG.standard_normal((m, field.d))
        inner = np.atleast_1d(k_inner(field, u, u))
        assert math.isclose(float(inner[0]), float(np.sum(u * u)))
        assert np.allclose(inner[1:], 0.0, atol=1e-12)


def test_k_scalar_mul_is_left_action():
    for _ in range(20):
        q1, q2 = RNG.standard_normal((2, 4))
        u = RNG.standard_normal((3, 4))
        lhs = k_scalar_mul(KField.H, q1, k_scalar_mul(KField.H, q2, u))
        rhs = k_scalar_mul(KField.H, k_mul(KField.H, q1, q2), u)
        assert np.allclose(lhs, rhs, atol=1e-12)


def quaternion_matrix(a):
    """a0 + a1 i + a2 j + a3 k as the 2x2 complex matrix [[z, w], [-w̄, z̄]],
    z = a0 + a1 i and w = a2 + a3 i, over the leading axes."""
    z, w = a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]
    return np.stack([np.stack([z, w], -1), np.stack([-w.conj(), z.conj()], -1)], -2)


# each field's K-scalars as numpy scalars (R), complex128 (C) or 2x2 complex
# matrices (H), with that representation's product and conjugate
K_REFERENCE = {
    KField.R: (lambda a: a[..., 0], np.multiply, lambda x: x),
    KField.C: (lambda a: a[..., 0] + 1j * a[..., 1], np.multiply, np.conj),
    KField.H: (quaternion_matrix, np.matmul, lambda x: np.swapaxes(x.conj(), -2, -1)),
}


@pytest.mark.parametrize("field", list(KField))
def test_k_products_match_independent_references_on_broadcast_batches(field):
    embed, mul, conj = K_REFERENCE[field]
    rng = np.random.default_rng(30)
    a = rng.standard_normal((2, 1, 3, field.d))
    b = rng.standard_normal((5, 1, field.d))
    prod = k_mul(field, a, b)
    assert prod.shape == (2, 5, 3, field.d)
    assert np.allclose(embed(prod), mul(embed(a), embed(b)), rtol=0, atol=1e-12)
    assert np.allclose(embed(k_conj(field, a)), conj(embed(a)), rtol=0, atol=0)
    # k_scalar_mul and k_inner, row by row against the reference
    q = rng.standard_normal((2, 1, field.d))
    u = rng.standard_normal((5, 3, field.d))
    v = rng.standard_normal((3, field.d))
    scaled, inner = k_scalar_mul(field, q, u), k_inner(field, u, v)
    assert scaled.shape == (2, 5, 3, field.d) and inner.shape == (5, field.d)
    for i, j, k in np.ndindex(2, 5, 3):
        want = mul(embed(q[i, 0]), embed(u[j, k]))
        assert np.allclose(embed(scaled[i, j, k]), want, rtol=0, atol=1e-12)
    for j in range(5):
        want = sum(mul(embed(u[j, k]), conj(embed(v[k]))) for k in range(3))
        assert np.allclose(embed(inner[j]), want, rtol=0, atol=1e-12)


# -- validated points ----------------------------------------------------------------


def test_sphere_point_requires_unit_vector():
    SpherePoint([0.6, 0.8, 0.0])
    with pytest.raises(GeometryError):
        SpherePoint([0.6, 0.9, 0.0])
    with pytest.raises(GeometryError):
        SpherePoint(np.eye(2))


def test_proj_point_requires_unit_representative_of_right_shape():
    ProjPoint(KField.C, [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]])
    with pytest.raises(GeometryError):
        ProjPoint(KField.C, [[0.6, 0.0], [0.9, 0.0], [0.0, 0.0]])
    with pytest.raises(GeometryError):
        ProjPoint(KField.H, [[1.0, 0.0], [0.0, 0.0]])


def test_display_rep_is_phase_normalized():
    rep = unit(RNG.standard_normal((3, 2)))
    q = unit(RNG.standard_normal(2))
    line = ProjPoint(KField.C, k_scalar_mul(KField.C, q, rep))
    shown = line.display_rep()
    i = int(np.argmax(np.linalg.norm(shown, axis=1)))
    assert shown[i][1] == pytest.approx(0.0, abs=1e-12)
    assert shown[i][0] > 0.0
    assert lines_equal(ProjPoint(KField.C, shown), line)


def test_line_error_is_phase_invariant():
    for field in (KField.R, KField.C, KField.H):
        line = random_line(field, 4)
        q = unit(RNG.standard_normal(field.d))
        rotated = ProjPoint(field, k_scalar_mul(field, q, line.rep))
        assert line_error(line, rotated) < 1e-12
        assert lines_equal(line, rotated)
        other = orthogonal_line(field, line)
        assert line_error(line, other) == pytest.approx(1.0, abs=1e-9)
        assert not lines_equal(line, other)


# -- sphere geodesics ----------------------------------------------------------------


def test_geodesic_endpoints_and_midpoint():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    assert np.allclose(geodesic_c(0.0, u, v).coords, u)
    assert np.allclose(geodesic_c(1.0, u, v).coords, v)
    mid = geodesic_c(0.5, u, v).coords
    assert np.allclose(mid, unit(u + v), atol=1e-12)


def test_geodesic_fixes_equal_points():
    u = random_sphere_point(4)
    for t in np.linspace(0.0, 1.0, 7):
        assert np.allclose(geodesic_c(float(t), u, u).coords, u)


def test_geodesic_antipodal_raises():
    u = random_sphere_point(3)
    with pytest.raises(GeometryError):
        geodesic_c(0.5, u, -u)


def test_geodesic_constant_speed():
    u, v = (random_sphere_point(4) for _ in range(2))
    ts = np.linspace(0.0, 1.0, 33)
    points = [geodesic_c(float(t), u, v).coords for t in ts]
    steps = [np.linalg.norm(a - b) for a, b in zip(points, points[1:])]
    assert max(steps) - min(steps) < 1e-12


def test_geodesic_rotation_equivariant():
    for _ in range(100):
        u, v = (random_sphere_point(4) for _ in range(2))
        rot = random_rotation(4)
        t = float(RNG.uniform(0.0, 1.0))
        direct = geodesic_c(t, rot @ u, rot @ v).coords
        rotated = rot @ geodesic_c(t, u, v).coords
        assert np.allclose(direct, rotated, atol=1e-9)


def test_rho_endpoints_and_symmetry():
    worst = 0.0
    for _ in range(1000):
        u, v = (random_sphere_point(3) for _ in range(2))
        worst = max(worst, float(np.linalg.norm(rho_sphere(1.0, u, v).coords - u)))
        worst = max(worst, float(np.linalg.norm(rho_sphere(-1.0, u, v).coords - v)))
        t = float(RNG.uniform(-1.0, 1.0))
        flipped = rho_sphere(-t, v, u).coords
        worst = max(worst, float(np.linalg.norm(rho_sphere(t, u, v).coords - flipped)))
    assert worst < 1e-12


def test_sigma_crosses_through_midpoint():
    u = np.array([0.0, 0.0, 1.0])
    w = np.array([1.0, 0.0, 0.0])
    assert np.allclose(sigma_sphere(w, 1.0, u).coords, u, atol=1e-12)
    assert np.allclose(sigma_sphere(w, -1.0, u).coords, -u, atol=1e-12)
    assert np.allclose(sigma_sphere(w, 0.0, u).coords, w, atol=1e-12)
    quarter = sigma_sphere(w, 0.5, u).coords
    assert np.allclose(quarter, unit(u + w), atol=1e-12)


def test_sigma_requires_orthogonal_midpoint():
    u = np.array([0.0, 0.0, 1.0])
    with pytest.raises(GeometryError):
        sigma_sphere(np.array([0.0, 0.6, 0.8]), 0.0, u)


# -- the sphere chart around antipodal pairs -----------------------------------------


def test_pi_at_zero_returns_the_antipodal_pair():
    u = random_sphere_point(5)
    x, y = pi_map(u, -u, np.zeros(5))
    assert np.allclose(x.coords, u, atol=1e-12)
    assert np.allclose(y.coords, -u, atol=1e-12)


def test_pi_at_unit_boundary_collapses():
    u = np.array([0.0, 0.0, 1.0])
    w = np.array([1.0, 0.0, 0.0])
    x, y = pi_map(u, -u, w)
    assert np.allclose(x.coords, y.coords, atol=1e-12)
    assert np.allclose(x.coords, w, atol=1e-12)


def test_pi_validates_inputs():
    u = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    with pytest.raises(GeometryError):
        pi_map(u, v, np.zeros(3))
    with pytest.raises(GeometryError):
        pi_map(u, -u, np.array([0.0, 0.1, 0.1]))
    with pytest.raises(GeometryError):
        pi_map(u, -u, np.array([1.1, 0.0, 0.0]))


def test_pi_inverse_right_angle_identity():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    _, _, w = pi_inverse(x, y)
    assert float(np.linalg.norm(w)) == pytest.approx(math.tan(math.pi / 8), abs=1e-12)
    assert float(np.linalg.norm(w)) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)


def test_pi_inverse_of_antipodes_has_zero_chart_vector():
    x = random_sphere_point(4)
    u, v, w = pi_inverse(x, -x)
    assert np.allclose(u.coords, x, atol=1e-12)
    assert np.allclose(v.coords, -x, atol=1e-12)
    assert np.allclose(w, 0.0)


def test_pi_inverse_diagonal_raises():
    x = random_sphere_point(3)
    with pytest.raises(GeometryError):
        pi_inverse(x, x)


def test_sphere_chart_roundtrips():
    assert sphere_roundtrip_error(3, 1000, seed=7) < 1e-9


# -- projective geodesics and the projective chart -----------------------------------


def test_proj_rho_endpoints():
    for field in (KField.R, KField.C, KField.H):
        for _ in range(20):
            line_l = random_line(field, 4)
            line_m = random_line(field, 4)
            if line_error(line_l, line_m) > 1.0 - 1e-6:
                continue
            assert line_error(proj_rho(1.0, line_l, line_m), line_l) < 1e-9
            assert line_error(proj_rho(-1.0, line_l, line_m), line_m) < 1e-9


def test_proj_rho_fixes_equal_lines():
    line = random_line(KField.H, 3)
    q = unit(RNG.standard_normal(4))
    same = ProjPoint(KField.H, k_scalar_mul(KField.H, q, line.rep))
    for t in np.linspace(-1.0, 1.0, 9):
        assert line_error(proj_rho(float(t), line, same), line) < 1e-9


def test_proj_rho_complex_bisector():
    line_l = ProjPoint(KField.C, [[1.0, 0.0], [0.0, 0.0]])
    line_m = ProjPoint(KField.C, unit([[1.0, 0.0], [1.0, 0.0]]))
    mid = proj_rho(0.0, line_l, line_m)
    angle = math.pi / 8
    want = ProjPoint(KField.C, [[math.cos(angle), 0.0], [math.sin(angle), 0.0]])
    assert line_error(mid, want) < 1e-12


def test_proj_rho_representative_independent():
    line_l = random_line(KField.H, 3)
    third = random_line(KField.H, 3)
    q = unit(np.array([1.0, 2.0, -1.0, 0.5]))
    moved = ProjPoint(KField.H, k_scalar_mul(KField.H, q, third.rep))
    for t in np.linspace(-1.0, 1.0, 9):
        a = proj_rho(float(t), line_l, third)
        b = proj_rho(float(t), line_l, moved)
        assert line_error(a, b) < 1e-9


def test_proj_rho_orthogonal_raises():
    line_l = random_line(KField.C, 4)
    line_m = orthogonal_line(KField.C, line_l)
    with pytest.raises(GeometryError):
        proj_rho(0.0, line_l, line_m)


def test_proj_sigma_endpoints_and_middle():
    line_l = ProjPoint(KField.C, [[1.0, 0.0], [0.0, 0.0]])
    line_m = ProjPoint(KField.C, [[0.0, 0.0], [1.0, 0.0]])
    q = unit(np.array([0.6, 0.8]))
    a_u = k_scalar_mul(KField.C, q, line_m.rep)
    assert line_error(proj_sigma(a_u, 1.0, line_l, line_m), line_l) < 1e-12
    assert line_error(proj_sigma(a_u, -1.0, line_l, line_m), line_m) < 1e-12
    middle = proj_sigma(a_u, 0.0, line_l, line_m)
    want = ProjPoint(KField.C, (line_l.rep + a_u) / math.sqrt(2.0))
    assert line_error(middle, want) < 1e-12


def test_proj_sigma_validates_isometry_encoding():
    line_l = random_line(KField.C, 3)
    line_m = orthogonal_line(KField.C, line_l)
    ok = k_scalar_mul(KField.C, np.array([1.0, 0.0]), line_m.rep)
    proj_sigma(ok, 0.3, line_l, line_m)
    with pytest.raises(GeometryError):
        proj_sigma(0.5 * ok, 0.0, line_l, line_m)
    with pytest.raises(GeometryError):
        proj_sigma(line_l.rep, 0.0, line_l, line_m)
    third = random_line(KField.C, 3)
    with pytest.raises(GeometryError):
        proj_sigma(ok, 0.0, line_l, third)


def test_proj_pi_at_zero_returns_the_pair():
    line_l = random_line(KField.H, 4)
    line_m = orthogonal_line(KField.H, line_l)
    x, y = proj_pi_map(line_l, line_m, np.zeros((4, 4)))
    assert line_error(x, line_l) < 1e-12
    assert line_error(y, line_m) < 1e-12


def test_proj_pi_with_unit_a_collapses():
    line_l = random_line(KField.C, 3)
    line_m = orthogonal_line(KField.C, line_l)
    q = unit(RNG.standard_normal(2))
    a_u = k_scalar_mul(KField.C, q, line_m.rep)
    x, y = proj_pi_map(line_l, line_m, a_u)
    assert line_error(x, y) < 1e-9


def test_proj_pi_validates_inputs():
    line_l = random_line(KField.C, 3)
    line_m = orthogonal_line(KField.C, line_l)
    with pytest.raises(GeometryError):
        proj_pi_map(line_l, random_line(KField.C, 3), np.zeros((3, 2)))
    with pytest.raises(GeometryError):
        proj_pi_map(line_l, line_m, 1.5 * line_m.rep)
    with pytest.raises(GeometryError):
        proj_pi_map(line_l, line_m, 0.5 * line_l.rep)


def test_proj_pi_inverse_of_orthogonal_lines():
    line_x = random_line(KField.R, 5)
    line_y = orthogonal_line(KField.R, line_x)
    l2, m2, a = proj_pi_inverse(line_x, line_y)
    assert line_error(l2, line_x) < 1e-12
    assert line_error(m2, line_y) < 1e-12
    assert np.allclose(a, 0.0)


def test_proj_pi_inverse_equal_lines_raises():
    line = random_line(KField.C, 4)
    q = unit(RNG.standard_normal(2))
    same = ProjPoint(KField.C, k_scalar_mul(KField.C, q, line.rep))
    with pytest.raises(GeometryError):
        proj_pi_inverse(line, same)


def test_projective_chart_roundtrips_all_fields():
    for field in (KField.R, KField.C, KField.H):
        assert proj_roundtrip_error(field, 4, 300, seed=3) < 1e-9


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("field", [KField.R, KField.C, KField.H], ids=lambda f: f.tag)
def test_batched_projective_charts_agree_with_single_lines(field, m):
    rng = np.random.default_rng(100 * m + field.d)
    count = 64

    def line(reps):
        return ProjPoint(field, reps)

    def unit_lines(reps):
        return reps / np.linalg.norm(reps, axis=(-2, -1), keepdims=True)

    ls = unit_lines(rng.standard_normal((count, m, field.d)))
    others = unit_lines(rng.standard_normal((count, m, field.d)))
    raw = rng.standard_normal(ls.shape)
    orth = unit_lines(raw - k_scalar_mul(field, k_conj(field, k_inner(field, ls, raw)), ls))
    q = rng.standard_normal((count, field.d))
    isometry = k_scalar_mul(field, q / np.linalg.norm(q, axis=-1, keepdims=True), orth)
    a_u = rng.uniform(0.0, 0.95, (count, 1, 1)) * isometry
    t = rng.uniform(-1.0, 1.0, count)
    grid = np.linspace(-1.0, 1.0, 3)
    # the last pair given to the inverse is orthogonal, so it is its own preimage
    xs = np.concatenate([others[:-1], orth[-1:]])

    def charts(i):
        l, o, p, x = line(ls[i]), line(others[i]), line(orth[i]), line(xs[i])
        pair = proj_pi_map(l, p, a_u[i])
        inverse = proj_pi_inverse(l, x)
        # a (3, 1) t-grid against a batch puts the grid axis first; move it
        # behind the rows
        ts = grid[:, None] if isinstance(i, slice) else grid
        on_grid = [np.moveaxis(proj_rho(ts, l, o).rep, 0, -3),
                   np.moveaxis(proj_sigma(isometry[i], ts, l, p).rep, 0, -3)]
        return on_grid + [
            proj_rho(t[i], l, o).rep, proj_sigma(isometry[i], t[i], l, p).rep,
            pair[0].rep, pair[1].rep, inverse[0].rep, inverse[1].rep, inverse[2],
            line_error(l, o), o.display_rep(),
        ]

    batched = charts(slice(None))
    assert batched[0].shape == (count, 3, m, field.d)
    for i in range(count):
        for got, want in zip(batched, charts(i), strict=True):
            assert np.shape(got[i]) == np.shape(want)
            assert np.max(np.abs(got[i] - want), initial=0.0) <= 1e-14
    assert np.all(batched[-3][-1] == 0.0)
    assert line_error(line(batched[-5][-1]), line(ls[-1])) < 1e-12
    assert line_error(line(batched[-4][-1]), line(orth[-1])) < 1e-12

    def with_bad_row(batch, row):
        out = np.array(batch)
        out[5] = row
        return out

    near = with_bad_row(others, orth[5])
    skew = with_bad_row(orth, others[5])
    long_a = with_bad_row(a_u, 1.5 * isometry[5])
    equal = with_bad_row(xs, ls[5])
    stretched = with_bad_row(ls, 1.1 * ls[5])
    degenerate = [
        lambda i: proj_rho(t[i], line(ls[i]), line(near[i])),
        lambda i: proj_sigma(isometry[i], t[i], line(ls[i]), line(skew[i])),
        lambda i: proj_pi_map(line(ls[i]), line(orth[i]), long_a[i]),
        lambda i: proj_pi_inverse(line(ls[i]), line(equal[i])),
        lambda i: line(stretched[i]),
    ]
    for case in degenerate:
        with pytest.raises(GeometryError) as single:
            case(5)
        with pytest.raises(GeometryError) as batch:
            case(slice(None))
        assert str(batch.value) == str(single.value)


# -- complex structure and planners ---------------------------------------------------


def test_complex_structure_properties():
    x = RNG.standard_normal(6)
    jx = complex_structure(x)
    assert math.isclose(float(np.linalg.norm(jx)), float(np.linalg.norm(x)))
    assert abs(float(np.dot(x, jx))) < 1e-12
    assert np.allclose(complex_structure(jx), -x)
    with pytest.raises(GeometryError):
        complex_structure(np.zeros(5))


def test_build_planner_rejects_even_spheres():
    with pytest.raises(GeometryError, match="section"):
        build_sphere_planner(2)


def test_planner_covers_every_pair_with_correct_endpoints():
    planner = build_sphere_planner(3)
    pairs = [(random_sphere_point(4), random_sphere_point(4)) for _ in range(50)]
    u0 = random_sphere_point(4)
    pairs += [(u0, -u0), (u0, u0)]
    for u, v in pairs:
        assert np.linalg.norm(planner.plan(1.0, u, v) - u) < 1e-9
        assert np.linalg.norm(planner.plan(-1.0, u, v) - v) < 1e-9


def test_planner_antipodes_use_the_section_rule():
    planner = build_sphere_planner(3)
    u = random_sphere_point(4)
    assert not planner.rules[0].accepts(u, -u)
    assert planner.rules[1].accepts(u, -u)
    crossing = planner.plan(0.0, u, -u)
    assert np.allclose(crossing, complex_structure(u), atol=1e-9)


def test_planner_paths_stay_on_the_sphere():
    planner = build_sphere_planner(3)
    u = random_sphere_point(4)
    v = random_sphere_point(4)
    for rule, target in ((planner.rules[0], v), (planner.rules[1], -u)):
        assert rule.accepts(u, target)
        for t in np.linspace(-1.0, 1.0, 41):
            point = rule.path(u, target)(float(t))
            assert abs(float(np.linalg.norm(point)) - 1.0) < 1e-9


def test_planner_section_rule_is_continuous_at_the_seams():
    planner = build_sphere_planner(3)
    rule = planner.rules[1]
    u, v = (random_sphere_point(4) for _ in range(2))
    path = rule.path(u, v)
    eps = 1e-7
    for seam in (-0.5, 0.0, 0.5):
        before = path(seam - eps)
        after = path(seam + eps)
        assert np.linalg.norm(before - after) < 1e-5


SEAM_EPS = 1e-7
SECTION_RULE_TS = (
    [1.0, -1.0, 0.5, -0.5, 0.0, -0.0, np.nan]
    + [seam + sign * SEAM_EPS for seam in (-0.5, 0.0, 0.5) for sign in (-1.0, 1.0)]
    # (T, 1) grids inside one piece each
    + [np.linspace(lo, hi, 9)[:, None]
       for lo, hi in ((0.5, 1.0), (-1.0, -0.5), (0.0, 0.49), (-0.49, -SEAM_EPS))]
    # grids straddling each seam, the whole probe grid, and NaN among crossings
    + [np.linspace(seam - 0.1, seam + 0.1, 9)[:, None] for seam in (-0.5, 0.0, 0.5)]
    + [np.linspace(-1.0, 1.0, 513)[:, None], np.array([[np.nan], [0.25], [-0.25]])]
)


@pytest.mark.parametrize("n", (1, 3, 7, 63))
def test_section_rule_matches_the_full_grid_formula_bit_for_bit(n):
    rule = build_sphere_planner(n).rules[1]
    us, vs = random_units(20, n + 1), random_units(20, n + 1)
    vs[:5] = -us[:5]
    for u, v in ((us, vs), (us[7], vs[7])):
        path = rule.path(u, v)
        for t in SECTION_RULE_TS:
            got, want = path(t), section_crossing_path(t, u, v)
            assert np.array_equal(got, want, equal_nan=True)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", (1, 3, 7, 63))
def test_arc_matches_the_one_pass_formula_bit_for_bit(n):
    us, vs = random_units(20, n + 1), random_units(20, n + 1)
    mixed = vs.copy()
    mixed[::3] = us[::3]
    near = build_sphere_planner(n).rules[0]
    # every row fixed (u = v), no row fixed, some rows fixed, and one row
    for u, v in ((us, us), (us, vs), (us, mixed), (us[7], vs[7])):
        path = near.path(u, v)
        for t in SECTION_RULE_TS:
            want = arc_path(t, u, v)
            half = arc_path((1.0 - np.asarray(t, dtype=float)) / 2.0, u, v)
            for got, expected in ((_arc(u, v)(t), want), (path(t), half)):
                assert np.array_equal(got, expected, equal_nan=True)
                assert got.tobytes() == expected.tobytes()


def _counting_rules(planner, log):
    """The planner's rules, each logging (rule name, rows, t-values seen) for
    every preparation of its path; an evaluation appends its t to the list."""

    def counting(rule):
        def path(u, v):
            seen = []
            log.append((rule.name, len(u), seen))
            prepared = rule.path(u, v)

            def at(t):
                seen.append(np.asarray(t, dtype=float))
                return prepared(t)

            return at

        return PlannerRule(rule.name, rule.accepts, path)

    return Planner(planner.n, tuple(counting(rule) for rule in planner.rules),
                   planner.lipschitz)


def test_verify_prepares_each_pair_once_for_all_its_t(monkeypatch):
    planner = build_sphere_planner(3)
    samples = 300
    expected = verify_planner(planner, samples, 0).lines()
    fine_grid = np.arange(-1.0, 1.0 + 1 / 512, 1 / 256)
    evaluations = {}
    for budget in (16, 1 << 20):
        monkeypatch.setattr(geomplan, "_BLOCK_COORDS", budget)
        log = []
        assert verify_planner(_counting_rules(planner, log), samples, 0).lines() == expected
        blocks = -(-samples // max(1, budget // 4))
        for rule in planner.rules:
            preparations = [(rows, seen) for name, rows, seen in log if name == rule.name]
            assert all(seen for _, seen in preparations)
            # the endpoint stage: one preparation per block, evaluated at both ends
            endpoint = [(rows, seen) for rows, seen in preparations if seen[0].ndim == 0]
            assert len(endpoint) == blocks
            assert sum(rows for rows, _ in endpoint) == samples
            assert all([float(t) for t in seen] == [1.0, -1.0] for _, seen in endpoint)
            # the continuity probe: one preparation for all chunks of the 513-point
            # grid, the rest being the diagonal stage's 17-point grids
            continuity = [seen for _, seen in preparations
                          if seen[0].ndim == 2 and len(seen[0]) != 17]
            assert len(continuity) == 1
            assert np.array_equal(np.unique(np.concatenate(continuity[0])), fine_grid)
            evaluations[budget, rule.name] = len(continuity[0])
    for rule in planner.rules:
        assert evaluations[16, rule.name] > evaluations[1 << 20, rule.name] == 1


def test_kernels_broadcast_and_reject_a_batch_with_one_degenerate_row():
    us, vs = random_units(6, 4), random_units(6, 4)
    ts = np.linspace(0.0, 1.0, 5)[:, None]
    batch = _arc(us, vs)(ts)
    assert batch.shape == (5, 6, 4)
    for i in range(6):
        for j, t in enumerate(ts[:, 0]):
            assert np.allclose(batch[j, i], geodesic_c(float(t), us[i], vs[i]).coords,
                               atol=1e-15, rtol=0.0)
    assert complex_structure(us).shape == (6, 4)
    assert np.allclose(complex_structure(us)[2], complex_structure(us[2]))
    antipodal = vs.copy()
    antipodal[3] = -us[3]
    with pytest.raises(GeometryError):
        _arc(us, antipodal)(0.5)
    diagonal = vs.copy()
    diagonal[4] = us[4]
    with pytest.raises(GeometryError):
        _pi_inverse_raw(us, diagonal)


def _pairs_with_degenerate_strata(dim, count=40):
    """Random pairs whose first 5 are antipodal and next 5 equal."""
    us, vs = random_units(count, dim), random_units(count, dim)
    vs[:5] = -us[:5]
    vs[5:10] = us[5:10]
    return us, vs


@pytest.mark.parametrize("n", (1, 3, 5))
def test_batched_rules_agree_with_plan_on_each_pair(n):
    planner = build_sphere_planner(n)
    us, vs = _pairs_with_degenerate_strata(n + 1)
    ts = np.linspace(-1.0, 1.0, 21)
    planned = np.full((len(ts), len(us), n + 1), np.nan)
    todo = np.ones(len(us), dtype=bool)
    for rule in planner.rules:
        accepted = rule.accepts(us, vs)
        assert accepted.shape == (len(us),) and accepted.dtype == bool
        assert accepted.tolist() == [bool(rule.accepts(u, v)) for u, v in zip(us, vs)]
        take = todo & accepted
        planned[:, take] = rule.path(us[take], vs[take])(ts[:, None])
        todo &= ~accepted
    assert not todo.any()
    for i, (u, v) in enumerate(zip(us, vs)):
        for j, t in enumerate(ts):
            assert np.max(np.abs(planned[j, i] - planner.plan(float(t), u, v))) <= 1e-15


@pytest.mark.parametrize("n", (1, 3, 5))
def test_planner_rules_are_unitary_equivariant_on_their_domains(n):
    planner = build_sphere_planner(n)
    us, vs = _pairs_with_degenerate_strata(n + 1)
    near, far = planner.rules
    assert near.accepts(us, vs).tolist() == [False] * 5 + [True] * 35
    assert far.accepts(us, vs).tolist() == [True] * 5 + [False] * 5 + [True] * 30
    ts = np.linspace(-1.0, 1.0, 33)[:, None]
    worst = 0.0
    for _ in range(10):
        g = random_realified_unitary((n + 1) // 2)
        assert np.allclose(g.T @ g, np.eye(n + 1), atol=1e-12)
        assert np.allclose(g @ complex_structure(us[0]), complex_structure(g @ us[0]))
        gu, gv = us @ g.T, vs @ g.T
        for rule in planner.rules:
            mask = rule.accepts(us, vs)
            assert np.array_equal(rule.accepts(gu, gv), mask)
            moved = rule.path(us[mask], vs[mask])(ts) @ g.T
            worst = max(worst, float(np.max(np.abs(moved - rule.path(gu[mask], gv[mask])(ts)))))
    assert worst <= 1e-9
    if n > 1:
        # a rotation that does not commute with the complex structure moves
        # the section crossing, so the check can fail
        g = random_rotation(n + 1)
        moved = far.path(us[:5], vs[:5])(0.0) @ g.T
        assert np.max(np.abs(moved - far.path(us[:5] @ g.T, vs[:5] @ g.T)(0.0))) > 1e-3


def unit_rows(points):
    return points / np.linalg.norm(points, axis=-1, keepdims=True)


def continuity_pairs(rng, dim, count):
    """Pairs in each rule's domain with a margin: shortest-arc pairs with
    u.v >= -0.9, and section-crossing pairs with |u - v| >= 0.1, a quarter of
    them within 1e-3 of antipodal."""
    u, v = unit_rows(rng.standard_normal((2, 4 * count, dim)))
    near = _dot(u, v) >= -0.9
    far = np.linalg.norm(u - v, axis=-1) >= 0.1
    heads = unit_rows(rng.standard_normal((count // 4, dim)))
    scale = 1e-3 * rng.uniform(0.0, 0.9, (count // 4, 1))
    antipodes = unit_rows(-heads + scale * unit_rows(rng.standard_normal(heads.shape)))
    assert np.all(np.linalg.norm(heads + antipodes, axis=-1) <= 1e-3)
    rest = count - count // 4
    return ((u[near][:count], v[near][:count]),
            (np.concatenate([u[far][:rest], heads]), np.concatenate([v[far][:rest], antipodes])))


@pytest.mark.parametrize("n", (1, 3, 7))
def test_planner_rules_are_continuous_in_their_endpoints(n):
    # moving u and v by delta in random directions moves every point of a
    # rule's path by at most 10 delta, on the 513-point t-grid that holds the
    # section crossing's seams t = -1/2, 0 and 1/2
    rng = np.random.default_rng(0)
    delta = 1e-7
    ts = np.linspace(-1.0, 1.0, 513)[:, None]
    assert {-0.5, 0.0, 0.5} <= set(ts[:, 0].tolist())
    planner = build_sphere_planner(n)
    for rule, (u, v) in zip(planner.rules, continuity_pairs(rng, n + 1, 200)):
        assert len(u) == 200
        nudged_u, nudged_v = (unit_rows(p + delta * unit_rows(rng.standard_normal(p.shape)))
                              for p in (u, v))
        assert rule.accepts(u, v).all() and rule.accepts(nudged_u, nudged_v).all()
        moved = np.linalg.norm(rule.path(nudged_u, nudged_v)(ts) - rule.path(u, v)(ts), axis=-1)
        assert moved.max() <= 10 * delta, (rule.name, moved.max() / delta)


def test_empty_planner_raises_on_plan():
    empty = Planner(n=1, rules=(), lipschitz=1.0)
    with pytest.raises(GeometryError):
        empty.plan(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_verify_full_planner_passes():
    planner = build_sphere_planner(3)
    report = verify_planner(planner, samples=400, seed=11)
    assert report.passed
    assert report.n == 3
    assert report.samples == 400
    assert report.seed == 11
    assert report.cover_failures == 0
    assert report.max_endpoint_error < GEOM_TOL
    assert report.max_diagonal_error < GEOM_TOL
    assert report.continuity_max_step <= report.continuity_bound
    assert report.continuity_bound == pytest.approx(planner.lipschitz / 256.0 + 1e-6)
    assert report.equivariance_error < 1e-6


def test_verify_reports_cover_failures_for_arc_only_planner():
    def accepts(u, v):
        return np.einsum("...i,...i->...", u, v) > -1.0 + GEOM_TOL

    def path(u, v):
        return lambda t: _arc(u, v)((1.0 - np.asarray(t, dtype=float)) / 2.0)

    arc_only = PlannerRule("shortest-arc", accepts, path)
    partial = Planner(n=1, rules=(arc_only,), lipschitz=4.0)
    report = verify_planner(partial, samples=200, seed=5)
    assert report.cover_failures >= 100
    assert not report.passed


def test_verify_refuses_a_negative_seed_before_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew samples")

    planner = build_sphere_planner(3)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(GeometryError, match="seed must be >= 0, got -1"):
        verify_planner(planner, samples=10, seed=-1)


def test_verify_report_is_deterministic():
    planner = build_sphere_planner(3)
    first = verify_planner(planner, samples=150, seed=2)
    second = verify_planner(planner, samples=150, seed=2)
    assert first == second
    assert first.lines() == second.lines()
    assert any(line.startswith("max_endpoint_error=") for line in first.lines())
    assert first.lines()[-1] == "passed=true"


def test_report_prints_one_line_per_field_in_its_format():
    report = geomplan.PlannerReport(
        n=3, samples=10, seed=2, max_endpoint_error=0.1, max_diagonal_error=0.0,
        cover_failures=1, continuity_max_step=2.5, continuity_bound=1e-6,
        equivariance_error=3.0, passed=False)
    assert report.lines() == [
        "n=3", "samples=10", "seed=2",
        "max_endpoint_error=1.000000000000e-01", "max_diagonal_error=0.000000000000e+00",
        "cover_failures=1", "continuity_max_step=2.500000000000e+00",
        "continuity_bound=1.000000000000e-06", "equivariance_error=3.000000000000e+00",
        "passed=false",
    ]


@pytest.mark.parametrize("n", (1, 3, 7, 63))
def test_verify_report_does_not_depend_on_the_block_budget(monkeypatch, n):
    # at n = 63 one equivariance trial alone holds 64^2 = 2^12 coordinates
    planner = build_sphere_planner(n)
    cases = [(samples, seed) for samples in (1, 37, 300) for seed in (4, 9)]
    reports = {}
    for budget in (16, 64, 1 << 13, 1 << 20):
        monkeypatch.setattr(geomplan, "_BLOCK_COORDS", budget)
        reports[budget] = [verify_planner(planner, samples, seed).lines()
                           for samples, seed in cases]
    assert reports[16] == reports[64] == reports[1 << 13] == reports[1 << 20]
    assert all(lines[-1] == "passed=true" for lines in reports[16])


@pytest.mark.parametrize("budget", (16, 2400, 4000, 1 << 13, 1 << 20))
def test_continuity_catches_a_jump_across_a_chunk_boundary(monkeypatch, budget):
    # 100 accepted rows of dim 2 run over chunks of `width` t-values; chunk
    # k + 1 opens on point k * (width - 1), the last of chunk k, so the step
    # from point width - 1 to point width lies in the second chunk, and a
    # chunking without the shared point never measures it
    width = max(9, budget // (100 * 2))
    jump = min(width - 1, 256)
    t_jump = -1.0 + (jump + 0.5) * geomplan.CONTINUITY_RESOLUTION
    monkeypatch.setattr(geomplan, "_BLOCK_COORDS", budget)

    def accepts(u, v):
        return np.ones(u.shape[:-1], dtype=bool)

    def path(u, v):
        # u above the jump and v below it: a step of |u - v| between two
        # adjacent grid points, and no error on the diagonal or at t = +-1
        return lambda t: np.where(np.asarray(t, dtype=float)[..., None] > t_jump, u, v)

    planner = Planner(n=1, rules=(PlannerRule("jump", accepts, path),), lipschitz=4.0)
    report = verify_planner(planner, samples=100, seed=3)
    assert report.continuity_max_step >= 0.5
    assert not report.passed
    assert report.max_endpoint_error == report.max_diagonal_error == 0.0
    assert report.cover_failures == 0 and report.equivariance_error <= GEOM_TOL


@pytest.mark.parametrize("samples", (1, 150))
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", (1, 3, 5, 7))
def test_batched_equivariance_matches_the_per_trial_loop(n, seed, samples):
    report = verify_planner(build_sphere_planner(n), samples, seed)
    assert report.equivariance_error == planner_equivariance_error(n, samples, seed)


def test_tolerances_are_wired_as_documented():
    assert GEOM_TOL == 1e-9
    assert SCALAR_TOL == 1e-12
