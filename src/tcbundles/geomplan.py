"""Exact geodesic formulas and motion planners on spheres and projective spaces.

Everything here is a closed-form map on unit vectors over R, C or H
(quaternions), plus a sampling harness that checks the planner contracts
numerically: endpoints, diagonal, domain cover, a continuity proxy and
equivariance under isometries.

Conventions.  A point of K^m is an (m, d) float array of K-components, d the
real dimension of K.  Inner products are K-valued, conjugate-linear in the
second slot, so they are left-linear: <q u, v> = q <u, v>.  Lines are left
K-spans of unit representatives; a homomorphism a from line L = Ku to line M
is stored as the single image vector a(u), which transforms as a(qu) = q a(u).

Tolerances: 1e-9 for geometric identities, 1e-12 for scalar algebra; inputs
inside a 1e-9 degeneracy cutoff (antipodal points, orthogonal lines, equal
lines) are rejected, not perturbed.

Broadcasting.  The sphere kernels (``_c_raw``, ``_sigma_raw``, ``_pi_raw``,
``_pi_inverse_raw``) and ``complex_structure`` take points as ``(..., dim)``
arrays and broadcast over the leading axes; a path parameter ``t`` broadcasts
against those leading axes, so ``t`` of shape ``(T, 1)`` with points of shape
``(B, dim)`` gives paths of shape ``(T, B, dim)``.  A batch raises
``GeometryError`` if any of its rows is degenerate.  The single-point
functions (``geodesic_c``, ``rho_sphere``, ``sigma_sphere``, ``pi_map``,
``pi_inverse``) and ``Planner.plan`` run the same kernels on one row, and
``verify_planner`` runs them over blocks of sampled rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bundles import KField

GEOM_TOL = 1e-9
SCALAR_TOL = 1e-12
CONTINUITY_RESOLUTION = 1.0 / 256.0
# verify_planner rejects samples * (n + 1) or (n + 1)^2 above this many
# coordinates (512 MiB of float64 per array) before it draws anything.
MAX_SAMPLE_COORDINATES = 1 << 26
# verify_planner splits its rows into blocks whose (rows x t-grid x dim)
# arrays hold at most this many coordinates (32 KiB of float64), or one row
# where a row alone is larger, so its temporaries stay small next to the
# sample arrays themselves.
_BLOCK_COORDS = 1 << 12


class GeometryError(ValueError):
    """Input outside the domain of an exact formula."""


# -- K-scalar arithmetic -----------------------------------------------------------


def k_mul(field: KField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise product of K-scalars; broadcasts over leading axes."""
    if field is KField.R:
        return a * b
    if field is KField.C:
        re = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
        im = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
        return np.stack([re, im], axis=-1)
    a0, a1, a2, a3 = (a[..., i] for i in range(4))
    b0, b1, b2, b3 = (b[..., i] for i in range(4))
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def k_conj(field: KField, a: np.ndarray) -> np.ndarray:
    if field is KField.R:
        return a
    out = np.array(a, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def k_inner(field: KField, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> = sum_i u_i * conj(v_i), a K-scalar of shape (d,)."""
    return np.sum(k_mul(field, u, k_conj(field, v)), axis=0)


def k_scalar_mul(field: KField, q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Left multiplication (q u)_i = q * u_i."""
    return k_mul(field, np.broadcast_to(q, u.shape), u)


class KScalar:
    """A scalar in R, C or H with exact component arithmetic."""

    __slots__ = ("field", "comps")

    def __init__(self, field: KField, comps: Sequence[float]):
        arr = np.asarray(comps, dtype=float)
        if arr.shape != (field.d,):
            raise GeometryError(f"need {field.d} components for {field.tag}")
        self.field = field
        self.comps = arr

    def __mul__(self, other: "KScalar") -> "KScalar":
        return KScalar(self.field, k_mul(self.field, self.comps, other.comps))

    def __add__(self, other: "KScalar") -> "KScalar":
        return KScalar(self.field, self.comps + other.comps)

    def __sub__(self, other: "KScalar") -> "KScalar":
        return KScalar(self.field, self.comps - other.comps)

    def conj(self) -> "KScalar":
        return KScalar(self.field, k_conj(self.field, self.comps))

    def __abs__(self) -> float:
        return float(np.linalg.norm(self.comps))

    def __repr__(self) -> str:
        return f"KScalar({self.field.tag}, {self.comps.tolist()})"


# -- validated points --------------------------------------------------------------


def _coords(p: "SpherePoint | np.ndarray") -> np.ndarray:
    if isinstance(p, SpherePoint):
        return p.coords
    return np.asarray(p, dtype=float)


class SpherePoint:
    """A unit vector in R^(n+1), checked to 1e-12 at construction."""

    __slots__ = ("coords",)

    def __init__(self, coords: "Sequence[float] | np.ndarray"):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 1:
            raise GeometryError("sphere points are 1-dimensional coordinate vectors")
        if abs(np.linalg.norm(arr) - 1.0) > SCALAR_TOL:
            raise GeometryError("sphere point is not a unit vector")
        self.coords = arr

    def __repr__(self) -> str:
        return f"SpherePoint({self.coords.tolist()})"


class ProjPoint:
    """A K-line through a stored unit representative."""

    __slots__ = ("field", "rep")

    def __init__(self, field: KField, rep: np.ndarray):
        arr = np.asarray(rep, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != field.d:
            raise GeometryError(f"representative must have shape (m, {field.d})")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > GEOM_TOL:
            raise GeometryError("line representative is not a unit vector")
        self.field = field
        self.rep = arr / norm

    def display_rep(self) -> np.ndarray:
        """Representative with the largest component rotated real-positive.

        Display convention only; all comparisons are phase-invariant.
        """
        norms = np.linalg.norm(self.rep, axis=1)
        i = int(np.argmax(norms))
        q = k_conj(self.field, self.rep[i] / norms[i])
        return k_scalar_mul(self.field, q, self.rep)

    def __repr__(self) -> str:
        return f"ProjPoint({self.field.tag}, {self.display_rep().tolist()})"


def line_error(p: ProjPoint, q: ProjPoint) -> float:
    """0 when the lines agree; 1 - |<u, v>| in general."""
    if p.field is not q.field:
        raise GeometryError("lines over different scalar fields")
    return 1.0 - float(np.linalg.norm(k_inner(p.field, p.rep, q.rep)))


def lines_equal(p: ProjPoint, q: ProjPoint, tol: float = GEOM_TOL) -> bool:
    return line_error(p, q) <= tol


# -- great-circle geodesics ---------------------------------------------------------


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, broadcast over the leading ones."""
    return np.einsum("...i,...i->...", u, v)


def _c_raw(t: float | np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    cos_theta = np.clip(_dot(u, v), -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if np.any(theta > np.pi - GEOM_TOL):
        raise GeometryError("geodesic undefined for antipodal points")
    sin_theta = np.sin(theta)
    fixed = sin_theta < SCALAR_TOL
    w = (v - cos_theta[..., None] * u) / np.where(fixed, 1.0, sin_theta)[..., None]
    angle = theta * np.asarray(t, dtype=float)
    path = np.cos(angle)[..., None] * u + np.sin(angle)[..., None] * w
    return np.where(fixed[..., None], u, path)


def geodesic_c(t: float, u, v) -> SpherePoint:
    """The unique shortest great-circle arc: c(0) = u, c(1) = v, constant
    speed, undefined for antipodal inputs; c(t, u, u) = u."""
    return SpherePoint(_c_raw(t, _coords(u), _coords(v)))


def rho_sphere(t: float, u, v) -> SpherePoint:
    """Reparametrized arc with rho(1) = u and rho(-1) = v."""
    return SpherePoint(_c_raw((1.0 - t) / 2.0, _coords(u), _coords(v)))


def _sigma_raw(w: np.ndarray, t: float | np.ndarray, u: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return _c_raw(np.abs(t), w, np.where(t >= 0.0, 1.0, -1.0)[..., None] * u)


def sigma_sphere(w, t: float, u) -> SpherePoint:
    """Path from u (t=1) to -u (t=-1) through the orthogonal midpoint w."""
    wc, uc = _coords(w), _coords(u)
    if abs(np.dot(wc, uc)) > GEOM_TOL:
        raise GeometryError("midpoint direction must be orthogonal to u")
    return SpherePoint(_sigma_raw(wc, t, uc))


# -- the ball-bundle chart around antipodal pairs -----------------------------------


def _pi_raw(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s2 = _dot(w, w)[..., None]
    denom = 1.0 + s2
    x = ((1.0 - s2) * u + 2.0 * w) / denom
    y = ((s2 - 1.0) * u + 2.0 * w) / denom
    return x, y


def pi_map(u, v, w: np.ndarray) -> tuple[SpherePoint, SpherePoint]:
    """Chart sending (u, -u, w) with w in the open unit ball orthogonal to u
    to a non-diagonal pair of sphere points; at |w| = 1 the two outputs meet."""
    uc, vc = _coords(u), _coords(v)
    wc = np.asarray(w, dtype=float)
    if np.linalg.norm(uc + vc) > GEOM_TOL:
        raise GeometryError("second point must be the antipode of the first")
    if abs(np.dot(wc, uc)) > GEOM_TOL:
        raise GeometryError("chart vector must be orthogonal to u")
    if np.dot(wc, wc) > 1.0 + SCALAR_TOL:
        raise GeometryError("chart vector must lie in the closed unit ball")
    x, y = _pi_raw(uc, wc)
    return SpherePoint(x / np.linalg.norm(x)), SpherePoint(y / np.linalg.norm(y))


def _pi_inverse_raw(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = x - y
    dist = np.linalg.norm(diff, axis=-1, keepdims=True)
    if np.any(dist <= GEOM_TOL):
        raise GeometryError("chart inverse undefined on the diagonal")
    u = diff / dist
    total = x + y
    total_norm = np.linalg.norm(total, axis=-1, keepdims=True)
    antipodal = total_norm == 0.0
    # |x+y|/2 and |x-y|/2 are cos/sin of a common half-angle, so the scale
    # solves 2s/(1+s^2) = |x+y|/2 without cancellation.
    s = (total_norm / 2.0) / (1.0 + dist / 2.0)
    return u, np.where(antipodal, 0.0, s * (total / np.where(antipodal, 1.0, total_norm)))


def pi_inverse(x, y) -> tuple[SpherePoint, SpherePoint, np.ndarray]:
    """The unique chart preimage (u, -u, w) of a non-diagonal pair."""
    u, w = _pi_inverse_raw(_coords(x), _coords(y))
    return SpherePoint(u), SpherePoint(-u), w


# -- projective-space analogues ------------------------------------------------------


def proj_rho(t: float, line_l: ProjPoint, line_m: ProjPoint) -> ProjPoint:
    """Geodesic between non-orthogonal lines: phase-align the second
    representative so the inner product is real positive, then run the real
    great-circle arc; rho(1) = L, rho(-1) = M."""
    field = line_l.field
    u, v0 = line_l.rep, line_m.rep
    inner = k_inner(field, u, v0)
    mag = float(np.linalg.norm(inner))
    if mag <= GEOM_TOL:
        raise GeometryError("projective geodesic undefined for orthogonal lines")
    v = k_scalar_mul(field, inner / mag, v0)
    point = _c_raw((1.0 - t) / 2.0, u.reshape(-1), v.reshape(-1))
    return ProjPoint(field, point.reshape(u.shape))


def proj_sigma(a_of_u: np.ndarray, t: float, line_l: ProjPoint, line_m: ProjPoint) -> ProjPoint:
    """Path from L (t=1) to M (t=-1) determined by an isometry a: L -> M,
    through the line of sin(pi(t+1)/4) u + cos(pi(t+1)/4) a(u)."""
    field = line_l.field
    u, v = line_l.rep, line_m.rep
    a_u = np.asarray(a_of_u, dtype=float)
    if np.linalg.norm(k_inner(field, u, v)) > GEOM_TOL:
        raise GeometryError("lines must be orthogonal")
    if abs(np.linalg.norm(a_u) - 1.0) > GEOM_TOL:
        raise GeometryError("a must be an isometry (|a(u)| = |u|)")
    if 1.0 - float(np.linalg.norm(k_inner(field, a_u, v))) > GEOM_TOL:
        raise GeometryError("a(u) must lie on the target line")
    angle = np.pi * (t + 1.0) / 4.0
    rep = np.sin(angle) * u + np.cos(angle) * a_u
    return ProjPoint(field, rep)


def proj_pi_map(
    line_l: ProjPoint, line_m: ProjPoint, a_of_u: np.ndarray
) -> tuple[ProjPoint, ProjPoint]:
    """Chart ((1+a)L, (1+a*)M) on orthogonal lines with |a| <= 1; at |a| = 1
    the two output lines coincide."""
    field = line_l.field
    u, v = line_l.rep, line_m.rep
    a_u = np.asarray(a_of_u, dtype=float)
    if np.linalg.norm(k_inner(field, u, v)) > GEOM_TOL:
        raise GeometryError("lines must be orthogonal")
    norm_a = float(np.linalg.norm(a_u))
    if norm_a > 1.0 + SCALAR_TOL:
        raise GeometryError("|a| must be at most 1")
    if norm_a > GEOM_TOL and 1.0 - float(np.linalg.norm(k_inner(field, a_u, v))) / norm_a > GEOM_TOL:
        raise GeometryError("a(u) must lie on the target line")
    # a*(v) = <v, a(u)> u by the defining adjoint identity for left lines
    a_star_v = k_scalar_mul(field, k_inner(field, v, a_u), u)
    scale = 1.0 / np.sqrt(1.0 + norm_a * norm_a)
    return (
        ProjPoint(field, (u + a_u) * scale),
        ProjPoint(field, (v + a_star_v) * scale),
    )


def proj_pi_inverse(
    line_x: ProjPoint, line_y: ProjPoint
) -> tuple[ProjPoint, ProjPoint, np.ndarray]:
    """Unique chart preimage (L, M, a), |a| < 1, of a pair of distinct lines.

    Phases are fixed so <x, y> is real and nonnegative; the scale t of a
    solves 2t/(1+t^2) = <x, y> inside [0, 1).
    """
    field = line_x.field
    x, y0 = line_x.rep, line_y.rep
    inner = k_inner(field, x, y0)
    mag = float(np.linalg.norm(inner))
    if mag >= 1.0 - GEOM_TOL:
        raise GeometryError("chart inverse undefined for equal lines")
    if mag <= SCALAR_TOL:
        return line_x, line_y, np.zeros_like(x)
    y = k_scalar_mul(field, inner / mag, y0)
    t = mag / (1.0 + np.sqrt(1.0 - mag * mag))
    factor = np.sqrt(1.0 + t * t) / (1.0 - t * t)
    u = (x - t * y) * factor
    v = (y - t * x) * factor
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    return ProjPoint(field, u), ProjPoint(field, v), t * v


# -- planners and their verification --------------------------------------------------


@dataclass(frozen=True)
class PlannerRule:
    """One local rule: a domain predicate on pairs and a path map with
    path(1, u, v) = u and path(-1, u, v) = v on the domain.

    Both broadcast over leading axes: for points ``u, v`` of shape
    ``(..., dim)``, ``accepts(u, v)`` is a bool array of the leading shape and
    ``path(t, u, v)`` is a ``(..., dim)`` array, with ``t`` broadcast against
    the leading shape.  ``path`` is only called on rows that ``accepts``."""

    name: str
    accepts: Callable[[np.ndarray, np.ndarray], np.ndarray]
    path: Callable[[float | np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Planner:
    """Ordered local rules covering the pair space; the first accepting rule
    plans the motion.  ``lipschitz`` bounds the speed of every rule's path in
    the planning parameter and calibrates the continuity proxy."""

    n: int
    rules: tuple[PlannerRule, ...]
    lipschitz: float

    def plan(self, t: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The path point at t for one pair of points of shape (dim,)."""
        for rule in self.rules:
            if rule.accepts(u, v):
                return rule.path(t, u, v)
        raise GeometryError("no rule accepts the given pair")


def complex_structure(x: np.ndarray) -> np.ndarray:
    """The standard complex structure on R^(even): (x, y) -> (-y, x) pairwise
    along the last axis."""
    if x.shape[-1] % 2:
        raise GeometryError("complex structure needs an even-dimensional space")
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


def build_sphere_planner(n: int, k: int = 1) -> Planner:
    """Two-rule geodesic planner on the n-sphere for odd n.

    Rule 0 follows the shortest arc wherever the endpoints are not antipodal.
    Rule 1 handles the rest: it charts the pair to (u0, -u0, w), crosses from
    u0 to -u0 through the never-vanishing section Ju0 of the complex
    structure, and runs the chart segments on both sides.  Odd n is essential:
    an even sphere has no nowhere-zero tangent section, and no alternative
    section construction is provided here.
    """
    if n < 1:
        raise GeometryError(f"n must be >= 1, got {n}")
    if n % 2 == 0:
        raise GeometryError(
            "no planner for even n: the complex-structure section needs odd n"
        )
    if k != 1:
        raise GeometryError("only the two-rule construction (k = 1) is implemented")

    def accepts_near(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _dot(u, v) > -1.0 + GEOM_TOL

    def path_near(t: float | np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _c_raw((1.0 - np.asarray(t, dtype=float)) / 2.0, u, v)

    def accepts_far(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.linalg.norm(u - v, axis=-1) > GEOM_TOL

    def path_far(t: float | np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u0, w = _pi_inverse_raw(x, y)
        t = np.asarray(t, dtype=float)[..., None]
        # the chart segments out of u0 (t >= 1/2) and into -u0 (t <= -1/2)
        # scale w by |2t| - 1; the section crossing runs in between
        near_u0, near_minus_u0 = _pi_raw(u0, (np.abs(2.0 * t) - 1.0) * w)
        crossing = _sigma_raw(complex_structure(u0), 2.0 * t[..., 0], u0)
        return np.where(t >= 0.5, near_u0, np.where(t <= -0.5, near_minus_u0, crossing))

    return Planner(
        n=n,
        rules=(
            PlannerRule("shortest-arc", accepts_near, path_near),
            PlannerRule("section-crossing", accepts_far, path_far),
        ),
        lipschitz=4.0,
    )


@dataclass(frozen=True)
class PlannerReport:
    """Numeric verification results; all fields deterministic in (samples, seed)."""

    n: int
    samples: int
    seed: int
    max_endpoint_error: float
    max_diagonal_error: float
    cover_failures: int
    continuity_max_step: float
    continuity_bound: float
    equivariance_error: float
    passed: bool

    def lines(self) -> list[str]:
        return [
            f"n={self.n}",
            f"samples={self.samples}",
            f"seed={self.seed}",
            f"max_endpoint_error={self.max_endpoint_error:.12e}",
            f"max_diagonal_error={self.max_diagonal_error:.12e}",
            f"cover_failures={self.cover_failures}",
            f"continuity_max_step={self.continuity_max_step:.12e}",
            f"continuity_bound={self.continuity_bound:.12e}",
            f"equivariance_error={self.equivariance_error:.12e}",
            f"passed={'true' if self.passed else 'false'}",
        ]


def _random_units(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    vecs = rng.standard_normal((count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _blocks(count: int, row_coords: int):
    """Slices of range(count) of at most _BLOCK_COORDS // row_coords rows."""
    step = max(1, _BLOCK_COORDS // row_coords)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _max_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(a - b, axis=-1), initial=0.0))


def verify_planner(planner: Planner, samples: int, seed: int) -> PlannerReport:
    """Sample the planner's contracts.

    Endpoint and diagonal errors are checked for every rule on its own
    domain, cover for the rule set as a whole, the continuity proxy along
    every accepting rule at resolution 1/256 against lipschitz/256 + 1e-6,
    and geodesic equivariance under random orthogonal maps.  Rules run on
    blocks of sampled rows through their broadcasting contract.
    """
    if samples < 1:
        raise GeometryError(f"samples must be >= 1, got {samples}")
    dim = planner.n + 1
    if max(samples, dim) * dim > MAX_SAMPLE_COORDINATES:
        raise GeometryError(
            f"samples * (n + 1) and (n + 1)^2 must be at most {MAX_SAMPLE_COORDINATES} "
            f"coordinates, got samples={samples}, n={planner.n}"
        )
    rng = np.random.default_rng(seed)
    us = _random_units(rng, samples, dim)
    vs = _random_units(rng, samples, dim)
    rules = planner.rules

    # domains[i, j]: rule i accepts sample pair j
    domains = np.zeros((len(rules), samples), dtype=bool)
    endpoint = 0.0
    for rows in _blocks(samples, dim):
        u, v = us[rows], vs[rows]
        for domain, rule in zip(domains, rules):
            mask = domain[rows] = rule.accepts(u, v)
            if mask.any():
                ur, vr = u[mask], v[mask]
                endpoint = max(endpoint, _max_distance(rule.path(1.0, ur, vr), ur),
                               _max_distance(rule.path(-1.0, ur, vr), vr))
    cover_failures = int(np.count_nonzero(~domains.any(axis=0)))
    # random pairs never hit the degenerate strata, so probe them directly:
    # the diagonal and the antipodal pairs must also be covered
    heads = us[: min(samples, 100)]
    probe_u = np.concatenate([heads, heads])
    probe_v = np.concatenate([heads, -heads])
    covered = np.zeros(len(probe_u), dtype=bool)
    for rule in rules:
        covered |= rule.accepts(probe_u, probe_v)
    cover_failures += int(np.count_nonzero(~covered))

    diagonal = 0.0
    t_grid = np.linspace(-1.0, 1.0, 17)[:, None]
    diagonal_us = us[: min(samples, 1000)]
    for rows in _blocks(len(diagonal_us), t_grid.size * dim):
        u = diagonal_us[rows]
        for rule in rules:
            mask = rule.accepts(u, u)
            if mask.any():
                ur = u[mask]
                diagonal = max(diagonal, _max_distance(rule.path(t_grid, ur, ur), ur))

    step = CONTINUITY_RESOLUTION
    fine_grid = np.arange(-1.0, 1.0 + step / 2, step)[:, None]
    continuity = 0.0
    for rows in _blocks(min(samples, 100), fine_grid.size * dim):
        u, v = us[rows], vs[rows]
        for domain, rule in zip(domains, rules):
            mask = domain[rows]
            if mask.any():
                points = rule.path(fine_grid, u[mask], v[mask])
                continuity = max(continuity, _max_distance(points[1:], points[:-1]))
    continuity_bound = planner.lipschitz * step + 1e-6

    equivariance = 0.0
    eq_grid = np.linspace(-1.0, 1.0, 9)
    for _ in range(100):
        g, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        u, v = _random_units(rng, 2, dim)
        if float(np.dot(u, v)) < -1.0 + 1e-6:
            continue
        lhs = _c_raw(eq_grid, g @ u, g @ v)
        rhs = _c_raw(eq_grid, u, v) @ g.T
        equivariance = max(equivariance, _max_distance(lhs, rhs))

    passed = (
        endpoint <= GEOM_TOL
        and diagonal <= GEOM_TOL
        and cover_failures == 0
        and continuity <= continuity_bound
        and equivariance <= GEOM_TOL
    )
    return PlannerReport(
        n=planner.n,
        samples=samples,
        seed=seed,
        max_endpoint_error=endpoint,
        max_diagonal_error=diagonal,
        cover_failures=cover_failures,
        continuity_max_step=continuity,
        continuity_bound=continuity_bound,
        equivariance_error=equivariance,
        passed=passed,
    )


# -- roundtrip harnesses ----------------------------------------------------------


def sphere_roundtrip_error(n: int, samples: int, seed: int) -> float:
    """Worst error of the two chart compositions on random sphere data."""
    rng = np.random.default_rng(seed)
    dim = n + 1
    worst = 0.0
    for _ in range(samples):
        u = _random_units(rng, 1, dim)[0]
        raw = rng.standard_normal(dim)
        w_dir = raw - np.dot(raw, u) * u
        w_dir /= np.linalg.norm(w_dir)
        w = float(rng.uniform(0.0, 0.95)) * w_dir
        x, y = pi_map(u, -u, w)
        u2, v2, w2 = pi_inverse(x, y)
        worst = max(worst, float(np.linalg.norm(u2.coords - u)))
        worst = max(worst, float(np.linalg.norm(v2.coords + u)))
        worst = max(worst, float(np.linalg.norm(w2 - w)))

        x3, y3 = _random_units(rng, 2, dim)
        if np.linalg.norm(x3 - y3) <= 1e-6:
            continue
        u3, v3, w3 = pi_inverse(x3, y3)
        x4, y4 = pi_map(u3, v3, w3)
        worst = max(worst, float(np.linalg.norm(x4.coords - x3)))
        worst = max(worst, float(np.linalg.norm(y4.coords - y3)))
    return worst


def _random_line(field: KField, m: int, rng: np.random.Generator) -> ProjPoint:
    rep = rng.standard_normal((m, field.d))
    return ProjPoint(field, rep / np.linalg.norm(rep))


def _orthogonalize(field: KField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = y - k_scalar_mul(field, k_conj(field, k_inner(field, x, y)), x)
    return out / np.linalg.norm(out)


def proj_roundtrip_error(field: KField, m: int, samples: int, seed: int) -> float:
    """Worst line error of the two projective chart compositions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        line_l = _random_line(field, m, rng)
        v = _orthogonalize(field, line_l.rep, rng.standard_normal((m, field.d)))
        line_m = ProjPoint(field, v)
        q = rng.standard_normal(field.d)
        q /= np.linalg.norm(q)
        a_u = float(rng.uniform(0.0, 0.95)) * k_scalar_mul(field, q, v)
        x, y = proj_pi_map(line_l, line_m, a_u)
        l2, m2, a2 = proj_pi_inverse(x, y)
        worst = max(worst, line_error(l2, line_l))
        worst = max(worst, line_error(m2, line_m))
        # transport a through the representative change l2.rep ~ q * l.rep
        phase = k_inner(field, l2.rep, line_l.rep)
        worst = max(worst, float(np.linalg.norm(a2 - k_scalar_mul(field, phase, a_u))))

        line_x = _random_line(field, m, rng)
        line_y = _random_line(field, m, rng)
        if 1.0 - line_error(line_x, line_y) >= 1.0 - 1e-6:
            continue
        l3, m3, a3 = proj_pi_inverse(line_x, line_y)
        x4, y4 = proj_pi_map(l3, m3, a3)
        worst = max(worst, line_error(x4, line_x))
        worst = max(worst, line_error(y4, line_y))
    return worst
