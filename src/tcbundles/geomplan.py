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
K-arithmetic is one Cayley–Dickson rule: a scalar of C or H is a pair (p, q)
of scalars of its half field, so ``k_mul`` and ``k_conj`` recurse H -> C -> R.

Tolerances: 1e-9 for geometric identities, 1e-12 for scalar algebra; inputs
inside a 1e-9 degeneracy cutoff (antipodal points, orthogonal lines, equal
lines) are rejected, not perturbed.

Broadcasting.  The sphere kernels (``_arc``, ``_sigma_raw``, ``_pi_raw``,
``_pi_inverse_raw``) and ``complex_structure`` take points as ``(..., dim)``
arrays and broadcast over the leading axes.  So do the projective maps:
``ProjPoint`` holds one line per leading index of a ``(..., m, d)`` array,
``k_inner`` sums over axis -2 and ``k_scalar_mul`` multiplies ``(..., m, d)``
vectors by ``(..., d)`` scalars, and ``line_error``, ``lines_equal``,
``display_rep`` and the projective charts (``proj_rho``, ``proj_sigma``,
``proj_pi_map``, ``proj_pi_inverse``) run on such batches.  A path parameter ``t`` broadcasts
against the leading axes, so ``t`` of shape ``(T, 1)`` with points of shape
``(B, dim)`` gives paths of shape ``(T, B, dim)``.  A batch raises
``GeometryError`` if any of its rows is degenerate.  A planner rule's
``path(u, v)`` does its per-pair work once, on the points alone, and returns a
function of ``t`` that broadcasts in the same way; ``_arc(u, v)`` is that step
for the great-circle arc, and ``_rho(u, v)`` for the same arc run so that
rho(1) = u and rho(-1) = v, the shortest-arc rule's path and the arc behind
``rho_sphere`` and ``proj_rho``.  The single-point sphere functions (``geodesic_c``,
``rho_sphere``, ``sigma_sphere``, ``pi_map``, ``pi_inverse``) and
``Planner.plan`` run the same kernels on one row, and ``verify_planner`` and
both chart roundtrips run them over batches of sampled rows.  ``SpherePoint``
stays one point: it rejects a 2-D array instead of reading it as a batch, and
batched sphere code passes raw arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .bundles import GeometryError, KField

GEOM_TOL = 1e-9
SCALAR_TOL = 1e-12
CONTINUITY_RESOLUTION = 1.0 / 256.0
# verify_planner rejects samples * (n + 1) or (n + 1)^2 above this many
# coordinates (512 MiB of float64 per array) before it draws anything.
MAX_SAMPLE_COORDINATES = 1 << 26
# verify_planner keeps the arrays of each block at about this many
# coordinates (64 KiB of float64), so its temporaries stay small next to the
# sample arrays themselves.  Sampled rows and equivariance trials run in
# blocks of whole rows, one row where a row alone is larger; the continuity
# probe also splits its 513-point t-grid into chunks of at least nine points.
_BLOCK_COORDS = 1 << 13


# -- K-scalar arithmetic -----------------------------------------------------------


_HALF = {KField.C: KField.R, KField.H: KField.C}


def k_mul(field: KField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise product of K-scalars; broadcasts over leading axes.

    One Cayley–Dickson rule: with halves a = (p, q) and b = (r, s) over the
    half field, ab = (pr - s̄q, sp + qr̄), recursing H -> C -> R."""
    if field is KField.R:
        return a * b
    half, h = _HALF[field], field.d // 2
    p, q, r, s = a[..., :h], a[..., h:], b[..., :h], b[..., h:]
    return np.concatenate([k_mul(half, p, r) - k_mul(half, k_conj(half, s), q),
                           k_mul(half, s, p) + k_mul(half, q, k_conj(half, r))], axis=-1)


def k_conj(field: KField, a: np.ndarray) -> np.ndarray:
    """Conjugate of K-scalars: (p, q) -> (p̄, -q) on Cayley–Dickson halves."""
    if field is KField.R:
        return a
    h = field.d // 2
    return np.concatenate([k_conj(_HALF[field], a[..., :h]), -a[..., h:]], axis=-1)


def k_inner(field: KField, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> = sum_i u_i * conj(v_i) for (..., m, d) vectors, a (..., d) K-scalar."""
    return np.sum(k_mul(field, u, k_conj(field, v)), axis=-2)


def k_scalar_mul(field: KField, q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Left multiplication (q u)_i = q * u_i of (..., m, d) vectors by (..., d) scalars."""
    return k_mul(field, np.asarray(q)[..., None, :], u)


# -- validated points --------------------------------------------------------------


def _coords(p: "SpherePoint | np.ndarray") -> np.ndarray:
    if isinstance(p, SpherePoint):
        return p.coords
    return np.asarray(p, dtype=float)


class SpherePoint:
    """A unit vector in R^(n+1), checked to 1e-12 at construction.

    One point only: the sphere kernels take raw (..., dim) arrays, and a 2-D
    array here is rejected rather than read as a batch."""

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


def _line_norms(rep: np.ndarray) -> np.ndarray:
    """Norm of each (m, d) representative, over the leading axes."""
    return np.linalg.norm(rep, axis=(-2, -1))


def _unit_lines(reps: np.ndarray) -> np.ndarray:
    return reps / _line_norms(reps)[..., None, None]


class ProjPoint:
    """K-lines through stored unit representatives, one per leading index of
    a (..., m, d) array."""

    __slots__ = ("field", "rep")

    def __init__(self, field: KField, rep: np.ndarray):
        arr = np.asarray(rep, dtype=float)
        if arr.ndim < 2 or arr.shape[-1] != field.d:
            raise GeometryError(f"representative must have shape (..., m, {field.d})")
        norm = _line_norms(arr)
        if np.any(np.abs(norm - 1.0) > GEOM_TOL):
            raise GeometryError("line representative is not a unit vector")
        self.field = field
        self.rep = arr / norm[..., None, None]

    def display_rep(self) -> np.ndarray:
        """Representative with the largest component rotated real-positive.

        Display convention only; all comparisons are phase-invariant.
        """
        norms = np.linalg.norm(self.rep, axis=-1)
        i = np.argmax(norms, axis=-1)[..., None]
        top = np.take_along_axis(self.rep, i[..., None], axis=-2)[..., 0, :]
        q = k_conj(self.field, top / np.take_along_axis(norms, i, axis=-1))
        return k_scalar_mul(self.field, q, self.rep)

    def __repr__(self) -> str:
        return f"ProjPoint({self.field.tag}, {self.display_rep().tolist()})"


def line_error(p: ProjPoint, q: ProjPoint) -> np.ndarray:
    """0 when the lines agree; 1 - |<u, v>| in general, per leading index."""
    if p.field is not q.field:
        raise GeometryError("lines over different scalar fields")
    return 1.0 - np.linalg.norm(k_inner(p.field, p.rep, q.rep), axis=-1)


def lines_equal(p: ProjPoint, q: ProjPoint, tol: float = GEOM_TOL) -> np.ndarray:
    return line_error(p, q) <= tol


# -- great-circle geodesics ---------------------------------------------------------


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, broadcast over the leading ones."""
    return np.einsum("...i,...i->...", u, v)


PairPath = Callable[[float | np.ndarray], np.ndarray]


def _arc(u: np.ndarray, v: np.ndarray) -> PairPath:
    """The great-circle arc from u (t = 0) to v (t = 1) as a function of t,
    with its angle and normal direction worked out once for the pair."""
    cos_theta = np.clip(_dot(u, v), -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if np.any(theta > np.pi - GEOM_TOL):
        raise GeometryError("geodesic undefined for antipodal points")
    sin_theta = np.sin(theta)
    fixed = sin_theta < SCALAR_TOL
    w = (v - cos_theta[..., None] * u) / np.where(fixed, 1.0, sin_theta)[..., None]
    # a pair with u = v stays at u; without one, np.where would copy the path
    any_fixed = bool(fixed.any())

    def at(t: float | np.ndarray) -> np.ndarray:
        angle = theta * np.asarray(t, dtype=float)
        path = np.cos(angle)[..., None] * u + np.sin(angle)[..., None] * w
        return np.where(fixed[..., None], u, path) if any_fixed else path

    return at


def geodesic_c(t: float, u, v) -> SpherePoint:
    """The unique shortest great-circle arc: c(0) = u, c(1) = v, constant
    speed, undefined for antipodal inputs; c(t, u, u) = u."""
    return SpherePoint(_arc(_coords(u), _coords(v))(t))


def _rho(u: np.ndarray, v: np.ndarray) -> PairPath:
    """The arc from u to v reparametrized so that rho(1) = u and rho(-1) = v."""
    arc = _arc(u, v)
    return lambda t: arc((1.0 - np.asarray(t, dtype=float)) / 2.0)


def rho_sphere(t: float, u, v) -> SpherePoint:
    """Reparametrized arc with rho(1) = u and rho(-1) = v."""
    return SpherePoint(_rho(_coords(u), _coords(v))(t))


def _sigma_raw(w: np.ndarray, t: float | np.ndarray, u: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return _arc(w, np.where(t >= 0.0, 1.0, -1.0)[..., None] * u)(np.abs(t))


def sigma_sphere(w, t: float, u) -> SpherePoint:
    """Path from u (t=1) to -u (t=-1) through the orthogonal midpoint w."""
    wc, uc = _coords(w), _coords(u)
    if abs(np.dot(wc, uc)) > GEOM_TOL:
        raise GeometryError("midpoint direction must be orthogonal to u")
    return SpherePoint(_sigma_raw(wc, t, uc))


# -- the ball-bundle chart around antipodal pairs -----------------------------------


def _pi_raw(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The chart's first output x at (u, w); its second output is x at (-u, w),
    since (1 - s2)(-u) and (s2 - 1) u round to the same float."""
    s2 = _dot(w, w)[..., None]
    return ((1.0 - s2) * u + 2.0 * w) / (1.0 + s2)


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
    x, y = _pi_raw(uc, wc), _pi_raw(-uc, wc)
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


def _phase_aligned(field: KField, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y rephased so that <x, y> is real and nonnegative, and |<x, y>|.

    Lines within SCALAR_TOL of orthogonal keep y and read 0."""
    inner = k_inner(field, x, y)
    mag = np.linalg.norm(inner, axis=-1)
    orthogonal = mag <= SCALAR_TOL
    phase = np.where(orthogonal[..., None], np.eye(field.d)[0],
                     inner / np.maximum(mag, SCALAR_TOL)[..., None])
    return k_scalar_mul(field, phase, y), np.where(orthogonal, 0.0, mag)


def proj_rho(t: float | np.ndarray, line_l: ProjPoint, line_m: ProjPoint) -> ProjPoint:
    """Geodesic between non-orthogonal lines: phase-align the second
    representative so the inner product is real positive, then run the real
    great-circle arc; rho(1) = L, rho(-1) = M."""
    u = line_l.rep
    v, mag = _phase_aligned(line_l.field, u, line_m.rep)
    if np.any(mag <= GEOM_TOL):
        raise GeometryError("projective geodesic undefined for orthogonal lines")
    point = _rho(u.reshape(u.shape[:-2] + (-1,)), v.reshape(v.shape[:-2] + (-1,)))(t)
    return ProjPoint(line_l.field, point.reshape(point.shape[:-1] + u.shape[-2:]))


def proj_sigma(
    a_of_u: np.ndarray, t: float | np.ndarray, line_l: ProjPoint, line_m: ProjPoint
) -> ProjPoint:
    """Path from L (t=1) to M (t=-1) determined by an isometry a: L -> M,
    through the line of sin(pi(t+1)/4) u + cos(pi(t+1)/4) a(u)."""
    field = line_l.field
    u, v = line_l.rep, line_m.rep
    a_u = np.asarray(a_of_u, dtype=float)
    if np.any(np.linalg.norm(k_inner(field, u, v), axis=-1) > GEOM_TOL):
        raise GeometryError("lines must be orthogonal")
    if np.any(np.abs(_line_norms(a_u) - 1.0) > GEOM_TOL):
        raise GeometryError("a must be an isometry (|a(u)| = |u|)")
    if np.any(1.0 - np.linalg.norm(k_inner(field, a_u, v), axis=-1) > GEOM_TOL):
        raise GeometryError("a(u) must lie on the target line")
    angle = np.pi * (np.asarray(t, dtype=float)[..., None, None] + 1.0) / 4.0
    return ProjPoint(field, np.sin(angle) * u + np.cos(angle) * a_u)


def proj_pi_map(
    line_l: ProjPoint, line_m: ProjPoint, a_of_u: np.ndarray
) -> tuple[ProjPoint, ProjPoint]:
    """Chart ((1+a)L, (1+a*)M) on orthogonal lines with |a| <= 1; at |a| = 1
    the two output lines coincide."""
    field = line_l.field
    u, v = line_l.rep, line_m.rep
    a_u = np.asarray(a_of_u, dtype=float)
    if np.any(np.linalg.norm(k_inner(field, u, v), axis=-1) > GEOM_TOL):
        raise GeometryError("lines must be orthogonal")
    norm_a = _line_norms(a_u)
    if np.any(norm_a > 1.0 + SCALAR_TOL):
        raise GeometryError("|a| must be at most 1")
    on_target = np.linalg.norm(k_inner(field, a_u, v), axis=-1)
    if np.any((norm_a > GEOM_TOL) & (on_target < (1.0 - GEOM_TOL) * norm_a)):
        raise GeometryError("a(u) must lie on the target line")
    # a*(v) = <v, a(u)> u by the defining adjoint identity for left lines
    a_star_v = k_scalar_mul(field, k_inner(field, v, a_u), u)
    scale = 1.0 / np.sqrt(1.0 + norm_a * norm_a)[..., None, None]
    return (
        ProjPoint(field, (u + a_u) * scale),
        ProjPoint(field, (v + a_star_v) * scale),
    )


def proj_pi_inverse(
    line_x: ProjPoint, line_y: ProjPoint
) -> tuple[ProjPoint, ProjPoint, np.ndarray]:
    """Unique chart preimage (L, M, a), |a| < 1, of a pair of distinct lines.

    Phases are fixed so <x, y> is real and nonnegative; the scale t of a
    solves 2t/(1+t^2) = <x, y> inside [0, 1).  Orthogonal lines are their own
    preimage, with a = 0.
    """
    field, x = line_x.field, line_x.rep
    y, mag = _phase_aligned(field, x, line_y.rep)
    if np.any(mag >= 1.0 - GEOM_TOL):
        raise GeometryError("chart inverse undefined for equal lines")
    t = (mag / (1.0 + np.sqrt(1.0 - mag * mag)))[..., None, None]
    factor = np.sqrt(1.0 + t * t) / (1.0 - t * t)
    u = _unit_lines((x - t * y) * factor)
    v = _unit_lines((y - t * x) * factor)
    return ProjPoint(field, u), ProjPoint(field, v), t * v


# -- planners and their verification --------------------------------------------------


@dataclass(frozen=True)
class PlannerRule:
    """One local rule: a domain predicate on pairs and a path map with
    path(u, v)(1) = u and path(u, v)(-1) = v on the domain.

    Both broadcast over leading axes: for points ``u, v`` of shape
    ``(..., dim)``, ``accepts(u, v)`` is a bool array of the leading shape.
    ``path(u, v)`` does the per-pair work once and returns the pairs' path, a
    function of ``t`` whose value is a ``(..., dim)`` array, with ``t``
    broadcast against the leading shape.  ``path`` is only called on rows
    that ``accepts``."""

    name: str
    accepts: Callable[[np.ndarray, np.ndarray], np.ndarray]
    path: Callable[[np.ndarray, np.ndarray], PairPath]


@dataclass(frozen=True)
class Planner:
    """Ordered local rules covering the pair space; the first accepting rule
    plans the motion.  ``lipschitz`` bounds the speed of every rule's path in
    the planning parameter and calibrates the continuity proxy."""

    n: int
    rules: tuple[PlannerRule, ...]
    lipschitz: float

    def plan(self, t: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The path point at t for one pair of points of shape (dim,): the
        first accepting rule's ``path(u, v)`` evaluated at t."""
        for rule in self.rules:
            if rule.accepts(u, v):
                return rule.path(u, v)(t)
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


def build_sphere_planner(n: int) -> Planner:
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

    def accepts_near(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _dot(u, v) > -1.0 + GEOM_TOL

    def accepts_far(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.linalg.norm(u - v, axis=-1) > GEOM_TOL

    def path_far(x: np.ndarray, y: np.ndarray) -> PairPath:
        u0, w = _pi_inverse_raw(x, y)

        @functools.cache
        def crossing(to_u0: bool) -> PairPath:
            # the section crossing from J u0 to u0 or -u0, built on first use
            return _arc(complex_structure(u0), u0 if to_u0 else -u0)

        def at(t: float | np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=float)

            def chart(centre: np.ndarray) -> np.ndarray:
                # the chart segments out of u0 and into -u0 scale w by |2t| - 1
                return _pi_raw(centre, (np.abs(2.0 * t[..., None]) - 1.0) * w)

            # chart out of u0 for t >= 1/2, into -u0 for t <= -1/2, and in
            # between the crossing towards u0 for t >= 0 and towards -u0
            # otherwise (NaN too); only the pieces some t selects are evaluated
            out_of_u0, into_minus_u0 = t >= 0.5, t <= -0.5
            towards_u0 = (t >= 0.0) & ~out_of_u0
            towards_minus_u0 = ~(out_of_u0 | into_minus_u0 | towards_u0)
            pieces = ((out_of_u0, lambda: chart(u0)), (into_minus_u0, lambda: chart(-u0)),
                      (towards_u0, lambda: crossing(True)(np.abs(2.0 * t))),
                      (towards_minus_u0, lambda: crossing(False)(np.abs(2.0 * t))))
            path = None
            for selects, piece in pieces:
                if selects.all():
                    return piece()
                if selects.any():
                    value = piece()
                    path = value if path is None else np.where(selects[..., None], value, path)
            return path

        return at

    return Planner(
        n=n,
        rules=(
            PlannerRule("shortest-arc", accepts_near, _rho),
            PlannerRule("section-crossing", accepts_far, path_far),
        ),
        lipschitz=4.0,
    )


# a report field's text by its annotation, a string under the __future__
# import: floats as .12e, the verdict as true/false
_REPORT_TEXT = {"int": str, "float": "{:.12e}".format,
                "bool": lambda flag: "true" if flag else "false"}


@dataclass(frozen=True)
class PlannerReport:
    """Numeric verification results; all fields deterministic in (samples, seed).

    ``equivariance_error`` measures the raw geodesic under random orthogonal
    maps, not the planner's rules; the rules' unitary equivariance and their
    continuity in (u, v) are tier-1 tests of their own."""

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
        """One ``name=value`` line per field, in field order."""
        return [f"{f.name}={_REPORT_TEXT[f.type](getattr(self, f.name))}" for f in fields(self)]


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def _random_units(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return _unit_rows(rng.standard_normal((count, dim)))


def _blocks(count: int, row_coords: int):
    """Slices of range(count) of at most _BLOCK_COORDS // row_coords rows."""
    step = max(1, _BLOCK_COORDS // row_coords)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _max_distance(a: np.ndarray, b: np.ndarray) -> float:
    # the largest of norm(a - b, axis=-1), which is sqrt(add.reduce(d * d)):
    # sqrt is monotone and correctly rounded, so one root of the largest sum
    # has the same bits as the largest root; squaring in place saves an
    # array of the chunk's size, which at large n is fresh memory to fault in
    d = a - b
    d *= d
    return float(np.sqrt(np.max(np.add.reduce(d, axis=-1), initial=0.0)))


def verify_planner(planner: Planner, samples: int, seed: int) -> PlannerReport:
    """Sample the planner's contracts.

    Endpoint and diagonal errors are checked for every rule on its own
    domain, cover for the rule set as a whole, the continuity proxy along
    every accepting rule at resolution 1/256 against lipschitz/256 + 1e-6,
    and geodesic equivariance under 100 random orthogonal maps.

    Rules run on blocks of sampled rows through their broadcasting
    contract, and each rule's ``path`` is prepared once per block and
    evaluated at every t the block needs: both endpoints, or the whole
    diagonal grid.  The continuity proxy prepares each accepting rule once
    and runs its rows over chunks of the t-grid that overlap in one point,
    and the equivariance trials run in blocks with one stacked QR, drawn
    trial by trial.  Block and chunk sizes follow ``_BLOCK_COORDS``; the
    report does not depend on them.
    """
    if samples < 1:
        raise GeometryError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise GeometryError(f"seed must be >= 0, got {seed}")
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
                path = rule.path(ur, vr)
                endpoint = max(endpoint, _max_distance(path(1.0), ur),
                               _max_distance(path(-1.0), vr))
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
                diagonal = max(diagonal, _max_distance(rule.path(ur, ur)(t_grid), ur))

    step = CONTINUITY_RESOLUTION
    fine_grid = np.arange(-1.0, 1.0 + step / 2, step)[:, None]
    continuity = 0.0
    head_vs = vs[: len(heads)]
    for domain, rule in zip(domains, rules):
        mask = domain[: len(heads)]
        if mask.any():
            u, v = heads[mask], head_vs[mask]
            path = rule.path(u, v)
            # each chunk of the t-grid opens on the last point of the one
            # before, so every consecutive step is measured exactly once; a
            # floor of 9 points bounds the calls at large n and keeps the
            # shared points to 1/8 of the work
            width = max(9, _BLOCK_COORDS // (len(u) * dim))
            for start in range(0, len(fine_grid) - 1, width - 1):
                points = path(fine_grid[start : start + width])
                continuity = max(continuity, _max_distance(points[1:], points[:-1]))
    continuity_bound = planner.lipschitz * step + 1e-6

    equivariance = 0.0
    eq_grid = np.linspace(-1.0, 1.0, 9)[:, None]
    for trials in _blocks(100, dim * dim):
        # drawn trial by trial, matrix first, to keep the stream's order
        draws = [(rng.standard_normal((dim, dim)), _random_units(rng, 2, dim))
                 for _ in range(trials.start, trials.stop)]
        kept = [(a, uv) for a, uv in draws if np.dot(uv[0], uv[1]) >= -1.0 + 1e-6]
        if not kept:
            continue
        a, uv = (np.array(part) for part in zip(*kept))
        g, _ = np.linalg.qr(a)
        u, v = uv[:, 0], uv[:, 1]
        lhs = _arc((g @ u[..., None])[..., 0], (g @ v[..., None])[..., 0])(eq_grid)
        rhs = np.swapaxes(_arc(u, v)(eq_grid), 0, 1) @ np.swapaxes(g, 1, 2)
        equivariance = max(equivariance, _max_distance(np.swapaxes(lhs, 0, 1), rhs))

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
    # drawn sample by sample: one draw per array would reorder the stream
    # and change the data each seed samples
    draws = [(rng.standard_normal((2, dim)), rng.uniform(0.0, 0.95),
              rng.standard_normal((2, dim))) for _ in range(samples)]
    first, scale, second = (np.array(part) for part in zip(*draws))

    u = _unit_rows(first[:, 0])
    raw = first[:, 1]
    w = scale[:, None] * _unit_rows(raw - _dot(raw, u)[:, None] * u)
    x, y = (_unit_rows(_pi_raw(centre, w)) for centre in (u, -u))
    u2, w2 = _pi_inverse_raw(x, y)
    worst = max(_max_distance(u2, u), _max_distance(w2, w))

    x3, y3 = _unit_rows(second[:, 0]), _unit_rows(second[:, 1])
    keep = np.linalg.norm(x3 - y3, axis=-1) > 1e-6
    x3, y3 = x3[keep], y3[keep]
    u4, w4 = _pi_inverse_raw(x3, y3)
    x4, y4 = _pi_raw(u4, w4), _pi_raw(-u4, w4)
    return max(worst, _max_distance(_unit_rows(x4), x3), _max_distance(_unit_rows(y4), y3))


def _orthogonalize(field: KField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _unit_lines(y - k_scalar_mul(field, k_conj(field, k_inner(field, x, y)), x))


def proj_roundtrip_error(field: KField, m: int, samples: int, seed: int) -> float:
    """Worst line error of the two projective chart compositions."""
    rng = np.random.default_rng(seed)
    shape = (2, m, field.d)
    # drawn sample by sample: one draw per array would reorder the stream
    # and change the data each seed samples
    draws = [(rng.standard_normal(shape), rng.standard_normal(field.d),
              rng.uniform(0.0, 0.95), rng.standard_normal(shape)) for _ in range(samples)]
    first, q, scale, second = (np.array(part) for part in zip(*draws))

    line_l = ProjPoint(field, _unit_lines(first[:, 0]))
    line_m = ProjPoint(field, _orthogonalize(field, line_l.rep, first[:, 1]))
    a_u = scale[:, None, None] * k_scalar_mul(field, _unit_rows(q), line_m.rep)
    l2, m2, a2 = proj_pi_inverse(*proj_pi_map(line_l, line_m, a_u))
    # transport a through the representative change l2.rep ~ q * l.rep
    phase = k_inner(field, l2.rep, line_l.rep)
    errors = [line_error(l2, line_l), line_error(m2, line_m),
              _line_norms(a2 - k_scalar_mul(field, phase, a_u))]

    xs, ys = _unit_lines(second[:, 0]), _unit_lines(second[:, 1])
    keep = np.linalg.norm(k_inner(field, xs, ys), axis=-1) < 1.0 - 1e-6
    line_x, line_y = ProjPoint(field, xs[keep]), ProjPoint(field, ys[keep])
    x4, y4 = proj_pi_map(*proj_pi_inverse(line_x, line_y))
    errors += [line_error(x4, line_x), line_error(y4, line_y)]
    return max(float(np.max(e, initial=0.0)) for e in errors)
