"""Cohomology presentations attached to sphere and projective bundles.

A bundle of rank ``n+1`` over a base ``B`` is described by a coefficient
field tag K (R, C or H with real scalar dimension d = 1, 2, 4), a
presentation of the cohomology of ``B``, and the characteristic classes
``w_1, ..., w_(n+1)`` of the bundle, where ``w_i`` sits in degree ``d*i``
(Stiefel-Whitney classes over F2 for K = R, Chern classes for K = C, the
symplectic classes for K = H).

From such a spec the constructors build:

* ``projective_ring``   -- the projectivization, one fibre generator ``t`` of
  degree d, relation ``x_(n+1) = 0`` where ``x_i = w_i - t*x_(i-1)``;
* ``q_tilde_ring``      -- ordered pairs of orthogonal lines, generators
  ``S, T`` of degree d;
* ``grassmann_ring``    -- planes of K-dimension 2, generators ``Y, Z`` (F2);
* ``feder_ring``        -- unordered pairs of orthogonal lines, generators
  ``Y, Z, X`` (F2), free over the plane ring with basis ``1, X, ..., X^d``.

The fibre relations are top terms of one twisted recurrence ``c_0 = 1``,
``c_i = w_i + y*c_(i-1) + z*c_(i-2)``: (y, z) is (-t, 0) for ``t``, (-S, 0) for
the first relation in ``S, T`` and (Y, Z) for the planes.  Named Euler classes
come back together with each presentation.  Each ring extends a completed
one (``Presentation.extend``): the unordered-pairs ring the plane ring, the
others the base.  The plane ring's module basis is verified degreewise by
dimension counts, the unordered-pairs ring's by its leads.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Sequence

from .polyalg import Coeffs, PolyRing, Polynomial
from .ringquot import (
    Element,
    ModuleBasisError,
    Presentation,
    point_presentation,
    verify_cell_dimensions,
)


class KField(Enum):
    """Scalar field of the bundle: reals, complexes or quaternions."""

    R = ("R", 1)
    C = ("C", 2)
    H = ("H", 4)

    def __init__(self, tag: str, d: int):
        self.tag = tag
        self.d = d

    @classmethod
    def from_tag(cls, tag: str) -> "KField":
        for f in cls:
            if f.tag == tag.upper():
                return f
        raise BundleError(f"unknown scalar field {tag!r}; use R, C or H")


class BundleError(ValueError):
    """Invalid bundle description."""


class GeometryError(ValueError):
    """Input outside the domain of an exact formula (raised by :mod:`geomplan`)."""


_FIBRE_NAMES = ("t", "S", "T", "X", "Y", "Z")


class BundleSpec:
    """A rank n+1 bundle over a presented base, with its classes."""

    __slots__ = ("field", "rank", "base", "classes", "_hash")

    def __init__(
        self,
        field: KField,
        rank: int,
        base: Presentation,
        classes: Sequence[Element],
    ):
        if not isinstance(rank, int) or rank < 2:
            raise BundleError("rank must be an integer >= 2 (projective fibres need n >= 1)")
        if field is KField.R and base.ring.coeffs is not Coeffs.F2:
            raise BundleError("real bundles take F2 coefficients")
        for name in base.ring.names:
            if name in _FIBRE_NAMES:
                raise BundleError(f"base generator {name!r} collides with a fibre class name")
        if base.dimension(0) != 1:
            raise BundleError("base must be connected (one-dimensional degree-0 part)")
        classes = tuple(classes)
        n = rank - 1
        if len(classes) != rank:
            raise BundleError(f"need {rank} classes w_1..w_{rank}, got {len(classes)}")
        d = field.d
        for i, c in enumerate(classes, start=1):
            if c.pres != base:
                raise BundleError(f"class w_{i} does not live in the base presentation")
            if not c.is_zero():
                if not c.poly.is_homogeneous() or c.degree() != d * i:
                    raise BundleError(f"class w_{i} must be homogeneous of degree {d * i}")
        self.field = field
        self.rank = rank
        self.base = base
        self.classes = classes
        self._hash: int | None = None

    @property
    def n(self) -> int:
        return self.rank - 1

    @property
    def d(self) -> int:
        return self.field.d

    def w(self, i: int) -> Element:
        """The class w_i, with w_0 = 1 and w_i = 0 outside 0..rank."""
        if i == 0:
            return self.base.one()
        if 1 <= i <= self.rank:
            return self.classes[i - 1]
        return self.base.zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BundleSpec)
            and self.field is other.field
            and self.rank == other.rank
            and self.base == other.base
            and self.classes == other.classes
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, self.rank, self.base, self.classes))
        return self._hash

    def __repr__(self) -> str:
        return f"BundleSpec({self.field.tag}, rank={self.rank}, base={self.base.ring!r})"


def trivial_bundle(field: KField, rank: int, coeffs: Coeffs | None = None) -> BundleSpec:
    """The trivial rank ``rank`` bundle over a point (all classes zero)."""
    if coeffs is None:
        coeffs = Coeffs.F2 if field is KField.R else Coeffs.INT
    base = point_presentation(coeffs)
    return BundleSpec(field, rank, base, [base.zero()] * rank)


def make_bundle(
    field: KField,
    rank: int,
    base: Presentation,
    classes: Mapping[int, Element | Polynomial | str | int],
) -> BundleSpec:
    """Build a spec from a sparse ``{i: w_i}`` mapping; missing classes are 0."""
    elems = []
    for i in range(1, rank + 1):
        value = classes.get(i, 0)
        if isinstance(value, Element):
            elems.append(value)
        else:
            elems.append(base.element(value))
    for i in classes:
        if not (1 <= i <= rank):
            raise BundleError(f"class index {i} outside 1..{rank}")
    return BundleSpec(field, rank, base, elems)


def reduce_mod2(b: BundleSpec) -> BundleSpec:
    """The same bundle with coefficients reduced from Z to F2."""
    if b.base.ring.coeffs is Coeffs.F2:
        return b
    ring2 = b.base.ring.to_f2()
    rels2 = [r.mod2(ring2) for r in b.base.relations]
    base2 = Presentation(ring2, rels2, truncation=b.base.truncation)
    classes2 = [base2.element(c.poly.mod2(ring2)) for c in b.classes]
    return BundleSpec(b.field, b.rank, base2, classes2)


# -- presentation extension ------------------------------------------------------


def _degree_bound(base: Presentation) -> int:
    """The degree bound of a derived ring's base."""
    if base.degree_bound is None:
        raise BundleError("base has unbounded degrees; give it a truncation")
    return base.degree_bound


def _twisted(b: BundleSpec, ring: PolyRing, y: Polynomial, z: Polynomial | None,
             top: int) -> list[Polynomial]:
    """c_0..c_top with c_0 = 1 and c_i = w_i + y*c_(i-1) + z*c_(i-2) (z None: no
    z term), the twisted sums sum_j p_(i-j) w_j of p_(k+1) = y*p_k + z*p_(k-1)."""
    c = [ring.one()]
    for i in range(1, top + 1):
        c_i = b.w(i).poly.lift(ring) + y * c[-1]
        if z is not None and i >= 2:
            c_i = c_i + z * c[-2]
        c.append(c_i)
    return c


def projective_ring(b: BundleSpec) -> tuple[Presentation, Element, Element]:
    """Cohomology of the projectivized bundle.

    Adjoins one generator ``t`` of degree d (the Euler class of the Hopf line
    bundle) with the single relation ``x_(n+1) = 0``.  Returns the
    presentation together with ``e_zeta = x_n`` (Euler class of the
    complementary bundle) and ``e_eta = t``.
    """
    n, d = b.n, b.d
    ring = b.base.ring.with_generators([("t", d)])
    xs = _twisted(b, ring, -ring.gen("t"), None, n + 1)
    trunc = b.base.truncation
    pres = b.base.extend(ring, [xs[n + 1]], None if trunc is None else trunc + n * d)
    e_zeta = pres.element(xs[n])
    e_eta = pres.element(ring.gen("t"))
    return pres, e_zeta, e_eta


def projective_x_classes(b: BundleSpec, pres: Presentation) -> list[Element]:
    """The module basis x_0, ..., x_n of the projectivization over the base."""
    xs = _twisted(b, pres.ring, -pres.ring.gen("t"), None, b.n)
    return [pres.element(x) for x in xs]


def _h_complete(ring: PolyRing, s_name: str, t_name: str, i: int) -> Polynomial:
    """Complete homogeneous polynomial h_i = T^i + S*T^(i-1) + ... + S^i."""
    S = ring.gen(s_name)
    T = ring.gen(t_name)
    acc = ring.zero()
    for j in range(i + 1):
        acc = acc + S ** j * T ** (i - j)
    return acc


def q_tilde_ring(b: BundleSpec) -> tuple[Presentation, Element]:
    """Cohomology of the space of ordered pairs of orthogonal lines in the bundle.

    Two generators ``S, T`` of degree d (Euler classes of the two Hopf line
    bundles).  The first relation is the projectivization relation in ``S``;
    the second is ``w_n + sum_i (-1)^i (T^i + S T^(i-1) + ... + S^i) w_(n-i)``.
    Over the bundle's coefficients (:func:`reduce_mod2` gives F2).  Returns the
    presentation and the Euler class ``e_alpha_tilde = T - S`` of the
    line-to-line homomorphism bundle.
    """
    n, d = b.n, b.d
    ring = b.base.ring.with_generators([("S", d), ("T", d)])
    r1 = _twisted(b, ring, -ring.gen("S"), None, n + 1)[n + 1]
    r2 = ring.zero()
    for i in range(n + 1):
        sign = -1 if i % 2 else 1
        r2 = r2 + sign * _h_complete(ring, "S", "T", i) * b.w(n - i).poly.lift(ring)
    trunc = b.base.truncation
    pres = b.base.extend(ring, [r1, r2], None if trunc is None else trunc + (2 * n - 1) * d)
    e_alpha_tilde = pres.element(ring.gen("T") - ring.gen("S"))
    return pres, e_alpha_tilde


def _plane_relations(b: BundleSpec) -> tuple[PolyRing, list[Polynomial]]:
    """The plane ring of an F2 spec and its relations p_n^xi, Z*p_(n-1)^xi + w_(n+1)."""
    n, d = b.n, b.d
    ring = b.base.ring.with_generators([("Y", d), ("Z", 2 * d)])
    p_xi = _twisted(b, ring, ring.gen("Y"), ring.gen("Z"), n)
    return ring, [p_xi[n], ring.gen("Z") * p_xi[n - 1] + b.w(n + 1).poly.lift(ring)]


def gaussian_binomial_two(m: int) -> list[int]:
    """Coefficients of the Gaussian binomial [m choose 2]_q.

    Coefficient e counts the fibre cells of the plane Grassmannian in degree
    d*e; used for the degreewise freeness check.  It counts the pairs
    0 <= i < j < m with i + j - 1 = e.
    """
    coeffs = [0] * max(2 * m - 3, 1)
    for j in range(1, m):
        for i in range(j):
            coeffs[i + j - 1] += 1
    return coeffs


def grassmann_ring(b: BundleSpec) -> tuple[Presentation, Element, Element]:
    """F2 cohomology of the bundle of 2-dimensional K-subspaces.

    Generators ``Y`` (degree d) and ``Z`` (degree 2d); relations
    ``p_n^xi(Y, Z)`` and ``Z * p_(n-1)^xi(Y, Z) + w_((n+1)d)``.  The quotient
    is a free module over the base whose fibre cells are the Gaussian
    binomial [n+1 choose 2]_q in q = t^d; that is checked degree by degree.
    """
    b = reduce_mod2(b)
    ring, rels = _plane_relations(b)
    trunc = _degree_bound(b.base) + 2 * b.n * b.d + b.d + 1
    pres = b.base.extend(ring, rels, trunc)
    cells = [c for e in gaussian_binomial_two(b.n + 1) for c in [e] + [0] * (b.d - 1)]
    verify_cell_dimensions(pres, b.base, cells, trunc, "plane-bundle ring")
    return pres, pres.element(ring.gen("Y")), pres.element(ring.gen("Z"))


def feder_ring(
    b: BundleSpec, plane: Presentation
) -> tuple[Presentation, Element, Element, Element]:
    """F2 cohomology of the space of unordered pairs of orthogonal lines.

    Adds ``X`` of degree 1 (Euler class of the swap line bundle) to ``plane``,
    the plane ring :func:`grassmann_ring` returns for ``b``, with the relation
    ``X (X^d + Y)``.  The result is free over the plane ring on ``1, X, ...,
    X^d`` when its leads are the plane's and ``X^(d+1)``, which is checked.
    Returns ``(presentation, e_lambda, e_alpha, w_d_beta)``: ``X``,
    ``Y + X^d`` and ``Y``.
    """
    d = b.d
    ring = plane.ring.with_generators([("X", 1)])
    x, y = ring.gen("X"), ring.gen("Y")
    pres = plane.extend(ring, [x ** (d + 1) + x * y], plane.truncation)
    leads = {r.leading_exponents() for r in pres.relations}
    if leads != {r.leading_exponents() + (0,) for r in plane.relations} | {
            (0,) * plane.ring.ngens + (d + 1,)}:
        raise ModuleBasisError("pair ring is not free over the plane ring on 1, X, ..., X^d")
    return pres, pres.element(x), pres.element(y + x ** d), pres.element(y)
