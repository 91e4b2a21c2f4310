"""Graded quotient rings presented by generators and homogeneous relations.

One reducer serves every presentation, over F2 and over Z: the constructor
completes the relations to a Groebner basis in graded-lex order (later
generators larger) with leading coefficients +1, and a polynomial is
rewritten from its largest monomial down.  The truncation alone decides how
the constructor validates and completes them; ``Presentation.strategy`` names
the way, and a ``Strategy`` passed to the constructor is ignored:

``MONIC_TOWER``, without a truncation
    Each relation is monic in its own *designated* generator: a single
    leading term ``g^m`` with unit coefficient, every other term in strictly
    earlier generators and lower powers of ``g``.  Such leads are pairwise
    coprime, so by Buchberger's first criterion the tower is already a
    Groebner basis.  The quotient is free over the subring of earlier
    generators with basis ``1, g, ..., g^(m-1)``.  All integral
    presentations take this shape.

``GROEBNER_F2``, with a truncation
    Truncated Buchberger completion over F2; a truncation over Z raises.
    Each S-pair is keyed once, when it is created, and waits in a heap that
    pops the lowest lcm degree first.
    Three filters run at creation: a pair of two monomials (its S-polynomial
    is zero), a pair with coprime leads (Buchberger's first criterion) or a
    pair with its lcm above the truncation bound is never queued.  Since all
    relations are homogeneous this yields normal forms that are canonical up
    to the truncation degree.  Minimality is found on insertion: a new lead
    marks every earlier lead it divides.  One pass of inter-reduction then
    gives the unique reduced basis: keep the unmarked elements, and reduce
    each non-empty tail once against them.

A presentation may carry a ``truncation`` degree: every element of weighted
degree above it is zero in the quotient.  The truncation is semantic, i.e. it
is part of the ring being presented, not a computational shortcut.

``Presentation.extend`` adjoins generators and relations to a completed
presentation.  Given a truncation, it starts the completion from the base's
packed basis: that basis and the minimal monomials above the base's degree
bound that no lead divides are a Groebner basis of the base's ideal, so they
enter finished and are never paired with each other: each such S-pair would
reduce to zero.  This holds for a monic tower too, whose quotient vanishes
above its box corner; its tails may be unreduced, and the completion's final
pass reduces them.  Only the new relations are paired: when each new lead
is a pure power of a new generator, all their leads are coprime and no pair
is queued.  The basis enters packed: the old generators lead the new ring,
so each basis monomial is re-spaced, its exponent fields and degree field
moved to the new layout, and the monomials above the degree bound are built
at the new width.  A tower extended without a truncation stays a tower: its
relations are lifted to the new ring.

Every monomial is packed into one int, the packed exponent vector of
Bachmann and Schoenemann (ISSAC '98): exponent i fills field i of ``width``
bits, generator n-1 most significant, and the weighted degree sits above the
last field, so integer order is graded-lex order across all degrees.  The
top bit of each exponent field is a guard bit that no exponent reaches.
With G the mask of guard bits, a lead l divides m exactly when
``((m | G) - l) & G == G``: each field of the difference is
m_i + 2^(width-1) - l_i, which lies in [0, 2^width), so no field borrows
from the next, and it keeps its guard bit just when m_i >= l_i.  The degree
field takes no part in the test.  The quotient is ``m - l`` and a product is
``m + l``, degree field included.  So a divisor l of m is at most m as an
int, and every stored basis is kept sorted by lead: a scan for a divisor of
m stops at the first lead above m, which neither it nor any later lead
divides.

Each presentation's constructor alone fixes its layout, at one width, that
of its degree bound: the truncation, else, when every generator g has a
relation g^m + ..., the corner sum of (m - 1) deg g of the tower's box of
standard monomials, above which the quotient is zero.  An exponent is at
most the degree of its monomial, so that width holds them all.  A ring with
a free generator packs at the width of the cap 2^62 instead, and an
element, product or walk that reaches the cap raises ``PresentationError``.
Two exponents below 2^(width-1) sum below 2^width, so a product never
carries into the next field, even above the bound, and with
``limit = (bound + 1) << (n * width)`` one compare ``m < limit`` drops a
term above the bound.  Packing a vector whose exponents overflow their
fields only sets more bits, so it too lands at or above the limit when its
degree is above the bound.  ``_packed`` packs relations and elements, and
``_unpacked`` gives ``Element.poly`` and, on first read, a truncated ring's
``relations``: equality and hashing read a truncated ring's packed basis and
a tower's normalized relations.

Elements stay packed: an ``Element`` holds its normal form as a map from
packed monomials to coefficients, at its presentation's width.  A product
is a packed convolution followed by ``_reduce``; a sum or difference merges
the maps, as a sum of normal forms is a normal form.  A ``Polynomial`` is
built only when ``Element.poly`` is read.

Dimensions are counted on the standard monomials, those that no lead of the
basis divides; they form a basis of the quotient in each degree.
A divisor of a standard monomial is standard, so they form an order ideal,
and one depth-first walk from 1 that raises one exponent at a time and stops
at the first multiple of a lead visits each of them once, never touching the
far larger set of all monomials.  Raising generator i of degree d adds
``(1 << i*width) + (d << n*width)`` to the packed monomial.
``Presentation.dimensions(top)`` counts every degree up to ``top`` in that
one walk and caches the counts; ``dimension``, ``top_degree`` and
``verify_cell_dimensions`` read them.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from enum import Enum
from heapq import heapify, heappop, heappush
from operator import mul
from typing import Iterator, Mapping, Sequence

from .polyalg import Coeffs, ExpVec, PolyRing, Polynomial, RingMismatchError, power


class Strategy(Enum):
    """How relations are completed, as the truncation decides; reduction ignores it."""

    MONIC_TOWER = "monic_tower"
    GROEBNER_F2 = "groebner_f2"


class PresentationError(ValueError):
    """The relations or the truncation do not make a presentation."""


class ModuleBasisError(ValueError):
    """A claimed free module decomposition fails to hold."""


def _width(top: int) -> int:
    """Field width, guard bit included, that holds every exponent of a
    monomial of weighted degree <= top."""
    return top.bit_length() + 1


def _guard(n: int, width: int) -> int:
    """The guard bits of n fields of ``width`` bits."""
    return sum(1 << (i * width + width - 1) for i in range(n))


def _pack(exps: ExpVec, width: int, degrees: Sequence[int]) -> int:
    """Exponent i in field i of ``width`` bits, the weighted degree above
    the last field."""
    m = sum(map(mul, exps, degrees))
    for x in reversed(exps):
        m = (m << width) | x
    return m


def _unpack(m: int, n: int, width: int) -> ExpVec:
    mask = (1 << width) - 1
    return tuple([(m >> (i * width)) & mask for i in range(n)])


# A presentation without a degree bound holds degrees below this cap
_CAP = 1 << 62


class Presentation:
    """A graded ring given by generators, homogeneous relations and an optional truncation.

    Instances are immutable.  The constructor validates the relations and
    completes them: without a truncation they must form a monic tower, stored
    with leading coefficients +1; with one, over F2, they are stored packed as
    their reduced Groebner basis up to the truncation, which ``relations``
    unpacks when first read.  ``strategy`` is deprecated and ignored.
    ``_known`` is private to ``extend``: a presentation whose generators lead
    ``ring``, given with a truncation; its basis enters the completion
    finished.
    ``degree_bound`` is the degree above which the quotient is zero, or None
    when a generator has no relation.
    """

    __slots__ = ("ring", "truncation", "degree_bound",
                 "_width", "_limit", "_basis", "_relations", "_dims", "_hash")

    def __init__(
        self,
        ring: PolyRing,
        relations: Sequence[Polynomial],
        strategy: Strategy | None = None,
        truncation: int | None = None,
        *,
        _known: "Presentation | None" = None,
    ):
        rels = _checked(ring, relations, truncation)
        self.ring = ring
        self.truncation = truncation
        self.degree_bound: int | None = truncation
        self._relations: tuple[Polynomial, ...] | None = None
        if truncation is None:
            rels = _tower_normalize(ring, rels)
            self._relations = tuple(rels)
            if len(rels) == ring.ngens:  # a tower's box corner
                self.degree_bound = sum((m - 1) * d for r in rels
                                        for m, d in zip(r.leading_exponents(), ring.degrees) if m)
        top = _CAP - 1 if self.degree_bound is None else self.degree_bound
        self._width = _width(top)
        self._limit = (top + 1) << (ring.ngens * self._width)
        guard = _guard(ring.ngens, self._width)
        # relations are homogeneous: one above the degree bound packs empty
        packed = [p for p in map(self._packed, rels) if p]
        if truncation is None:
            basis = tuple(sorted(map(_lead_and_tail, packed)))
        else:
            known = [] if _known is None else _known._respaced(self, guard)
            basis = _buchberger(known, packed, guard, self._limit, self._width, ring.degrees)
        self._basis = (guard, basis)
        # dimensions in degrees 0, 1, ..., filled by ``dimensions``
        self._dims: list[int] | None = None
        self._hash: int | None = None

    @property
    def relations(self) -> tuple[Polynomial, ...]:
        """The normalized tower, or the reduced basis unpacked on first read."""
        if self._relations is None:
            basis = self._basis[1]
            self._relations = tuple(self._unpacked({m: 1, **dict(t)}) for m, t in basis)
        return self._relations

    @property
    def strategy(self) -> Strategy:
        """How the relations were completed, as the truncation decides."""
        return Strategy.MONIC_TOWER if self.truncation is None else Strategy.GROEBNER_F2

    # -- completion -----------------------------------------------------------

    def complete(self) -> "Presentation":
        """The presentation itself, which its constructor already completed.

        Kept for callers that still complete explicitly, among them the
        benchmark harness, which also rebinds it by name to trace it.
        """
        return self

    def extend(self, ring: PolyRing, relations: Sequence[Polynomial],
               truncation: int | None) -> "Presentation":
        """This ring with new generators and the homogeneous ``relations`` in
        ``ring`` adjoined; this ring's generators must lead ``ring``'s, in
        order and at their degrees.

        With a truncation, this ring's packed basis enters the completion as
        it is, re-spaced: only ``relations`` are paired.  Without one, this
        ring must be a monic tower, whose lifted relations and ``relations``
        must make a tower again.
        """
        n = self.ring.ngens
        if ring.coeffs is not self.ring.coeffs or ring.generators()[:n] != self.ring.generators():
            raise PresentationError("the old generators must lead the new ring at their degrees")
        if truncation is not None:
            return Presentation(ring, relations, truncation=truncation, _known=self)
        if self.truncation is not None:
            raise PresentationError("extending a truncated ring requires a truncation degree")
        return Presentation(ring, [*(r.lift(ring) for r in self.relations), *relations])

    def _respaced(self, target: "Presentation", guard: int) -> list[_BasisElement]:
        """This ring's basis up to ``target``'s truncation and, if that is
        above this ring's degree bound, the bound's minimal monomials that no
        lead divides, in the layout of ``target`` (guard bits ``guard``), a
        truncated extension.  Each exponent field and the degree field move
        to their new places; no exponent kept exceeds ``target``'s
        truncation.  A tower's tails come as they are, perhaps unreduced."""
        n, width, new = self.ring.ngens, self._width, target._width
        old_shift, shift = n * width, target.ring.ngens * new
        low, mask = (1 << old_shift) - 1, (1 << width) - 1

        def move(m: int) -> int:
            fields = m & low if new == width else sum(
                ((m >> i * width) & mask) << i * new for i in range(n))
            return fields | (m >> old_shift) << shift

        known = [(move(lead), tuple((move(e), c) for e, c in tail))
                 for lead, tail in self._basis[1] if lead >> old_shift <= target.truncation]
        bound = self.degree_bound
        if bound is not None and target.truncation > bound:
            known += [(m, ()) for m in _truncation_monomials(self.ring.degrees, bound, new, shift)
                      if m < target._limit
                      and not any(((m | guard) - lead) & guard == guard for lead, _ in known)]
        return known

    def has_leads_of(self, base: "Presentation", monomial: Polynomial) -> bool:
        """Whether this ring's leads, compared packed, are those of ``base``,
        a truncated ring it extends, and ``monomial``."""
        guard, basis = self._basis
        want = {lead for lead, _ in base._respaced(self, guard)} | self._packed(monomial).keys()
        return {lead for lead, _ in basis} == want

    # -- normal forms ----------------------------------------------------------

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The normal form of ``p``, unpacked."""
        return self.element(p).poly

    def _packed(self, p: Polynomial) -> dict[int, int]:
        """``p`` packed, without its terms above the degree bound, which stay zero."""
        width, limit, degrees = self._width, self._limit, self.ring.degrees
        return {m: c for e, c in p._terms.items() if (m := _pack(e, width, degrees)) < limit}

    def _unpacked(self, terms: Mapping[int, int]) -> Polynomial:
        """The polynomial of packed terms."""
        n, width = self.ring.ngens, self._width
        return Polynomial(self.ring, {_unpack(m, n, width): c for m, c in terms.items()})

    def _reduced(self, work: dict[int, int]) -> "Element":
        """The element of a packed polynomial (consumed)."""
        guard, basis = self._basis
        return Element(self, _reduce(work, basis, guard, self.ring.coeffs is Coeffs.F2))

    def _check_cap(self, degree: int) -> None:
        """Raise if a ring without a degree bound meets a degree its packing cannot hold."""
        if self.degree_bound is None and degree >= _CAP:
            raise PresentationError(f"degree {degree} reaches the cap 2^62 of an unbounded ring")

    def element(self, p: "Element | Polynomial | str | int") -> "Element":
        """``p`` in this presentation, the one way an operand enters it: an
        ``Element`` of this or an equal presentation as it is; a ``Polynomial``
        of the ring, a string or an int reduced.  Else ``RingMismatchError``
        for another ring or presentation, ``ParseError`` or ``TypeError``."""
        if isinstance(p, Element):
            if p.pres is not self and p.pres != self:
                raise RingMismatchError("elements belong to different presentations")
            return p
        if isinstance(p, str):
            p = self.ring.parse(p)
        elif isinstance(p, int):
            p = self.ring.const(p)
        elif not isinstance(p, Polynomial):
            raise TypeError(f"cannot make an element of {type(p).__name__}")
        if p.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        self._check_cap(p.degree())
        return self._reduced(self._packed(p))

    def zero(self) -> "Element":
        return self.element(0)

    def one(self) -> "Element":
        return self.element(1)

    # -- degreewise structure ----------------------------------------------------

    def dimensions(self, top: int) -> list[int]:
        """Dimensions of the graded pieces in degrees 0..top.

        The counts come from one walk of the standard monomials up to
        ``min(top, degree_bound)`` (see ``_walk``) and are cached on the
        instance; a later call with a smaller ``top`` reads a prefix of them.
        Degrees above the bound have dimension 0; a ``top`` at the cap raises.
        """
        if top < 0:
            return []
        if top >= _CAP:
            raise PresentationError(f"degree {top} reaches the cap 2^62")
        reach = top if self.degree_bound is None else min(top, self.degree_bound)
        if self._dims is None or len(self._dims) <= reach:
            dims = [0] * (reach + 1)
            for _, degree in self._walk(reach):
                dims[degree] += 1
            self._dims = dims
        return self._dims[:reach + 1] + [0] * (top - reach)

    def standard_monomials(self, degree: int) -> list[ExpVec]:
        """Monomial basis of the quotient in one weighted degree, in
        graded-lex order: the monomials of that degree that no lead divides.

        Walks the standard monomials up to ``degree`` and keeps that degree.
        """
        if degree < 0 or (self.degree_bound is not None and degree > self.degree_bound):
            return []
        self._check_cap(degree)
        width, n = self._width, self.ring.ngens
        return [_unpack(m, n, width)
                for m in sorted(m for m, d in self._walk(degree) if d == degree)]

    def _walk(self, top: int) -> Iterator[tuple[int, int]]:
        """Every standard monomial of weighted degree <= top, packed, with
        its degree; ``top`` is at most the degree bound or below the cap.

        Depth-first from 1, raising one exponent at a time and never at a
        generator before the last one raised, so each monomial is reached
        once, through its divisors.  A divisor of a standard monomial is
        standard, so the walk stops at the first multiple of a lead.  Raising
        generator i to exponent x can only bring in a lead whose exponent at
        i is x, so leads are indexed by (i, x), and a plain loop tests those
        leads, stopping at the first that divides.
        """
        width = self._width
        guard, basis = self._basis
        degrees = self.ring.degrees
        n = len(degrees)
        shift, mask = n * width, (1 << width) - 1
        limit = (top + 1) << shift
        # generator i, the step that raises it, and its field's offset
        steps = [(i, (1 << i * width) + (d << shift), i * width) for i, d in enumerate(degrees)]
        by_raise: dict[tuple[int, int], list[int]] = {}
        for lead, _ in basis:
            if not lead:
                return  # a unit lead: the quotient is zero
            for i, x in enumerate(_unpack(lead, n, width)):
                if x:
                    by_raise.setdefault((i, x), []).append(lead)
        stack = [(0, 0)]
        while stack:
            m, first = stack.pop()
            yield m, m >> shift
            for i, step, at in steps[first:]:
                raised = m + step
                if raised >= limit:
                    continue
                rg = raised | guard
                for lead in by_raise.get((i, ((m >> at) & mask) + 1), ()):
                    if (rg - lead) & guard == guard:
                        break
                else:
                    stack.append((raised, i))

    def dimension(self, degree: int) -> int:
        if degree < 0 or (self.degree_bound is not None and degree > self.degree_bound):
            return 0
        return self.dimensions(degree)[degree]

    def top_degree(self) -> int | None:
        """Largest degree with a nonzero graded piece, -1 for the zero ring
        (where even degree 0 vanishes), or None if unbounded."""
        if self.truncation is None:
            # a monic tower: its box's corner is a standard monomial
            return self.degree_bound
        dims = self.dimensions(self.truncation)
        return max((m for m, count in enumerate(dims) if count), default=-1)

    # -- identity ------------------------------------------------------------------

    def _identity(self) -> tuple:
        """What ``==`` and the hash read past the ring and the truncation: a
        tower's normalized relations, which its packed basis drops above the
        box corner, else the packed basis.  ``degree_bound`` follows from
        either."""
        return self._relations if self.truncation is None else self._basis[1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Presentation)
            and self.ring == other.ring
            and self.truncation == other.truncation
            and self._identity() == other._identity()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.truncation, self._identity()))
        return self._hash

    def __repr__(self) -> str:
        rels = "; ".join(str(r) for r in self.relations) or "0"
        trunc = f", trunc<={self.truncation}" if self.truncation is not None else ""
        return f"Presentation({self.ring!r} / ({rels}){trunc}, {self.strategy.value})"


def free_presentation(coeffs: Coeffs, generators: Sequence[tuple[str, int]]) -> Presentation:
    """Polynomial ring with no relations."""
    return Presentation(PolyRing(coeffs, generators), ())


def point_presentation(coeffs: Coeffs = Coeffs.F2) -> Presentation:
    """The cohomology of a point: no generators, no relations."""
    return free_presentation(coeffs, ())


# -- validation ----------------------------------------------------------------------------


def _checked(ring: PolyRing, relations: Sequence[Polynomial],
             truncation: int | None) -> list[Polynomial]:
    """The nonzero relations, once they and the truncation check out."""
    rels = []
    for r in relations:
        if r.ring != ring:
            raise PresentationError("relation lives in a different ring")
        if r.is_zero():
            continue
        if not r.is_homogeneous():
            raise PresentationError(f"relation {r} is not homogeneous")
        rels.append(r)
    if truncation is not None:
        if not isinstance(truncation, int) or truncation <= 0:
            raise PresentationError("truncation must be a positive integer")
        if ring.coeffs is not Coeffs.F2:
            raise PresentationError("GROEBNER_F2 requires F2 coefficients")
    return rels


def _truncation_monomials(degrees: Sequence[int], bound: int, width: int, shift: int) -> list[int]:
    """Minimal monomials of weighted degree > bound in generators of these
    degrees, the leading ones of a ring, packed with fields of ``width`` bits
    and the degree field at ``shift``.

    These generate the ideal of everything above the bound, so they encode a
    semantic truncation as honest relations once new generators are adjoined.
    """
    out: list[int] = []

    def rec(m: int, pos: int, total: int, least: int) -> None:
        # generator pos at each exponent that stays at or below the bound,
        # then at the first one above it
        d = degrees[pos]
        top = (bound - total) // d + 1
        if pos + 1 < len(degrees):
            for e in range(top):
                rec(m | e << pos * width, pos + 1, total + e * d, min(least, d) if e else least)
        total += top * d
        if total - min(least, d) <= bound:  # minimal: dropping any generator lands at or below
            out.append(m | top << pos * width | total << shift)

    if degrees:
        rec(0, 0, 0, max(degrees))
    return out


def _tower_normalize(ring: PolyRing, relations: list[Polynomial]) -> list[Polynomial]:
    """Validate tower shape, normalize leading units to +1 and order the
    relations by their monic generators, so a tower reads the same in any order."""
    normalized: dict[int, Polynomial] = {}
    for rel in relations:
        lead = rel.leading_exponents()
        support = [i for i, x in enumerate(lead) if x]
        if not support:
            raise PresentationError(f"constant relation {rel} is not allowed")
        # rel is homogeneous, so its grlex lead is a pure power g^m of its last
        # generator g exactly when no other term reaches g^m
        gidx, lc = support[-1], rel.coefficient(lead)
        if len(support) > 1 or lc not in (1, -1):
            raise PresentationError(
                f"relation {rel} is not monic in generator {ring.names[gidx]!r}; "
                "only an F2 presentation with a truncation (GROEBNER_F2) takes such relations"
            )
        if gidx in normalized:
            raise PresentationError(
                f"two relations are monic in the same generator {ring.names[gidx]!r}"
            )
        normalized[gidx] = -rel if lc == -1 else rel
    return [normalized[g] for g in sorted(normalized)]


# -- reduction and completion ------------------------------------------------------------

# A basis element (lead, tail) stands for the relation lead + tail, whose
# packed leading monomial ``lead`` has coefficient +1; ``tail`` is a tuple of
# (packed monomial, coefficient) pairs, all smaller than ``lead`` and of its
# degree, so they fit the width that holds the lead.
_BasisElement = tuple[int, tuple[tuple[int, int], ...]]


def _lead_and_tail(terms: Mapping[int, int]) -> _BasisElement:
    """Split a homogeneous packed polynomial: within one degree the largest
    int is the graded-lex largest monomial.  The tail runs down from there,
    so equal polynomials give equal elements."""
    lead = max(terms)
    return lead, tuple(sorted(((e, c) for e, c in terms.items() if e != lead), reverse=True))


def _reduce(
    work: dict[int, int],
    basis: Sequence[_BasisElement],
    guard: int,
    mod2: bool,
) -> dict[int, int]:
    """Fully reduce a packed polynomial (map of monomials to coefficients,
    consumed) by a basis packed at the same width, with guard bits ``guard``.

    Terms are taken from the largest monomial down with their coefficients
    merged, so each monomial is reduced at most once; a monomial divisible by
    a lead is replaced by the shifted, negated tail of the first such basis
    element.  ``basis`` is sorted by lead, so the scan for a divisor of m
    keeps m at the first lead above it: a divisor is at most m as an int.
    Relations are homogeneous, so a rewrite stays in the degree of the
    monomial it replaces, and a heap keyed on ``-m`` orders every degree.
    """
    heap = [-m for m in work]
    heapify(heap)
    out: dict[int, int] = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if mod2:
            c &= 1
        if not c:
            continue
        mg = m | guard
        for lead, tail in basis:
            if lead > m:
                out[m] = c
                break
            if (mg - lead) & guard == guard:
                shift = m - lead
                for e, tc in tail:
                    s = e + shift
                    if s in work:
                        work[s] -= c * tc
                    else:
                        work[s] = -c * tc
                        heappush(heap, -s)
                break
        else:
            out[m] = c
    return out


def _buchberger(
    known: Sequence[_BasisElement], relations: Sequence[dict[int, int]],
    guard: int, limit: int, width: int, degrees: Sequence[int],
) -> tuple[_BasisElement, ...]:
    """Truncated Buchberger completion for homogeneous F2 ideals.

    All is packed in the layout (``width``, ``guard``, ``limit``) of the
    presentation being built.  ``relations`` are packed polynomials, consumed,
    without their terms above the truncation.  ``known``, a Groebner basis up
    to the truncation in which no lead divides another, starts the basis as
    it is and is never paired with itself (``Presentation.extend``).  Its
    tails may be unreduced, as a monic tower's are: the final pass below
    reduces them with the rest.

    Each S-pair of elements k < j is keyed once, when j enters, by (degree
    field of the packed lcm of their leads, -j, -k), and waits in a heap:
    pairs pop lowest degree first and, within a degree, newest first.  A pair
    is never queued when both elements are monomials, when its leads are
    coprime (Buchberger's first criterion) or when their lcm lies above the
    truncation: each S-polynomial is zero or reduces to zero.  A lead's
    generators are marked on the packed lead, ``((lead & low) + fill) &
    guard`` with 2^(width-1) - 1 in each field of ``fill``, exact as no
    exponent reaches its guard bit; coprimality is one AND of two marks, and
    a lead is unpacked only for a pair that needs its lcm.

    Each new element is fully reduced by all before it, so only a later lead
    can divide an earlier one, and ``add`` marks every earlier element whose
    lead the new lead divides.  Dropping the marked ones leaves a minimal
    basis with the same leading ideal; each remaining non-empty tail is
    reduced once against it.  That is the unique reduced basis up to the
    truncation.  ``basis`` stays in insertion order, which the pair keys and
    the marks index; ``_reduce`` reads ``by_lead``, the same elements kept
    sorted by lead with ``insort``, so its scans exit early.
    """
    n = len(degrees)
    shift = n * width
    low = (1 << shift) - 1  # every exponent field, no degree field
    fill = guard - (guard >> (width - 1))
    basis = list(known)
    by_lead = sorted(basis)  # the reducer's view of ``basis``, in lead order
    redundant: set[int] = set()  # indices of elements whose lead a later lead divides
    pairs: list[tuple[int, int, int, int]] = []

    def add(element: _BasisElement) -> None:
        lead, tail = element
        j = len(basis)
        gens = ((lead & low) + fill) & guard  # the guard bit of each generator in lead
        exps = None  # lead unpacked, once a pair needs an lcm
        for k, (other, other_tail) in enumerate(basis):
            if ((other | guard) - lead) & guard == guard:
                redundant.add(k)
            if not tail and not other_tail:
                continue  # two monomials: the S-polynomial is zero
            if not gens & ((other & low) + fill):
                continue  # coprime leads: gens holds guard bits only
            if exps is None:
                exps = _unpack(lead, n, width)
            lcm = _pack(tuple(map(max, _unpack(other, n, width), exps)), width, degrees)
            if lcm < limit:
                heappush(pairs, (lcm >> shift, -j, -k, lcm))
        basis.append(element)
        insort(by_lead, element)

    for packed in relations:
        reduced = _reduce(packed, by_lead, guard, True)
        if reduced:
            add(_lead_and_tail(reduced))
    while pairs:
        _, minus_j, minus_k, lcm = heappop(pairs)
        # the two leads both shift to lcm and cancel; _reduce takes the
        # merged tail counts mod 2
        spoly = Counter(e + lcm - lead
                        for lead, tail in (basis[-minus_k], basis[-minus_j]) for e, _ in tail)
        reduced = _reduce(spoly, by_lead, guard, True)
        if reduced:
            add(_lead_and_tail(reduced))

    # no two leads are equal, so the elements sort by lead: graded-lex order;
    # an empty tail stays empty
    minimal = sorted(el for k, el in enumerate(basis) if k not in redundant)
    return tuple((lead, tail and tuple(_reduce(dict(tail), minimal, guard, True).items()))
                 for lead, tail in minimal)


class Element:
    """An element of a presented quotient ring, kept packed in normal form.

    ``_terms`` maps monomials packed at the presentation's width to nonzero
    coefficients (1 over F2); ``poly`` unpacks them on first read.  The right
    operand of ``+``, ``-`` and ``*`` enters through ``Presentation.element``.
    ``==`` converts nothing: it is True only for an ``Element`` of an equal
    presentation, which packs alike, with the same packed terms; the hash
    reads the same two.
    """

    __slots__ = ("pres", "_terms", "_poly")

    def __init__(self, pres: Presentation, terms: dict[int, int]):
        self.pres = pres
        self._terms = terms
        self._poly: Polynomial | None = None

    @property
    def poly(self) -> Polynomial:
        if self._poly is None:
            self._poly = self.pres._unpacked(self._terms)
        return self._poly

    def _merge(self, other: "Element | Polynomial | str | int", sign: int) -> "Element":
        """self + sign * other.  A sum of normal forms is a normal form."""
        other = self.pres.element(other)
        if self.pres.ring.coeffs is Coeffs.F2:
            return Element(self.pres, dict.fromkeys(self._terms.keys() ^ other._terms.keys(), 1))
        out = dict(self._terms)
        for m, c in other._terms.items():
            c = out.get(m, 0) + sign * c
            if c:
                out[m] = c
            else:
                del out[m]
        return Element(self.pres, out)

    def __add__(self, other: "Element | Polynomial | str | int") -> "Element":
        return self._merge(other, 1)

    def __sub__(self, other: "Element | Polynomial | str | int") -> "Element":
        return self._merge(other, -1)

    def __neg__(self) -> "Element":
        if self.pres.ring.coeffs is Coeffs.F2:
            return self
        return Element(self.pres, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Element | Polynomial | str | int") -> "Element":
        other = self.pres.element(other)
        pres = self.pres
        if pres.degree_bound is None:
            pres._check_cap(self.degree() + other.degree())
        limit = pres._limit
        work: dict[int, int] = {}
        others = other._terms.items()
        for ma, ca in self._terms.items():
            for mb, cb in others:
                m = ma + mb
                if m < limit:
                    work[m] = work.get(m, 0) + ca * cb
        return pres._reduced(work)

    def __rmul__(self, other: int) -> "Element":
        return self * other

    def __pow__(self, exponent: int) -> "Element":
        return power(self, exponent, self.pres.one())

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest weighted degree of a term; 0 for zero."""
        return max(self._terms, default=0) >> (self.pres.ring.ngens * self.pres._width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms and self.pres == other.pres

    def __hash__(self) -> int:
        return hash((self.pres, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Element({self.poly})"

    def __str__(self) -> str:
        return str(self.poly)


def verify_cell_dimensions(
    pres: Presentation, base: Presentation, cells: Sequence[int], top: int, what: str
) -> None:
    """Check that ``pres`` has the degreewise dimensions of a free module over
    ``base`` whose basis has ``cells[e]`` elements in degree e, in every
    degree up to ``top``.

    Raises :class:`ModuleBasisError` at the first degree where they differ.
    """
    base_dims = base.dimensions(top)
    for m, got in enumerate(pres.dimensions(top)):
        want = sum(c * base_dims[m - e] for e, c in enumerate(cells[:m + 1]))
        if got != want:
            raise ModuleBasisError(f"{what} fails freeness at degree {m}: {got} != {want}")
