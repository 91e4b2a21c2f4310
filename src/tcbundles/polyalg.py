"""Sparse multivariate polynomial arithmetic over F2 and Z, with grading.

Every generator of a ring is declared with a positive integer degree, and all
constructions downstream work with weighted homogeneous degrees.  Coefficients
are either mod-2 (``Coeffs.F2``) or arbitrary-precision integers
(``Coeffs.INT``), so binomial coefficients are always exact.

Rings are commutative.  Over the integers only even-degree generators are
accepted: that keeps the graded commutativity rule trivial (no Koszul signs
can arise), which is the regime every integral presentation here lives in.

Monomials are exponent tuples indexed by the ring's generator list.  The
monomial order used everywhere is graded lexicographic with *later generators
larger*: first compare weighted degree, then exponents starting from the last
generator.  Quotient presentations choose their generator order so that fibre
classes come last, which makes the defining relations monic in the order.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterator, Mapping, Sequence


class Coeffs(Enum):
    """Coefficient ring tag: mod-2 or arbitrary-precision integers."""

    F2 = "F2"
    INT = "Z"


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class GradingError(ValueError):
    """A generator declaration or operation violates the grading rules."""


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        snippet = text[pos:pos + 16]
        super().__init__(f"{message} at position {pos} near {snippet!r}")
        self.pos = pos


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

ExpVec = tuple[int, ...]


class PolyRing:
    """A free graded polynomial ring with a fixed ordered generator list."""

    __slots__ = ("coeffs", "names", "degrees", "_index")

    def __init__(self, coeffs: Coeffs, generators: Sequence[tuple[str, int]]):
        if not isinstance(coeffs, Coeffs):
            raise TypeError("coeffs must be a Coeffs value")
        names: list[str] = []
        degrees: list[int] = []
        for name, degree in generators:
            if not _NAME_RE.match(name):
                raise GradingError(f"invalid generator name {name!r}")
            if name in names:
                raise GradingError(f"duplicate generator name {name!r}")
            if not isinstance(degree, int) or degree <= 0:
                raise GradingError(f"generator {name!r} needs a positive integer degree")
            if coeffs is Coeffs.INT and degree % 2 != 0:
                # Odd-degree classes over Z would force Koszul sign bookkeeping.
                raise GradingError(
                    f"odd-degree generator {name!r} is not supported over Z"
                )
            names.append(name)
            degrees.append(degree)
        self.coeffs = coeffs
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self._index = {n: i for i, n in enumerate(names)}

    # -- structure ---------------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingMismatchError(f"unknown generator {name!r}") from None

    def generators(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.names, self.degrees))

    def weighted_degree(self, exps: ExpVec) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    def order_key(self, exps: ExpVec):
        """Graded-lex key; later generators dominate the tie-break."""
        return (self.weighted_degree(exps), exps[::-1])

    def with_generators(self, extra: Sequence[tuple[str, int]]) -> "PolyRing":
        return PolyRing(self.coeffs, list(self.generators()) + list(extra))

    def to_f2(self) -> "PolyRing":
        if self.coeffs is Coeffs.F2:
            return self
        return PolyRing(Coeffs.F2, self.generators())

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.ngens: c})

    def gen(self, name: str) -> "Polynomial":
        exps = [0] * self.ngens
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps: ExpVec, coeff: int = 1) -> "Polynomial":
        if len(exps) != self.ngens:
            raise RingMismatchError("exponent vector has wrong length")
        return Polynomial(self, {tuple(exps): coeff})

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.coeffs is other.coeffs
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.names, self.degrees))

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in self.generators())
        return f"PolyRing({self.coeffs.value}; {gens})"


class Polynomial:
    """Immutable sparse polynomial: a map from exponent vectors to coefficients.

    Zero coefficients are never stored; F2 coefficients are reduced to 1.
    ``==`` is True only for a polynomial of the same ring with the same terms:
    unlike ``+``, ``-`` and ``*`` it takes no int, so ``ring.one() != 1``.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[ExpVec, int]):
        self.ring = ring
        mod2 = ring.coeffs is Coeffs.F2
        clean: dict[ExpVec, int] = {}
        for exps, c in terms.items():
            if len(exps) != ring.ngens:
                raise RingMismatchError("exponent vector has wrong length")
            if mod2:
                c %= 2
            if c:
                clean[tuple(exps)] = c
        self._terms = clean
        self._hash: int | None = None

    # -- views ---------------------------------------------------------------

    @property
    def terms(self) -> Mapping[ExpVec, int]:
        return dict(self._terms)

    def sorted_terms(self) -> Iterator[tuple[ExpVec, int]]:
        """Terms in descending graded-lex order (leading term first)."""
        for exps in sorted(self._terms, key=self.ring.order_key, reverse=True):
            yield exps, self._terms[exps]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Maximal weighted degree of a term; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(self.ring.weighted_degree(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.weighted_degree(e) for e in self._terms}
        return len(degs) <= 1

    def leading_exponents(self) -> ExpVec:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self._terms, key=self.ring.order_key)

    def coefficient(self, exps: ExpVec) -> int:
        return self._terms.get(tuple(exps), 0)

    # -- arithmetic -----------------------------------------------------------

    def _merge(self, other: "Polynomial | int", sign: int) -> "Polynomial":
        """self + sign * other."""
        other = self._coerce(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, 0) + sign * c
        return Polynomial(self.ring, out)

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        return self._merge(other, 1)

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self._merge(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        other = self._coerce(other)
        out: dict[ExpVec, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial(self.ring, out)

    def __rmul__(self, other: int) -> "Polynomial":
        return self * other

    def __radd__(self, other: int) -> "Polynomial":
        return self + other

    def __pow__(self, exponent: int) -> "Polynomial":
        return power(self, exponent, self.ring.one())

    def _coerce(self, other: "Polynomial | int") -> "Polynomial":
        """``other`` in this ring: an int is a constant; another ring raises."""
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError("polynomials belong to different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        raise TypeError(f"cannot combine polynomial with {type(other).__name__}")

    # -- ring maps --------------------------------------------------------------

    def lift(self, target: PolyRing) -> "Polynomial":
        """This polynomial in ``target``, whose coefficients are this ring's and
        whose generators begin with this ring's, in order and at their degrees:
        each exponent vector is padded with zeros.  Else ``RingMismatchError``."""
        ring, n = self.ring, self.ring.ngens
        if target.coeffs is not ring.coeffs or target.generators()[:n] != ring.generators():
            raise RingMismatchError("lift needs a target that begins with this ring's generators")
        pad = (0,) * (target.ngens - n)
        return Polynomial(target, {exps + pad: c for exps, c in self._terms.items()})

    def mod2(self, target: PolyRing) -> "Polynomial":
        """Reduce coefficients mod 2 into the F2 ring with the same generators."""
        if target.generators() != self.ring.generators() or target.coeffs is not Coeffs.F2:
            raise RingMismatchError("mod2 target must be the F2 ring on the same generators")
        return Polynomial(target, dict(self._terms))

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        return render_polynomial(self)


def power(base, exponent: int, one):
    """``base ** exponent`` by square and multiply, for any type with ``*``
    whose multiplicative identity is ``one``."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def render_polynomial(p: Polynomial) -> str:
    """Render in the grammar accepted by :func:`parse_polynomial`.

    Terms appear in descending graded-lex order, factors joined by ``*`` and
    powers written with ``^``, so the output re-parses to the same polynomial.
    """
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        factors = []
        for name, e in zip(p.ring.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# -- parsing ---------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|([()^*+\-])|(\S)")


class _Parser:
    """Recursive-descent parser for the expression grammar:

        expr   := ['-'] term (('+' | '-') term)*
        term   := factor ('*'? factor)*
        factor := primary ('^' integer)*
        primary:= integer | name | '(' expr ')'

    Adjacent factors multiply implicitly, so ``2S*T^2`` and ``2*S*T^2`` agree.
    """

    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.ring = ring
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            if m.group(1):
                self.tokens.append(("int", m.group(1), m.start()))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start()))
            elif m.group(3):
                self.tokens.append(("sym", m.group(3), m.start()))
            else:
                raise ParseError(f"unexpected character {m.group(4)!r}", text, m.start())
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "sym" or tok[1] != sym:
            where = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {sym!r}", self.text, where)
        self.pos += 1

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError("trailing input", self.text, tok[2])
        return result

    def expr(self) -> Polynomial:
        negate = False
        tok = self.peek()
        if tok is not None and tok[0] == "sym" and tok[1] == "-":
            self.pos += 1
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "sym" or tok[1] not in "+-":
                return acc
            self.pos += 1
            rhs = self.term()
            acc = acc + rhs if tok[1] == "+" else acc - rhs

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return acc
            kind, value, _ = tok
            if kind == "sym" and value == "*":
                self.pos += 1
                acc = acc * self.factor()
            elif kind in ("int", "name") or (kind == "sym" and value == "("):
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Polynomial:
        acc = self.primary()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "sym" or tok[1] != "^":
                return acc
            self.pos += 1
            etok = self.peek()
            if etok is None or etok[0] != "int":
                where = etok[2] if etok else len(self.text)
                raise ParseError("expected integer exponent after '^'", self.text, where)
            self.pos += 1
            acc = acc ** int(etok[1])

    def primary(self) -> Polynomial:
        kind, value, where = self.take()
        if kind == "int":
            return self.ring.const(int(value))
        if kind == "name":
            if value not in self.ring._index:
                raise ParseError(f"unknown generator {value!r}", self.text, where)
            return self.ring.gen(value)
        if kind == "sym" and value == "(":
            inner = self.expr()
            self.expect_sym(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", self.text, where)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse ``text`` as a polynomial over ``ring``.

    Examples over F2[S, T]::

        parse_polynomial("T^2 + S*T", ring)
        parse_polynomial("(T+S)^3", ring)

    Unknown generator names and syntax errors raise :class:`ParseError` with
    the character position of the problem.
    """
    return _Parser(text, ring).parse()
