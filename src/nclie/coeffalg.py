"""Exact arithmetic in finite-dimensional graded coefficient algebras.

Two backends share one element type: a truncated free associative algebra on m
generators (words of length > D are quotiented to zero, so all identities are
exact in the quotient) and a structure-constant algebra such as 2x2 rational
matrices.  Scalars are Fraction throughout; there is no floating point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .subspace import Ambient, GradedSubspace, SpanBuilder


class ContextMismatchError(ValueError):
    pass


class NonUnitError(ArithmeticError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DEFAULT_NAMES = ("x", "y", "z", "w")


class FreeContext:
    """Free associative algebra on m generators truncated at word length D.

    The basis is all words of length 0..D (unital) or 1..D (nonunital),
    ordered by (length, lexicographic index tuple).  Truncation drops any
    product whose combined length exceeds D, a two-sided ideal quotient.
    """

    is_free = True

    def __init__(self, generators=2, degree_cap=3, unital=True, names=None):
        if isinstance(generators, (list, tuple)):
            names = tuple(generators)
            m = len(names)
        else:
            m = int(generators)
            if names is None:
                names = _DEFAULT_NAMES[:m] if m <= 4 else tuple(f"x{i+1}" for i in range(m))
            names = tuple(names)
        if m < 1 or len(names) != m:
            raise ValueError("need at least one generator, one name each")
        if degree_cap < 1:
            raise ValueError("degree cap must be >= 1")
        self.m = m
        self.D = int(degree_cap)
        self.unital = bool(unital)
        self.names = names
        lo = 0 if unital else 1
        words = []
        for length in range(lo, self.D + 1):
            words.extend(itertools.product(range(m), repeat=length))
        self.words = tuple(words)
        self.word_index = {w: i for i, w in enumerate(words)}
        self.ambient = Ambient([(d, m**d) for d in range(lo, self.D + 1)])
        self.integral = True

    def key(self):
        return ("free", self.m, self.D, self.unital, self.names)

    def __eq__(self, other):
        return isinstance(other, FreeContext) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        kind = "unital" if self.unital else "nonunital"
        return f"FreeContext(m={self.m}, D={self.D}, {kind})"

    def mul_basis(self, i: int, j: int):
        w = self.words[i] + self.words[j]
        if len(w) > self.D:
            return ()
        return ((self.word_index[w], 1),)

    def degree_of_basis(self, i: int) -> int:
        return len(self.words[i])

    def basis_label(self, i: int) -> str:
        w = self.words[i]
        return "1" if not w else "*".join(self.names[g] for g in w)

    def full_subspace(self) -> GradedSubspace:
        return GradedSubspace.full(self.ambient)

    def filtration_subspace(self) -> GradedSubspace:
        """The subalgebra on which the commutator filtration is computed.

        For a unital context this is the augmentation ideal (words of length
        >= 1): the unit is central, so all commutator spaces and the ideals
        I_k for k >= 1 agree with those of the full algebra.
        """
        if not self.unital:
            return self.full_subspace()
        b = SpanBuilder(self.ambient)
        for i, w in enumerate(self.words):
            if w:
                b.add({i: 1})
        return b.finalize()

    # -- elements ------------------------------------------------------------

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def one(self) -> "AlgElement":
        if not self.unital:
            raise NonUnitError("nonunital context has no unit")
        return AlgElement(self, {self.word_index[()]: Fraction(1)})

    def generator(self, i: int) -> "AlgElement":
        return AlgElement(self, {self.word_index[(i,)]: Fraction(1)})

    def generators(self):
        return [self.generator(i) for i in range(self.m)]

    def element_from_vector(self, vec) -> "AlgElement":
        return AlgElement(self, {i: Fraction(v) for i, v in (vec.items() if isinstance(vec, dict) else vec) if v})

    def parse_atom(self, name: str):
        if name in self.names:
            return self.generator(self.names.index(name))
        return None


class StructureContext:
    """Associative algebra given by a rational multiplication table.

    All basis elements sit in degree 0.  Associativity (and the two-sided
    unit law, when a unit is declared) is checked on construction.
    """

    is_free = False

    def __init__(self, table, unit=None, labels=None, check=True, key=None):
        self.table = tuple(
            tuple(tuple(Fraction(c) for c in cell) for cell in row) for row in table
        )
        d = len(self.table)
        if any(len(row) != d or any(len(cell) != d for cell in row) for row in self.table):
            raise ValueError("table must be d x d with d-vectors as entries")
        self.dim_algebra = d
        self.unit = None if unit is None else tuple(Fraction(c) for c in unit)
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(d))
        self.ambient = Ambient([(0, d)])
        self.integral = all(
            c.denominator == 1 for row in self.table for cell in row for c in cell
        )
        self._key = key or ("structure", self.table, self.unit)
        if check:
            self._check_axioms()

    def _check_axioms(self):
        d = self.dim_algebra
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = self._mul_vec(self._basis_mul(i, j), k, right=True)
                    right = self._mul_vec(self._basis_mul(j, k), i, right=False)
                    if left != right:
                        raise ValueError(f"multiplication table is not associative at ({i},{j},{k})")
        if self.unit is not None:
            for i in range(d):
                e = [Fraction(0)] * d
                e[i] = Fraction(1)
                if self._vec_mul_vec(self.unit, tuple(e)) != tuple(e):
                    raise ValueError("declared unit is not a left identity")
                if self._vec_mul_vec(tuple(e), self.unit) != tuple(e):
                    raise ValueError("declared unit is not a right identity")

    def _basis_mul(self, i, j):
        return self.table[i][j]

    def _mul_vec(self, vec, k, right):
        d = self.dim_algebra
        out = [Fraction(0)] * d
        for i, c in enumerate(vec):
            if c:
                cell = self.table[i][k] if right else self.table[k][i]
                for t in range(d):
                    out[t] += c * cell[t]
        return tuple(out)

    def _vec_mul_vec(self, a, b):
        d = self.dim_algebra
        out = [Fraction(0)] * d
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        cell = self.table[i][j]
                        for t in range(d):
                            out[t] += ca * cb * cell[t]
        return tuple(out)

    @staticmethod
    def matrix_algebra(n: int) -> "StructureContext":
        """The full matrix algebra M_n(Q) in the matrix-unit basis E11, E12, ..."""
        d = n * n
        table = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for e in range(n):
                        if b == c:
                            table[a * n + b][c * n + e][a * n + e] = Fraction(1)
        unit = [Fraction(0)] * d
        for a in range(n):
            unit[a * n + a] = Fraction(1)
        labels = [f"E{i+1}{j+1}" for i in range(n) for j in range(n)]
        return StructureContext(table, unit=unit, labels=labels, check=False,
                                key=("matrix-structure", n))

    @property
    def unital(self):
        return self.unit is not None

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, StructureContext) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"StructureContext(dim={self.dim_algebra})"

    def mul_basis(self, i: int, j: int):
        cell = self.table[i][j]
        return tuple((k, c) for k, c in enumerate(cell) if c)

    def degree_of_basis(self, i: int) -> int:
        return 0

    def basis_label(self, i: int) -> str:
        return self.labels[i]

    def full_subspace(self) -> GradedSubspace:
        return GradedSubspace.full(self.ambient)

    def filtration_subspace(self) -> GradedSubspace:
        return self.full_subspace()

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def one(self) -> "AlgElement":
        if self.unit is None:
            raise NonUnitError("context has no unit")
        return AlgElement(self, {i: c for i, c in enumerate(self.unit) if c})

    def basis_element(self, i: int) -> "AlgElement":
        return AlgElement(self, {i: Fraction(1)})

    def element_from_vector(self, vec) -> "AlgElement":
        return AlgElement(self, {i: Fraction(v) for i, v in (vec.items() if isinstance(vec, dict) else vec) if v})

    def parse_atom(self, name: str):
        if name in self.labels:
            return self.basis_element(self.labels.index(name))
        return None


class AlgElement:
    """Element of a coefficient algebra: sparse rational basis combination."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = {i: v for i, v in coeffs.items() if v}

    def _require_same(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("elements from different contexts")

    def __add__(self, other):
        other = _coerce(self.ctx, other)
        self._require_same(other)
        out = dict(self.coeffs)
        for i, v in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + v
        return AlgElement(self.ctx, out)

    def __sub__(self, other):
        return self + (-_coerce(self.ctx, other))

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AlgElement(self.ctx, {i: -v for i, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgElement(self.ctx, {i: v * other for i, v in self.coeffs.items()})
        self._require_same(other)
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, scalar):
        return AlgElement(self.ctx, {i: v / scalar for i, v in self.coeffs.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: use inverse()")
        if k == 0:
            return self.ctx.one()
        out = self
        for _ in range(k - 1):
            out = mul(out, self)
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = _coerce(self.ctx, other)
            except NonUnitError:
                return not self.coeffs and other == 0
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.coeffs.items()))))

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def constant_term(self) -> Fraction:
        """Degree-0 coefficient; for structure contexts the unit coordinate
        is not isolated, see is_unit()/inverse() instead."""
        if not self.ctx.is_free or not self.ctx.unital:
            raise NonUnitError("constant term only defined for unital free contexts")
        return self.coeffs.get(self.ctx.word_index[()], Fraction(0))

    def max_degree(self) -> int:
        return max((self.ctx.degree_of_basis(i) for i in self.coeffs), default=0)

    def degree_component(self, d: int) -> "AlgElement":
        return AlgElement(
            self.ctx,
            {i: v for i, v in self.coeffs.items() if self.ctx.degree_of_basis(i) == d},
        )

    def to_vector(self):
        return dict(self.coeffs)

    def commutator(self, other):
        return commutator(self, other)

    def inverse(self):
        return inverse(self)

    def is_unit(self) -> bool:
        try:
            inverse(self)
            return True
        except NonUnitError:
            return False

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            label = self.ctx.basis_label(i)
            if label == "1":
                term = str(c)
            elif c == 1:
                term = label
            elif c == -1:
                term = f"-{label}"
            else:
                term = f"{c}*{label}"
            if parts:
                if term.startswith("-"):
                    parts.append(f"- {term[1:]}")
                else:
                    parts.append(f"+ {term}")
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _coerce(ctx, value):
    if isinstance(value, AlgElement):
        return value
    if isinstance(value, (int, Fraction)):
        if value == 0:
            return ctx.zero()
        return ctx.one() * Fraction(value)
    raise TypeError(f"cannot coerce {value!r} into {ctx!r}")


def mul(a: AlgElement, b: AlgElement) -> AlgElement:
    """Bilinear product; free-context word products past the cap vanish."""
    if a.ctx != b.ctx:
        raise ContextMismatchError("elements from different contexts")
    out: dict[int, Fraction] = {}
    mb = a.ctx.mul_basis
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            c = ci * cj
            for k, ck in mb(i, j):
                out[k] = out.get(k, Fraction(0)) + c * ck
    return AlgElement(a.ctx, out)


def commutator(a: AlgElement, b: AlgElement) -> AlgElement:
    return mul(a, b) - mul(b, a)


def inverse(a: AlgElement) -> AlgElement:
    """Exact two-sided inverse of a unit.

    Free context: split off the constant term c and sum the finite geometric
    series of the nilpotent remainder (degree grading kills powers past D).
    Structure context: solve the linear system a*x = 1 and check x*a = 1.
    """
    ctx = a.ctx
    if not getattr(ctx, "unital", False):
        raise NonUnitError("inverse requires a unital context")
    if ctx.is_free:
        c = a.constant_term()
        if c == 0:
            raise NonUnitError("zero constant term")
        w = a / c - 1
        out = ctx.one()
        power = ctx.one()
        sign = 1
        for _ in range(ctx.D):
            power = mul(power, w)
            sign = -sign
            if power.is_zero():
                break
            out = out + power * sign
        return out / c
    from .subspace import fraction_solve

    d = ctx.dim_algebra
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i, ci in a.coeffs.items():
        for j in range(d):
            for k, ck in ctx.mul_basis(i, j):
                rows[k][j] += ci * ck
    sol = fraction_solve(rows, list(ctx.unit))
    if sol is None:
        raise NonUnitError("element is singular")
    inv = AlgElement(ctx, {i: v for i, v in enumerate(sol) if v})
    if mul(inv, a) != ctx.one():
        raise NonUnitError("element has no two-sided inverse")
    return inv


# -- expression parser -------------------------------------------------------


def parse(text: str, ctx, allow_brackets: bool = False) -> AlgElement:
    """Parse `expr := term (('+'|'-') term)*` with factors rational, generator,
    parenthesized expr, or factor'^'nat.  With allow_brackets, the commutator
    sugar [a,b] is also accepted."""
    return _Parser(text, ctx, allow_brackets).parse()


class _Parser:
    def __init__(self, text, ctx, allow_brackets):
        self.text = text
        self.ctx = ctx
        self.allow_brackets = allow_brackets
        self.pos = 0

    def parse(self):
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return value

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        value = self.term() * sign
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = mul(value, self.factor())
            else:
                return value

    def factor(self):
        value = self.primary()
        while self.peek() == "^":
            self.pos += 1
            n = self.natural()
            value = value**n
        return value

    def primary(self):
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return value
        if ch == "[" and self.allow_brackets:
            self.pos += 1
            a = self.expr()
            if self.peek() != ",":
                raise ParseError("expected ',' inside [ , ]", self.pos)
            self.pos += 1
            b = self.expr()
            if self.peek() != "]":
                raise ParseError("expected ']'", self.pos)
            self.pos += 1
            return commutator(a, b)
        if ch.isdigit():
            return self.rational()
        if ch.isalpha() or ch == "_":
            name = self.identifier()
            atom = self.ctx.parse_atom(name)
            if atom is None:
                raise ParseError(f"unknown generator {name!r}", start)
            return atom
        raise ParseError("expected a factor", self.pos)

    def identifier(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]

    def natural(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected an exponent", self.pos)
        return int(self.text[start:self.pos])

    def rational(self):
        num = self.natural()
        if self.peek() == "/":
            save = self.pos
            self.pos += 1
            if not self.peek().isdigit():
                self.pos = save
                value = Fraction(num)
            else:
                den = self.natural()
                if den == 0:
                    raise ParseError("zero denominator", save)
                value = Fraction(num, den)
        else:
            value = Fraction(num)
        try:
            return _coerce(self.ctx, value)
        except NonUnitError:
            raise ParseError("numeric literal needs a unital context", self.pos) from None
