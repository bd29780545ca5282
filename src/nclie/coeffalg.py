"""Exact arithmetic in finite-dimensional graded associative algebras.

A context is a basis with a degree grading and a basis product mul_basis.
Two coefficient backends live here: a truncated free associative algebra on
m generators (words of length > D are quotiented to zero, so all identities
are exact in the quotient) and a structure-constant algebra such as M_n(Q);
current.TensorContext is a third context, F (x) M_n.  Every context shares
one base class, Context, one element type, AlgElement, one product (the
sparse loop subspace.sparse_product) and one inverse.  Scalars are exact
rationals throughout; there is no floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .subspace import (
    Ambient,
    GradedSubspace,
    SpanBuilder,
    fraction_solve,
    int_matrix,
    sparse_product,
)


class ContextMismatchError(ValueError):
    pass


class NonUnitError(ArithmeticError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DEFAULT_NAMES = ("x", "y", "z", "w")

# The most basis words a free context may have; a larger one is refused
# before any word is built.  Dense blocks grow with the square of the block
# size and F (x) M_n multiplies every width by n^2, so past this size (2,047
# words for m = 2, D = 10) no closure or bound is affordable.
MAX_WORDS = 2048

# The largest n for which M_n (--backend matrix:n, and every pair kind:n) is
# built; a larger one is refused before its table of n^3 products.  M_32 has
# 1,024 matrix units, and F (x) M_n multiplies every width of F by n^2.
MAX_MATRIX_SIZE = 32


class Context:
    """What every context shares.  A subclass sets `ambient` (the graded
    coordinates, which give each basis index its degree), defines `key`,
    `mul_basis`, `basis_label` and, when it has a unit, `one`, and sets the
    flags `unital` and `is_free` where they hold.  Two contexts are equal
    when they are of one class and have one key."""

    unital = False
    is_free = False
    denominator = 1   # lcm of the denominators of the basis product's coefficients

    @property
    def integral(self) -> bool:
        """Whether every coefficient of the basis product is an integer."""
        return self.denominator == 1

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def degree_of_basis(self, i: int) -> int:
        return self.ambient.degree_of(i)

    def full_subspace(self) -> GradedSubspace:
        return GradedSubspace.full(self.ambient)

    def filtration_subspace(self) -> GradedSubspace:
        """The subalgebra on which the commutator filtration is computed."""
        return self.full_subspace()

    def zero(self) -> "AlgElement":
        return AlgElement(self, {})

    def element_from_vector(self, vec) -> "AlgElement":
        return AlgElement(self, {i: Fraction(v) for i, v in (vec.items() if isinstance(vec, dict) else vec) if v})

    def word_layout(self):
        """(a, mulmat), the layout that bracket saturation pulls brackets
        back through.  A block holds the words of one length of a free
        algebra times the a coordinates of a coefficient algebra A, at local
        index word * a + coordinate, the words of each length in
        lexicographic order, so that the word f of a block of W_e words put
        before (after) the word u of a block of W_d words is the word
        f * W_d + u (u * W_e + f) of their product's block.  mulmat(alpha,
        right=False) is the integer matrix of x -> alpha x (x -> x alpha)
        on A, for alpha with integer coordinates {coordinate: value}, times
        one scale fixed per context.  Here the one block is A, with the
        empty word alone, and the scale is `denominator`."""
        return self.ambient.dim, functools.partial(multiplication_matrix, self, scale=self.denominator)


class FreeContext(Context):
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
        if m < 1:
            raise ValueError("need at least one generator")
        if degree_cap < 1:
            raise ValueError("degree cap must be >= 1")
        self.D = int(degree_cap)
        lo = 0 if unital else 1
        count = 0
        for length in range(lo, self.D + 1):
            count += m**length
            if count > MAX_WORDS:
                raise ValueError(f"{m} generators at degree {self.D} give at least {count} "
                                 f"basis words, more than the limit of {MAX_WORDS}")
        if names is None:
            names = _DEFAULT_NAMES[:m] if m <= 4 else tuple(f"x{i+1}" for i in range(m))
        names = tuple(names)
        if len(names) != m or len(set(names)) != m:
            raise ValueError("need one distinct name per generator")
        self.m = m
        self.unital = bool(unital)
        self.names = names
        words = []
        for length in range(lo, self.D + 1):
            words.extend(itertools.product(range(m), repeat=length))
        self.words = tuple(words)
        self.word_index = {w: i for i, w in enumerate(words)}
        self.ambient = Ambient([(d, m**d) for d in range(lo, self.D + 1)])

    def word_layout(self):
        """Words of F times A = Q: alpha x = x alpha."""
        return 1, lambda alpha, right=False: int_matrix([alpha], 1)

    def key(self):
        return ("free", self.m, self.D, self.unital, self.names)

    def __repr__(self):
        kind = "unital" if self.unital else "nonunital"
        return f"FreeContext(m={self.m}, D={self.D}, {kind})"

    def mul_basis(self, i: int, j: int):
        w = self.words[i] + self.words[j]
        if len(w) > self.D:
            return ()
        return ((self.word_index[w], 1),)

    def basis_label(self, i: int) -> str:
        w = self.words[i]
        return "1" if not w else "*".join(self.names[g] for g in w)

    def filtration_subspace(self) -> GradedSubspace:
        """For a unital context this is the augmentation ideal (words of length
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

    def one(self) -> "AlgElement":
        if not self.unital:
            raise NonUnitError("nonunital context has no unit")
        return AlgElement(self, {self.word_index[()]: Fraction(1)})

    def generator(self, i: int) -> "AlgElement":
        return AlgElement(self, {self.word_index[(i,)]: Fraction(1)})

    def generators(self):
        return [self.generator(i) for i in range(self.m)]

    def parse_atom(self, name: str):
        if name in self.names:
            return self.generator(self.names.index(name))
        return None


def _exact(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class StructureContext(Context):
    """Associative algebra given by a rational multiplication table.

    All basis elements sit in degree 0.  Only the nonzero products are
    stored, as a sparse table, so mul_basis is a lookup; coefficients are
    ints where they are integral.  Associativity (and the two-sided unit
    law, when a unit is declared) is checked on construction.
    """

    def __init__(self, table, unit=None, labels=None):
        d = len(table)
        if any(len(row) != d or any(len(cell) != d for cell in row) for row in table):
            raise ValueError("table must be d x d with d-vectors as entries")
        products = {(i, j): enumerate(cell)
                    for i, row in enumerate(table) for j, cell in enumerate(row)}
        self._setup(d, products, unit, labels, None)
        self._check_axioms()

    def _setup(self, d, products, unit, labels, key):
        """Store the sparse table from {(i, j): (k, coefficient) pairs}."""
        self.dim_algebra = d
        self.products = tuple(
            tuple(tuple((k, _exact(c)) for k, c in products.get((i, j), ()) if c)
                  for j in range(d))
            for i in range(d)
        )
        self.unit = None if unit is None else tuple(Fraction(c) for c in unit)
        self.unital = unit is not None
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(d))
        self.ambient = Ambient([(0, d)])
        self.denominator = math.lcm(*(Fraction(c).denominator
                                      for row in self.products for cell in row for _, c in cell))
        self._key = key or ("structure", self.products, self.unit)

    def _check_axioms(self):
        basis = [self.basis_element(i) for i in range(self.dim_algebra)]
        for (i, a), (j, b), (k, c) in itertools.product(enumerate(basis), repeat=3):
            if mul(mul(a, b), c) != mul(a, mul(b, c)):
                raise ValueError(f"multiplication table is not associative at ({i},{j},{k})")
        if self.unit is not None:
            one = self.one()
            for e in basis:
                if mul(one, e) != e:
                    raise ValueError("declared unit is not a left identity")
                if mul(e, one) != e:
                    raise ValueError("declared unit is not a right identity")

    @classmethod
    @functools.cache
    def matrix_algebra(cls, n: int) -> "StructureContext":
        """The full matrix algebra M_n(Q) in the matrix-unit basis E11, E12, ...

        The table is filled from the n^3 nonzero products E_ab E_be = E_ae.
        Contexts are immutable, so one is built per n and shared.  An n outside
        1..MAX_MATRIX_SIZE is refused before anything is built.
        """
        if not 1 <= n <= MAX_MATRIX_SIZE:
            raise ValueError(f"matrix size {n} is not between 1 and the limit of {MAX_MATRIX_SIZE}")
        products = {
            (a * n + b, b * n + e): ((a * n + e, 1),)
            for a in range(n) for b in range(n) for e in range(n)
        }
        ctx = cls.__new__(cls)
        ctx._setup(n * n, products, [int(a == b) for a in range(n) for b in range(n)],
                   [f"E{i+1}{j+1}" for i in range(n) for j in range(n)], ("matrix-structure", n))
        return ctx

    def key(self):
        return self._key

    def __repr__(self):
        return f"StructureContext(dim={self.dim_algebra})"

    def mul_basis(self, i: int, j: int):
        return self.products[i][j]

    def basis_label(self, i: int) -> str:
        return self.labels[i]

    def one(self) -> "AlgElement":
        if self.unit is None:
            raise NonUnitError("context has no unit")
        return AlgElement(self, {i: c for i, c in enumerate(self.unit) if c})

    def basis_element(self, i: int) -> "AlgElement":
        return AlgElement(self, {i: Fraction(1)})

    def parse_atom(self, name: str):
        if name in self.labels:
            return self.basis_element(self.labels.index(name))
        return None


class AlgElement:
    """Element of any context (F, M_n or F (x) M_n): a sparse rational
    combination of basis elements."""

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
        scalar = Fraction(scalar)  # int coefficients divided by an int stay exact
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
    return AlgElement(a.ctx, sparse_product(a.ctx.mul_basis, a.coeffs.items(), b.coeffs.items()))


def commutator(a: AlgElement, b: AlgElement) -> AlgElement:
    return mul(a, b) - mul(b, a)


def multiplication_matrix(ctx, coeffs: dict[int, int], right: bool = False, scale: int = 1):
    """Integer matrix of x -> a x (x -> x a with right=True) on row vectors,
    times scale, for the element a with integer coefficients {basis index:
    int}: row p is scale times the coordinate vector of a e_p (e_p a),
    filled from ctx.mul_basis, so the product a x is x @ M / scale for a
    row vector x.  scale must clear the denominators of the basis product
    (a multiple of ctx.denominator)."""
    if scale % ctx.denominator:
        raise ValueError(f"{ctx!r} has a non-integral basis product")
    dim = ctx.ambient.dim
    items = [(i, c * scale) for i, c in coeffs.items()]
    return int_matrix(
        [sparse_product(ctx.mul_basis, ((p, 1),), items) if right
         else sparse_product(ctx.mul_basis, items, ((p, 1),))
         for p in range(dim)],
        dim,
    )


def inverse(a: AlgElement) -> AlgElement:
    """Exact two-sided inverse of a unit of any unital context.

    The degree-0 part a0 is inverted by a dense solve in the degree-0 block
    (one division when that block has width 1), checked on both sides.  Then
    a = a0 (1 - n) with n = 1 - a0^(-1) a of positive degree, so n is
    nilpotent and the geometric series (1 + n + n^2 + ...) a0^(-1) stops
    after at most max_degree terms.
    """
    ctx = a.ctx
    if not ctx.unital:
        raise NonUnitError("inverse requires a unital context")
    one = ctx.one()
    width = ctx.ambient.blocks[0][1]
    a0 = AlgElement(ctx, {i: v for i, v in a.coeffs.items() if i < width})
    rows = [[Fraction(0)] * width for _ in range(width)]
    for j in range(width):  # column j is a0 * e_j
        for k, v in sparse_product(ctx.mul_basis, a0.coeffs.items(), ((j, 1),)).items():
            rows[k][j] = v
    rhs = [Fraction(one.coeffs.get(k, 0)) for k in range(width)]
    if width == 1:  # every unit of a free context: one division
        sol = [rhs[0] / rows[0][0]] if rows[0][0] else None
    else:
        sol = fraction_solve(rows, rhs)
    if sol is None:
        raise NonUnitError("degree-0 part is singular")
    inv0 = AlgElement(ctx, dict(enumerate(sol)))
    if mul(a0, inv0) != one or mul(inv0, a0) != one:
        raise NonUnitError("degree-0 part has no two-sided inverse")
    nil = one - mul(inv0, a)
    out = power = one
    for _ in range(ctx.ambient.max_degree):
        power = mul(power, nil)
        if power.is_zero():
            break
        out = out + power
    return mul(out, inv0)


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
