"""Exact linear algebra on graded subspaces of a finite-dimensional graded space.

A subspace is stored per degree as a reduced row-echelon basis with primitive
integer rows (content 1, positive pivot), which is a canonical form over the
rationals: two subspaces are equal iff their stored matrices are identical.

Row operations run on numpy int64 arrays guarded against overflow; rows whose
entries outgrow 64 bits are promoted to object (big-integer) arrays, so every
result is exact regardless of coefficient growth.

Insertion and membership share one elimination kernel, `_eliminate`.  It
finds the next stored row whose pivot entry is nonzero in the candidate with
one vectorized gather over the remaining pivot columns, so its Python work is
O(combines), not O(stored rows): the sp:4 closure at m=2, D=6 does about
130 k combines for 57.7 k offered rows, where a scan over every stored row
made 38.7 M visits.  The kernel does the same combines in the same order as
that scan, so every stored row and every canonical form is unchanged.

Every product and commutator of two sparse vectors, of algebra elements as
well as of subspace basis rows, is computed by one loop, `sparse_product`,
and every split of a sparse vector into degree blocks by `Ambient.split`.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

_GUARD = 1 << 62


class Ambient:
    """Ordered degree blocks of a graded coordinate space."""

    __slots__ = ("blocks", "starts", "dim", "max_degree", "_degree_of")

    def __init__(self, blocks: Sequence[tuple[int, int]]):
        blocks = tuple((int(d), int(s)) for d, s in blocks)
        if any(s <= 0 for _, s in blocks):
            raise ValueError("block sizes must be positive")
        if any(blocks[i][0] >= blocks[i + 1][0] for i in range(len(blocks) - 1)):
            raise ValueError("block degrees must be strictly increasing")
        self.blocks = blocks
        starts = []
        total = 0
        for _, s in blocks:
            starts.append(total)
            total += s
        self.starts = tuple(starts)
        self.dim = total
        self.max_degree = blocks[-1][0] if blocks else 0
        self._degree_of = np.repeat(
            np.array([d for d, _ in blocks], dtype=np.int64),
            np.array([s for _, s in blocks], dtype=np.int64),
        )

    def degree_of(self, index: int) -> int:
        return int(self._degree_of[index])

    def split(self, vector) -> dict[int, dict[int, object]]:
        """The nonzero entries of a sparse vector by block, as
        {block number: {local offset: value}}."""
        starts = self.starts
        parts: dict[int, dict[int, object]] = {}
        for idx, val in vector.items() if isinstance(vector, dict) else vector:
            if val:
                bi = bisect.bisect_right(starts, idx) - 1
                parts.setdefault(bi, {})[idx - starts[bi]] = val
        return parts

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.blocks)

    def __eq__(self, other):
        return isinstance(other, Ambient) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Ambient({list(self.blocks)})"


def _gcd_reduce(arr) -> int:
    g = 0
    for v in arr.tolist():
        if v:
            g = math.gcd(g, v if v > 0 else -v)
            if g == 1:
                return 1
    return g


def _primitive(arr):
    """Divide by the content and make the leading entry positive."""
    nz = np.nonzero(arr)[0]
    if len(nz) == 0:
        return None, -1, 0
    g = _gcd_reduce(arr)
    if arr[nz[0]] < 0:
        g = -g
    if g != 1:
        if arr.dtype == object:
            arr = np.array([v // g for v in arr.tolist()], dtype=object)
        else:
            arr = arr // g
    amax = int(max(arr.max(), -arr.min()))
    if arr.dtype == object and amax < _GUARD:
        arr = arr.astype(np.int64)
    return arr, int(nz[0]), amax


def _combine(piv, prow, pmax, coeff, arr, amax):
    """piv*arr - coeff*prow, promoting to big integers when int64 could overflow."""
    c = coeff if coeff > 0 else -coeff
    bound = piv * amax + c * pmax
    if bound >= _GUARD or arr.dtype == object or prow.dtype == object:
        arr = arr.astype(object)
        prow = prow.astype(object)
        out = arr * int(piv) - prow * int(coeff)
    else:
        out = piv * arr - coeff * prow
    return out, bound


def _eliminate(rows, pidx, maxes, arr, amax):
    """Reduce arr against echelon rows (ordered by pivot, pivot columns pidx,
    row maxima maxes); returns (arr, amax), or (None, 0) once arr vanishes.

    Row i is combined in exactly when arr is nonzero at pidx[i] on reaching
    it, as in a scan over every row, and in the same order.  The next such
    row is found by one gather of arr at the remaining pivots, so the Python
    work is per combine, not per stored row.
    """
    i = 0
    while True:
        hits = arr[pidx[i:]].nonzero()[0]
        if len(hits) == 0:
            return arr, amax
        i += int(hits[0])
        row = rows[i]
        p = pidx[i]
        arr, bound = _combine(int(row[p]), row, maxes[i], int(arr[p]), arr, amax)
        if bound >= (1 << 40):
            arr, _, amax = _primitive(arr)
            if arr is None:
                return None, 0
        else:
            amax = bound
        i += 1


class _Block:
    """Mutable echelon basis of one degree block (rows ordered by pivot)."""

    __slots__ = ("width", "rows", "pidx", "maxes")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pidx = np.empty(0, dtype=np.intp)   # pivot column of each row
        self.maxes: list[int] = []

    def insert(self, arr, amax):
        """Reduce and insert; returns the stored row (kept in pivot order) or None."""
        arr, amax = _eliminate(self.rows, self.pidx, self.maxes, arr, amax)
        if arr is None:
            return None
        arr, pivot, amax = _primitive(arr)
        if arr is None:
            return None
        pos = bisect.bisect_left(self.pidx, pivot)
        self.rows.insert(pos, arr)
        self.pidx = np.insert(self.pidx, pos, pivot)
        self.maxes.insert(pos, amax)
        return arr

    def adopt(self, sub: "GradedSubspace", bi: int):
        """Take over block bi of a canonical subspace; the block must be empty.

        Its rows are already reduced, primitive and in pivot order, so they
        are stored as they are; a row of an object matrix that fits in int64
        is stored as int64, as insert would store it.
        """
        pidx, maxes = sub._echelon(bi)
        self.rows = [
            row.astype(np.int64) if row.dtype == object and m < _GUARD else row
            for row, m in zip(sub._rows[bi], maxes)
        ]
        self.pidx = pidx
        self.maxes = list(maxes)

    def canonicalize(self):
        """Eliminate above pivots, then renormalize; yields the unique basis."""
        rows, pivots = self.rows, self.pidx.tolist()
        for j in range(len(rows) - 1, -1, -1):
            pj = pivots[j]
            pivval = int(rows[j][pj])
            for i in range(j):
                c = rows[i][pj]
                if c == 0:
                    continue
                out, _ = _combine(pivval, rows[j], self.maxes[j], int(c), rows[i], self.maxes[i])
                out, _, amax = _primitive(out)
                rows[i] = out
                self.maxes[i] = amax


class GradedSubspace:
    """Immutable graded subspace in canonical reduced echelon form."""

    __slots__ = ("ambient", "_rows", "_pivots", "_null", "_echelons", "_hash")

    def __init__(self, ambient: Ambient, rows, pivots):
        self.ambient = ambient
        self._rows = rows          # tuple over blocks of int matrices (r, w) or None
        self._pivots = pivots      # tuple over blocks of pivot tuples
        self._null = [None] * len(ambient.blocks)
        self._echelons = [None] * len(ambient.blocks)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ambient: Ambient) -> "GradedSubspace":
        n = len(ambient.blocks)
        return GradedSubspace(ambient, (None,) * n, ((),) * n)

    @staticmethod
    def span(ambient: Ambient, vectors: Iterable) -> "GradedSubspace":
        b = SpanBuilder(ambient)
        for v in vectors:
            b.add(v)
        return b.finalize()

    @staticmethod
    def full(ambient: Ambient) -> "GradedSubspace":
        rows = []
        pivots = []
        for _, size in ambient.blocks:
            rows.append(np.eye(size, dtype=np.int64))
            pivots.append(tuple(range(size)))
        return GradedSubspace(ambient, tuple(rows), tuple(pivots))

    # -- inspection --------------------------------------------------------

    def dim_profile(self) -> list[tuple[int, int]]:
        return [
            (deg, 0 if self._rows[i] is None else self._rows[i].shape[0])
            for i, (deg, _) in enumerate(self.ambient.blocks)
        ]

    @property
    def dim(self) -> int:
        return sum(d for _, d in self.dim_profile())

    def is_zero(self) -> bool:
        return all(r is None for r in self._rows)

    def block_rows(self):
        """Yield (block index, degree, int matrix) for nonzero blocks."""
        for i, (deg, _) in enumerate(self.ambient.blocks):
            if self._rows[i] is not None:
                yield i, deg, self._rows[i]

    def vectors(self):
        """Yield basis vectors as {global index: Fraction} with pivot entry 1."""
        for bi, _, mat in self.block_rows():
            start = self.ambient.starts[bi]
            for r in range(mat.shape[0]):
                row = mat[r]
                piv = row[self._pivots[bi][r]]
                yield {
                    start + j: Fraction(int(row[j]), int(piv))
                    for j in np.nonzero(row)[0].tolist()
                }

    # -- membership --------------------------------------------------------

    def contains_vector(self, vector) -> bool:
        for bi, comp in self.ambient.split(vector).items():
            arr, amax = _int_row(self.ambient.blocks[bi][1], comp)
            if arr is None:
                continue
            if self._rows[bi] is None or not self._reduces_to_zero(bi, arr, amax):
                return False
        return True

    def contains_block_row(self, bi: int, arr, amax=None) -> bool:
        if amax is None:
            amax = int(max(arr.max(), -arr.min()))
        if self._rows[bi] is None:
            return not arr.any()
        return self._reduces_to_zero(bi, arr, amax)

    def _echelon(self, bi: int):
        """Pivot index array and row maxima of block bi, for _eliminate."""
        if self._echelons[bi] is None:
            mat = self._rows[bi]
            # row reductions only: np.abs(mat) would copy the whole block
            self._echelons[bi] = (
                np.array(self._pivots[bi], dtype=np.intp),
                [int(max(hi, -lo)) for hi, lo in zip(mat.max(axis=1).tolist(),
                                                     mat.min(axis=1).tolist())],
            )
        return self._echelons[bi]

    def _reduces_to_zero(self, bi: int, arr, amax) -> bool:
        pidx, maxes = self._echelon(bi)
        arr, _ = _eliminate(self._rows[bi], pidx, maxes, arr, amax)
        return arr is None or not arr.any()

    def nullspace_matrix(self, bi: int):
        """Integer matrix N with rowspace(block) = {v : v @ N = 0}."""
        if self._null[bi] is None:
            size = self.ambient.blocks[bi][1]
            mat, piv = self._rows[bi], self._pivots[bi]
            if mat is None:
                self._null[bi] = np.eye(size, dtype=np.int64)
            else:
                free = sorted(set(range(size)) - set(piv))
                lcm = 1
                for r in range(mat.shape[0]):
                    lcm = lcm // math.gcd(lcm, int(mat[r][piv[r]])) * int(mat[r][piv[r]])
                cols = np.zeros((size, len(free)), dtype=object)
                for k, f in enumerate(free):
                    cols[f][k] = lcm
                    for r in range(mat.shape[0]):
                        if mat[r][f]:
                            cols[piv[r]][k] = -int(mat[r][f]) * (lcm // int(mat[r][piv[r]]))
                mx = int(abs(cols).max()) if cols.size else 0
                self._null[bi] = cols.astype(np.int64) if mx < _GUARD else cols
        return self._null[bi]

    def contains_all_block_rows(self, bi: int, mat) -> bool:
        """Batched membership for an integer candidate matrix (rows in block bi)."""
        if mat.shape[0] == 0:
            return True
        null = self.nullspace_matrix(bi)
        if null.shape[1] == 0:
            return True
        cmax = int(abs(mat).max()) if mat.size else 0
        nmax = int(abs(null).max()) if null.size else 0
        if (
            mat.dtype == object
            or null.dtype == object
            or cmax * nmax * mat.shape[1] >= _GUARD
        ):
            prod = mat.astype(object) @ null.astype(object)
        else:
            prod = mat @ null
        return not prod.any()

    def contains_vectors(self, vectors) -> bool:
        """Batched membership test for an iterable of sparse rational vectors."""
        batches: dict[int, list] = {}
        for vec in vectors:
            for bi, comp in self.ambient.split(vec).items():
                arr, _ = _int_row(self.ambient.blocks[bi][1], comp)
                if arr is not None:
                    batches.setdefault(bi, []).append(arr)
        for bi, rows in batches.items():
            dtype = object if any(r.dtype == object for r in rows) else np.int64
            mat = np.array([r.astype(dtype) for r in rows])
            if not self.contains_all_block_rows(bi, mat):
                return False
        return True

    def issubset(self, other: "GradedSubspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        for bi, _, mat in self.block_rows():
            if not other.contains_all_block_rows(bi, mat):
                return False
        return True

    # -- lattice operations -------------------------------------------------

    def sum(self, other: "GradedSubspace") -> "GradedSubspace":
        return subspace_sum(self.ambient, (self, other))

    def intersect(self, other: "GradedSubspace") -> "GradedSubspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        b = SpanBuilder(self.ambient)
        for bi in range(len(self.ambient.blocks)):
            ra, rb = self._rows[bi], other._rows[bi]
            if ra is None or rb is None:
                continue
            stacked = [[Fraction(int(v)) for v in row] for row in ra] + [
                [Fraction(int(v)) for v in row] for row in rb
            ]
            for combo in fraction_left_kernel(stacked):
                vec = [Fraction(0)] * self.ambient.blocks[bi][1]
                for i in range(ra.shape[0]):
                    if combo[i]:
                        for j in range(len(vec)):
                            vec[j] += combo[i] * stacked[i][j]
                if any(vec):
                    b.add_block_row(bi, _int_row_from_fractions(vec))
        return b.finalize()

    def __eq__(self, other):
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        if self.ambient != other.ambient or self._pivots != other._pivots:
            return False
        for a, b in zip(self._rows, other._rows):
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        return True

    def __hash__(self):
        if self._hash is None:
            acc = hash(self.ambient)
            for mat, piv in zip(self._rows, self._pivots):
                acc = hash((acc, piv, None if mat is None else mat.tobytes() if mat.dtype != object else tuple(map(tuple, mat.tolist()))))
            self._hash = acc
        return self._hash

    def __repr__(self):
        prof = [d for _, d in self.dim_profile()]
        return f"GradedSubspace(dim={self.dim}, profile={prof})"

    def to_jsonable(self):
        out = []
        for bi, deg, mat in self.block_rows():
            piv = self._pivots[bi]
            rows = []
            for r in range(mat.shape[0]):
                p = int(mat[r][piv[r]])
                rows.append(
                    [[int(j), int(mat[r][j]), p] for j in np.nonzero(mat[r])[0].tolist()]
                )
            out.append({"degree": deg, "dim": mat.shape[0], "rows": rows})
        return out


def _int_row(width: int, comp: dict[int, Fraction]):
    """Scale a sparse rational block component to a primitive integer array."""
    denom = 1
    for v in comp.values():
        if isinstance(v, Fraction):
            denom = denom // math.gcd(denom, v.denominator) * v.denominator
    vals = [int(v * denom) if isinstance(v, Fraction) else int(v) * denom for v in comp.values()]
    amax = max(map(abs, vals), default=0)
    if amax == 0:
        return None, 0
    arr = np.zeros(width, dtype=np.int64 if amax < _GUARD else object)
    arr[list(comp)] = vals
    return arr, amax


def _int_row_from_fractions(vec):
    return _int_row(len(vec), {j: v for j, v in enumerate(vec) if v})[0]


class SpanBuilder:
    """Accumulates vectors into an echelon basis; finalize() canonicalizes."""

    def __init__(self, ambient: Ambient):
        self.ambient = ambient
        self._blocks = [_Block(size) for _, size in ambient.blocks]

    def add(self, vector) -> bool:
        """Insert every graded component of a sparse vector; True if dim grew."""
        return bool(self.add_tracked(vector))

    def add_tracked(self, vector) -> list:
        """Like add, but returns the reduced rows actually stored, as
        (block index, row array) pairs; the list is empty when nothing grew."""
        added = []
        for bi, comp in self.ambient.split(vector).items():
            arr, amax = _int_row(self.ambient.blocks[bi][1], comp)
            if arr is None:
                continue
            stored = self._blocks[bi].insert(arr, amax)
            if stored is not None:
                added.append((bi, stored))
        return added

    def add_block_row(self, bi: int, arr) -> bool:
        if arr is None:
            return False
        if arr.dtype != object:
            arr = arr.astype(np.int64)
        amax = int(max(arr.max(), -arr.min())) if arr.any() else 0
        if amax == 0:
            return False
        return self._blocks[bi].insert(arr, amax) is not None

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b.rows) for b in self._blocks)

    def finalize(self) -> GradedSubspace:
        rows = []
        pivots = []
        for blk in self._blocks:
            if not blk.rows:
                rows.append(None)
                pivots.append(())
                continue
            blk.canonicalize()
            dt = object if any(r.dtype == object for r in blk.rows) else np.int64
            rows.append(np.array([r.astype(dt) for r in blk.rows]))
            pivots.append(tuple(blk.pidx.tolist()))
        return GradedSubspace(self.ambient, tuple(rows), tuple(pivots))


def kronecker_span(fsub: GradedSubspace, asub: GradedSubspace) -> GradedSubspace:
    """Span of u (x) a over basis rows u of fsub and a of asub.

    asub must live in a single degree-0 block of width w.  The result lives in
    the ambient with a block (d, s*w) for every block (d, s) of fsub, where
    u (x) a has the entry u[p]*a[q] at local index p*w + q.

    No elimination is needed: per block, kron(U, A) of the two stored
    matrices is already the canonical form.
      * Reduced echelon: row (i, j) has its pivot at p_i*w + q_j, and every
        other row (i', j') holds U[i', p_i]*A[j', q_j] = 0 there, because U
        and A are reduced.
      * Pivot order: rows come out ordered by (i, j), hence by p_i*w + q_j.
      * Primitive with a positive pivot: content(u (x) a) =
        content(u)*content(a) = 1 (Gauss's lemma), and a product of positive
        pivots is positive.
      * dtype: int64 exactly when max|U|*max|A| < _GUARD, the rule
        SpanBuilder.finalize applies row by row.
    """
    if len(asub.ambient.blocks) != 1 or asub.ambient.blocks[0][0] != 0:
        raise ValueError("right factor must live in a single degree-0 block")
    width = asub.ambient.dim
    ambient = Ambient([(d, s * width) for d, s in fsub.ambient.blocks])
    amat, apiv = asub._rows[0], asub._pivots[0]
    if amat is None:
        return GradedSubspace.zero(ambient)
    amax = int(abs(amat).max())
    rows = []
    pivots = []
    for fmat, fpiv in zip(fsub._rows, fsub._pivots):
        if fmat is None:
            rows.append(None)
            pivots.append(())
            continue
        dtype = object if int(abs(fmat).max()) * amax >= _GUARD else np.int64
        rows.append(np.kron(fmat.astype(dtype), amat.astype(dtype)))
        pivots.append(tuple(p * width + q for p in fpiv for q in apiv))
    return GradedSubspace(ambient, tuple(rows), tuple(pivots))


# -- bilinear span operations ----------------------------------------------


def _row_support(ambient, bi, arr):
    start = ambient.starts[bi]
    return [(start + j, int(arr[j])) for j in np.nonzero(arr)[0].tolist()]


def sparse_product(mul, r1, r2, commutator=False) -> dict:
    """The one sparse bilinear loop: r1*r2 (r1*r2 - r2*r1 with commutator)
    for (index, coefficient) pairs under the basis product mul(i, j), which
    yields (index, coefficient) pairs.  Entries of the result may be zero."""
    acc: dict = {}
    for i, ci in r1:
        for j, cj in r2:
            c = ci * cj
            for k, ck in mul(i, j):
                acc[k] = acc.get(k, 0) + c * ck
            if commutator:
                for k, ck in mul(j, i):
                    acc[k] = acc.get(k, 0) - c * ck
    return acc


def op_product(ctx, s1: GradedSubspace, s2: GradedSubspace) -> GradedSubspace:
    """Span of pairwise products of two subspace bases under ctx.mul_basis."""
    return _op_bilinear(ctx, s1, s2, commutator=False)


def op_bracket(ctx, s1: GradedSubspace, s2: GradedSubspace) -> GradedSubspace:
    """Span of pairwise commutators of two subspace bases."""
    return _op_bilinear(ctx, s1, s2, commutator=True)


def _op_bilinear(ctx, s1, s2, commutator):
    amb = ctx.ambient
    if s1.ambient != amb or s2.ambient != amb:
        raise ValueError("ambient mismatch")
    maxdeg = amb.max_degree
    b = SpanBuilder(amb)
    mul = ctx.mul_basis
    for b1, d1, m1 in s1.block_rows():
        sup1 = [_row_support(amb, b1, m1[r]) for r in range(m1.shape[0])]
        for b2, d2, m2 in s2.block_rows():
            if d1 + d2 > maxdeg:
                continue
            sup2 = [_row_support(amb, b2, m2[r]) for r in range(m2.shape[0])]
            for r1 in sup1:
                for r2 in sup2:
                    b.add(sparse_product(mul, r1, r2, commutator))
    return b.finalize()


def bracket_closed(ctx, S: GradedSubspace) -> bool:
    """Exact check that [S, S] is contained in S.

    Brackets of basis pairs are batched per degree block and tested against
    the nullspace of S, so membership is one integer matrix product.
    """
    amb = ctx.ambient
    if S.ambient != amb:
        raise ValueError("ambient mismatch")
    maxdeg = amb.max_degree
    mul = ctx.mul_basis
    supports = []
    for bi, deg, mat in S.block_rows():
        for r in range(mat.shape[0]):
            supports.append((deg, _row_support(amb, bi, mat[r])))
    batches: dict[int, list] = {}
    for a in range(len(supports)):
        d1, r1 = supports[a]
        for b in range(a + 1, len(supports)):
            d2, r2 = supports[b]
            if d1 + d2 > maxdeg:
                continue
            items = [(i, v) for i, v in sparse_product(mul, r1, r2, True).items() if v]
            if not items:
                continue
            for bi, comp in amb.split(_normalize_int_items(items)).items():
                batches.setdefault(bi, []).append(comp)
    for bi, rows in batches.items():
        width = amb.blocks[bi][1]
        big = max(abs(v) for row in rows for v in row.values())
        dtype = np.int64 if big < _GUARD else object
        matc = np.zeros((len(rows), width), dtype=dtype)
        for r, row in enumerate(rows):
            for loc, v in row.items():
                matc[r, loc] = v
        if not S.contains_all_block_rows(bi, matc):
            return False
    return True


def subspace_sum(ambient: Ambient, parts: Iterable[GradedSubspace]) -> GradedSubspace:
    """Sum of subspaces of one ambient.

    Per block, the part with the most rows is adopted as it is, and only the
    rows of the other parts are eliminated against it.
    """
    parts = list(parts)
    if any(p.ambient != ambient for p in parts):
        raise ValueError("ambient mismatch")
    b = SpanBuilder(ambient)
    for bi in range(len(ambient.blocks)):
        mats = [p._rows[bi] for p in parts]
        present = [k for k, mat in enumerate(mats) if mat is not None]
        if not present:
            continue
        top = max(present, key=lambda k: mats[k].shape[0])
        b._blocks[bi].adopt(parts[top], bi)
        for k in present:
            if k != top:
                for row in mats[k]:
                    b.add_block_row(bi, row)
    return b.finalize()


def bracket_saturate(ctx, generators, sweeps=None) -> GradedSubspace:
    """Lie span of `generators` by repeated bracketing against the current span.

    This is the saturation oracle: starting from span(generators), each sweep
    adds [g, v] for every generator g and every vector v added in the previous
    sweep, until the dimensions stabilize (or for `sweeps` rounds when the
    bracket-depth filtration is wanted).  Monotonicity makes one stale sweep
    definitive, and in a graded context brackets only raise the degree.
    """
    amb = ctx.ambient
    maxdeg = amb.max_degree
    mul = ctx.mul_basis
    builder = SpanBuilder(amb)
    gens = []
    frontier = []
    for g in generators:
        items = [(i, v) for i, v in (g.items() if isinstance(g, dict) else g) if v]
        if not items:
            continue
        deg = amb.degree_of(items[0][0])
        norm = _normalize_int_items(items)
        gens.append((deg, norm))
        frontier.extend(builder.add_tracked(dict(norm)))
    rounds = 0
    while frontier:
        if sweeps is not None and rounds >= sweeps:
            break
        rounds += 1
        fresh = []
        for bi_r, arr_r in frontier:
            deg_r = amb.blocks[bi_r][0]
            start = amb.starts[bi_r]
            items_r = [(start + j, int(arr_r[j])) for j in np.nonzero(arr_r)[0].tolist()]
            for deg_g, items_g in gens:
                if deg_g + deg_r > maxdeg:
                    continue
                acc = sparse_product(mul, items_g, items_r, True)
                if acc:
                    fresh.extend(builder.add_tracked(acc))
        frontier = fresh
    return builder.finalize()


def _normalize_int_items(items):
    denom = 1
    for _, v in items:
        if isinstance(v, Fraction):
            denom = denom // math.gcd(denom, v.denominator) * v.denominator
    out = [(i, int(v * denom) if isinstance(v, Fraction) else int(v) * denom) for i, v in items]
    g = 0
    for _, v in out:
        g = math.gcd(g, abs(v))
        if g == 1:
            break
    if g > 1:
        out = [(i, v // g) for i, v in out]
    return out


# -- small dense rational solvers -------------------------------------------


def fraction_rref(rows: list[list[Fraction]]):
    """In-place-free RREF over Fraction; returns (rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def fraction_nullspace(rows: list[list[Fraction]]):
    """Basis of {x : rows @ x = 0} (right kernel)."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = fraction_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rref[i][f]
        basis.append(vec)
    return basis


def fraction_left_kernel(rows: list[list[Fraction]]):
    """Basis of {y : y @ rows = 0}."""
    if not rows:
        return []
    transpose = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    return fraction_nullspace(transpose)


def fraction_solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """One solution x of rows @ x = rhs, or None if inconsistent."""
    aug = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    ncols = len(rows[0])
    rref, pivots = fraction_rref(aug)
    sol = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        if p == ncols:
            return None
        sol[p] = rref[i][ncols]
    return sol
