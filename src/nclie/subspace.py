"""Exact linear algebra on graded subspaces of a finite-dimensional graded space.

A subspace is stored per degree as a reduced row-echelon basis with primitive
integer rows (content 1, positive pivot), which is a canonical form over the
rationals: two subspaces are equal iff their stored matrices are identical.

Row operations run on numpy int64 arrays guarded against overflow; rows whose
entries outgrow 64 bits are promoted to object (big-integer) arrays, so every
result is exact regardless of coefficient growth.

This is the one exact elimination engine.  Insertion runs `_eliminate`: it
finds the next stored row whose pivot entry is nonzero in the candidate with
one vectorized gather over the remaining pivot columns, so its Python work is
O(combines), not O(stored rows).  Membership is one integer matrix product of
the candidates with the nullspace of the block (`contains_all_block_rows`).
Integer matrix products run in `exact_product`, in the cheapest dtype that
is exact (`product_dtype`): every partial sum of a dot product is bounded
by max|a| * max|b| * inner, and float64 holds every integer below 2^53, so
below that bound a float64 BLAS product is exact; int64 serves up to
_GUARD = 2^62 and Python integers beyond.
Intersections (Zassenhaus) and the small dense rational solvers
(`fraction_rref` and the kernels and solutions read off it) build canonical
subspaces with the same insertion.

Saturation (`bracket_saturate`) eliminates only what can grow the span.  Its
first sweep brackets the parts of the generators in pairs, each pair once.
Every sweep then passes its candidates per block through `_SweepFilter`,
which drops a multiple of a candidate the sweep already offered there and,
in a block at least half full, filters the rest: one exact product with the
nullspace of the span at the start of the sweep, over the columns the
candidates use, maps them to quotient coordinates, a zero row is proof of
membership and is dropped, and the other rows are eliminated in a quotient
block as wide as the codimension; a candidate reaches the real block only
when it grows it.

Every product and commutator of two sparse vectors, of algebra elements as
well as of subspace basis rows, is computed by one loop, `sparse_product`,
and every split of a sparse vector into degree blocks by `Ambient.split`.
Only the product of two subspaces of a free context skips it: there it is
a sum of Kronecker blocks (`op_product`).  Every sequence built upward to
its first repeat (commutator spaces, ideals, powers of g, their sums) is a
`Chain`.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

_GUARD = 1 << 62
_FLOAT_EXACT = 1 << 53


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
    amax = abs_max(arr)
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
    row maxima maxes) for insertion; returns (arr, amax), or (None, 0) once
    arr vanishes.

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
        """Eliminate above pivots, then renormalize; yields the unique basis.

        Row i is reduced by the later rows j whose pivot column is nonzero in
        it, latest first, each already reduced.  Row j is zero at every other
        pivot column, so combining it in clears only column p_j there and
        leaves the others zero or nonzero: the rows that row i meets are the
        nonzeros of one gather of row i at the later pivots.  Rows are
        replaced, never changed in place.
        """
        rows, maxes = self.rows, self.maxes
        pivots = self.pidx.tolist()
        for i in range(len(rows) - 2, -1, -1):
            row, amax = rows[i], maxes[i]
            hits = np.flatnonzero(row[self.pidx[i + 1:]])
            for j in (hits[::-1] + (i + 1)).tolist():
                pj = pivots[j]
                row, _ = _combine(int(rows[j][pj]), rows[j], maxes[j], int(row[pj]), row, amax)
                row, _, amax = _primitive(row)
            rows[i], maxes[i] = row, amax


class GradedSubspace:
    """Immutable graded subspace in canonical reduced echelon form."""

    __slots__ = ("ambient", "_rows", "_pivots", "_null", "_hash")

    def __init__(self, ambient: Ambient, rows, pivots):
        self.ambient = ambient
        self._rows = rows          # tuple over blocks of int matrices (r, w) or None
        self._pivots = pivots      # tuple over blocks of pivot tuples
        self._null = [None] * len(ambient.blocks)
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
        return self.contains_vectors((vector,))

    def contains_block_row(self, bi: int, arr) -> bool:
        """Membership of one integer row of block bi."""
        return self.contains_all_block_rows(bi, arr[None, :])

    def _echelon(self, bi: int):
        """Pivot index array and row maxima of block bi, as _Block stores them."""
        return np.array(self._pivots[bi], dtype=np.intp), _row_maxima(self._rows[bi])

    def nullspace_matrix(self, bi: int):
        """Integer matrix N with rowspace(block) = {v : v @ N = 0}; its largest
        absolute entry is null_max(bi)."""
        if self._null[bi] is None:
            size = self.ambient.blocks[bi][1]
            mat = self._rows[bi]
            if mat is None:
                self._null[bi] = _nullspace((), (), size, ())
            else:
                self._null[bi] = _nullspace(mat, self._pivots[bi], size, self._echelon(bi)[1])
        return self._null[bi][0]

    def null_max(self, bi: int) -> int:
        self.nullspace_matrix(bi)
        return self._null[bi][1]

    def contains_all_block_rows(self, bi: int, mat) -> bool:
        """Batched membership for an integer candidate matrix (rows in block bi)."""
        if mat.shape[0] == 0:
            return True
        null = self.nullspace_matrix(bi)
        if null.shape[1] == 0:
            return True
        return not exact_product(mat, null, bmax=self.null_max(bi)).any()

    def contains_vectors(self, vectors) -> bool:
        """Batched membership test for an iterable of sparse rational vectors:
        one integer matrix per block, filled directly, for contains_all_block_rows."""
        batches: dict[int, list] = {}
        for vec in vectors:
            items = list(vec.items() if isinstance(vec, dict) else vec)
            for bi, comp in self.ambient.split(_normalize_int_items(items)).items():
                batches.setdefault(bi, []).append(comp)
        for bi, rows in batches.items():
            if not self.contains_all_block_rows(bi, int_matrix(rows, self.ambient.blocks[bi][1])):
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
        """Intersection by Zassenhaus, per block: in an echelon basis of the
        rows (a | a), a in self, and (b | 0), b in other, the rows with their
        pivot in the right half have right halves spanning the intersection."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        b = SpanBuilder(self.ambient)
        for bi, (_, width) in enumerate(self.ambient.blocks):
            ra, rb = self._rows[bi], other._rows[bi]
            if ra is None or rb is None:
                continue
            blk = _Block(2 * width)
            for row in ra:
                blk.insert(np.concatenate([row, row]), abs_max(row))
            for row in rb:
                blk.insert(np.concatenate([row, np.zeros_like(row)]), abs_max(row))
            for row, pivot in zip(blk.rows, blk.pidx.tolist()):
                if pivot >= width:
                    b.add_block_row(bi, row[width:])
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


def int_matrix(rows, width: int):
    """Dense integer matrix from sparse rows {column: value}, a row with
    Fraction values scaled by the lcm of their denominators: int64 when
    every entry is below _GUARD in absolute value, object (big integers)
    otherwise."""
    ridx, cidx, vals = [], [], []
    for r, row in enumerate(rows):
        vs = list(row.values())
        if any(isinstance(v, Fraction) for v in vs):
            denom = math.lcm(*(v.denominator for v in vs if isinstance(v, Fraction)))
            vs = [int(v * denom) for v in vs]
        ridx.extend([r] * len(vs))
        cidx.extend(row)
        vals.extend(vs)
    big = max(map(abs, vals), default=0)
    mat = np.zeros((len(rows), width), dtype=np.int64 if big < _GUARD else object)
    mat[ridx, cidx] = vals
    return mat


def _row_maxima(mat) -> list[int]:
    # row reductions only: np.abs(mat) would copy the whole matrix
    return [int(max(hi, -lo)) for hi, lo in zip(mat.max(axis=1).tolist(), mat.min(axis=1).tolist())]


def product_dtype(amax: int, bmax: int, inner: int):
    """The dtype in which a product of integer matrices is exact, given bounds
    amax and bmax on their entries and the inner dimension.

    Every partial sum of a dot product is at most amax*bmax*inner in absolute
    value.  float64 represents every integer below 2^53 exactly, so below
    that bound a BLAS product in float64 is exact; below _GUARD int64 cannot
    overflow; beyond it the product runs on Python integers.
    """
    bound = amax * bmax * inner
    if bound < _FLOAT_EXACT:
        return np.float64
    return np.int64 if bound < _GUARD else object


def abs_max(arr) -> int:
    """The largest absolute entry of an integer array, 0 when it is empty;
    from max and min, since abs(arr).max() would copy the whole array."""
    return int(max(arr.max(), -arr.min())) if arr.size else 0


def exact_product(a, b, amax=None, bmax=None):
    """a @ b for integer matrices (int64, object, or float64 holding integers
    below 2^53), in the cheapest exact dtype (product_dtype); the result is
    int64, or object when it may not fit in int64.  amax and bmax, when
    given, are bounds on the absolute entries of a and b that spare a scan."""
    amax = abs_max(a) if amax is None else amax
    bmax = abs_max(b) if bmax is None else bmax
    dtype = product_dtype(amax, bmax, a.shape[1])
    out = _as_dtype(a, dtype) @ _as_dtype(b, dtype)
    return out.astype(np.int64) if dtype is np.float64 else out


def _as_dtype(arr, dtype):
    if arr.dtype == np.float64 and dtype is not np.float64:
        arr = arr.astype(np.int64)   # integers below 2^53, so exactly
    return arr.astype(dtype, copy=False)


def _nullspace(rows, pivots, width: int, maxes, float_ok=False):
    """(N, max|N|) for reduced echelon rows of a block of the given width,
    with pivot columns `pivots` and row maxima `maxes`: rowspace = {v : v @ N = 0}.

    Column k of N is the kernel vector of the k-th free column f: L at f and
    -row[f] * L / row[p] at the pivot p of each row, where L is the lcm of
    the pivot entries.  N is filled one pivot row at a time, straight into
    one array (no whole-block temporaries): float64 when float_ok and every
    entry is below 2^53, so that exact_product need not convert it, else
    int64 when every entry is below _GUARD, else Python integers.
    """
    free_mask = np.ones(width, dtype=bool)
    free_mask[list(pivots)] = False
    free = np.flatnonzero(free_mask)
    heads = [int(row[p]) for row, p in zip(rows, pivots)]
    lcm = math.lcm(*heads)
    scales = [lcm // h for h in heads]
    bound = max([lcm, *(s * m for s, m in zip(scales, maxes))]) if len(free) else 0
    if float_ok and bound < _FLOAT_EXACT:
        dtype = np.float64
    else:
        dtype = np.int64 if bound < _GUARD else object
    null = np.zeros((width, len(free)), dtype=dtype)
    if not len(free):
        return null, 0
    null[free, np.arange(len(free))] = lcm
    for row, p, s in zip(rows, pivots, scales):
        part = row[free]
        null[p] = (part.astype(object) if dtype is object else part) * -s
    nmax = abs_max(null)
    if dtype is object and nmax < _GUARD:
        null = null.astype(np.int64)
    return null, nmax


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
        if arr.dtype != object:
            arr = arr.astype(np.int64)
        amax = abs_max(arr)
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
            mat = np.empty((len(blk.rows), blk.width), dtype=dt)
            for k, row in enumerate(blk.rows):   # no list of converted copies
                mat[k] = row
            rows.append(mat)
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
    rows = []
    pivots = []
    for fmat, fpiv in zip(fsub._rows, fsub._pivots):
        if fmat is None:
            rows.append(None)
            pivots.append(())
            continue
        rows.append(_kron_block(fmat, amat))
        pivots.append(tuple(p * width + q for p in fpiv for q in apiv))
    return GradedSubspace(ambient, tuple(rows), tuple(pivots))


def _kron_block(umat, vmat):
    """kron(U, V) of two canonical blocks: int64 exactly when
    max|U|*max|V| < _GUARD, the largest entry of the product."""
    dtype = object if abs_max(umat) * abs_max(vmat) >= _GUARD else np.int64
    return np.kron(umat.astype(dtype), vmat.astype(dtype))


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
    """Span of pairwise products of two subspace bases under ctx.mul_basis.

    In a free context the products are Kronecker blocks.  Words are ordered
    by length, then lexicographically, so concatenation maps the pair (p, q)
    of local indices of words of lengths a and b one to one onto the local
    index p*m^b + q of block a + b.  The products of block a of s1 with
    block b of s2 are then the rows of kron(U_a, V_b), already canonical
    (see kronecker_span), and only the sum of these parts is eliminated.
    """
    if not ctx.is_free:
        return _op_bilinear(ctx, s1, s2, commutator=False)
    amb = ctx.ambient
    if s1.ambient != amb or s2.ambient != amb:
        raise ValueError("ambient mismatch")
    index = {d: bi for bi, (d, _) in enumerate(amb.blocks)}
    parts = []
    for b1, d1, m1 in s1.block_rows():
        for b2, d2, m2 in s2.block_rows():
            if d1 + d2 > amb.max_degree:
                continue
            width = amb.blocks[b2][1]
            rows, pivots = [None] * len(amb.blocks), [()] * len(amb.blocks)
            rows[index[d1 + d2]] = _kron_block(m1, m2)
            pivots[index[d1 + d2]] = tuple(p * width + q for p in s1._pivots[b1]
                                           for q in s2._pivots[b2])
            parts.append(GradedSubspace(amb, tuple(rows), tuple(pivots)))
    return subspace_sum(amb, parts)


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
    """Exact check that [S, S] is contained in S: the brackets of basis pairs
    are tested together by contains_vectors."""
    amb = ctx.ambient
    if S.ambient != amb:
        raise ValueError("ambient mismatch")
    maxdeg = amb.max_degree
    mul = ctx.mul_basis
    supports = [
        (deg, _row_support(amb, bi, mat[r]))
        for bi, deg, mat in S.block_rows()
        for r in range(mat.shape[0])
    ]
    return S.contains_vectors(
        sparse_product(mul, r1, r2, True)
        for a, (d1, r1) in enumerate(supports)
        for d2, r2 in supports[a + 1:]
        if d1 + d2 <= maxdeg
    )


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


class Chain:
    """x_0 = first, x_(k+1) = step(k, x_k), built upward on demand up to the
    first k with step(k, x_k) == x_k, recorded as `stop`.  Past it `term`
    returns x_stop with no step and no comparison; the caller proves that
    every later term is x_stop.  `limit` is for chains proven to repeat, such
    as monotone chains of subspaces."""

    def __init__(self, first, step):
        self._terms, self._step, self.stop = [first], step, None

    def term(self, k):
        terms = self._terms
        while self.stop is None and len(terms) <= k:
            nxt = self._step(len(terms) - 1, terms[-1])
            if nxt == terms[-1]:
                self.stop = len(terms) - 1
            else:
                terms.append(nxt)
        return terms[min(k, len(terms) - 1)]

    def limit(self):
        return self.term(math.inf)


def bracket_saturate(ctx, generators, sweeps=None) -> GradedSubspace:
    """Lie span of `generators` by repeated bracketing against the current span.

    This is the saturation oracle: starting from span(generators), each sweep
    adds [g, v] for every generator g and every vector v added in the previous
    sweep, until the dimensions stabilize (or for `sweeps` rounds when the
    bracket-depth filtration is wanted).  Monotonicity makes one stale sweep
    definitive, and in a graded context brackets only raise the degree.

    Before the first sweep the span is spanned by the homogeneous parts of the
    generators that grew it (the split of [g, v] into degrees is the brackets
    of the parts of g with v), so the first sweep brackets those parts in
    pairs, each pair once.  Every sweep inserts through _SweepFilter.
    """
    amb = ctx.ambient
    maxdeg = amb.max_degree
    mul = ctx.mul_basis
    builder = SpanBuilder(amb)
    gens = []
    parts = []   # (degree, support) of each homogeneous part that grew the span
    for g in generators:
        items = [(i, v) for i, v in (g.items() if isinstance(g, dict) else g) if v]
        if not items:
            continue
        deg = min(amb.degree_of(i) for i, _ in items)  # brackets with g start there
        norm = _normalize_int_items(items)
        gens.append((deg, norm))
        for bi, comp in amb.split(norm).items():
            arr, amax = _int_row(amb.blocks[bi][1], comp)
            if builder._blocks[bi].insert(arr, amax) is not None:
                start = amb.starts[bi]
                parts.append((amb.blocks[bi][0], [(start + j, v) for j, v in comp.items()]))
    frontier = parts
    rounds = 0
    while frontier:
        if sweeps is not None and rounds >= sweeps:
            break
        if rounds == 0:
            products = (sparse_product(mul, r1, r2, True)
                        for k, (d1, r1) in enumerate(parts)
                        for d2, r2 in parts[k + 1:] if d1 + d2 <= maxdeg)
        else:
            products = _generator_brackets(amb, mul, gens, frontier)
        rounds += 1
        filters: dict[int, _SweepFilter] = {}
        frontier = []   # the rows this sweep stores, as (block index, row)
        for acc in products:
            for bi, comp in amb.split(acc).items():
                if bi not in filters:
                    filters[bi] = _SweepFilter(builder._blocks[bi])
                frontier.extend((bi, row) for row in filters[bi].offer(comp))
        for bi, filt in filters.items():
            frontier.extend((bi, row) for row in filt.flush())
    return builder.finalize()


def _generator_brackets(amb, mul, gens, rows):
    """[g, v] for every row v, given as (block index, row), and every
    generator g, given as (lowest degree, support), that can reach degree D."""
    for bi, row in rows:
        deg, items = amb.blocks[bi][0], _row_support(amb, bi, row)
        for deg_g, items_g in gens:
            if deg_g + deg <= amb.max_degree:
                yield sparse_product(mul, items_g, items, True)


# Candidates per product with the nullspace.  Larger chunks measured no
# faster, and their short-lived arrays of a megabyte and more raised the
# peak RSS of a closure by several megabytes.
_CHUNK = 64


class _SweepFilter:
    """Inserts one sweep's candidates into one block, skipping what is known
    to lie in the span: a repeated direction, and by one exact product every
    candidate that the block spanned when the sweep started.

    A candidate whose direction (`_direction`) was offered before in this
    sweep is dropped: the earlier copy was stored, or found to lie in the
    span, or is still queued and will be.  N is the nullspace of the block
    at the start of the sweep (canonicalized in place first), so v @ N = 0
    exactly when v lies in that span, S.  The candidates come in chunks C
    and are mapped to Q = C @ N.  A row with Q = 0 lies in S and is dropped.
    Since the kernel of v -> v @ N is S, a row lies in S + span(rows inserted
    since) exactly when its Q row lies in the span of their Q rows; so the Q
    rows go into a quotient block as wide as the codimension of S, and a
    candidate is inserted into the real block, where it is sure to be
    stored, only when its Q row is stored there.  The candidates are sparse,
    so Q is C[:, U] @ N[U] over the union U of the columns the chunk uses,
    and a candidate becomes a full-width row only when it is inserted.  A
    block less than half full at the start of the sweep takes its
    candidates directly: its quotient block would be more than half as wide
    as the block, and filtering there measured slower than inserting once.
    """

    __slots__ = ("blk", "null", "nmax", "quot", "pending", "seen")

    def __init__(self, blk: _Block):
        self.blk = blk
        self.pending: list[dict] = []
        self.seen: set[tuple] = set()
        self.null = self.quot = None
        if 2 * len(blk.rows) >= blk.width:
            blk.canonicalize()
            self.null, self.nmax = _nullspace(blk.rows, blk.pidx.tolist(), blk.width, blk.maxes,
                                              float_ok=True)
            self.quot = _Block(self.null.shape[1])

    def offer(self, comp) -> list:
        """Queue one candidate {column: value}; returns the rows stored."""
        if self.null is not None and self.null.shape[1] == 0:
            return []   # the block is full
        key = _direction(comp)
        if key in self.seen:
            return []
        self.seen.add(key)
        self.pending.append(comp)
        return self.flush() if len(self.pending) >= _CHUNK else []

    def flush(self) -> list:
        """Insert the queued candidates; returns the rows stored."""
        pending, self.pending = self.pending, []
        if self.null is not None and pending:
            pending = self._quotient_growers(pending)
        stored = []
        for comp in pending:
            row = self.blk.insert(*_int_row(self.blk.width, comp))
            if row is not None:
                stored.append(row)
        return stored

    def _quotient_growers(self, pending) -> list:
        """The candidates whose Q rows grow the quotient block, in order."""
        cols = sorted(set().union(*pending))
        pos = dict(zip(cols, range(len(cols))))
        mat = int_matrix([{pos[c]: v for c, v in comp.items()} for comp in pending], len(cols))
        null = self.null if len(cols) == len(self.null) else self.null[cols]
        quot = exact_product(mat, null, abs_max(mat), self.nmax)
        return [pending[r] for r in np.flatnonzero(quot.any(axis=1)).tolist()
                if self.quot.insert(quot[r].copy(), abs_max(quot[r])) is not None]


def _direction(comp) -> tuple:
    """An exact key of the line through a nonzero sparse vector {column:
    value}: the sorted columns, then the values scaled to integers, divided
    by their content and signed so that the first is positive."""
    cols = sorted(comp)
    vals = [comp[c] for c in cols]
    try:
        g = math.gcd(*vals)
    except TypeError:   # Fraction values: scale them to integers first
        denom = math.lcm(*(Fraction(v).denominator for v in vals))
        vals = [int(v * denom) for v in vals]
        g = math.gcd(*vals)
    if vals[0] < 0:
        g = -g
    return (*cols, *[v // g for v in vals])


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


def _dense_span(rows: list[list[Fraction]]) -> GradedSubspace:
    """The canonical span of dense rational rows, in one block of their width."""
    return GradedSubspace.span(
        Ambient([(0, len(rows[0]))]), ({j: Fraction(v) for j, v in enumerate(r) if v} for r in rows)
    )


def fraction_rref(rows: list[list[Fraction]]):
    """Reduced row echelon form over Q, (rows, pivot columns): the canonical
    basis of the row space with each row divided by its pivot entry."""
    if not rows or not rows[0]:
        return [], []
    span = _dense_span(rows)
    width = len(rows[0])
    dense = [[vec.get(j, Fraction(0)) for j in range(width)] for vec in span.vectors()]
    return dense, list(span._pivots[0])


def fraction_nullspace(rows: list[list[Fraction]]):
    """Basis of {x : rows @ x = 0} (right kernel), one vector per free column
    of the reduced echelon form: the columns of the nullspace matrix, each
    divided by its entry at its free column."""
    if not rows or not rows[0]:
        return []
    span = _dense_span(rows)
    free = [c for c in range(len(rows[0])) if c not in span._pivots[0]]
    return [[Fraction(v, col[f]) for v in col]
            for f, col in zip(free, span.nullspace_matrix(0).T.tolist())]


def fraction_left_kernel(rows: list[list[Fraction]]):
    """Basis of {y : y @ rows = 0}."""
    return fraction_nullspace([list(col) for col in zip(*rows)])


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
