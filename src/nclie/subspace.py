"""Exact linear algebra on graded subspaces of a finite-dimensional graded space.

A subspace is stored per degree as a reduced row-echelon basis with primitive
integer rows (content 1, positive pivot), which is a canonical form over the
rationals: two subspaces are equal iff their stored matrices are identical.

Row operations run on numpy int64 arrays guarded against overflow; rows whose
entries outgrow 64 bits are promoted to object (big-integer) arrays, so every
result is exact regardless of coefficient growth.  One function,
`_exact_dtype`, picks the dtype that holds a bound.  A stored block is object
exactly when one of its entries is _GUARD = 2^62 or more (`_narrow`), and an
empty block is a zero-row int64 matrix, so that equal subspaces store equal
arrays and hash equal.  A sparse rational vector enters one block component
at a time, as one row (`_int_row`) or a batch (`int_matrix`); each component
is scaled to integers on its own by `clear_denominators`, the one place where
rationals become integers, since neither a span nor membership depends on
the scale of a component.

This is the one exact elimination engine.  Insertion runs `_eliminate`: it
finds the next stored row whose pivot entry is nonzero in the candidate with
one vectorized gather over the remaining pivot columns, so its Python work is
O(combines), not O(stored rows).  Membership is one integer matrix product of
the candidates with the nullspace of the block (`contains_all_block_rows`).
Integer matrix products run in `exact_product`, in the cheapest dtype that
is exact (`product_dtype`): every partial sum of a dot product is bounded
by max|a| * max|b| * inner, and float64 holds every integer below 2^53, so
below that bound a float64 BLAS product is exact.
Intersections (Zassenhaus) and the small dense rational solvers
(`fraction_rref` and the kernels and solutions read off it) build canonical
subspaces with the same insertion.

Saturation (`bracket_saturate`) forms only the brackets that grow the span.
Per sweep and target block it takes N, the nullspace of the block's span, and
pulls it back through the bracket maps: the image [x, r] N of the bracket of
a frontier row r with a generator part x is r (ad_x N).  In the word layout
of a context (`Context.word_layout`: words of a free algebra times the
coordinates of a coefficient algebra), ad_x N is made of word prefix and
suffix slices of N times multiplication matrices of the coefficient algebra,
so one exact product serves every pair of a group of parts, and its rows
share an id exactly when equal (`_row_ids`), so that a zero or repeated image
is found without being formed.  A zero image proves membership, a repeated
direction is dropped, the rest go into a quotient block as wide as the
codimension, and only a bracket whose image grows it is formed and inserted.
Once the quotient block is half full, N is taken anew.

Every product and commutator of two sparse vectors, of algebra elements as
well as of subspace basis rows, is computed by one loop, `sparse_product`,
and every split of a sparse vector into degree blocks by `Ambient.split`.
Only the product of two subspaces of a free context skips it: there it is
a sum of Kronecker blocks (`op_product`).  Every sequence built upward to
its first repeat (commutator spaces, ideals, rows of their partial sums,
powers of g, their sums, closed-form series) is a `Chain`.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

_GUARD = 1 << 62
_FLOAT_EXACT = 1 << 53


def _exact_dtype(bound: int, floats=False):
    """The cheapest dtype that holds every integer of absolute value at most
    bound exactly: float64 (only when floats) below 2^53, int64 below _GUARD
    (a factor 2 below int64's limit), Python integers (object) beyond."""
    if floats and bound < _FLOAT_EXACT:
        return np.float64
    return np.int64 if bound < _GUARD else object


def _narrow(arr, amax: int):
    """arr as int64 when it is an object array whose entries, at most amax
    in absolute value, fit there; a block is object exactly when it holds
    an entry of _GUARD or more."""
    return arr.astype(np.int64) if arr.dtype == object and amax < _GUARD else arr


def _as_int(arr):
    """A float64 array of integers below 2^53 as int64 (exactly); any other
    array as it is."""
    return arr.astype(np.int64) if arr.dtype == np.float64 else arr


def _empty(width: int):
    """The block of the zero subspace: a zero-row int64 matrix."""
    return np.zeros((0, width), dtype=np.int64)


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
    g = _gcd_reduce(arr[nz])
    if arr[nz[0]] < 0:
        g = -g
    if g != 1:
        if arr.dtype == object:
            arr = np.array([v // g for v in arr.tolist()], dtype=object)
        else:
            arr = arr // g
    amax = abs_max(arr)
    return _narrow(arr, amax), int(nz[0]), amax


def _combine(piv, prow, pmax, coeff, arr, amax):
    """piv*arr - coeff*prow, promoting to big integers when int64 could overflow."""
    c = coeff if coeff > 0 else -coeff
    bound = piv * amax + c * pmax
    if _exact_dtype(bound) is object or arr.dtype == object or prow.dtype == object:
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

    __slots__ = ("width", "rows", "pidx", "maxes", "reduced")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pidx = np.empty(0, dtype=np.intp)   # pivot column of each row
        self.maxes: list[int] = []
        self.reduced = np.zeros(width, dtype=bool)   # pivot columns as of the last canonicalize

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
        self.pidx = np.concatenate((self.pidx[:pos], [pivot], self.pidx[pos:]))
        self.maxes.insert(pos, amax)
        return arr

    def adopt(self, sub: "GradedSubspace", bi: int):
        """Take over block bi of a canonical subspace; the block must be empty.

        Its rows are already reduced, primitive and in pivot order, so they
        are stored as they are; a row of an object matrix that fits in int64
        is stored as int64, as insert would store it.
        """
        pidx, maxes = sub._echelon(bi)
        self.rows = [_narrow(row, m) for row, m in zip(sub._rows[bi], maxes)]
        self.pidx = pidx
        self.maxes = list(maxes)
        self.reduced[pidx] = True

    def canonicalize(self):
        """Eliminate above pivots, then renormalize; yields the unique basis.

        Row i is reduced by the later rows j whose pivot column is nonzero in
        it, latest first, each already reduced.  Row j is zero at every other
        pivot column, so combining it in clears only column p_j there and
        leaves the others zero or nonzero: the rows that row i meets are the
        nonzeros of row i at the later pivots.  Those lie among the pivot
        columns new since the last call: a row stored since then was reduced
        against every row present before it, and a row present then is zero
        at their other pivots.  So the rows that meet any are found by one
        gather of every row at the new pivots.  Rows are replaced, never
        changed in place.
        """
        rows, maxes = self.rows, self.maxes
        new = np.flatnonzero(~self.reduced[self.pidx])
        if not len(new):
            return
        pivots = self.pidx.tolist()
        hits = np.array([row[self.pidx[new]] != 0 for row in rows])
        hits &= new[None, :] > np.arange(len(rows))[:, None]
        for i in np.flatnonzero(hits.any(axis=1))[::-1].tolist():
            row, amax = rows[i], maxes[i]
            for j in new[hits[i]][::-1].tolist():
                pj = pivots[j]
                row, _ = _combine(int(rows[j][pj]), rows[j], maxes[j], int(row[pj]), row, amax)
                row, _, amax = _primitive(row)
            rows[i], maxes[i] = row, amax
        self.reduced[self.pidx] = True


class GradedSubspace:
    """Immutable graded subspace in canonical reduced echelon form."""

    __slots__ = ("ambient", "_rows", "_pivots", "_null", "_hash")

    def __init__(self, ambient: Ambient, rows, pivots):
        self.ambient = ambient
        self._rows = rows          # tuple over blocks of int matrices (r, w), r >= 0
        self._pivots = pivots      # tuple over blocks of pivot tuples
        self._null = [None] * len(ambient.blocks)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ambient: Ambient) -> "GradedSubspace":
        return GradedSubspace(ambient, tuple(_empty(s) for _, s in ambient.blocks),
                              ((),) * len(ambient.blocks))

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
        return [(deg, len(mat)) for (deg, _), mat in zip(self.ambient.blocks, self._rows)]

    @property
    def dim(self) -> int:
        return sum(d for _, d in self.dim_profile())

    def is_zero(self) -> bool:
        return not any(self._pivots)

    def block_rows(self):
        """Yield (block index, degree, int matrix) for nonzero blocks."""
        for i, ((deg, _), mat) in enumerate(zip(self.ambient.blocks, self._rows)):
            if len(mat):
                yield i, deg, mat

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
            self._null[bi] = _nullspace(self._rows[bi], self._pivots[bi],
                                        self.ambient.blocks[bi][1], self._echelon(bi)[1])
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
            for bi, comp in self.ambient.split(vec).items():
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
            blk = _Block(2 * width)
            for row in ra:
                blk.insert(np.concatenate([row, row]), abs_max(row))
            for row in rb:
                blk.insert(np.concatenate([row, np.zeros_like(row)]), abs_max(row))
            for row, pivot in zip(blk.rows, blk.pidx.tolist()):
                if pivot >= width:
                    b.add_block_row(bi, row[width:])
        return b.finalize()

    def rows_beyond(self, sub: "GradedSubspace") -> "GradedSubspace":
        """The span of the rows of self whose pivot is not a pivot of sub.

        They are a subset of canonical rows, so they are canonical as they
        stand: reduced, primitive and in pivot order.  For sub <= self they
        span a complement of sub: every pivot of sub is one of self, so they
        are dim self - dim sub rows, independent of sub's rows because no
        two of all these rows share a pivot.  They keep object dtype only
        when one of their entries needs it (_narrow), as every block does.
        """
        rows, pivots = [], []
        for mat, piv, other in zip(self._rows, self._pivots, map(set, sub._pivots)):
            kept = mat[[i for i, p in enumerate(piv) if p not in other]]
            rows.append(_narrow(kept, abs_max(kept)))
            pivots.append(tuple(p for p in piv if p not in other))
        return GradedSubspace(self.ambient, tuple(rows), tuple(pivots))

    def __eq__(self, other):
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        if self.ambient != other.ambient or self._pivots != other._pivots:
            return False
        return all(map(np.array_equal, self._rows, other._rows))

    def __hash__(self):
        if self._hash is None:
            acc = hash(self.ambient)
            for mat, piv in zip(self._rows, self._pivots):
                acc = hash((acc, piv, mat.tobytes() if mat.dtype != object else tuple(map(tuple, mat.tolist()))))
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


def clear_denominators(values: list) -> list:
    """Rationals (ints and Fractions) times the lcm of their denominators,
    as ints; a list without a Fraction is returned as it is."""
    dens = [v.denominator for v in values if isinstance(v, Fraction)]
    if not dens:
        return values
    denom = math.lcm(*dens)
    return [int(v.numerator) * (denom // v.denominator) for v in values]


def int_matrix(rows, width: int):
    """Dense integer matrix from sparse rows {column: value}, each row
    scaled by clear_denominators, in the dtype _exact_dtype picks for its
    largest absolute entry."""
    ridx, cidx, vals = [], [], []
    for r, row in enumerate(rows):
        vs = clear_denominators(list(row.values()))
        ridx.extend([r] * len(vs))
        cidx.extend(row)
        vals.extend(vs)
    mat = np.zeros((len(rows), width), dtype=_exact_dtype(max(map(abs, vals), default=0)))
    mat[ridx, cidx] = vals
    return mat


def _row_maxima(mat) -> list[int]:
    # row reductions only: np.abs(mat) would copy the whole matrix
    return [int(max(hi, -lo)) for hi, lo in zip(mat.max(axis=1).tolist(), mat.min(axis=1).tolist())]


def product_dtype(amax: int, bmax: int, inner: int):
    """The dtype in which a product of integer matrices is exact, given bounds
    amax and bmax on their entries and the inner dimension.

    Every partial sum of a dot product is at most amax*bmax*inner in absolute
    value, so the product is exact in the dtype _exact_dtype picks for that
    bound, float64 included: a BLAS product below 2^53.
    """
    return _exact_dtype(amax * bmax * inner, floats=True)


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
    return _as_int(_as_dtype(a, dtype) @ _as_dtype(b, dtype))


def _as_dtype(arr, dtype):
    return (arr if dtype is np.float64 else _as_int(arr)).astype(dtype, copy=False)


def _nullspace(rows, pivots, width: int, maxes, float_ok=False):
    """(N, max|N|) for reduced echelon rows of a block of the given width,
    with pivot columns `pivots` and row maxima `maxes`: rowspace = {v : v @ N = 0}.

    Column k of N is the kernel vector of the k-th free column f: L at f and
    -row[f] * L / row[p] at the pivot p of each row, where L is the lcm of
    the pivot entries.  N is filled one pivot row at a time, straight into
    one array (no whole-block temporaries), in the dtype _exact_dtype picks
    for the largest entry, float64 only when float_ok, so that exact_product
    need not convert it.
    """
    free_mask = np.ones(width, dtype=bool)
    free_mask[list(pivots)] = False
    free = np.flatnonzero(free_mask)
    heads = [int(row[p]) for row, p in zip(rows, pivots)]
    lcm = math.lcm(*heads)
    scales = [lcm // h for h in heads]
    bound = max([lcm, *(s * m for s, m in zip(scales, maxes))]) if len(free) else 0
    dtype = _exact_dtype(bound, floats=float_ok)
    null = np.zeros((width, len(free)), dtype=dtype)
    if not len(free):
        return null, 0
    null[free, np.arange(len(free))] = lcm
    for row, p, s in zip(rows, pivots, scales):
        part = row[free]
        null[p] = (part.astype(object) if dtype is object else part) * -s
    nmax = abs_max(null)
    return _narrow(null, nmax), nmax


def _int_row(width: int, comp: dict[int, Fraction]):
    """A sparse rational block component as an integer array, scaled by
    clear_denominators, and its largest absolute entry: (None, 0) for a
    zero component."""
    vals = clear_denominators(list(comp.values()))
    amax = max(map(abs, vals), default=0)
    if amax == 0:
        return None, 0
    arr = np.zeros(width, dtype=_exact_dtype(amax))
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
      * dtype: object exactly when max|U|*max|A|, the largest entry, is
        _GUARD or more (_kron_block), as for every stored block.
    """
    if len(asub.ambient.blocks) != 1 or asub.ambient.blocks[0][0] != 0:
        raise ValueError("right factor must live in a single degree-0 block")
    width = asub.ambient.dim
    ambient = Ambient([(d, s * width) for d, s in fsub.ambient.blocks])
    amat, apiv = asub._rows[0], asub._pivots[0]
    return GradedSubspace(ambient, tuple(_kron_block(fmat, amat) for fmat in fsub._rows),
                          tuple(tuple(p * width + q for p in fpiv for q in apiv)
                                for fpiv in fsub._pivots))


def _kron_block(umat, vmat):
    """kron(U, V) of two canonical blocks, in the dtype _exact_dtype picks
    for max|U|*max|V|, the largest entry of the product; a zero-row block
    when either is empty, so that a big U never meets the int64 of an empty
    V."""
    if not (len(umat) and len(vmat)):
        return _empty(umat.shape[1] * vmat.shape[1])
    dtype = _exact_dtype(abs_max(umat) * abs_max(vmat))
    return np.kron(umat.astype(dtype), vmat.astype(dtype))


# -- bilinear span operations ----------------------------------------------


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
            rows, pivots = [_empty(s) for _, s in amb.blocks], [()] * len(amb.blocks)
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
        sup1 = [_support(_entries(row), amb.starts[b1]) for row in m1]
        for b2, d2, m2 in s2.block_rows():
            if d1 + d2 > maxdeg:
                continue
            sup2 = [_support(_entries(row), amb.starts[b2]) for row in m2]
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
        (deg, _support(_entries(row), amb.starts[bi]))
        for bi, deg, mat in S.block_rows()
        for row in mat
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
    rows of the other parts are eliminated against it.  A part given more
    than once, as one object, is summed once: a memo of spans (such as
    FiltrationCache's) returns one object for equal operands.
    """
    parts = list({id(p): p for p in parts}.values())
    if any(p.ambient != ambient for p in parts):
        raise ValueError("ambient mismatch")
    b = SpanBuilder(ambient)
    for bi in range(len(ambient.blocks)):
        mats = [p._rows[bi] for p in parts]
        present = [k for k, mat in enumerate(mats) if len(mat)]
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
    first repeat of one of the last two terms: the first k with step(k, x_k)
    equal to x_k (`period` 1) or to x_(k-1) (`period` 2), recorded as
    `stop`.  Past it `term` repeats the last `period` terms, with no step
    and no comparison; the caller proves that the terms repeat so, as they
    do when step depends on x_k alone.  A monotone chain stops with period
    1: x_(k+1) = x_(k-1) would have made x_k = x_(k-1) a repeat one step
    before.  `limit` is for chains proven to stop with period 1, such as
    monotone chains of subspaces."""

    def __init__(self, first, step):
        self._terms, self._step, self.stop, self.period = [first], step, None, None

    def term(self, k):
        terms = self._terms
        while self.stop is None and len(terms) <= k:
            nxt = self._step(len(terms) - 1, terms[-1])
            for period in (1, 2):
                if period <= len(terms) and nxt == terms[-period]:
                    self.stop, self.period = len(terms) - 1, period
                    break
            else:
                terms.append(nxt)
        if k < len(terms):
            return terms[k]
        return terms[-1] if self.period == 1 else terms[len(terms) - 2 + (k - len(terms)) % 2]

    def limit(self):
        while self.stop is None:
            self.term(len(self._terms))
        if self.period != 1:
            raise ValueError("the chain repeats with period 2: it has no limit")
        return self._terms[-1]


def bracket_saturate(ctx, generators, sweeps=None) -> GradedSubspace:
    """Lie span of `generators` by repeated bracketing against the current span.

    This is the saturation oracle: starting from span(generators), each sweep
    adds [g, v] for every generator g and every vector v added in the previous
    sweep, split into degrees, until the dimensions stabilize (or for `sweeps`
    rounds when the bracket-depth filtration is wanted).  Monotonicity makes
    one stale sweep definitive, and in a graded context brackets only raise
    the degree.  The degree parts of [g, v] are the brackets [x, v] with the
    homogeneous parts x of g, and a part that did not grow the span is a
    combination of those that did, so the sweeps bracket with those.  In the
    first sweep the frontier is those parts and [x, r] = -[r, x], so a split
    of degrees (d, e) with d < e repeats (e, d) and is left out.

    A sweep tests a bracket before forming it (_sweep_block).  For a target
    block with span S and nullspace N (S = {v : v N = 0}), a frontier row r
    and a part x, the image Q = [x, r] N = r (ad_x N) is read off N pulled
    back through the bracket maps (_pulled_images, _pair_images).
      * Q = 0 exactly when [x, r] lies in S: the bracket is dropped.
      * v -> v N has kernel S, so [x, r] lies in S + span(B), B the brackets
        inserted since N was taken, exactly when Q lies in the span of their
        images.  The images go into a quotient block as wide as the
        codimension of S, and a bracket is formed and inserted only when its
        image grows that block, so that it is sure to grow the span; a
        direction met before cannot grow it and is dropped first.
      * Once the quotient block is half full, S is taken anew: the span now.
    So every sweep ends at the span that inserting all its brackets reaches,
    and the span after every sweep, the `sweeps` cap with it, and the
    canonical form are unchanged.  The rows a sweep stores are the next
    sweep's frontier; any rows completing the span before the sweep to the
    span after it give the same next span, since the brackets with the span
    before lie in the span after.
    """
    amb = ctx.ambient
    a, mulmat = ctx.word_layout()
    builder = SpanBuilder(amb)
    parts: dict[int, list] = {}   # block -> the parts that grew the span, as (columns, values)
    for g in generators:
        for bi, comp in amb.split(g).items():
            arr, amax = _int_row(amb.blocks[bi][1], comp)
            if builder._blocks[bi].insert(arr, amax) is not None:
                parts.setdefault(bi, []).append(_entries(arr))
    if not parts:
        return builder.finalize()
    part_pieces = _word_pieces(a, parts)
    mulmats = [[mulmat(dict(_support(_entries(p))), right=right) for p in part_pieces[0]]
               for right in (False, True)]
    frontier = parts
    rounds = 0
    while frontier and (sweeps is None or rounds < sweeps):
        rounds += 1
        pieces = _word_pieces(a, frontier)
        fresh = {}
        for t, (deg_t, _) in enumerate(amb.blocks):
            splits = [(d, e) for d in frontier for e in parts
                      if amb.blocks[d][0] + amb.blocks[e][0] == deg_t
                      and (frontier is not parts or d >= e)]
            groups = _part_groups(splits, pieces, part_pieces, mulmats)
            stored = _sweep_block(ctx, a, builder._blocks[t], t, groups, frontier, parts)
            if stored:
                fresh[t] = stored
        frontier = fresh
    return builder.finalize()


def _sweep_block(ctx, a, blk, t, groups, frontier, parts) -> list:
    """Insert the brackets of one sweep into block t (bracket_saturate), for
    the groups of parts of _part_groups; returns the rows stored, as
    entries."""
    amb = ctx.ambient
    stored, quot = [], None
    for factors, splits in groups:
        images = None
        for (d, e), members in splits.items():
            if quot is None or 2 * len(quot.rows) >= quot.width:
                blk.canonicalize()
                null, nmax = _nullspace(blk.rows, blk.pidx.tolist(), blk.width, blk.maxes,
                                        float_ok=True)
                quot, seen, images = _Block(null.shape[1]), set(), None
                if not quot.width:
                    return stored   # the block is full
            if images is None:
                images = _pulled_images(a, factors, null, nmax)
            for ridx, xidx, q in _pair_images(amb, a, d, e, members, images):
                for k, img in _new_directions(q, seen):
                    if quot.insert(img, abs_max(img)) is not None:
                        x = _support(parts[e][xidx[k]], amb.starts[e])
                        r = _support(frontier[d][ridx[k]], amb.starts[d])
                        bracket = amb.split(sparse_product(ctx.mul_basis, x, r, True))[t]
                        stored.append(_entries(blk.insert(*_int_row(blk.width, bracket))))
    return stored


def _entries(row):
    """(columns, values) of the nonzero entries of an integer row."""
    cols = np.flatnonzero(row)
    return cols, row[cols]


def _support(entries, start=0):
    """The (index, value) pairs of entries (_entries), the columns moved
    by start (a block's first index), as Python ints."""
    cols, vals = entries
    return list(zip((cols + start).tolist(), vals.tolist()))


def _word_pieces(a: int, blocks):
    """The rows of each block {block: [(columns, values)]} as sums of words u
    times coefficient vectors r_u of length a (Context.word_layout), each
    r_u written over one basis of them for all the blocks: (basis, {block:
    (row, word, basis index, coefficient)}), the last four as arrays.

    The basis is the distinct directions of the r_u when they are fewer
    than a, so that each r_u is one basis vector times its content (the
    generators w (x) s of a closure use the dim g directions s), and
    otherwise the unit vectors, one entry per nonzero coordinate.
    """
    found = {}
    for bi, rows in blocks.items():
        cols = np.concatenate([c for c, _ in rows])
        vals = np.concatenate([v.astype(object) if v.dtype == object else v for _, v in rows])
        r = np.repeat(np.arange(len(rows)), [len(c) for c, _ in rows])
        key = r * (cols.max() // a + 1) + cols // a          # (row, word), increasing
        new = np.diff(key, prepend=-1) != 0
        vecs = np.zeros((int(new.sum()), a), dtype=vals.dtype)
        vecs[np.cumsum(new) - 1, cols % a] = vals
        found[bi] = (r[new], cols[new] // a, vecs)
    vecs = np.concatenate([v for _, _, v in found.values()])
    content = _contents(vecs)
    prim = vecs // content[:, None]
    ids = _row_ids(prim)[0]
    first = np.unique(ids, return_index=True)[1]
    out = {}
    if len(first) < a:
        pos = 0
        for bi, (r, u, _) in found.items():
            out[bi] = (r, u, ids[pos:pos + len(r)], content[pos:pos + len(r)])
            pos += len(r)
        return prim[first], out
    for bi, (r, u, v) in found.items():
        p, j = np.nonzero(v)
        out[bi] = (r[p], u[p], j, v[p, j])
    return np.eye(a, dtype=np.int64), out


def _contents(mat):
    """The content of each nonzero row, signed like its first nonzero entry."""
    if mat.dtype == object:
        g = np.array([math.gcd(*row) for row in mat.tolist()], dtype=object)
    else:
        g = np.gcd.reduce(mat, axis=1)
    first = mat[np.arange(len(mat)), (mat != 0).argmax(axis=1)]
    return np.where(first < 0, -g, g)


def _keys(rows):
    """Exact keys of integer rows, set by each row's values alone: its bytes
    as int16 when its entries fit there, else a 1-tuple of its int64 bytes
    when they fit there, else the tuple of its Python integers; keys of the
    three kinds never coincide.  A float64 row (of exact integers) is keyed
    by its integer values, so -0.0 and 0.0 agree."""
    if rows.dtype == object:
        return [tuple(row) if _exact_dtype(max(map(abs, row))) is object else _keys(np.array([row]))[0]
                for row in rows.tolist()]
    keys, width = [], rows.shape[1]
    step = max(1, _CHUNK_ENTRIES // width)
    for lo in range(0, len(rows), step):   # in chunks, so that the copies stay small
        part = np.ascontiguousarray(rows[lo:lo + step], dtype=np.int64)
        narrow = (np.abs(part) < 1 << 15).all(axis=1).tolist()
        short = part.astype(np.int16).view(f"V{2 * width}").ravel().tolist()   # bytes per row
        wide = part.view(f"V{8 * width}").ravel().tolist()
        keys += [s if ok else (w,) for s, w, ok in zip(short, wide, narrow)]
    return keys


def _new_directions(images, seen):
    """(k, primitive row) for the nonzero rows k of images whose direction
    is not in seen, in order, adding each to seen."""
    nz = np.flatnonzero(images.any(axis=1))
    if not len(nz):
        return
    rows = images[nz]
    rows = rows // _contents(rows)[:, None]
    for k, row, key in zip(nz.tolist(), rows, _keys(rows)):
        if key not in seen:
            seen.add(key)
            yield k, row


def _part_groups(splits, pieces, part_pieces, mulmats):
    """The frontier rows and parts to bracket for the splits (d, e) of one
    target, as [(factors, {(d, e): (row entries, part entries)})], one item
    per group of parts that use the same basis vectors of their
    coefficients; see _pulled_images for the factors and _pair_images for
    the entries."""
    rbasis, rpieces = pieces
    ppieces = part_pieces[1]
    groups: dict[tuple, dict] = {}
    for d, e in splits:
        x, _, i, _ = ppieces[e]
        uses: dict[int, set] = {}
        for xi, ii in zip(x.tolist(), i.tolist()):
            uses.setdefault(xi, set()).add(ii)
        for xi, used in uses.items():
            groups.setdefault(tuple(sorted(used)), {}).setdefault((d, e), []).append(xi)
    out = []
    for used, members in groups.items():
        local = np.zeros(len(part_pieces[0]), dtype=np.intp)
        local[list(used)] = np.arange(len(used)) * len(rbasis)
        factors = [[exact_product(rbasis, mulmats[right][i]) for i in used] for right in (0, 1)]
        splits = {}
        for (d, e), xs in members.items():
            x, f, i, xv = ppieces[e]
            keep = np.isin(x, xs)
            splits[d, e] = rpieces[d], (x[keep], f[keep], local[i[keep]], xv[keep])
        out.append((factors, splits))
    return out


def _pulled_images(a: int, factors, null, nmax):
    """ad N pulled back for one group of parts: (G, H, max |G| + max |H|,
    ids), where, for the words z of the target block, G[z, (i, j)] =
    (P_i R_j) N[z] and H[z, (i, j)] = (R_j P_i) N[z], with N[z] the rows of
    N at the word z, P_i the basis vectors of the parts' coefficients in the
    group and R_j those of the rows' (see _pair_images).  The rows R_j M of
    each multiplication matrix M of P_i (factors) go into one exact product
    with N, in one dtype for both, left in float64 when product_dtype finds
    it exact there.  ids numbers the rows of G and H together, one id
    exactly for equal rows (_row_ids)."""
    dtype = product_dtype(max(abs_max(m) for mats in factors for m in mats), nmax, a)
    null3 = _as_dtype(null.reshape(-1, a, null.shape[1]), dtype)
    G, H = (_as_dtype(np.concatenate(mats), dtype) @ null3 for mats in factors)
    return G, H, abs_max(G) + abs_max(H), _row_ids(G, H)


def _row_ids(*tables):
    """Ids of the rows (along the last axis) of tables of one width, one id
    exactly for equal rows (numbered by _keys): an id array per table,
    shaped like the table without its last axis."""
    keys: dict = {}
    return [np.array([keys.setdefault(key, len(keys)) for key in _keys(T.reshape(-1, T.shape[-1]))],
                     dtype=np.intp).reshape(T.shape[:-1]) for T in tables]


# Entries per chunk of images, and of rows keyed at once (_keys): 256 KB of
# int64.  Larger chunks measured no faster and raised the peak memory of a
# closure.
_CHUNK_ENTRIES = 1 << 15


def _pair_images(amb, a, d, e, entries, images):
    """The images Q = [x, r] N for every pair of a frontier row r of block d
    and a part x of block e; yields (row numbers, part numbers, Q) in chunks.

    In the word layout (Context.word_layout) a row is r = sum over words u
    of u (x) r_u and a part x = sum over words f of f (x) x_f, so
    [x, r] = sum of fu (x) x_f r_u - uf (x) r_u x_f, and with x_f and r_u
    written over the bases P and R of _word_pieces,
        Q = sum of x_f[i] r_u[j] (G[fu, (i, j)] - H[uf, (i, j)])
    (_pulled_images): fu and uf are the word prefix and suffix slices of the
    target block, at f * W_d + u and u * W_e + f for the numbers W_d and W_e
    of words of blocks d and e.  entries holds (row, word,
    basis index, coefficient) of the rows and (part, word, column of its
    basis index in G, coefficient) of the parts.

    A pair of one row entry and one part entry needs no coefficient, since
    only the direction of Q counts, and its Q is the difference of a row of
    G and a row of H: it is 0 when their ids agree, and equal to the Q of
    any pair with the same two ids.  Such pairs yield only the first pair
    of each two distinct ids.
    """
    (r, u, j, rv), (x, f, col, xv) = entries
    G, H, gmax, ids = images
    wd, we = amb.blocks[d][1] // a, amb.blocks[e][1] // a
    rnum, rstart = np.unique(r, return_index=True)
    xnum, xinv = np.unique(x, return_inverse=True)
    rstart = np.append(rstart, len(r))
    terms = int(np.diff(rstart).max() * np.bincount(xinv).max())
    bound = gmax if terms == 1 else abs_max(rv) * abs_max(xv) * gmax * terms
    dtype = _exact_dtype(bound, floats=G.dtype == np.float64)
    if terms == 1:
        pp, qq = np.repeat(np.arange(len(r)), len(x)), np.tile(np.arange(len(x)), len(r))
        cols = col[qq] + j[pp]
        zg, zh = f[qq] * wd + u[pp], u[pp] * we + f[qq]
        gid, hid = ids[0][zg, cols], ids[1][zh, cols]
        key = gid * (4 * ids[0].size) + hid
        live = np.flatnonzero(gid != hid)
        live = live[np.sort(np.unique(key[live], return_index=True)[1])]
        step = max(1, _CHUNK_ENTRIES // G.shape[2])
        for lo in range(0, len(live), step):
            k = live[lo:lo + step]
            vals = _as_dtype(G[zg[k], cols[k]], dtype)
            vals -= _as_dtype(H[zh[k], cols[k]], dtype)
            yield r[pp[k]], x[qq[k]], _as_int(vals)
        return
    step = max(1, _CHUNK_ENTRIES // (len(xnum) * G.shape[2]))
    for lo in range(0, len(rnum), step):
        p = np.arange(rstart[lo], rstart[min(lo + step, len(rnum))])
        pp, qq = np.repeat(p, len(x)), np.tile(np.arange(len(x)), len(p))
        cols = col[qq] + j[pp]
        vals = _as_dtype(G[f[qq] * wd + u[pp], cols], dtype)
        vals -= _as_dtype(H[u[pp] * we + f[qq], cols], dtype)
        vals *= (_as_dtype(rv[pp], dtype) * _as_dtype(xv[qq], dtype))[:, None]
        keys = np.searchsorted(rnum, r[pp]) * len(xnum) + xinv[qq]
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        vals, keys = np.add.reduceat(vals, starts, axis=0), keys[starts]
        yield rnum[keys // len(xnum)], xnum[keys % len(xnum)], _as_int(vals)


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
