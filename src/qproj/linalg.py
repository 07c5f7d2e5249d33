"""Sparse matrices over arbitrary-precision floats, and the exact rank.

Plumbing shared by the representation modules.  A `SparseMatrix` takes and
gives mpf values but stores each nonzero entry as its raw mpmath.libmp tuple,
in a dict keyed by (row, col); that stored form is this module's own, and no
other module reads it.  Every rank decision in the library runs on exact
rationals through `exact_rank`, on sparse {key: Fraction} rows, so the exact
GT columns are ranked as they come, with no dense copy.

The GT matrices hold few distinct values (the E matrices of (1,1,1,1) hold
3,684 nonzeros but 103 values), so each sparse operation memoises its
arithmetic by operand value for the length of that one call.  The results
stay bit for bit those of the plain mpf loop, for two reasons: the libmp
functions are pure in (operands, precision, rounding), and mpf_add(fzero, p)
is p for a p already rounded at that precision and rounding.  `_Memo` is the
library's one memo class.

The scans of `gtrep.verify_relations` run here too: `_max_abs` finds a
matrix's first largest |v| with |v| taken once per distinct value, and
`_diagonal_exchange` evaluates M K - c K M from the diagonal of K once per
distinct (m, k_r, k_s).  Both give the residual and the entry of the plain
scan `abs(v) > worst` over the mpf entries.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_gt, mpf_mul, mpf_neg, mpf_sub

__all__ = ["SparseMatrix", "exact_rank"]


class _Memo(dict):
    """f(key) for each distinct key, computed on its first lookup.  A memo
    lives for one call, so every value is computed at that call's working
    precision."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


def _first_largest(found):
    # {key: (|v|, first position)} in first-occurrence order -> the first
    # position of a strictly largest |v|.  The first key to reach the maximum
    # holds its earliest position, so this is the plain scan's answer.
    worst, at = fzero, None
    for a, pos in found.values():
        if mpf_gt(a, worst):
            worst, at = a, pos
    return mp.make_mpf(worst), at


class SparseMatrix:
    """A (nrows x ncols) sparse matrix over mpf entries.

    ``_d`` maps (row, col) to the raw mpmath.libmp tuple of each nonzero
    entry; the constructor, `diagonal`, `get` and `entries` convert at the
    boundary (v._mpf_ in, mp.make_mpf out), so no bit changes either way.
    ``+``, ``-``, ``@`` and `scaled` make the libmp calls of the mpf
    operators, with the same precision, rounding and order, so their results
    are the mpf ones bit for bit.  Within one call, each distinct operand pair
    is multiplied, added or scaled once: a memo by value cannot change a pure
    function's result.  The first product in a cell of ``@`` is stored as it
    is, since adding it to zero returns it unchanged.
    """

    __slots__ = ("nrows", "ncols", "_d")

    def __init__(self, nrows, ncols, entries=None):
        """`entries` is a {(i, j): mpf} dict; zero entries are dropped."""
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        d = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise IndexError("entry (%d, %d) outside %dx%d" % (i, j, nrows, ncols))
            if v._mpf_ != fzero:
                d[(i, j)] = v._mpf_
        self._d = d

    @classmethod
    def diagonal(cls, values):
        values = [v._mpf_ for v in values]
        n = len(values)
        return cls._trusted(n, n, {(i, i): v for i, v in enumerate(values) if v != fzero})

    def get(self, i, j):
        return mp.make_mpf(self._d.get((i, j), fzero))

    def entries(self):
        """((i, j), mpf) for each nonzero entry, in storage order."""
        return ((k, mp.make_mpf(v)) for k, v in self._d.items())

    @property
    def nnz(self):
        return len(self._d)

    @classmethod
    def _trusted(cls, nrows, ncols, d):
        # Wrap a dict of in-bounds nonzero raw entries without re-validating it.
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._d = nrows, ncols, d
        return m

    def transpose(self):
        return SparseMatrix._trusted(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self._d.items()}
        )

    def scaled(self, c):
        """c * self for an mpf c, each entry rounded as c * v rounds."""
        prec, rnd = mp._prec_rounding
        c = c._mpf_
        scale = _Memo(lambda v: mpf_mul(c, v, prec, rnd))
        return SparseMatrix._trusted(self.nrows, self.ncols, {
            k: p for k, v in self._d.items() if (p := scale[v]) != fzero})

    def _combine(self, other, negate):
        # self + other (or self - other, negating each entry of other at the
        # working precision first), keeping the insertion order of the dict.
        self._check_shape(other)
        prec, rnd = mp._prec_rounding
        sums = {}  # (old, v) -> their sum
        d = dict(self._d)
        for k, v in other._d.items():
            old = d.get(k, fzero)
            nv = sums.get((old, v))
            if nv is None:
                b = mpf_neg(v, prec, rnd) if negate else v
                nv = sums[old, v] = mpf_add(old, b, prec, rnd)
            if nv != fzero:
                d[k] = nv
            elif old != fzero:
                del d[k]
        return SparseMatrix._trusted(self.nrows, self.ncols, d)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        prec, rnd = mp._prec_rounding
        rows_of_b = {}
        for (k, j), b in other._d.items():
            rows_of_b.setdefault(k, []).append((j, b))
        by_a = {}  # a -> {b: a*b}, one product dict per left-hand value
        sums = {}
        acc = {}
        for (i, k), a in self._d.items():
            row = rows_of_b.get(k)
            if row is None:
                continue
            products = by_a.get(a)
            if products is None:
                products = by_a[a] = {}
            for j, b in row:
                p = products.get(b)
                if p is None:
                    p = products[b] = mpf_mul(a, b, prec, rnd)
                key = i, j
                old = acc.get(key)
                if old is None:
                    # mpf_add(fzero, p) is p: p is already rounded at prec, rnd.
                    acc[key] = p
                else:
                    s = sums.get((old, p))
                    if s is None:
                        s = sums[old, p] = mpf_add(old, p, prec, rnd)
                    acc[key] = s
        del rows_of_b, by_a, sums  # the memos go before the result is built
        return SparseMatrix._trusted(
            self.nrows, other.ncols, {key: v for key, v in acc.items() if v != fzero})

    def _max_abs(self):
        """(|v|, position) of the first strictly largest |v| in storage order,
        or (0, None) when there is none: the scan `abs(v) > worst` over the mpf
        entries, bit for bit, with |v| found once per distinct value."""
        prec, rnd = mp._prec_rounding
        found = {}
        for pos, m in self._d.items():
            if m not in found:
                found[m] = mpf_abs(m, prec, rnd), pos
        return _first_largest(found)

    def _diagonal_exchange(self, K, c, products):
        """`_max_abs` of M K - c K M for this M and a diagonal K, with c an
        mpf or None, evaluated entry by entry: m at (r, s) gives
        m k_s - c (k_r m) with the roundings of `@`, `scaled` and `-` (c = None
        is 1, whose product is exact).
        `products` memoises m k by raw pair across calls at one precision;
        k_r m is m k_r, since mpf_mul is commutative bit for bit."""
        prec, rnd = mp._prec_rounding
        k = [K._d.get((s, s), fzero) for s in range(K.nrows)]
        if c is not None:
            c = c._mpf_

        def times(m, x):
            p = products.get((m, x))
            if p is None:
                p = products[m, x] = mpf_mul(m, x, prec, rnd)
            return p

        found = {}
        for pos, m in self._d.items():
            r, s = pos
            key = m, k[r], k[s]
            if key not in found:
                mr = times(m, k[r])
                if c is not None:
                    mr = mpf_mul(c, mr, prec, rnd)
                found[key] = mpf_abs(mpf_sub(times(m, k[s]), mr, prec, rnd), prec, rnd), pos
        return _first_largest(found)

    def _check_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d)" % (self.nrows, self.ncols, self.nnz)


def exact_rank(rows) -> int:
    """Exact rank of a matrix given as sparse rows, {key: int | Fraction} dicts.

    Forward elimination over the rationals: each row is reduced against the
    pivot rows kept so far, in the order they were kept.  A kept row is zero
    at every earlier pivot key, so one pass clears them all; the rest is kept
    under its first nonzero key, scaled to 1 there.  The rank, the number of
    rows kept, is that of the transpose too, so columns may go in as rows.
    """
    pivots = []
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items()}
        for key, pivot in pivots:
            c = row.get(key)
            if c:
                for k, v in pivot.items():
                    row[k] = row.get(k, 0) - c * v
        row = {k: v for k, v in row.items() if v}
        if row:
            key, c = next(iter(row.items()))
            pivots.append((key, {k: v / c for k, v in row.items()}))
    return len(pivots)
