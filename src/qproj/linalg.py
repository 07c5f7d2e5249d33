"""Sparse matrices over arbitrary-precision floats, and the exact rank.

Plumbing shared by the representation modules.  Matrices are immutable-ish
dicts keyed by (row, col); all scalar entries are mpmath floats created under
an explicit working precision.  Every rank decision in the library runs on
exact rationals through `exact_rank`, on sparse {key: Fraction} rows, so the
exact GT columns are ranked as they come, with no dense copy.

The GT matrices hold few distinct values (the E matrices of (1,1,1,1) hold
3,684 nonzeros but 103 values), so each sparse operation memoises its mpf
arithmetic by operand value for the length of that one call.  The results
stay bit for bit those of the plain loop, for two reasons: the mpf functions
are pure in (operands, precision, rounding), and mpf_add(fzero, p) is p for a
p already rounded at that precision and rounding.  `_Memo` is the library's
one per-call memo: the GT build, the relation check, the qP^1 complex (its
q-integers) and the cp2 identities use it too.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_neg

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


class SparseMatrix:
    """A (nrows x ncols) sparse matrix over mpf entries.

    ``+``, ``-`` and ``@`` work on the raw mpmath.libmp tuples with the same
    calls, precision, rounding and order as the mpf operators would, so their
    results are the mpf ones bit for bit.  Within one call of ``@``, ``+``,
    ``-`` or `scaled`, each distinct operand pair is multiplied, added or
    scaled once: a memo by value cannot change a pure function's result.  The
    first product in a cell of ``@`` is stored as it is, since adding it to
    zero returns it unchanged.
    """

    __slots__ = ("nrows", "ncols", "_d")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        d = {}
        if entries:
            items = entries.items() if hasattr(entries, "items") else entries
            for (i, j), v in items:
                if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                    raise IndexError("entry (%d, %d) outside %dx%d" % (i, j, nrows, ncols))
                if v:
                    d[(i, j)] = v
        self._d = d

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        n = len(values)
        return cls(n, n, {(i, i): v for i, v in enumerate(values) if v})

    def get(self, i, j):
        return self._d.get((i, j), mp.mpf(0))

    def entries(self):
        return self._d.items()

    @property
    def nnz(self):
        return len(self._d)

    @classmethod
    def _trusted(cls, nrows, ncols, d):
        # Wrap a dict of in-bounds nonzero entries without re-validating it.
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._d = nrows, ncols, d
        return m

    def transpose(self):
        return SparseMatrix._trusted(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self._d.items()}
        )

    def scaled(self, c):
        scale = _Memo(lambda v: c * mp.make_mpf(v))
        return SparseMatrix(
            self.nrows, self.ncols, {k: scale[v._mpf_] for k, v in self._d.items()}
        )

    def _combine(self, other, negate):
        # self + other (or self - other, negating each entry of other at the
        # working precision first), keeping the insertion order of the dict.
        self._check_shape(other)
        prec, rnd = mp._prec_rounding

        def add(pair):
            # The stored sum as an mpf, or None where it is zero.
            old, v = pair
            nv = mpf_add(old, mpf_neg(v, prec, rnd) if negate else v, prec, rnd)
            return None if nv == fzero else mp.make_mpf(nv)

        sums = _Memo(add)
        d = dict(self._d)
        for k, v in other._d.items():
            old = d.get(k)
            nv = sums[fzero if old is None else old._mpf_, v._mpf_]
            if nv is not None:
                d[k] = nv
            elif old is not None:
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
        for (k, j), v in other._d.items():
            rows_of_b.setdefault(k, []).append((j, v._mpf_))
        products = _Memo(lambda ab: mpf_mul(ab[0], ab[1], prec, rnd))
        sums = _Memo(lambda st: mpf_add(st[0], st[1], prec, rnd))
        acc = {}
        for (i, k), va in self._d.items():
            a = va._mpf_
            for j, b in rows_of_b.get(k, ()):
                p = products[a, b]
                key = (i, j)
                old = acc.get(key)
                # mpf_add(fzero, p) is p: p is already rounded at prec, rnd.
                acc[key] = p if old is None else sums[old, p]
        make = _Memo(mp.make_mpf)
        return SparseMatrix._trusted(
            self.nrows, other.ncols, {k: make[v] for k, v in acc.items() if v != fzero})

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
