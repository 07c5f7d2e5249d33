"""Sparse matrices over arbitrary-precision floats, and the exact rank.

Plumbing shared by the representation modules.  Matrices are immutable-ish
dicts keyed by (row, col); all scalar entries are mpmath floats created under
an explicit working precision.  Every rank decision in the library runs on
exact rationals through `exact_rank`.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_neg

__all__ = ["SparseMatrix", "exact_rank"]


class SparseMatrix:
    """A (nrows x ncols) sparse matrix over mpf entries.

    ``+``, ``-`` and ``@`` work on the raw mpmath.libmp tuples with the same
    calls, precision, rounding and order as the mpf operators would, so their
    results are the mpf ones bit for bit.
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
        return SparseMatrix(
            self.nrows, self.ncols, {k: c * v for k, v in self._d.items()}
        )

    def _combine(self, other, negate):
        # self + other (or self - other, negating each entry of other at the
        # working precision first), keeping the insertion order of the dict.
        self._check_shape(other)
        prec, rnd = mp._prec_rounding
        make = mp.make_mpf
        d = dict(self._d)
        for k, v in other._d.items():
            v = mpf_neg(v._mpf_, prec, rnd) if negate else v._mpf_
            old = d.get(k)
            nv = mpf_add(fzero if old is None else old._mpf_, v, prec, rnd)
            if nv != fzero:
                d[k] = make(nv)
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
        acc = {}
        for (i, k), va in self._d.items():
            a = va._mpf_
            for j, b in rows_of_b.get(k, ()):
                key = (i, j)
                acc[key] = mpf_add(acc.get(key, fzero), mpf_mul(a, b, prec, rnd), prec, rnd)
        make = mp.make_mpf
        return SparseMatrix._trusted(
            self.nrows, other.ncols, {k: make(v) for k, v in acc.items() if v != fzero})

    def _check_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d)" % (self.nrows, self.ncols, self.nnz)


def exact_rank(rows) -> int:
    """Rank of a matrix given as rows of exact numbers (ints or Fractions).

    Forward elimination over the rationals; nothing is rounded, so the rank
    is exact.
    """
    A = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((i for i in range(rank, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        top = A[rank]
        for i in range(rank + 1, len(A)):
            if A[i][col]:
                f = A[i][col] / top[col]
                A[i] = [a - f * b for a, b in zip(A[i], top)]
        rank += 1
    return rank
