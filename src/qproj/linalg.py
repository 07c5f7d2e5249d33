"""Sparse matrices over arbitrary-precision floats, and the exact rank.

Plumbing shared by the representation modules.  A `SparseMatrix` takes and
gives mpf values but stores each nonzero entry as its raw mpmath.libmp tuple,
in a dict keyed by (row, col); that stored form is this module's own, and no
other module reads it.  Every rank decision on a matrix runs exactly through
`exact_rank`, on sparse {key: int | Fraction} rows, by fraction-free
elimination over the integers, so the integer GT columns of `bundles` are
ranked as they come, with no dense copy and no Fraction built.  The qP^1 complex of
`dolbeault` needs no elimination: each of its blocks is a scalar, so its rank
is decided by whether the sign of that block's radicand on (0, 1) is zero.

The GT matrices hold few distinct values (the E matrices of (1,1,1,1) hold
3,684 nonzeros but 103 values), so each sparse operation memoises its
arithmetic by operand value.  A memo lasts for one call, except the product
memo of `SparseMatrix._product`, which a caller may own and pass to several
products made at one precision; `gtrep.verify_relations` keeps one for each
generator pair and drops it when the pair's checks end.  The results stay
bit for bit those of the plain mpf loop, for three reasons: the libmp
functions are pure in (operands, precision, rounding), mpf_mul gives the same
bits in either operand order, and mpf_add(fzero, p) is p for a p already
rounded at that precision and rounding.  `_Memo` is the library's one memo
class, and `_check_int` its one integer-argument check; both live here, at
the bottom of the imports, so that `SparseMatrix` can check its shape too.

The scans of `gtrep.verify_relations` run here too: `_max_abs` finds a
matrix's first largest |v| with |v| taken once per distinct value, and
`_diagonal_exchange` evaluates M K - c K M from the diagonal of K once per
distinct (m, k_r, k_s), an entry whose two products are equal being exactly
zero with no subtraction.  Both give the residual and the entry of the plain
scan `abs(v) > worst` over the mpf entries.  `_rounded_root`, the root of
an exact GT radicand that `gtrep` takes, lives here because only this module
calls libmp; it gives the bits of the mpf route with no context switch.
`_rounded_q_number`, the q-integer that `dolbeault`'s cp2 rows take, lives
here for the same reason: it rounds an exact [z] once and returns it only
where the error bound of `qarith`'s term sum proves the same bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, fzero, mpf_abs, mpf_add,
                          mpf_div, mpf_gt, mpf_mul, mpf_neg, mpf_pos, mpf_sqrt, mpf_sub)

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


def _check_int(value, what) -> int:
    """`value` as an int; anything else (a float, a Fraction, a string) is a
    TypeError naming `what`, never truncated.  A bool counts as an int."""
    if not isinstance(value, int):
        raise TypeError("%s must be an integer, got %r" % (what, value))
    return int(value)


def _raw(value, what, *args):
    # The raw libmp tuple of an mpf; anything else is a TypeError naming
    # `what % args` and the value.
    raw = getattr(value, "_mpf_", None)
    if raw is None:
        raise TypeError((what + " must be an mpf, got %r") % (*args, value))
    return raw


def _first_largest(found):
    # {key: (|v|, first position)} in first-occurrence order -> the first
    # position of a strictly largest |v|.  The first key to reach the maximum
    # holds its earliest position, so this is the plain scan's answer.
    # A zero |v| never exceeds `worst`, so it is skipped before `mpf_gt`.
    worst, at = fzero, None
    for a, pos in found.values():
        if a != fzero and mpf_gt(a, worst):
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
    function's result.  ``@`` is `_product` with a fresh product memo; a
    caller that passes its own memo to `_product` shares the products across
    calls for as long as it keeps that memo.  The first product in a cell is
    stored as it is, since adding it to zero returns it unchanged.
    """

    __slots__ = ("nrows", "ncols", "_d")

    def __init__(self, nrows, ncols, entries=None):
        """`entries` is a {(i, j): mpf} dict; zero entries are dropped.  A
        shape that is not an int is a TypeError, a negative one a ValueError."""
        for n in (nrows, ncols):
            if _check_int(n, "a matrix dimension") < 0:
                raise ValueError("a matrix dimension must be non-negative, got %d" % n)
        self.nrows, self.ncols = int(nrows), int(ncols)
        d = {}
        for (i, j), v in (entries or {}).items():
            self._check_index(i, j)
            # `_raw`'s check inline: the GT build passes every E entry here.
            raw = getattr(v, "_mpf_", None)
            if raw is None:
                raise TypeError("entry (%d, %d) must be an mpf, got %r" % (i, j, v))
            if raw != fzero:
                d[(i, j)] = raw
        self._d = d

    @classmethod
    def diagonal(cls, values):
        """The square matrix with the mpf `values` on its diagonal."""
        values = [_raw(v, "entry (%d, %d)", i, i) for i, v in enumerate(values)]
        n = len(values)
        return cls._trusted(n, n, {(i, i): v for i, v in enumerate(values) if v != fzero})

    def get(self, i, j):
        """Entry (i, j) as an mpf, 0 where none is stored; IndexError outside."""
        self._check_index(i, j)
        return mp.make_mpf(self._d.get((i, j), fzero))

    def _check_index(self, i, j):
        # A bool counts as an int, as in `_check_int`.
        if not (isinstance(i, int) and isinstance(j, int)):
            raise TypeError("entry (%r, %r) must have integer indices" % (i, j))
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("entry (%d, %d) outside %dx%d" % (i, j, self.nrows, self.ncols))

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
        c = _raw(c, "the scale c")
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
        return self._product(other)

    def _product(self, other, memo=None):
        """self @ other.  `memo` maps a raw value a to {b: a*b}; it defaults to
        a fresh one, and a caller that passes one memo to several calls must
        make them all at one precision and rounding.  Each new product is
        stored under (a, b) and (b, a), since mpf_mul gives the same bits in
        either operand order.  Only a sum can cancel to zero (a product of
        nonzero values is nonzero), so the result is filtered for zeros only
        when one is there; it keeps the order in which its cells were
        first reached."""
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        prec, rnd = mp._prec_rounding
        rows_of_b = {}
        for (k, j), b in other._d.items():
            rows_of_b.setdefault(k, []).append((j, b))
        if memo is None:
            memo = {}
        sums = {}
        acc = {}
        # The dict methods of the inner loop, bound once per call.
        row_of, products_of, sum_of, acc_at = rows_of_b.get, memo.get, sums.get, acc.get
        for (i, k), a in self._d.items():
            row = row_of(k)
            if row is None:
                continue
            products = products_of(a)
            if products is None:
                products = memo[a] = {}
            for j, b in row:
                p = products.get(b)
                if p is None:
                    p = products[b] = mpf_mul(a, b, prec, rnd)
                    back = products_of(b)
                    if back is None:
                        back = memo[b] = {}
                    back[a] = p
                key = i, j
                old = acc_at(key)
                if old is None:
                    # mpf_add(fzero, p) is p: p is already rounded at prec, rnd.
                    acc[key] = p
                else:
                    s = sum_of((old, p))
                    if s is None:
                        s = sums[old, p] = mpf_add(old, p, prec, rnd)
                    acc[key] = s
        # A fresh memo goes before the result is built.
        del rows_of_b, memo, sums, row_of, products_of, sum_of
        if fzero in acc.values():
            acc = {key: v for key, v in acc.items() if v != fzero}
        return SparseMatrix._trusted(self.nrows, other.ncols, acc)

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
        is 1, whose product is exact).  A K of another size than this square
        M, or with an off-diagonal entry, is a ValueError.
        `products` memoises m k by raw pair across calls at one precision;
        k_r m is m k_r, since mpf_mul is commutative bit for bit."""
        prec, rnd = mp._prec_rounding
        n = self.nrows
        if (self.ncols, K.nrows, K.ncols) != (n, n, n):
            raise ValueError("K is %dx%d, M %dx%d: need both square of one size"
                             % (K.nrows, K.ncols, n, self.ncols))
        k = [fzero] * n
        for (r, s), v in K._d.items():
            if r != s:
                raise ValueError("K is not diagonal: entry at (%d, %d)" % (r, s))
            k[r] = v
        if c is not None:
            c = c._mpf_
        product = products.get
        found = {}
        for pos, m in self._d.items():
            r, s = pos
            kr, ks = k[r], k[s]
            key = m, kr, ks
            if key not in found:
                mr = product((m, kr))
                if mr is None:
                    mr = products[m, kr] = mpf_mul(m, kr, prec, rnd)
                ms = product((m, ks))
                if ms is None:
                    ms = products[m, ks] = mpf_mul(m, ks, prec, rnd)
                if c is not None:
                    mr = mpf_mul(c, mr, prec, rnd)
                # Equal operands cancel exactly: x - x is fzero in libmp.
                found[key] = (fzero if ms == mr
                              else mpf_abs(mpf_sub(ms, mr, prec, rnd), prec, rnd)), pos
        return _first_largest(found)

    def _check_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d)" % (self.nrows, self.ncols, self.nnz)


def _rounded_root(radicand, precision):
    """The root of a positive Fraction as an mpf: the radicand rounded at
    precision + 10 digits, then its root at precision, with the libmp calls
    and roundings of `mp.sqrt(+(mp.mpf(num) / den))` under those two
    `mp.workdps`, but with no context switch."""
    rnd = mp._prec_rounding[1]
    wide, prec = dps_to_prec(precision + 10), dps_to_prec(precision)
    value = mpf_div(mpf_pos(from_int(radicand.numerator), wide, rnd),
                    from_int(radicand.denominator), wide, rnd)
    return mp.make_mpf(mpf_sqrt(mpf_pos(value, prec, rnd), prec, rnd))


def _rounded_q_number(num, den, z, precision):
    """[z] = num/den, z >= 1, rounded once at `precision` digits, when that
    is provably what `qarith._evaluator` gives; None when it may not be.

    The evaluator adds the z terms q^e, e = 1-z, 3-z, ..., z-1, in order at
    w = dps_to_prec(precision + 10) bits and rounds the sum S at precision.
    With u = 2^-w, each rounding to nearest (mpf_div, mpf_add, normalize)
    is off by at most u relatively.  In mpmath 1.3.0, q = a/b comes from one
    mpf_div (3u if a or b is wider than w bits); mpf_pow_int(q, e) raises
    the mantissa exactly and rounds once when its bits times e are under
    1000, and otherwise powers at w + 4 bitcount(e) + 4 bits, whose
    truncations add far less than u, then rounds; e < 0 powers -e at w + 5
    bits, then mpf_div(1, .) rounds again; the coefficient 1 is exact.  So
    the term q^e is within (|e| + 2) u <= (z + 1) u of its value, the z - 1
    additions of positive terms add at most (z - 1) u, and |S - [z]| <=
    (2z + 2) u [z] to first order, or (4z - 2) u when a or b is wider than
    w bits.  The slack
    s = (4z + 8) u covers both and the second-order terms.  Rounding is
    monotone, so when [z](1 - s) and [z](1 + s) round to the same mpf, so do
    S and [z] itself.
    """
    rnd = mp._prec_rounding[1]
    wide, prec = dps_to_prec(precision + 10), dps_to_prec(precision)
    one, slack, den = 1 << wide, 4 * z + 8, from_int(den)
    low, high = (mpf_div(from_man_exp(num * (one + sign * slack), -wide), den, prec, rnd)
                 for sign in (-1, 1))
    return mp.make_mpf(low) if low == high else None


def exact_rank(rows) -> int:
    """Exact rank of a matrix given as sparse rows, {key: int | Fraction} dicts.

    Fraction-free forward elimination over the integers.  A row holding a
    Fraction is scaled to integers once, by the lcm of its denominators; a
    value that is neither an int (a bool counts) nor a Fraction is a
    TypeError naming its key.  Each row is reduced against the pivot rows
    kept so far, in the order they were kept: where it holds c at the key of
    a pivot row holding p there, row <- (p/g) row - (c/g) pivot with
    g = gcd(p, c), and the row is divided by its content, the gcd of its
    entries.  A kept row is zero at every earlier pivot key, so one pass
    clears them all; the rest is kept under its first nonzero key.  Scaling
    a row by a nonzero integer keeps the rank, the number of rows kept, and
    that is the rank of the transpose too, so columns may go in as rows.
    """
    pivots = []
    for row in rows:
        row = _integer_row(row)
        for key, pivot in pivots:
            c = row.get(key)
            if c:
                p = pivot[key]
                g = gcd(p, c)
                p, c = p // g, c // g
                row = {k: p * v for k, v in row.items()}
                for k, v in pivot.items():
                    row[k] = row.get(k, 0) - c * v
                row = _primitive(row)
        if row:
            pivots.append((next(iter(row)), row))
    return len(pivots)


def _integer_row(row):
    # An `exact_rank` row in ints, times the lcm of its denominators when it
    # holds a Fraction (scale None when it holds none), then made `_primitive`.
    scale = None
    for key, v in row.items():
        if type(v) is not int:
            if isinstance(v, Fraction):
                scale = lcm(scale or 1, v.denominator)
            elif not isinstance(v, int):
                raise TypeError("exact_rank takes int or Fraction values, got %r at key %r"
                                % (v, key))
    if scale is not None:
        row = {k: v.numerator * (scale // v.denominator) for k, v in row.items()}
    return _primitive(row)


def _primitive(row):
    # An integer row without its zeros, divided by its content.  A row with no
    # zero and content 1 comes back as it is: `exact_rank` writes only into
    # the copy each reduction makes, never into a row it was given.
    g = gcd(*row.values())
    return row if g == 1 and all(row.values()) else {k: v // g for k, v in row.items() if v}
