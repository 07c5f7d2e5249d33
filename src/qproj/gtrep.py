"""Gelfand-Tsetlin bases and matrices for irreducible U_q(su(l+1)) modules.

A finite dimensional irreducible *-representation is labelled by a highest
weight n = (n_1, ..., n_l) of non-negative integers.  Its basis consists of
triangular Gelfand-Tsetlin arrays m_{i,j} (1 <= i <= j <= l+1, row j holding
j entries) that interlace row by row,

    m_{i,j+1} >= m_{i,j} >= m_{i+1,j+1},

whose top row encodes the weight through n_i = m_{i,l+1} - m_{i+1,l+1}.  The
top row is only fixed up to an additive constant; we normalize the gauge by
m_{l+1,l+1} = 0 so enumeration is reproducible.

Generator actions on the basis:

    K_k |m> = q^(a_k/2) |m>,
    a_k = 2 sum_{i<=k} m_{i,k} - sum_{i<=k-1} m_{i,k-1} - sum_{i<=k+1} m_{i,k+1},

    E_k |m> = sum_{j=1..k} A^j_k |m^j_k>,

where |m^j_k> raises entry (j, k) by one and, with l_{i,j} = m_{i,j} - i,

    (A^j_k)^2 = - prod_{i<=k+1}[l_{i,k+1} - l_{j,k}] prod_{i<=k-1}[l_{i,k-1} - l_{j,k} - 1]
                / prod_{i != j}[l_{i,k} - l_{j,k}][l_{i,k} - l_{j,k} - 1],

the positive square root taken.  The amplitudes are transcribed once, as the
rational a_j and b_j of the non-normalized GT basis (`exact_column`); the
radicand above is a_j(m) b_j(m^j_k), computed exactly and only then rooted.
The GT basis is orthonormal and E_k^* = F_k, so at real q the F matrices are
the transposes of the E matrices; that is how they are built here.  The tests
cross-check both raising and lowering amplitudes against independently
expanded longhand radicands.

Matrix construction is independent column by column (each column only reads
one tableau), and built modules are immutable, so they are safe to share.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple

from mpmath import mp

from .linalg import SparseMatrix, _Memo, _check_int, _rounded_root
from .qarith import (
    DEFAULT_PRECISION,
    NegativeRadicandError,
    _q_numbers,
    _ratio,
    check_precision,
    parse_q,
)

DEFAULT_DIM_CAP = 20000
# The relation check forms about 5 l^2 checks, even on the trivial module:
# at l = 100 that takes about 1 s.
MAX_RELATION_ELL = 100

__all__ = [
    "GTTableau",
    "validate_weight",
    "top_row",
    "enumerate_tableaux",
    "raise_coeff",
    "exact_column",
    "weyl_dim",
    "IrrepModule",
    "build_irrep",
    "verify_relations",
    "RelationReport",
    "export_matrix",
    "DimensionCapError",
    "MAX_RELATION_ELL",
]


class DimensionCapError(ValueError):
    """A requested module exceeds the configured dimension cap."""


def _relation_tol(tol, precision, ell):
    """The relation tolerance as given and as an mpf at `precision`: None
    means 1e-40, raised to 1e-(2*precision//3) below 60 digits to stay above
    the rounding floor.  A NaN, infinite or negative one is a ValueError, and
    so, checked first, is a rank `ell` above MAX_RELATION_ELL."""
    if ell > MAX_RELATION_ELL:
        raise ValueError("the relation check takes ell at most %d, got %d"
                         % (MAX_RELATION_ELL, ell))
    given = "1e-%d" % min(40, 2 * precision // 3) if tol is None else tol
    with mp.workdps(precision):
        value = mp.mpf(given)
    if not mp.isfinite(value) or value < 0:
        raise ValueError("relation tolerance must be finite and non-negative, got %s"
                         % (given,))
    return given, value


def validate_weight(weight) -> tuple:
    weight = tuple(_check_int(n, "a highest weight component") for n in weight)
    if not weight:
        raise ValueError("a highest weight needs at least one component")
    if any(n < 0 for n in weight):
        raise ValueError("highest weight components must be non-negative: %r" % (weight,))
    return weight


def top_row(weight) -> tuple:
    """Normalized top row (m_{l+1,l+1} = 0) for a highest weight."""
    weight = validate_weight(weight)
    return tuple(sum(weight[i:]) for i in range(len(weight))) + (0,)


def _interlace(upper, lower) -> bool:
    """m_{i,j+1} >= m_{i,j} >= m_{i+1,j+1} for row `lower` under row `upper`."""
    return all(upper[i] >= x >= upper[i + 1] for i, x in enumerate(lower))


class GTTableau:
    """A triangular Gelfand-Tsetlin array, stored top row first.

    ``rows[0]`` is row l+1 (l+1 entries) down to ``rows[-1]`` = row 1 (one
    entry).  Instances are immutable; ``flat()`` is the canonical sort key.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(_check_int(x, "a tableau entry") for x in r) for r in rows)
        size = len(rows[0]) if rows else 0
        if [len(r) for r in rows] != list(range(size, 0, -1)):
            raise ValueError("rows must shrink from l+1 entries down to 1")
        self.rows = rows

    @property
    def size(self) -> int:
        """Number of entries in the top row, l+1."""
        return len(self.rows[0])

    @property
    def ell(self) -> int:
        return self.size - 1

    def row(self, j) -> tuple:
        """Row j (1-based, j entries)."""
        if not 1 <= j <= len(self.rows):
            raise ValueError("row j must lie in 1..%d, got %d" % (len(self.rows), j))
        return self.rows[-j]

    def entry(self, i, j) -> int:
        """m_{i,j}, 1-based."""
        if not 1 <= i <= j:
            raise ValueError("entry i of row %d must lie in 1..%d, got %d" % (j, j, i))
        return self.row(j)[i - 1]

    def l(self, i, j) -> int:
        """Shifted entry l_{i,j} = m_{i,j} - i."""
        return self.entry(i, j) - i

    def flat(self) -> tuple:
        return tuple(itertools.chain.from_iterable(self.rows))

    def interlaces(self) -> bool:
        return all(map(_interlace, self.rows, self.rows[1:]))

    def a(self, k) -> int:
        """The K_k weight exponent a_k."""
        if not 1 <= k <= self.ell:
            raise ValueError("k must lie in 1..%d, got %d" % (self.ell, k))
        upper, row, lower = _window(self, k)
        return 2 * sum(row) - sum(upper) - sum(lower)

    def _moved(self, i, k, step):
        # Entry (i, k) moved by `step` in an interlacing tableau.  Only its
        # bounds can break: m_{i,k+1}, m_{i-1,k-1} over a raise, m_{i+1,k+1},
        # m_{i,k-1} under a lowering (none above row l+1 or below row 1).
        rows = self.rows
        pos, p = self.size - k, i - 1
        x = rows[pos][p] + step
        if step > 0:
            broken = pos and x > rows[pos - 1][p] or p and x > rows[pos + 1][p - 1]
        else:
            broken = pos and x < rows[pos - 1][p + 1] or p < k - 1 and x < rows[pos + 1][p]
        if broken:
            return None
        row = rows[pos][:p] + (x,) + rows[pos][i:]
        t = GTTableau.__new__(GTTableau)
        t.rows = rows[:pos] + (row,) + rows[pos + 1:]
        return t

    def raised(self, i, k):
        """Entry (i, k) of this interlacing tableau increased by one, or None
        if interlacing breaks; ValueError outside 1 <= i <= k <= l+1."""
        self.entry(i, k)  # the range check
        return self._moved(i, k, 1)

    def lowered(self, i, k):
        """Entry (i, k) of this interlacing tableau decreased by one, or None
        if interlacing breaks; ValueError outside 1 <= i <= k <= l+1."""
        self.entry(i, k)  # the range check
        return self._moved(i, k, -1)

    def __eq__(self, other):
        return isinstance(other, GTTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "GTTableau(%s)" % (list(map(list, self.rows)),)


def enumerate_tableaux(weight) -> list:
    """All interlacing tableaux for a weight, lexicographic in flat() order.

    The top row is the normalized one; lower rows range over every choice
    allowed by interlacing.  A weight of dimension above DEFAULT_DIM_CAP is
    a DimensionCapError before any tableau is built.
    """
    _capped_weyl_dim(weight, DEFAULT_DIM_CAP)
    return _tableaux(top_row(weight))


def _tableaux(top, step=None) -> list:
    """The interlacing tableaux under the row `top`, in flat() order.

    With `step`, a lower row j is kept only when it sums to j * step, so the
    descent never enters a subtree that breaks this row-sum progression.
    Rows come from a product of ascending ranges, descended depth first off
    an explicit stack (children pushed in reverse, so the first is taken
    first), so the list is already sorted and no row count can reach the
    recursion limit.
    """
    out = []
    stack = [[top]]
    while stack:
        rows = stack.pop()
        upper = rows[-1]
        j = len(upper) - 1
        if not j:  # rows drawn from interlacing int ranges need no re-check
            out.append(GTTableau.__new__(GTTableau))
            out[-1].rows = tuple(rows)
            continue
        choices = [range(upper[i + 1], upper[i] + 1) for i in range(j)]
        stack.extend(rows + [lower] for lower in reversed(list(itertools.product(*choices)))
                     if step is None or sum(lower) == j * step)
    return out


def _check_dim_cap(dim_cap) -> int:
    # A cap below 1 would reject every module as if it were above a real cap.
    dim_cap = _check_int(dim_cap, "the dimension cap dim_cap")
    if dim_cap < 1:
        raise ValueError("dim_cap must be at least 1, got %d" % dim_cap)
    return dim_cap


def _window(tableau, k):
    # Rows k+1, k and k-1 of a tableau; row 0 is empty.  Every caller has
    # checked 1 <= k <= l, so the rows are read without `row`'s range check.
    rows = tableau.rows
    return rows[-k - 1], rows[-k], rows[1 - k] if k > 1 else ()


def _amplitude(op, j, row, other, qn):
    """a_j (op "E", `other` row k+1) or b_j (op "F", `other` row k-1) of
    entry j of row k = `row`, exactly; see `exact_column`.

    Only differences of entries enter, so rows shifted by one constant give
    the same value.  `qn` maps z to (N_z, e_z) with [z] = N_z / (ab)^e_z;
    the result (num, den, e) is num / (den (ab)^e), in the integers of
    `_q_numbers(qf)`: `_ratio` makes it one Fraction, and `bundles` scales a
    column of them to integers.  `dolbeault` maps z to
    (q_int(z), 0): at k = 1 nothing is divided, so num is the QLaurent value.
    """
    ljk, den = row[j - 1] - j, 1
    num, e = qn[1]
    for i, m in enumerate(other, 1):
        n, d = qn[m - i - ljk]
        num, e = num * n, e + d
    for i, m in enumerate(row, 1):
        if i != j:
            n, d = qn[m - i - ljk]
            den, e = den * n, e - d
    return -num if op == "E" else num, den, e


def _radicand(k, j, window, qn):
    # (A^j_k)^2 for a valid raise of entry j of row k, from the rows k+1, k,
    # k-1 of `window`, exactly, with q already checked.
    upper, row, lower = window
    raised = row[:j - 1] + (row[j - 1] + 1,) + row[j:]
    n, d, e = _amplitude("E", j, row, upper, qn)
    n2, d2, e2 = _amplitude("F", j, raised, lower, qn)
    radicand = _ratio(qn, n * n2, d * d2, e + e2)
    if radicand < 0:
        raise NegativeRadicandError(
            "radicand of A^%d_%d is negative: %s" % (j, k, radicand))
    return radicand


def raise_coeff(k, j, tableau, q, precision: int = DEFAULT_PRECISION):
    """The coefficient A^j_k of |m^j_k> in E_k |m>, as an mpf.

    Returns exact zero when raising entry (j, k) breaks interlacing.  The
    radicand (A^j_k)^2 = a_j(m) b_j(m^j_k) is exact (see `exact_column`) and
    is only rounded, at precision + 10 digits, to take its root; a negative
    radicand raises NegativeRadicandError since it can only come from a
    transcription bug.
    """
    qf = parse_q(q)
    precision = check_precision(precision)
    if not 1 <= j <= k <= tableau.ell:
        raise ValueError("need 1 <= j <= k <= %d, got j=%d k=%d" % (tableau.ell, j, k))
    if tableau._moved(j, k, 1) is None:
        return mp.mpf(0)
    return _rounded_root(_radicand(k, j, _window(tableau, k), _q_numbers(qf)), precision)


def exact_column(op, k, tableau, q) -> dict:
    """E_k (op "E") or F_k (op "F") on a tableau in the non-normalized GT
    basis, a diagonal rescaling of the orthonormal one (so every rank is the
    same) whose amplitudes are rational at rational q: target -> Fraction,

        raising   a_j = -prod_{i<=k+1}[l_{i,k+1} - l_{j,k}] / prod_{i!=j}[l_{i,k} - l_{j,k}],
        lowering  b_j =  prod_{i<=k-1}[l_{i,k-1} - l_{j,k}] / prod_{i!=j}[l_{i,k} - l_{j,k}].

    a_j(m) b_j(m^j_k) = (A^j_k)^2 is the radicand whose root `raise_coeff`
    takes, so this is the one transcription of the GT amplitudes.  Each
    Fraction is the `_ratio` of the integers `_exact_column` assembles.
    """
    if op not in ("E", "F"):
        raise ValueError("op must be E or F, got %r" % (op,))
    if not 1 <= k <= tableau.ell:
        raise ValueError("k must lie in 1..%d, got %d" % (tableau.ell, k))
    qn = _q_numbers(parse_q(q))
    return {t: _ratio(qn, *c) for t, c in _exact_column(op, k, tableau, qn)}


def _exact_column(op, k, tableau, qn):
    # `exact_column` with op and k checked and [z] read from the table `qn`,
    # in integers: (target, the (num, den, e) of `_amplitude`) pairs, one per
    # target, zeros dropped, so a caller keys the targets as it needs.
    upper, row, lower = _window(tableau, k)
    step, other = (1, upper) if op == "E" else (-1, lower)
    return [(target, c) for j in range(1, k + 1)
            if (target := tableau._moved(j, k, step)) is not None
            and (c := _amplitude(op, j, row, other, qn))[0]]


def weyl_dim(weight) -> int:
    """Weyl dimension formula for su(l+1); independent of tableau counting.
    The factors common to prod (m_i - m_j + j - i) and prod (j - i), i < j,
    cancel by multiplicity; the rest are two integer products, divided once."""
    return _capped_weyl_dim(weight, None)


def _capped_weyl_dim(weight, dim_cap, what="weight"):
    """weyl_dim(weight), or a DimensionCapError above dim_cap (None: no cap).
    A float sum of logarithms, less a margin far above its rounding error,
    bounds log2 of the dimension from below; a weight that bound puts above
    the cap is rejected before any exact product is formed."""
    lam = top_row(weight)
    pairs = list(itertools.combinations(range(len(lam)), 2))
    exps = Counter(lam[i] - lam[j] + j - i for i, j in pairs)
    exps.subtract(Counter(j - i for i, j in pairs))  # below zero: in the divisor
    if dim_cap is not None:
        logs = [c * math.log2(f) for f, c in exps.items()]
        low = math.floor(math.fsum(logs) - 1 - 1e-9 * math.fsum(map(abs, logs)))
        if low > math.log2(dim_cap):  # so 2^low > dim_cap
            raise DimensionCapError("%s %s has dimension at least 2^%d, above the cap %d"
                                    % (what, weight, low, dim_cap))
    num, den = math.prod((+exps).elements()), math.prod((-exps).elements())
    d, r = divmod(num, den)
    if r:
        raise ArithmeticError("Weyl product %d of weight %s is not divisible by %d"
                              % (num, weight, den))
    if dim_cap is not None and d > dim_cap:
        raise DimensionCapError("%s %s has dimension %d, above the cap %d"
                                % (what, weight, d, dim_cap))
    return d


class IrrepModule(namedtuple("IrrepModule", "weight basis q precision K E F")):
    """A built irreducible module: the ordered GT basis and the SparseMatrix
    ``K[k]``, ``E[k]``, ``F[k]`` (k = 1..l) over mpf, F[k] the transpose of
    E[k].  `build_irrep` makes it once, after every matrix exists."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.basis)

    @property
    def ell(self):
        return len(self.weight)

    def __repr__(self):
        return "IrrepModule(n=%s, dim=%d, q=%s)" % (self.weight, self.dim, self.q)


def build_irrep(weight, q, precision: int = DEFAULT_PRECISION,
                dim_cap: int = DEFAULT_DIM_CAP) -> IrrepModule:
    """Enumerate the GT basis and populate all K/E/F matrices, read off the raw
    rows: a_k from the row sums, and A^j_k where m_{j,k} + 1 stays within
    m_{j,k+1} and m_{j-1,k-1}, memoised by the window shifted by m_{j,k}.
    Windows share radicands, so each distinct exact radicand is rooted once."""
    dim_cap = _check_dim_cap(dim_cap)
    weight = validate_weight(weight)
    qf = parse_q(q)
    precision = check_precision(precision)
    expected = _capped_weyl_dim(weight, dim_cap)
    basis = _tableaux(top_row(weight))
    if len(basis) != expected:
        raise ArithmeticError("weight %s has %d tableaux but Weyl dimension %d"
                              % (weight, len(basis), expected))
    index = {t.rows: i for i, t in enumerate(basis)}
    qn = _q_numbers(qf)
    roots = _Memo(lambda radicand: _rounded_root(radicand, precision))
    values = _Memo(lambda key: roots[_radicand(*key, qn)])
    size, dim = len(weight) + 1, len(basis)
    sums = [[*map(sum, t.rows), 0] for t in basis]
    K, E = {}, {}
    with mp.workdps(precision):
        qs = mp.sqrt(mp.mpf(qf.numerator) / mp.mpf(qf.denominator))
        powers = _Memo(lambda a: qs ** a)  # one power per distinct exponent
        for k in range(1, size):
            pos = size - k  # row k is rows[pos]
            K[k] = SparseMatrix.diagonal([powers[2 * s[pos] - s[pos - 1] - s[pos + 1]]
                                          for s in sums])
            entries = {}
            for col, t in enumerate(basis):
                rows = t.rows
                upper, row, lower = rows[pos - 1], rows[pos], rows[pos + 1] if k > 1 else ()
                for p, x in enumerate(row):
                    if x < upper[p] and (not p or x < lower[p - 1]):
                        sub = x.__rsub__  # y -> y - x
                        c = values[k, p + 1, (tuple(map(sub, upper)), tuple(map(sub, row)),
                                              tuple(map(sub, lower)))]
                        if c:
                            raised = row[:p] + (x + 1,) + row[p + 1:]
                            entries[index[rows[:pos] + (raised,) + rows[pos + 1:]], col] = c
            E[k] = SparseMatrix(dim, dim, entries)
        F = {k: M.transpose() for k, M in E.items()}
    return IrrepModule(weight, basis, qf, precision, K, E, F)


RelationCheck = namedtuple("RelationCheck", "name residual entry")

RelationReport = namedtuple("RelationReport", "checks tolerance ok")


def verify_relations(mod: IrrepModule, tol=None) -> RelationReport:
    """Check every defining relation of U_q(su(l+1)) on a built module.

    Covered: K commutativity, the three E-K exchange cases, E-F brackets
    against (K^2 - K^-2)/(q - q^-1), E-E commutation at distance > 1, Serre
    relations at distance 1, and the transposed F counterparts of all of the
    above.  The report holds one RelationCheck per relation: its name, its
    max-entry residual and the (row, col) of the first largest entry in
    storage order (None for a zero matrix); ok says whether every residual is
    within the tolerance, kept as an mpf.  The tolerance defaults to
    1e-min(40, 2*precision//3); a NaN, infinite or negative one is a
    ValueError.  A K with an off-diagonal entry is a ValueError too, and so
    is a module of rank above MAX_RELATION_ELL, before any product.

    Each residual is bit for bit that of the plain matrix algebra, with
    fewer products.  M K_j - c K_j M (M = E_i, F_i or K_i) is
    `M._diagonal_exchange(K_j, c, products)`, which reads K_j's diagonal and
    evaluates each entry m at (r, s) as m k_s - c (k_r m), with the roundings
    of `@`, `scaled` and `-` (c = None is 1, exact), once per value; the m k
    products are shared by the exchanges and dropped before the brackets.
    Every other residual is the `SparseMatrix._max_abs` scan of its matrix.
    Only `linalg` reads the stored entries.  The bracket's K side is
    one diagonal, one value per weight exponent.

    The products are formed pair by pair, each unordered generator pair
    {i <= j} once, i ascending, then j: the brackets (i, j) and (j, i), then
    for E and for F the far or Serre checks of i < j, which share M_i M_j and
    M_j M_i; M_i M_i is formed once per i, where first needed, and dropped
    after its last use.  Every product of a pair goes through one
    `SparseMatrix._product` memo, dropped when the pair ends: F = E^T and
    mpf_mul gives the same bits in either operand order, so E_j F_i, F_i E_j
    and all the F products reuse the multiplications of the E ones.  The
    report lists the K and exchange checks, then the brackets by (i, j), then
    the far and Serre checks by (i, j, E/F).
    """
    _given, tol = _relation_tol(tol, mod.precision, mod.ell)
    with mp.workdps(mod.precision):
        qv = mp.mpf(mod.q.numerator) / mp.mpf(mod.q.denominator)
        qs = mp.sqrt(qv)
        gens = range(1, mod.ell + 1)
        K, E, F = mod.K, mod.E, mod.F
        checks = []
        products = {}  # m k by raw pair, shared by the exchanges below
        for i in gens:
            for j in gens[i:]:
                checks.append(RelationCheck("K%dK%d-K%dK%d" % (i, j, j, i),
                                            *K[i]._diagonal_exchange(K[j], None, products)))

        # Each E relation and its F twin: the generator, and the scalar c of
        # K_j X_i, with its name, at |i - j| = 0 and 1 (c = 1 farther out).
        twins = (("E", E, {0: (1 / qv, "q^-1"), 1: (qs, "q^(1/2)")}),
                 ("F", F, {0: (qv, "q"), 1: (1 / qs, "q^(-1/2)")}))
        for i in gens:
            for j in gens:
                for X, M, scalars in twins:
                    c, c_name = scalars.get(abs(i - j), (None, ""))
                    checks.append(RelationCheck(
                        "%s%dK%d-%sK%d%s%d" % (X, i, j, c_name, j, X, i),
                        *M[i]._diagonal_exchange(K[j], c, products)))
        del products

        # (K_i^2 - K_i^-2)/(q - q^-1) at the entries q^(a/2) of K_i, per a.
        scale = 1 / (qv - 1 / qv)
        sides = _Memo(lambda a: scale * (qs ** a * qs ** a - qs ** -a * qs ** -a))
        serre = qv + 1 / qv
        squares, brackets, pairs = {}, {}, {}
        for i in gens:
            for j in gens[i - 1:]:
                memo = {}  # a -> {b: a*b}, shared by this pair's products only
                for a, b in sorted({(i, j), (j, i)}):
                    R = E[a]._product(F[b], memo) - F[b]._product(E[a], memo)
                    name = "E%dF%d-F%dE%d" % (a, b, b, a)
                    if a == b:
                        R = R - SparseMatrix.diagonal([sides[t.a(a)] for t in mod.basis])
                        name += "-(K%d^2-K%d^-2)/(q-q^-1)" % (a, a)
                    brackets[a, b] = RelationCheck(name, *R._max_abs())
                for X, M, _scalars in twins if i < j else ():
                    ij, ji = M[i]._product(M[j], memo), M[j]._product(M[i], memo)
                    for a, b, ab, ba in ((i, j, ij, ji), (j, i, ji, ij)):
                        if j - i > 1:
                            name, R = "%s%d%s%d-%s%d%s%d" % (X, a, X, b, X, b, X, a), ab - ba
                        else:
                            name = "serre(%s%d,%s%d)" % (X, a, X, b)
                            if (X, a) not in squares:
                                squares[X, a] = M[a]._product(M[a], memo)
                            R = (squares[X, a]._product(M[b], memo)
                                 - ab._product(M[a], memo).scaled(serre)
                                 + ba._product(M[a], memo))
                            if a < b:  # the last use of M_a M_a
                                del squares[X, a]
                        pairs[a, b, X] = RelationCheck(name, *R._max_abs())
                        del R  # only the current pair's products stay alive
                    del ij, ji, ab, ba
                del memo
        checks.extend(brackets[key] for key in sorted(brackets))  # in (i, j) order
        checks.extend(pairs[key] for key in sorted(pairs))  # in (i, j, E/F) order

    return RelationReport(checks, tol, all(c.residual <= tol for c in checks))


def export_matrix(mod: IrrepModule, op: str, k: int) -> str:
    """Coordinate-list text export, one "row col value" line per entry.

    The header records the full provenance; rows are 0-based and sorted so
    identical inputs give byte-identical output.
    """
    if op not in ("K", "E", "F"):
        raise ValueError("op must be one of K, E, F, got %r" % (op,))
    if not 1 <= k <= mod.ell:
        raise ValueError("k must lie in 1..%d, got %d" % (mod.ell, k))
    M = getattr(mod, op)[k]
    header = "# irrep ℓ=%d n=%s op=%s%d q=%d/%d precision=%d" % (
        mod.ell, ",".join(map(str, mod.weight)), op, k,
        mod.q.numerator, mod.q.denominator, mod.precision)
    lines = [header]
    for (i, j), v in sorted(M.entries()):
        lines.append("%d %d %s" % (i, j, mp.nstr(v, mod.precision)))
    return "\n".join(lines) + "\n"
