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

from .linalg import SparseMatrix, _Memo
from .qarith import (
    DEFAULT_PRECISION,
    NegativeRadicandError,
    check_precision,
    guarded_sqrt,
    parse_q,
)

DEFAULT_DIM_CAP = 20000

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
]


class DimensionCapError(ValueError):
    """A requested module exceeds the configured dimension cap."""


def _relation_tol(tol, precision):
    """The relation tolerance as given and as an mpf at `precision`: None
    means 1e-40, raised to 1e-(2*precision//3) below 60 digits to stay above
    the rounding floor.  A NaN, infinite or negative one is a ValueError."""
    given = "1e-%d" % min(40, 2 * precision // 3) if tol is None else tol
    with mp.workdps(precision):
        value = mp.mpf(given)
    if not mp.isfinite(value) or value < 0:
        raise ValueError("relation tolerance must be finite and non-negative, got %s"
                         % (given,))
    return given, value


def validate_weight(weight) -> tuple:
    weight = tuple(int(n) for n in weight)
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
        rows = tuple(tuple(int(x) for x in r) for r in rows)
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

    def __lt__(self, other):
        return self.flat() < other.flat()

    def __repr__(self):
        return "GTTableau(%s)" % (list(map(list, self.rows)),)


def enumerate_tableaux(weight) -> list:
    """All interlacing tableaux for a weight, lexicographic in flat() order.

    The top row is the normalized one; lower rows range over every choice
    allowed by interlacing.
    """
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
        if not j:
            out.append(GTTableau(rows))
            continue
        choices = [range(upper[i + 1], upper[i] + 1) for i in range(j)]
        stack.extend(rows + [lower] for lower in reversed(list(itertools.product(*choices)))
                     if step is None or sum(lower) == j * step)
    return out


def _check_dim_cap(dim_cap):
    # A cap below 1 would reject every module as if it were above a real cap.
    if dim_cap < 1:
        raise ValueError("dim_cap must be at least 1, got %s" % (dim_cap,))


def _q_numbers(qf):
    # The exact q-numbers [z] = (q^z - q^-z)/(q - q^-1) at one rational q.
    return _Memo(lambda z: (qf**z - qf**-z) / (qf - 1 / qf))


def _window(tableau, k):
    # Rows k+1, k and k-1 of a tableau; row 0 is empty.
    return tableau.row(k + 1), tableau.row(k), tableau.row(k - 1) if k > 1 else ()


def _amplitude(op, j, row, other, qn):
    """a_j (op "E", `other` row k+1) or b_j (op "F", `other` row k-1) of
    entry j of row k = `row`, exactly; see `exact_column`.

    Only differences of entries enter, so rows shifted by one constant give
    the same value.  `qn` maps z to [z]: `_q_numbers(qf)` gives a Fraction,
    `_Memo(q_int)` a QLaurent (in `dolbeault`, at k = 1: nothing is divided).
    """
    ljk = row[j - 1] - j
    c = -qn[1] if op == "E" else qn[1]
    for i, m in enumerate(other, 1):
        c *= qn[m - i - ljk]
    for i, m in enumerate(row, 1):
        if i != j:
            c /= qn[m - i - ljk]
    return c


def _raise_value(k, j, window, qn, precision):
    # A^j_k for a valid raise of entry j of row k, from the rows k+1, k, k-1
    # of `window`, with q and precision already checked.
    upper, row, lower = window
    raised = row[:j - 1] + (row[j - 1] + 1,) + row[j:]
    radicand = _amplitude("E", j, row, upper, qn) * _amplitude("F", j, raised, lower, qn)
    if radicand < 0:
        raise NegativeRadicandError(
            "radicand of A^%d_%d is negative: %s" % (j, k, radicand))
    with mp.workdps(precision + 10):
        value = mp.mpf(radicand.numerator) / radicand.denominator
    return guarded_sqrt(value, precision)


def _e_column(k, tableau, values):
    # (target, A^j_k) for every nonzero entry of E_k |tableau>, j ascending;
    # `values` is `_raise_value` memoised by its (k, j, window) arguments.
    window = _window(tableau, k)
    for j in range(1, k + 1):
        target = tableau._moved(j, k, 1)
        if target is not None:
            # Shifted by m_{j,k}, the window still fixes A^j_k (`_amplitude`).
            shift = window[1][j - 1]
            c = values[k, j, tuple(tuple(x - shift for x in r) for r in window)]
            if c:
                yield target, c


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
    return _raise_value(k, j, _window(tableau, k), _q_numbers(qf), precision)


def exact_column(op, k, tableau, q) -> dict:
    """E_k (op "E") or F_k (op "F") on a tableau in the non-normalized GT
    basis, a diagonal rescaling of the orthonormal one (so every rank is the
    same) whose amplitudes are rational at rational q: target -> Fraction,

        raising   a_j = -prod_{i<=k+1}[l_{i,k+1} - l_{j,k}] / prod_{i!=j}[l_{i,k} - l_{j,k}],
        lowering  b_j =  prod_{i<=k-1}[l_{i,k-1} - l_{j,k}] / prod_{i!=j}[l_{i,k} - l_{j,k}].

    a_j(m) b_j(m^j_k) = (A^j_k)^2 is the radicand whose root `raise_coeff`
    takes, so this is the one transcription of the GT amplitudes.
    """
    if op not in ("E", "F"):
        raise ValueError("op must be E or F, got %r" % (op,))
    if not 1 <= k <= tableau.ell:
        raise ValueError("k must lie in 1..%d, got %d" % (tableau.ell, k))
    return _exact_column(op, k, tableau, _q_numbers(parse_q(q)))


def _exact_column(op, k, tableau, qn):
    # `exact_column` with op and k checked and [z] read from the table `qn`.
    upper, row, lower = _window(tableau, k)
    step, other = (1, upper) if op == "E" else (-1, lower)
    out = {}
    for j in range(1, k + 1):
        target = tableau._moved(j, k, step)
        if target is None:
            continue
        c = _amplitude(op, j, row, other, qn)
        if c:
            out[target] = c
    return out


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
    d, r = divmod(math.prod((+exps).elements()), math.prod((-exps).elements()))
    assert not r
    if dim_cap is not None and d > dim_cap:
        raise DimensionCapError("%s %s has dimension %d, above the cap %d"
                                % (what, weight, d, dim_cap))
    return d


class IrrepModule:
    """A built irreducible module: ordered GT basis plus sparse matrices.

    ``K[k]``, ``E[k]``, ``F[k]`` (k = 1..l) are SparseMatrix over mpf; F[k]
    is the transpose of E[k].  `build_irrep` fills K, E and F through the
    module's own ``index``; immutable once it returns.
    """

    def __init__(self, weight, basis, q, precision, K, E, F):
        self.weight = weight
        self.basis = basis
        self.index = {t: i for i, t in enumerate(basis)}
        self.q = q
        self.precision = precision
        self.K = K
        self.E = E
        self.F = F

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
    """Enumerate the GT basis and populate all K/E/F matrices."""
    _check_dim_cap(dim_cap)
    weight = validate_weight(weight)
    qf = parse_q(q)
    precision = check_precision(precision)
    expected = _capped_weyl_dim(weight, dim_cap)
    basis = enumerate_tableaux(weight)
    assert len(basis) == expected, "tableau count disagrees with the Weyl formula"
    ell = len(weight)
    dim = len(basis)
    K, E, F = {}, {}, {}
    mod = IrrepModule(weight, basis, qf, precision, K, E, F)
    index = mod.index
    qn = _q_numbers(qf)
    values = _Memo(lambda key: _raise_value(*key, qn, precision))
    with mp.workdps(precision):
        qs = mp.sqrt(mp.mpf(qf.numerator) / mp.mpf(qf.denominator))
        powers = _Memo(lambda a: qs ** a)  # one power per distinct exponent
        for k in range(1, ell + 1):
            K[k] = SparseMatrix.diagonal([powers[t.a(k)] for t in basis])
            entries = {}
            for col, t in enumerate(basis):
                for target, c in _e_column(k, t, values):
                    entries[(index[target], col)] = c
            E[k] = SparseMatrix(dim, dim, entries)
            F[k] = E[k].transpose()
    return mod


RelationCheck = namedtuple("RelationCheck", "name residual entry")


class RelationReport:
    """Per-relation max residuals from a defining-relation verification.

    Each check records the relation name, its max-entry residual, and the
    (row, col) position where that residual occurs (None for a zero matrix).
    """

    def __init__(self, checks, tolerance):
        self.checks = checks
        self.tolerance = tolerance

    @property
    def max_residual(self):
        return max((c.residual for c in self.checks), default=mp.mpf(0))

    @property
    def worst(self):
        return max(self.checks, key=lambda c: c.residual) if self.checks else None

    @property
    def ok(self):
        return all(c.residual <= self.tolerance for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.residual > self.tolerance]

    def __repr__(self):
        return "RelationReport(%d checks, max=%s, ok=%s)" % (
            len(self.checks), mp.nstr(self.max_residual, 6), self.ok)


def verify_relations(mod: IrrepModule, tol=None) -> RelationReport:
    """Check every defining relation of U_q(su(l+1)) on a built module.

    Covered: K commutativity, the three E-K exchange cases, E-F brackets
    against (K^2 - K^-2)/(q - q^-1), E-E commutation at distance > 1, Serre
    relations at distance 1, and the transposed F counterparts of all of the
    above.  Residuals are max-entry absolute values, the first largest entry
    in storage order.  The tolerance defaults to 1e-min(40, 2*precision//3);
    a NaN, infinite or negative one is a ValueError.

    Each residual is bit for bit that of the plain matrix algebra, with
    fewer products.  M K_j - c K_j M (M = E_i, F_i or K_i) is
    `M._diagonal_exchange(K_j, c, products)`, which reads K_j's diagonal and
    evaluates each entry m at (r, s) as m k_s - c (k_r m), with the roundings
    of `@`, `scaled` and `-` (c = None is 1, exact), once per value; the m k
    products are shared by the exchanges and dropped before the brackets.
    Every other residual is the `SparseMatrix._max_abs` scan of its matrix.
    Only `linalg` reads the stored entries.  The bracket's K side is
    one diagonal, one value per weight exponent.  The far and Serre checks of
    a pair i < j share M_i M_j and M_j M_i; M_i M_i is formed once per i.
    """
    _given, tol = _relation_tol(tol, mod.precision)
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
        for i in gens:
            for j in gens:
                bracket = E[i] @ F[j] - F[j] @ E[i]
                if i == j:
                    rhs = SparseMatrix.diagonal([sides[t.a(i)] for t in mod.basis])
                    bracket = bracket - rhs
                    name = "E%dF%d-F%dE%d-(K%d^2-K%d^-2)/(q-q^-1)" % (i, j, j, i, i, i)
                else:
                    name = "E%dF%d-F%dE%d" % (i, j, j, i)
                checks.append(RelationCheck(name, *bracket._max_abs()))

        serre = qv + 1 / qv
        pairs = {}
        for X, M, _scalars in twins:
            squares = _Memo(lambda a, M=M: M[a] @ M[a])
            for i in gens:
                for j in gens[i:]:
                    ij, ji = M[i] @ M[j], M[j] @ M[i]
                    for a, b, ab, ba in ((i, j, ij, ji), (j, i, ji, ij)):
                        if j - i > 1:
                            name, R = "%s%d%s%d-%s%d%s%d" % (X, a, X, b, X, b, X, a), ab - ba
                        else:
                            name = "serre(%s%d,%s%d)" % (X, a, X, b)
                            R = squares[a] @ M[b] - (ab @ M[a]).scaled(serre) + ba @ M[a]
                            if a < b:  # the last use of M_a M_a
                                del squares[a]
                        pairs[a, b, X] = RelationCheck(name, *R._max_abs())
                        del R  # only the current pair's products stay alive
                    del ij, ji, ab, ba
        checks.extend(pairs[key] for key in sorted(pairs))  # in (i, j, E/F) order

    return RelationReport(checks, tol)


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
