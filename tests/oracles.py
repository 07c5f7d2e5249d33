"""Independent oracles for the tests, kept out of the library.

`numeric_rank` decides a rank from the singular values of a dense mpmath
matrix, a route that shares no code with the exact `qproj.linalg.exact_rank`
the library uses, so the tests can hold the exact ranks against it.

`ref_exact_rank` is the elimination over the rationals that `exact_rank` ran
before it went fraction-free: every value a `Fraction`, every pivot row
scaled to 1 at its key.  The integer elimination must give the same rank.

`ref_add`, `ref_sub`, `ref_matmul` and `ref_scaled` are the plain mpf loops
the sparse arithmetic of `qproj.linalg.SparseMatrix` must reproduce bit for
bit: every entry is rounded by the mpf operators, in the order the entries
are stored, with no memo.

`ref_max_abs` and `ref_diagonal_exchange` are the per-entry mpf loops that
`SparseMatrix._max_abs` and `SparseMatrix._diagonal_exchange` run once per
distinct value on raw tuples; the residual and its entry must agree.  Every
oracle reads a matrix through its public `entries()`, as mpf values.

`apply_e` is E_k on a tableau, entry by entry from the public, unmemoised
`qproj.gtrep.raise_coeff`, so it shares no memo with the library's build.

`ref_relation_checks` is the relation check written as matrix algebra: every
product formed with `@`, the K matrices included, and every relation rebuilt
from its own products.  `qproj.gtrep.verify_relations` evaluates the K checks
entry by entry and shares the products of each generator pair; it must give
the same names, residual bits and entries.

`ref_rounded_root` is the root of an exact GT radicand as the library took
it before `qproj.linalg._rounded_root`: the radicand rounded to an mpf under
`mp.workdps(precision + 10)`, then `mp.sqrt` of it under
`mp.workdps(precision)`.  The raw libmp calls must give the same bits.

`ref_amplitude` is the GT amplitude a_j or b_j as a chain of `Fraction`
multiplications and divisions by [z] = (q^z - q^-z)/(q - q^-1), each [z] a
`Fraction` of its own.  `qproj.gtrep._amplitude` multiplies the integer
numerators of `qproj.qarith._q_numbers` and builds one `Fraction`; the two
must agree exactly.

`ref_eval` is the term-by-term evaluation of a QLaurent, every power q^e
taken afresh, that `QLaurent.eval` must reproduce bit for bit from its
memoised terms.

`cp1_radicand` is the closed form c_l^2 = [l - N/2 + 1][l + N/2] of the
qP^1 complex, written out with `q_int`.  `qproj.dolbeault` reads the same
radicand from the GT amplitudes of F_1 instead, so every block is held
against this second transcription.

`ref_double_coboundary` and `ref_invariance_defect` are the twisted
coboundary combinations evaluated face by face in `Fraction`s, straight from
`algebra.product` and the sigma-eigenvalues, with the full-turn scalar a
product of `Fraction`s.  `qproj.cocycle` sums the same faces in integers from
one scaled face table per call; its combinations must equal these exactly.
"""

import math
from collections import namedtuple
from fractions import Fraction

from mpmath import mp

from qproj.gtrep import RelationCheck, raise_coeff
from qproj.linalg import SparseMatrix
from qproj.qarith import QLaurent, check_precision, parse_q, q_int

RankResult = namedtuple("RankResult", "rank ill_conditioned threshold sigmas")


def numeric_rank(matrix, precision) -> RankResult:
    """Numeric rank with relative singular-value threshold 10^(-precision/2).

    Zero rows and columns are compressed away before the SVD; the reference
    scale is the largest singular value.  A rank decision is flagged as ill
    conditioned when any singular value falls within a factor 10 of the cut.
    The library decides ranks exactly (`exact_rank`); this is the independent
    oracle the tests hold the exact ranks against.
    """
    if not isinstance(matrix, SparseMatrix):
        raise TypeError("numeric_rank expects a SparseMatrix")
    precision = check_precision(precision)
    with mp.workdps(precision):
        rows = sorted({i for (i, _j), _v in matrix.entries()})
        cols = sorted({j for (_i, j), _v in matrix.entries()})
        if not rows or not cols:
            return RankResult(0, False, mp.mpf(0), ())
        rmap = {r: a for a, r in enumerate(rows)}
        cmap = {c: a for a, c in enumerate(cols)}
        dense = mp.zeros(len(rows), len(cols))
        for (i, j), v in matrix.entries():
            dense[rmap[i], cmap[j]] = v
        sigmas = mp.svd_r(dense, compute_uv=False)
        sigmas = sorted((abs(s) for s in sigmas), reverse=True)
        if not sigmas or sigmas[0] == 0:
            return RankResult(0, False, mp.mpf(0), tuple(sigmas))
        cut = sigmas[0] * mp.mpf(10) ** (-(precision // 2))
        rank = sum(1 for s in sigmas if s > cut)
        ill = any(cut / 10 < s < cut * 10 for s in sigmas)
        return RankResult(rank, ill, cut, tuple(sigmas))


def ref_exact_rank(rows) -> int:
    """Exact rank of sparse {key: int | Fraction} rows by forward elimination
    over the rationals: each row is reduced against the pivot rows kept so
    far, in the order they were kept, and the rest is kept under its first
    nonzero key, scaled to 1 there."""
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


def apply_e(k, tableau, q, precision):
    """E_k on a basis tableau: map target tableau -> coefficient."""
    out = {}
    for j in range(1, k + 1):
        c = raise_coeff(k, j, tableau, q, precision)
        if c:
            out[tableau.raised(j, k)] = c
    return out


def ref_add(a, b, negate=False):
    """The entries of a + b, as a dict in storage order; with `negate`, of
    a - b, each entry of b negated at the working precision, then added."""
    d = dict(a.entries())
    for k, v in b.entries():
        nv = d.get(k, mp.mpf(0)) + (-v if negate else v)
        if nv:
            d[k] = nv
        elif k in d:
            del d[k]
    return d


def ref_sub(a, b):
    return ref_add(a, b, negate=True)


def ref_rounded_root(radicand, precision):
    """sqrt(radicand) for a positive Fraction, rounded at precision + 10
    digits and rooted at precision, through two `mp.workdps` switches."""
    with mp.workdps(precision + 10):
        value = mp.mpf(radicand.numerator) / radicand.denominator
    with mp.workdps(precision):
        return mp.sqrt(+value)


def ref_matmul(a, b):
    """The entries of a @ b: each product rounded, then added to its cell."""
    acc = {}
    for (i, k), va in a.entries():
        for (k2, j), vb in b.entries():
            if k2 == k:
                acc[(i, j)] = acc.get((i, j), mp.mpf(0)) + va * vb
    return {key: v for key, v in acc.items() if v}


def ref_scaled(a, c):
    """The entries of a.scaled(c)."""
    return {k: p for k, v in a.entries() if (p := c * v)}


def ref_max_abs(entries):
    """The first strictly largest |v| over (position, mpf) entries and its
    position, (0, None) when there is none: the per-entry scan that
    `SparseMatrix._max_abs` must reproduce."""
    worst_val, worst_pos = mp.mpf(0), None
    for pos, v in entries:
        if abs(v) > worst_val:
            worst_val, worst_pos = abs(v), pos
    return worst_val, worst_pos


def ref_diagonal_exchange(m, k, c=1):
    """The (position, value) entries of M K - c K M, K = diag(k) for a list k
    of mpf, one mpf expression per entry: m k_s - c (k_r m)."""
    return [((r, s), v * k[s] - c * (k[r] * v)) for (r, s), v in m.entries()]


def ref_relation_checks(mod):
    """The defining-relation checks of a built module as RelationCheck rows,
    in the order and with the names of `verify_relations`."""
    with mp.workdps(mod.precision):
        qv = mp.mpf(mod.q.numerator) / mp.mpf(mod.q.denominator)
        qs = mp.sqrt(qv)
        ell = mod.ell
        K, E, F = mod.K, mod.E, mod.F
        checks = []

        def residual(name, M):
            worst_val, worst_pos = mp.mpf(0), None
            for pos, v in M.entries():
                if abs(v) > worst_val:
                    worst_val, worst_pos = abs(v), pos
            checks.append(RelationCheck(name, worst_val, worst_pos))

        for i in range(1, ell + 1):
            for j in range(i + 1, ell + 1):
                residual("K%dK%d-K%dK%d" % (i, j, j, i), K[i] @ K[j] - K[j] @ K[i])

        twins = (("E", E, 1 / qv, "q^-1", qs, "q^(1/2)"),
                 ("F", F, qv, "q", 1 / qs, "q^(-1/2)"))
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                for X, M, same, same_name, near, near_name in twins:
                    XiKj, KjXi = M[i] @ K[j], K[j] @ M[i]
                    if abs(i - j) > 1:
                        residual("%s%dK%d-K%d%s%d" % (X, i, j, j, X, i), XiKj - KjXi)
                    else:
                        c, c_name = (same, same_name) if i == j else (near, near_name)
                        residual("%s%dK%d-%sK%d%s%d" % (X, i, j, c_name, j, X, i),
                                 XiKj - KjXi.scaled(c))

        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                bracket = E[i] @ F[j] - F[j] @ E[i]
                if i == j:
                    Kinv = SparseMatrix.diagonal([qs ** -t.a(i) for t in mod.basis])
                    rhs = (K[i] @ K[i] - Kinv @ Kinv).scaled(1 / (qv - 1 / qv))
                    residual("E%dF%d-F%dE%d-(K%d^2-K%d^-2)/(q-q^-1)" % (i, j, j, i, i, i),
                             bracket - rhs)
                else:
                    residual("E%dF%d-F%dE%d" % (i, j, j, i), bracket)

        serre = qv + 1 / qv
        for i in range(1, ell + 1):
            for j in range(1, ell + 1):
                for X, M, *_scalars in twins:
                    if abs(i - j) > 1:
                        residual("%s%d%s%d-%s%d%s%d" % (X, i, X, j, X, j, X, i),
                                 M[i] @ M[j] - M[j] @ M[i])
                    elif abs(i - j) == 1:
                        residual("serre(%s%d,%s%d)" % (X, i, X, j),
                                 M[i] @ M[i] @ M[j] - (M[i] @ M[j] @ M[i]).scaled(serre)
                                 + M[j] @ M[i] @ M[i])
    return checks


def cp1_radicand(N, twol):
    """c_l^2 = [l - N/2 + 1][l + N/2] of block 2l of the degree-N complex
    on qP^1, an exact Laurent polynomial; zero for a block with no source
    (2l below |N| or of the other parity)."""
    if twol < abs(N) or (twol - N) % 2:
        return QLaurent.zero()
    return q_int((twol - N) // 2 + 1) * q_int((twol + N) // 2)


def ref_amplitude(op, j, row, other, q):
    """a_j (op "E", `other` row k+1) or b_j (op "F", `other` row k-1) of
    entry j of row k = `row` at a rational q, one `Fraction` step per
    q-number: -[1] (E) or [1] (F), times [l_{i,other} - l_{j,k}] over every
    entry of `other`, over [l_{i,k} - l_{j,k}] for every i != j."""
    qf = parse_q(q)

    def qn(z):
        return (qf**z - qf**-z) / (qf - 1 / qf)

    ljk = row[j - 1] - j
    c = -qn(1) if op == "E" else qn(1)
    for i, m in enumerate(other, 1):
        c *= qn(m - i - ljk)
    for i, m in enumerate(row, 1):
        if i != j:
            c /= qn(m - i - ljk)
    return c


def ref_eval(p, q, precision):
    """p at a rational q as an mpf at `precision` digits: the terms c q^e
    summed in ascending exponent order at precision + 10 digits, then
    rounded."""
    qf = parse_q(q)
    precision = check_precision(precision)
    coeffs = p.coeffs()
    with mp.workdps(precision + 10):
        qv = mp.mpf(qf.numerator) / mp.mpf(qf.denominator)
        total = mp.mpf(0)
        for e in sorted(coeffs):
            total += coeffs[e] * qv**e
    with mp.workdps(precision):
        return +total


def _ref_faces(algebra, sigma_eigs, tup, n):
    """The faces of the twisted coboundary of an n-cochain at the
    (n+2)-tuple `tup`, as (coefficient, (n+1)-tuple) pairs: (b_sigma phi)(tup)
    is the sum of coefficient * phi((n+1)-tuple) over them."""
    for i in range(n + 1):
        c, idx = algebra.product(tup[i], tup[i + 1])
        if idx is not None and c:
            yield (c if i % 2 == 0 else -c), tup[:i] + (idx,) + tup[i + 2:]
    c, idx = algebra.product(tup[n + 1], tup[0])
    if idx is not None and c:
        c *= sigma_eigs[tup[n + 1]]
        yield (-c if n % 2 == 0 else c), (idx,) + tup[1:n + 1]


def ref_double_coboundary(algebra, sigma_eigs, tup, n):
    """(b_sigma b_sigma phi)(tup) for every n-cochain phi at once: b_sigma is
    linear, so at the (n+3)-tuple `tup` it is the fixed combination
    {(n+1)-tuple: coefficient} of values of phi returned here, zeros dropped."""
    combo = {}
    for c, mid in _ref_faces(algebra, sigma_eigs, tup, n + 1):
        for c2, inner in _ref_faces(algebra, sigma_eigs, mid, n):
            combo[inner] = combo.get(inner, 0) + c * c2
    return {t: c for t, c in combo.items() if c}


def _rotation_scalar(sigma_eigs, tup):
    """The scalar by which a full turn of lambda_sigma (len(tup) = n + 1
    rotations of an n-cochain) acts at `tup`: the turn maps every tuple back
    to itself, each rotation moves one entry to the front and multiplies by
    its sigma-eigenvalue, and the signs give (-1)^(n(n+1)) = 1, so the scalar
    is the product of the sigma-eigenvalues of the entries."""
    return math.prod(sigma_eigs[i] for i in tup)


def ref_invariance_defect(algebra, sigma_eigs, tup, n):
    """(lambda_sigma^(n+2) b_sigma phi - b_sigma phi)(tup) for every
    sigma-invariant n-cochain phi at once.  Those cochains are spanned by the
    indicators of the (n+1)-tuples a full turn fixes, and at the
    (n+2)-tuple `tup` the full turn is the scalar c, so the value is
    (c - 1) * (b_sigma phi)(tup): the fixed combination
    {fixed (n+1)-tuple: coefficient} returned here, zeros dropped."""
    scale = _rotation_scalar(sigma_eigs, tup) - 1
    combo = {}
    if scale:
        for c, face in _ref_faces(algebra, sigma_eigs, tup, n):
            if _rotation_scalar(sigma_eigs, face) == 1:
                combo[face] = combo.get(face, 0) + scale * c
    return {t: c for t, c in combo.items() if c}
