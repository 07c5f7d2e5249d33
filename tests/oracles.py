"""Independent oracles for the tests, kept out of the library.

`numeric_rank` decides a rank from the singular values of a dense mpmath
matrix, a route that shares no code with the exact `qproj.linalg.exact_rank`
the library uses, so the tests can hold the exact ranks against it.

`ref_add`, `ref_sub`, `ref_matmul` and `ref_scaled` are the plain mpf loops
the sparse arithmetic of `qproj.linalg.SparseMatrix` must reproduce bit for
bit: every entry is rounded by the mpf operators, in the order the entries
are stored, with no memo.

`apply_e` is E_k on a tableau, entry by entry from the public, unmemoised
`qproj.gtrep.raise_coeff`, so it shares no memo with the library's build.
"""

from collections import namedtuple

from mpmath import mp

from qproj.gtrep import raise_coeff
from qproj.linalg import SparseMatrix
from qproj.qarith import check_precision

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
    d = dict(a._d)
    for k, v in b._d.items():
        nv = d.get(k, mp.mpf(0)) + (-v if negate else v)
        if nv:
            d[k] = nv
        elif k in d:
            del d[k]
    return d


def ref_sub(a, b):
    return ref_add(a, b, negate=True)


def ref_matmul(a, b):
    """The entries of a @ b: each product rounded, then added to its cell."""
    acc = {}
    for (i, k), va in a._d.items():
        for (k2, j), vb in b._d.items():
            if k2 == k:
                acc[(i, j)] = acc.get((i, j), mp.mpf(0)) + va * vb
    return {key: v for key, v in acc.items() if v}


def ref_scaled(a, c):
    """The entries of a.scaled(c)."""
    return {k: p for k, v in a._d.items() if (p := c * v)}
