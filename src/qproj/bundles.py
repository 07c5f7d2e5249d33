"""Canonical line bundle sections over quantum projective space.

The degree-N bundle decomposes into blocks indexed by a single non-negative
integer n1; the block irrep has highest weight (n1, 0, ..., 0, n1+N) for
N >= 0 and (n1-N, 0, ..., 0, n1) for N < 0 (degenerating to (2 n1 + |N|,)
when l = 1).  Inside each block the bundle conditions

    K_i acts trivially and E_i, F_i annihilate   (i < l),
    K_1 K_2^2 ... K_l^l scales by q^(N l / 2),

cut out a constrained set of tableaux on one tensor leg; the other leg stays
free, so the constrained subspace has dimension (number of constrained
tableaux) * (block dimension).  The anti-holomorphic kernel is the kernel of
the E_l action on the constrained leg.  Both the conditions and the kernel
are computed here by applying the actual representation matrices, in the
non-normalized GT basis where every entry is an exact rational at rational q,
so each rank is decided by exact elimination (`qproj.linalg.exact_rank`),
never by a numeric threshold.  The known
closed-form shape of the constrained tableaux is kept only as an independent
cross-check (`closed_form_section_tableaux`), and the kernel count has an
independent combinatorial oracle (`ker_el_combinatorial`).

Writing s_j for the sum of row j (s_0 = 0), a_k = 2 s_k - s_(k-1) - s_(k+1),
so the K conditions hold exactly when the row sums form the progression
s_j = j s_1 (j <= l) with s_1 = (N + s_(l+1)) / (l + 1).  The tableau
descent uses it to prune every row that breaks it, so only a handful of
candidates are ever built; the K conditions are still checked on every
candidate.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .coordring import _check_count
from .linalg import _check_int, exact_rank
from .qarith import _q_numbers, parse_q
from .gtrep import (
    DEFAULT_DIM_CAP,
    GTTableau,
    _capped_weyl_dim,
    _check_dim_cap,
    _exact_column,
    _tableaux,
    top_row,
    validate_weight,
    weyl_dim,
)

__all__ = [
    "block_weight",
    "closed_form_section_tableaux",
    "ln_conditions_filter",
    "LineBundleBlock",
    "build_block",
    "ker_el_combinatorial",
    "ker_el_numeric",
    "BlockKernel",
    "FilterError",
    "MAX_BLOCK_ELL",
]

# The K conditions and the Weyl dimension of a block are quadratic in l,
# even at dimension 1: `ln-kernel --ell 1000 --N 0 --n1max 0` takes about 1 s.
MAX_BLOCK_ELL = 1000


class FilterError(ArithmeticError):
    """The matrix-based constraint filter produced a non-coordinate kernel:
    a failed postcondition, an ArithmeticError like the others."""


def block_weight(ell: int, N: int, n1: int) -> tuple:
    """Highest weight of the degree-N bundle block labelled by n1 >= 0, for
    1 <= ell <= MAX_BLOCK_ELL."""
    ell, N = _check_int(ell, "ell"), _check_int(N, "the degree N")
    n1 = _check_int(n1, "the block label n1")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if ell > MAX_BLOCK_ELL:
        raise ValueError("ell must be at most %d, got %d" % (MAX_BLOCK_ELL, ell))
    if n1 < 0:
        raise ValueError("block label n1 must be non-negative")
    if ell == 1:
        return (2 * n1 + abs(N),)
    if N >= 0:
        return (n1,) + (0,) * (ell - 2) + (n1 + N,)
    return (n1 - N,) + (0,) * (ell - 2) + (n1,)


def closed_form_section_tableaux(N: int, weight) -> list:
    """Closed-form candidates for the constrained tableaux of a block.

    The constrained tableau has every row below the top constant equal to m
    and top row (m_{1,l+1}, m, ..., m, 2m - m_{1,l+1} - N), l = len(weight).
    For a fixed (normalized) weight this pins everything down; the list is
    empty when the weight is incompatible, and has one member otherwise.  This
    is the independent cross-check route against `ln_conditions_filter`.
    """
    N = _check_int(N, "the degree N")
    top = top_row(weight)
    size = len(top)
    if size == 2:  # l = 1
        twice_m = top[0] + N
        if twice_m % 2 or not 0 <= twice_m // 2 <= top[0]:
            return []
        m = twice_m // 2
    else:
        middle = set(top[1:-1])
        if len(middle) != 1:
            return []
        m = top[1]
        if 2 * m - top[0] - N != top[-1]:
            return []
    rows = [top] + [(m,) * j for j in range(size - 1, 0, -1)]
    t = GTTableau(rows)
    return [t] if t.interlaces() else []


def ln_conditions_filter(N: int, weight, q, dim_cap: int = DEFAULT_DIM_CAP) -> list:
    """Tableaux of one block satisfying all bundle conditions, via matrices.

    The diagonal (K) conditions select a candidate set; the joint kernel of
    the stacked E_i, F_i columns (i < l = len(weight)) on that set is then
    computed by exact rank and must be spanned by single tableaux, returned
    in lexicographic order.  Nothing here assumes the closed-form shape.
    Every column reads one exact q-number table, so each [z] is computed
    once per call.

    With s_j the sum of row j (s_0 = 0), a_k = 2 s_k - s_(k-1) - s_(k+1), so
    the K conditions a_i = 0 (i < l) and sum_k k a_k = N l hold exactly
    when s_j = j s_1 for every j <= l and s_1 = (N + s_(l+1)) / (l + 1).
    The descent from the top row uses this progression to prune every row
    that breaks it (no candidate at all when s_1 is not an integer); the K
    conditions are still checked on every candidate it returns.
    """
    N = _check_int(N, "the degree N")
    dim_cap = _check_dim_cap(dim_cap)
    qf = parse_q(q)
    weight = validate_weight(weight)
    _capped_weyl_dim(weight, dim_cap, "block weight")
    return _sections(N, weight, _q_numbers(qf))


def _sections(N, weight, qn) -> list:
    # `ln_conditions_filter` on checked inputs, [z] read from the table `qn`.
    ell = len(weight)
    selected = [
        t for t in _candidates(N, weight)
        if all(t.a(i) == 0 for i in range(1, ell))
        and sum(k * t.a(k) for k in range(1, ell + 1)) == N * ell
    ]
    columns = [_condition_column(t, qn) for t in selected]
    zero_cols = [t for t, column in zip(selected, columns) if not column]
    kernel_dim = len(selected) - exact_rank(columns)
    if kernel_dim != len(zero_cols):
        raise FilterError(
            "joint kernel (dim %d) is not spanned by single tableaux (%d found)"
            % (kernel_dim, len(zero_cols)))
    return sorted(zero_cols, key=GTTableau.flat)


def _candidates(N, weight) -> list:
    """The tableaux of `weight` on the row-sum progression of the K
    conditions (see `ln_conditions_filter`)."""
    top = top_row(weight)
    s1, rest = divmod(N + sum(top), len(top))
    return [] if rest else _tableaux(top, s1)


def _condition_column(t, qn) -> dict:
    """The stacked E_i and F_i columns (i < l) of one tableau, exactly, with
    [z] read from the q-number table `qn`."""
    return {(op, i, target): c
            for i in range(1, t.ell) for op in ("E", "F")
            for target, c in _exact_column(op, i, t, qn).items()}


LineBundleBlock = namedtuple(
    "LineBundleBlock", "ell N n1 weight section_basis free_dim")

BlockKernel = namedtuple("BlockKernel", "ell N n1 dim_constrained dim_kernel")


def build_block(ell: int, N: int, n1: int, q,
                dim_cap: int = DEFAULT_DIM_CAP) -> LineBundleBlock:
    """Constrained tableaux and free-leg dimension of one bundle block."""
    dim_cap = _check_dim_cap(dim_cap)
    weight = block_weight(ell, N, n1)
    qf = parse_q(q)
    free_dim = _capped_weyl_dim(weight, dim_cap, "block weight")
    return LineBundleBlock(ell, N, n1, weight, _sections(N, weight, _q_numbers(qf)), free_dim)


def ker_el_combinatorial(ell: int, N: int) -> int:
    """Kernel dimension by explicit sequence counting, not by a formula.

    Counts the non-increasing integer sequences N >= x_1 >= ... >= x_l >= 0
    (zero for negative N); this is the independent oracle the matrix route
    must reproduce.  A count C(N + l, l) above `coordring.MAX_COUNT` is
    refused before it starts.
    """
    ell, N = _check_int(ell, "ell"), _check_int(N, "the degree N")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if N < 0:
        return 0
    _check_count(N + ell, ell, "ker_el_combinatorial")
    count = 0
    for _seq in itertools.combinations_with_replacement(range(N + 1), ell):
        count += 1
    return count


def ker_el_numeric(ell: int, N: int, n1_max: int, q,
                   dim_cap: int = DEFAULT_DIM_CAP) -> list:
    """Per-block kernel dimensions of the E_l action on sections.

    For each block, the E_l columns over the constrained tableaux are ranked
    exactly; the kernel on the constrained leg then multiplies the free-leg
    dimension.  The inputs are checked once, and every block is filtered and
    ranked from one exact q-number table.  Block dimensions grow with n1, so
    the n1_max block alone is held to `dim_cap`, before any block is built."""
    if _check_int(n1_max, "n1_max") < 0:
        raise ValueError("n1_max must be non-negative")
    dim_cap = _check_dim_cap(dim_cap)
    qf = parse_q(q)
    _capped_weyl_dim(block_weight(ell, N, n1_max), dim_cap, "block weight")
    qn = _q_numbers(qf)
    records = []
    for n1 in range(n1_max + 1):
        weight = block_weight(ell, N, n1)
        section, free_dim = _sections(N, weight, qn), weyl_dim(weight)
        columns = [_exact_column("E", ell, t, qn) for t in section]
        leg_kernel = len(columns) - exact_rank(columns)
        records.append(BlockKernel(ell, N, n1, dim_constrained=len(section) * free_dim,
                                   dim_kernel=leg_kernel * free_dim))
    return records
