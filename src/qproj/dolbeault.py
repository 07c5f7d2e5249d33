"""Riemann-Roch bookkeeping for the quantum projective line, plus the
degree-2 coefficient identities of the quantum projective plane.

For the line: the degree-N bundle decomposes into su_q(2) blocks labelled by
a spin l >= |N|/2 with l - |N|/2 integral; each block carries basis vectors
|l, N/2, m>, m = -l..l.  The anti-holomorphic operator maps the l-block of
degree N to the l-block of degree N-2 diagonally in m, with coefficient

    c_l = sqrt([l - N/2 + 1][l + N/2]),

so everything is block scalar.  The radicand is that of F_1 on the V(2l)
tableau ((2l, 0), (m,)), m = l + N/2: a_1(m - 1) b_1(m) of `gtrep._amplitude`
with the q-integers `q_int`, an exact Laurent polynomial.  Kernel and cokernel
are computed blockwise: a block c_l I has full rank precisely when it is
nonzero.  The only targets that can fail to be covered are target blocks with
no source block at all (l below |N|/2), which are identified structurally, so
no truncation-edge artifacts arise.  No [z], z != 0, vanishes on (0, 1), so
no rank depends on q, and the complex is built without one.  The resulting
Euler characteristic is -N + 1, the quantum switch of the sign of N relative
to the classical count.

For the plane: only the two scalar consequences of the explicit degree-2
operator computation are verified, as q-number radical identities

    -sqrt([n][n+5]/([2][3])) - sqrt(...) + 2[2]^{-1} [2] sqrt(...) = 0,
    -sqrt([n+2][n+3]/[2]) - sqrt(...) = -2 sqrt(...),

each residual measured relative to the size of the terms that cancel.  Both
identities hold for any positive reals in place of the q-numbers (see
`cp2_coefficient_identity`), so this exercises mpmath's square roots and
rounding, not q-arithmetic; it is not a Riemann-Roch oracle for the plane.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from mpmath import mp

from .gtrep import _amplitude
from .linalg import _Memo, _check_int, _rounded_q_number
from .qarith import (DEFAULT_PRECISION, _evaluator, _q_numbers, check_precision, parse_q,
                     q_int)

__all__ = [
    "MAX_LMAX",
    "MAX_CP2_N",
    "Cp1Block",
    "TruncatedComplex",
    "cp1_dolbeault_matrix",
    "cp1_euler_characteristic",
    "EulerResult",
    "cp2_coefficient_identity",
    "Cp2Report",
]


# The largest l_max of the qP^1 complex: its radicands are full Laurent
# products, so a build is cubic in l_max.  A cp2 grid of MAX_CP2_N + 1 (n, q)
# rows, the CLI's largest, takes about 0.2 s; each further row costs its
# roots and a [z] whose integers grow linearly in n.
MAX_LMAX = 128
MAX_CP2_N = 1000

# `radicand` is the exact [l - N/2 + 1][l + N/2], read from the GT amplitudes
# of F_1 (zero for a source-free block); the coefficient c_l is its root.
Cp1Block = namedtuple("Cp1Block", "twol dim_source dim_target radicand")

EulerResult = namedtuple("EulerResult", "N l_max dim_ker dim_coker chi stable blocks")


# The truncated two-term complex L_N -> L_{N-2} on the projective line, held
# as its exact blocks.
TruncatedComplex = namedtuple("TruncatedComplex", "N l_max blocks")


def cp1_dolbeault_matrix(N: int, l_max) -> TruncatedComplex:
    """Build the truncated degree-N complex up to spin l_max <= MAX_LMAX; a
    spin is a multiple of 1/2, and any other l_max is a ValueError."""
    N = _check_int(N, "the degree N")
    given, l_max = l_max, Fraction(l_max)
    if (2 * l_max).denominator != 1:
        raise ValueError("l_max must be a multiple of 1/2, got %s" % (given,))
    if l_max < Fraction(abs(N), 2):
        raise ValueError("l_max must be at least |N|/2")
    if l_max > MAX_LMAX:
        raise ValueError("l_max must be at most %d, got %s" % (MAX_LMAX, l_max))
    twol_cap = int(2 * l_max)
    src_min, tgt_min = abs(N), abs(N - 2)
    qn = _Memo(lambda z: (q_int(z), 0))  # [z] itself, over (ab)^0
    blocks = []
    # |N| and |N - 2| share one parity, so 2l steps by 2 through both spin lists.
    for twol in range(min(src_min, tgt_min), twol_cap + 1, 2):
        in_source, in_target = twol >= src_min, twol >= tgt_min
        m = (twol + N) // 2  # F_1 on ((2l, 0), (m,)) lowers m, unless m = 0
        radicand = (_amplitude("E", 1, (m - 1,), (twol, 0), qn)[0]
                    * _amplitude("F", 1, (m,), (), qn)[0] if in_source and m
                    else q_int(0))
        blocks.append(Cp1Block(
            twol,
            dim_source=twol + 1 if in_source else 0,
            dim_target=twol + 1 if in_target else 0,
            radicand=radicand))
    return TruncatedComplex(N, l_max, blocks)


def _euler_counts(blocks):
    ker = coker = 0
    for b in blocks:
        rank = b.dim_source if b.radicand else 0
        ker += b.dim_source - rank
        if b.dim_target:
            # Source-free target blocks are structural cokernel.
            coker += b.dim_target - min(rank, b.dim_target)
        elif rank:
            raise ArithmeticError(
                "block 2l=%d maps outside the target bundle" % b.twol)
    return ker, coker, ker - coker


def cp1_euler_characteristic(N: int, l_max) -> EulerResult:
    """Kernel, cokernel and Euler characteristic of the truncated complex.

    Stability is checked by recomputing at l_max - 1, from the blocks with
    2l <= 2(l_max - 1) of the same build (the complex at l_max - 1 is exactly
    those); a change in the characteristic flips `stable` off instead of
    being silently accepted.
    """
    N = _check_int(N, "the degree N")
    if Fraction(l_max) < Fraction(abs(N), 2) + 2:
        raise ValueError("l_max must leave a stability margin of at least 2")
    blocks = cp1_dolbeault_matrix(N, l_max).blocks
    ker, coker, chi = _euler_counts(blocks)
    cap = int(2 * (Fraction(l_max) - 1))
    chi_prev = _euler_counts([b for b in blocks if b.twol <= cap])[2]
    return EulerResult(N, l_max, ker, coker, chi, chi == chi_prev, blocks)


def _check_n(n):
    # A cp2 degree, checked as the grid is read: a long grid stops at its first bad n.
    n = _check_int(n, "n")
    if not 0 <= n <= MAX_CP2_N:
        raise ValueError("n must be non-negative" if n < 0
                         else "n must be at most %d, got %d" % (MAX_CP2_N, n))
    return n


def _q_number_values(qf, precision):
    """[z] at q = qf, for z >= 0, as the mpf `_evaluator` gives at `precision`:
    the exact N_z/(ab)^(z-1) of `_q_numbers` rounded once, where
    `_rounded_q_number` proves those are the term sum's bits, and the term
    sum itself where it cannot."""
    ev, table = _evaluator(qf, precision), _q_numbers(qf)

    def value(z):
        num, power = table[z]
        fast = _rounded_q_number(num, table.ab ** power, z, precision) if z > 0 else None
        return ev(q_int(z)) if fast is None else fast

    return _Memo(value)


Cp2Row = namedtuple("Cp2Row", "n q residual_mixed residual_scalar ok")

Cp2Report = namedtuple("Cp2Report", "rows tolerance ok")


def cp2_coefficient_identity(n_values, q_list, precision: int = DEFAULT_PRECISION) -> Cp2Report:
    """Verify the two degree-2 coefficient identities over a parameter grid.

    For each n and q the two cancellations are evaluated with each radical
    computed along a second path (product under one root vs. product of
    roots).  Algebraically x_chain = 2[2]^{-1} sqrt([2]) sqrt([2]) x_joint is
    2 x_joint and y_rhs is 2 y_joint, so both identities hold for any
    positive values of the q-numbers: the residuals measure mpmath's square
    roots and rounding, not q-arithmetic, and the check is no Riemann-Roch
    oracle for qP^2.  Each residual is taken relative to
    max(1, |cancelled term|) (x for the mixed identity, the right-hand side
    2y for the scalar one), because the q-integers grow like q^-n; the
    tolerance is 10^(-precision/2).  Each [z] and its root are computed
    once per q and reused by every row that needs them; [z] is the exact
    integer-table value rounded once, bit for bit the evaluator's term sum
    (see `_q_number_values`), and the rows of one q share one working
    precision context.  An empty grid raises ValueError, since it would
    pass with nothing checked, and so does an n above MAX_CP2_N, as soon as
    the grid reaches it, and a grid of more than MAX_CP2_N + 1 (n, q) rows,
    counted as it is read.
    """
    precision = check_precision(precision)
    most = MAX_CP2_N + 1
    n_values = [_check_n(n) for n in itertools.islice(n_values, most + 1)]
    q_list = [parse_q(q) for q in itertools.islice(q_list, most // max(1, len(n_values)) + 1)]
    if len(n_values) * len(q_list) > most:
        raise ValueError("the cp2 grid has more than %d (n, q) rows" % most)
    if not n_values or not q_list:
        raise ValueError("empty parameter grid: %d n values, %d q values"
                         % (len(n_values), len(q_list)))
    rows = []
    with mp.workdps(precision):
        tol = mp.mpf(10) ** (-(precision // 2))
    for qf in q_list:
        e = _q_number_values(qf, precision)
        with mp.workdps(precision):
            root = _Memo(lambda z: mp.sqrt(e[z]))
            # The factors that do not depend on n, in the order each row takes them.
            x_den, x_chain_factor = e[2] * e[3], 2 / e[2] * root[2] * root[2]
            x_split_den = root[2] * root[3]
            for n in n_values:
                # Component along the mixed basis vector: -x - x + 2 [2]^{-1} [2] x = 0.
                x_joint = mp.sqrt(e[n] * e[n + 5] / x_den)
                x_split = root[n] * root[n + 5] / x_split_den
                x_chain = x_chain_factor * x_joint
                residual_mixed = abs(-x_joint - x_split + x_chain) / max(1, abs(x_joint))

                # Scalar component: -y - y against -2y.
                y_product = e[n + 2] * e[n + 3]
                y_joint = mp.sqrt(y_product / e[2])
                y_split = root[n + 2] * root[n + 3] / root[2]
                y_rhs = 2 * mp.sqrt(y_product) / root[2]
                residual_scalar = abs((-y_joint - y_split) - (-y_rhs)) / max(1, abs(y_rhs))

                ok = residual_mixed <= tol and residual_scalar <= tol
                rows.append(Cp2Row(n, qf, residual_mixed, residual_scalar, ok))
    return Cp2Report(rows, tol, all(r.ok for r in rows))
