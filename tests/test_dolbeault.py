"""Quantum line complex and quantum plane coefficient identities."""

import hashlib
from fractions import Fraction

import pytest
from mpmath import mp

from oracles import cp1_radicand
from qproj.bundles import ker_el_combinatorial
from qproj.dolbeault import (
    cp1_dolbeault_matrix,
    cp1_euler_characteristic,
    cp2_coefficient_identity,
)
from qproj.qarith import QLaurent, q_int

Q = Fraction(1, 2)
PREC = 60


def block(cx, twol):
    return next(b for b in cx.blocks if b.twol == twol)


# -- operator coefficients ---------------------------------------------------------

def test_coefficient_constants_are_holomorphic():
    cx = cp1_dolbeault_matrix(0, 4, Q)
    assert not block(cx, 0).radicand


def test_coefficient_degree_one():
    # For N = 1 both factors coincide, c_l^2 = [l+1/2]^2; at the bottom
    # block l = 1/2 that is [1][1].
    cx = cp1_dolbeault_matrix(1, Fraction(9, 2), Q)
    assert block(cx, 1).radicand == q_int(1) * q_int(1)
    assert block(cx, 3).radicand == q_int(2) * q_int(2)


def test_coefficient_kernel_block_negative_degree():
    cx = cp1_dolbeault_matrix(-2, 5, Q)
    assert not block(cx, 2).radicand     # l = 1 = -N/2 kills [l + N/2]
    assert block(cx, 4).radicand


def test_every_block_is_the_closed_form():
    # dolbeault reads c_l^2 from the GT amplitudes of F_1; it must be the
    # closed form, as an exact Laurent polynomial, block by block.
    blocks = sources = 0
    for q in (Q, Fraction(9, 10), Fraction(1, 3)):
        for N in range(-8, 9):
            for b in cp1_dolbeault_matrix(N, 14, q).blocks:
                assert isinstance(b.radicand, QLaurent)
                assert b.radicand == cp1_radicand(N, b.twol), (q, N, b.twol)
                blocks += 1
                sources += bool(b.dim_source)
    assert (blocks, sources) == (666, 645)


def test_half_integer_blocks_for_odd_degree():
    cx = cp1_dolbeault_matrix(1, Fraction(9, 2), Q)
    assert [b.twol for b in cx.blocks if b.dim_source] == [1, 3, 5, 7, 9]


def test_lmax_preconditions():
    with pytest.raises(ValueError):
        cp1_dolbeault_matrix(4, 1, Q)
    with pytest.raises(ValueError):
        cp1_euler_characteristic(4, 3, Q)


# -- Euler characteristic ----------------------------------------------------------

def test_euler_trivial_bundle():
    res = cp1_euler_characteristic(0, 8, Q)
    assert (res.dim_ker, res.dim_coker, res.chi) == (1, 0, 1)
    assert res.stable


def test_euler_degree_two():
    res = cp1_euler_characteristic(2, 8, Q)
    assert (res.dim_ker, res.dim_coker, res.chi) == (0, 1, -1)
    # the cokernel sits at the structurally source-free block 2l = 0
    assert block(cp1_dolbeault_matrix(2, 8, Q), 0).dim_source == 0


def test_euler_degree_minus_two():
    res = cp1_euler_characteristic(-2, 8, Q)
    assert (res.dim_ker, res.dim_coker, res.chi) == (3, 0, 3)


@pytest.mark.parametrize("N", range(-6, 7))
def test_euler_formula_and_stability(N):
    for lmax in (8, 10):
        res = cp1_euler_characteristic(N, lmax, Q)
        assert res.chi == -N + 1
        assert res.stable


def test_kernel_matches_bundle_count_with_degree_switch():
    # The complex kernel at degree N equals the section count at degree -N.
    for N in range(-4, 5):
        res = cp1_euler_characteristic(N, 8, Q)
        assert res.dim_ker == ker_el_combinatorial(1, -N)


# -- quantum plane identities --------------------------------------------------------

def test_cp2_identities_base_case():
    rep = cp2_coefficient_identity([1], [Q], PREC)
    row = rep.rows[0]
    assert row.ok
    assert row.residual_mixed <= mp.mpf("1e-30")
    assert row.residual_scalar <= mp.mpf("1e-30")


def test_cp2_identities_large_parameters():
    rep = cp2_coefficient_identity([20], [Fraction(9, 10)], PREC)
    assert rep.ok


def test_cp2_identities_large_n_at_half():
    # At q = 1/2 the terms grow like 2^n; an absolute residual of the true
    # identity exceeds 1e-30 from n = 102 on, the relative one does not.
    rep = cp2_coefficient_identity([110], [Q], PREC)
    assert rep.ok
    assert rep.rows[0].residual_mixed <= mp.mpf("1e-50")
    assert rep.rows[0].residual_scalar <= mp.mpf("1e-50")


def test_cp2_identity_degenerate_n0():
    # [0] = 0 collapses the mixed identity to 0 = 0.
    rep = cp2_coefficient_identity([0], [Q], PREC)
    assert rep.ok and rep.rows[0].residual_mixed == 0


def test_cp2_identities_grid():
    rep = cp2_coefficient_identity(range(1, 21), [Q, Fraction(3, 4), Fraction(9, 10)], PREC)
    assert rep.ok
    assert len(rep.rows) == 60


# sha256 of the "n residual_mixed residual_scalar ok" rows (residuals as the
# CLI prints them, mp.nstr(.., 6)) of `cp2-identity --nmax` at each q.
CP2_SHA256 = {
    (120, Q, 60): "71c70bcdffc779507e640500488744893cc0f187f9b813cf3cf70d7b773e6fb5",
    (120, Fraction(3, 4), 60):
        "645167a3c4de28c04e708d6ba94e703055ed9f6ddbb8a0aff0a9aedad31f7307",
    (60, Fraction(9, 10), 100):
        "5fde9337f63ed3d07ca44dc5c8a4ee28c91f42c9d549cac81bbffcb0b7ce66ab",
}


def _cp2_text(rows):
    return "".join("%d %s %s %s\n" % (r.n, mp.nstr(r.residual_mixed, 6),
                                       mp.nstr(r.residual_scalar, 6), r.ok)
                   for r in rows)


@pytest.mark.parametrize("nmax,q,precision", list(CP2_SHA256),
                         ids=["n%d-q%s-p%d" % key for key in CP2_SHA256])
def test_cp2_rows_are_pinned(nmax, q, precision):
    rep = cp2_coefficient_identity(range(nmax + 1), [q], precision)
    text = _cp2_text(rep.rows)
    assert hashlib.sha256(text.encode()).hexdigest() == CP2_SHA256[(nmax, q, precision)]


def test_cp2_rows_do_not_depend_on_the_other_q():
    # Each q of a grid gets the rows it gets alone.
    qs = [Q, Fraction(3, 4)]
    both = cp2_coefficient_identity(range(30), qs, PREC)
    alone = [row for q in qs for row in cp2_coefficient_identity(range(30), [q], PREC).rows]
    assert _cp2_text(both.rows) == _cp2_text(alone)


def test_cp2_rejects_negative_n():
    with pytest.raises(ValueError):
        cp2_coefficient_identity([-1], [Q], PREC)


def test_cp2_rejects_an_empty_grid():
    # An empty grid would report ok with nothing checked.
    with pytest.raises(ValueError):
        cp2_coefficient_identity([], [Q], PREC)
    with pytest.raises(ValueError):
        cp2_coefficient_identity([1], [], PREC)
