"""Quantum line complex and quantum plane coefficient identities."""

from fractions import Fraction

import pytest
from mpmath import mp

from qproj.bundles import ker_el_combinatorial
from qproj.dolbeault import (
    cp1_dolbeault_matrix,
    cp1_euler_characteristic,
    cp2_coefficient_identity,
)
from qproj.qarith import q_int

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


def test_cp2_rejects_negative_n():
    with pytest.raises(ValueError):
        cp2_coefficient_identity([-1], [Q], PREC)


def test_cp2_rejects_an_empty_grid():
    # An empty grid would report ok with nothing checked.
    with pytest.raises(ValueError):
        cp2_coefficient_identity([], [Q], PREC)
    with pytest.raises(ValueError):
        cp2_coefficient_identity([1], [], PREC)
