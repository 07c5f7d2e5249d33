"""Quantum line complex and quantum plane coefficient identities."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from mpmath import mp

from oracles import cp1_radicand
from qproj.bundles import block_weight, ker_el_combinatorial, ker_el_numeric
from qproj import dolbeault
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
    cx = cp1_dolbeault_matrix(0, 4)
    assert not block(cx, 0).radicand


def test_coefficient_degree_one():
    # For N = 1 both factors coincide, c_l^2 = [l+1/2]^2; at the bottom
    # block l = 1/2 that is [1][1].
    cx = cp1_dolbeault_matrix(1, Fraction(9, 2))
    assert block(cx, 1).radicand == q_int(1) * q_int(1)
    assert block(cx, 3).radicand == q_int(2) * q_int(2)


def test_coefficient_kernel_block_negative_degree():
    cx = cp1_dolbeault_matrix(-2, 5)
    assert not block(cx, 2).radicand     # l = 1 = -N/2 kills [l + N/2]
    assert block(cx, 4).radicand


def test_every_block_is_the_closed_form():
    # dolbeault reads c_l^2 from the GT amplitudes of F_1; it must be the
    # closed form, as an exact Laurent polynomial, block by block.
    blocks = sources = 0
    for N in range(-8, 9):
        for b in cp1_dolbeault_matrix(N, 14).blocks:
            assert isinstance(b.radicand, QLaurent)
            assert b.radicand == cp1_radicand(N, b.twol), (N, b.twol)
            blocks += 1
            sources += bool(b.dim_source)
    assert (blocks, sources) == (222, 215)


def test_half_integer_blocks_for_odd_degree():
    cx = cp1_dolbeault_matrix(1, Fraction(9, 2))
    assert [b.twol for b in cx.blocks if b.dim_source] == [1, 3, 5, 7, 9]


def test_lmax_preconditions():
    with pytest.raises(ValueError):
        cp1_dolbeault_matrix(4, 1)
    with pytest.raises(ValueError):
        cp1_euler_characteristic(4, 3)


def test_lmax_ceiling():
    # Each radicand is a full Laurent product, so a build is cubic in l_max;
    # the ceiling keeps one build well under a second.
    assert dolbeault.MAX_LMAX == 128
    assert cp1_euler_characteristic(2, 128).chi == -1
    for l_max in (129, Fraction(257, 2)):
        with pytest.raises(ValueError, match="l_max must be at most 128, got %s" % l_max):
            cp1_dolbeault_matrix(0, l_max)
        with pytest.raises(ValueError, match="l_max must be at most 128, got %s" % l_max):
            cp1_euler_characteristic(0, l_max)


# -- Euler characteristic ----------------------------------------------------------

def test_euler_trivial_bundle():
    res = cp1_euler_characteristic(0, 8)
    assert (res.dim_ker, res.dim_coker, res.chi) == (1, 0, 1)
    assert res.stable


def test_euler_degree_two():
    res = cp1_euler_characteristic(2, 8)
    assert (res.dim_ker, res.dim_coker, res.chi) == (0, 1, -1)
    # the cokernel sits at the structurally source-free block 2l = 0
    assert block(cp1_dolbeault_matrix(2, 8), 0).dim_source == 0


def test_euler_degree_minus_two():
    res = cp1_euler_characteristic(-2, 8)
    assert (res.dim_ker, res.dim_coker, res.chi) == (3, 0, 3)


@pytest.mark.parametrize("N", range(-6, 7))
def test_euler_formula_and_stability(N):
    for lmax in (8, 10):
        res = cp1_euler_characteristic(N, lmax)
        assert res.chi == -N + 1
        assert res.stable


@pytest.mark.parametrize("N", [-3, 0, 1, 4])
def test_stability_reads_the_complex_one_spin_lower(N):
    # The complex at l_max - 1 is the blocks 2l <= 2(l_max - 1) of the one at
    # l_max, and its characteristic is dim source - dim target (each block is
    # zero or of full rank).
    for l_max in (Fraction(abs(N), 2) + 2, Fraction(abs(N) + 5, 2), 7):
        res = cp1_euler_characteristic(N, l_max)
        assert res.blocks == cp1_dolbeault_matrix(N, l_max).blocks
        lower = cp1_dolbeault_matrix(N, l_max - 1).blocks
        assert lower == [b for b in res.blocks if b.twol <= 2 * (l_max - 1)]
        chi_lower = sum(b.dim_source - b.dim_target for b in lower)
        assert res.stable == (chi_lower == res.chi)


def test_kernel_matches_bundle_count_with_degree_switch():
    # The complex kernel at degree N equals the section count at degree -N.
    for N in range(-4, 5):
        res = cp1_euler_characteristic(N, 8)
        assert res.dim_ker == ker_el_combinatorial(1, -N)


@pytest.mark.parametrize("N", range(7))
def test_bundle_and_line_complex_degrees_are_opposite(N):
    # `bundles` raises with E, so its sections sit at N >= 0; the qP^1
    # complex lowers with F, so the same sections are its kernel at -N.
    res = cp1_euler_characteristic(-N, Fraction(N, 2) + 4)
    sections = sum(r.dim_kernel for r in ker_el_numeric(1, N, 4, Q))
    assert res.dim_ker == sections == N + 1
    # The one source block that F_1 kills is the bundle's n1 = 0 block.
    zero = [b.twol for b in res.blocks if b.dim_source and not b.radicand]
    assert zero == [N] == [block_weight(1, N, 0)[0]]


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


# sha256 of the rows "n q residual_mixed residual_scalar ok" of n = 0..130
# over four q at each precision, each residual as the four integers of its
# raw mpf tuple (sign, mantissa, exponent, bit count): every bit is pinned.
CP2_RAW_SHA256 = {
    30: "43190e928ec4e854243a0033ae582951b5603e7e0dc954e87fc3677384dc28c2",
    60: "7cfa32730a4444e9746b5558ad89b3d2c685286e6d31c04914cb423f6a7ce361",
    100: "65aba45e41e0520d8ecd64d26b41d1179014b36e3d611c36dc8e00fbf36bde99",
}


def _raw(x):
    return "%d %d %d %d" % tuple(int(part) for part in x._mpf_)


@pytest.mark.parametrize("precision", list(CP2_RAW_SHA256))
def test_cp2_residual_bits_are_pinned(precision):
    qs = [Q, Fraction(3, 4), Fraction(9, 10), Fraction(1, 3)]
    rep = cp2_coefficient_identity(range(131), qs, precision)
    text = "".join("%d %s %s %s %s\n" % (r.n, r.q, _raw(r.residual_mixed),
                                          _raw(r.residual_scalar), r.ok)
                   for r in rep.rows)
    assert len(rep.rows) == 4 * 131
    assert hashlib.sha256(text.encode()).hexdigest() == CP2_RAW_SHA256[precision]


def test_cp2_rows_do_not_depend_on_the_other_q():
    # Each q of a grid gets the rows it gets alone.
    qs = [Q, Fraction(3, 4)]
    both = cp2_coefficient_identity(range(30), qs, PREC)
    alone = [row for q in qs for row in cp2_coefficient_identity(range(30), [q], PREC).rows]
    assert _cp2_text(both.rows) == _cp2_text(alone)


def test_cp2_rejects_negative_n():
    with pytest.raises(ValueError):
        cp2_coefficient_identity([-1], [Q], PREC)


# n used to be truncated (n = 2.5 gave a passing row with n = 2) and checked
# inside the q loop, after the first q's [z] were evaluated.
@pytest.mark.parametrize("n_values, error, message", [
    ([2.5], TypeError, "n must be an integer, got 2.5"),
    ([0, Fraction(3)], TypeError, "n must be an integer, got Fraction"),
    ([0, 1, -1], ValueError, "n must be non-negative"),
    ([0, 1001], ValueError, "n must be at most 1000, got 1001"),
])
def test_cp2_checks_every_n_before_any_q_is_evaluated(monkeypatch, n_values, error, message):
    evaluated = []
    monkeypatch.setattr(dolbeault, "_evaluator", lambda *args: evaluated.append(args))
    with pytest.raises(error, match=message):
        cp2_coefficient_identity(n_values, [Q, Fraction(3, 4)], PREC)
    assert evaluated == []


def test_cp2_checks_every_q_before_any_q_is_evaluated(monkeypatch):
    # A bad last q used to be refused only after the 600 rows of the two
    # q before it.
    def evaluator(*args):
        raise AssertionError("evaluated a q before the whole grid was checked")

    monkeypatch.setattr(dolbeault, "_evaluator", evaluator)
    with pytest.raises(ValueError, match="q must lie strictly between 0 and 1, got 2"):
        cp2_coefficient_identity(range(300), [Q, Fraction(3, 4), "2/1"], PREC)


def test_cp2_refuses_a_long_grid_at_its_first_n_above_the_ceiling():
    def grid():
        yield from range(dolbeault.MAX_CP2_N + 2)
        raise AssertionError("the grid was read past its first n above the ceiling")

    with pytest.raises(ValueError, match="n must be at most 1000, got 1001"):
        cp2_coefficient_identity(grid(), [Q], PREC)


@pytest.mark.parametrize("n_values, q_list", [
    (range(1001), [Q, Fraction(3, 4), Fraction(9, 10)]),  # took 3.85 s
    ([5] * 1002, [Q]),
    (itertools.repeat(5), [Q]),
    ([0, 1], itertools.repeat(Q)),
])
def test_cp2_refuses_more_than_the_ceiling_of_rows_before_any_q_is_evaluated(
        monkeypatch, n_values, q_list):
    # Each n may lie in range while the grid, repeated n or many q, does not;
    # the rows are counted as the grid is read, so an endless one stops too.
    evaluated = []
    monkeypatch.setattr(dolbeault, "_evaluator", lambda *args: evaluated.append(args))
    with pytest.raises(ValueError, match=r"^the cp2 grid has more than 1001 \(n, q\) rows$"):
        cp2_coefficient_identity(n_values, q_list, PREC)
    assert evaluated == []


def test_cp2_takes_a_grid_of_exactly_the_ceiling_of_rows(monkeypatch):
    evaluated = []
    monkeypatch.setattr(dolbeault, "_evaluator",
                        lambda *args: evaluated.append(args) or (lambda p: mp.mpf(1)))
    rep = cp2_coefficient_identity(range(77), [Q] * 13, PREC)  # 1001 rows
    assert len(rep.rows) == 1001 and len(evaluated) == 13


def test_cp2_rejects_an_empty_grid():
    # An empty grid would report ok with nothing checked.
    with pytest.raises(ValueError):
        cp2_coefficient_identity([], [Q], PREC)
    with pytest.raises(ValueError):
        cp2_coefficient_identity([1], [], PREC)
