"""Gelfand-Tsetlin machinery: enumeration, coefficients, relations, export."""

import hashlib
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from oracles import ref_amplitude, ref_relation_checks
from qproj import gtrep, linalg, qarith
from qproj.bundles import ln_conditions_filter
from qproj.gtrep import (
    DimensionCapError,
    GTTableau,
    IrrepModule,
    _interlace,
    build_irrep,
    enumerate_tableaux,
    exact_column,
    export_matrix,
    raise_coeff,
    validate_weight,
    verify_relations,
    weyl_dim,
)
from qproj.linalg import SparseMatrix
from qproj.qarith import NegativeRadicandError, parse_q

Q = Fraction(1, 2)
PREC = 60
TOL = mp.mpf("1e-40")


def qiv(z, q=Q, prec=PREC):
    """Numeric q-integer by direct power sum (independent of QLaurent)."""
    with mp.workdps(prec):
        qv = mp.mpf(q.numerator) / mp.mpf(q.denominator)
        if z == 0:
            return mp.mpf(0)
        s = 1 if z > 0 else -1
        return s * sum(qv**e for e in range(1 - abs(z), abs(z), 2))


# -- enumeration ---------------------------------------------------------------

def test_fundamental_su2():
    ts = enumerate_tableaux((1,))
    assert len(ts) == 2
    assert [t.rows for t in ts] == [((1, 0), (0,)), ((1, 0), (1,))]


def test_su3_antifundamental_count():
    assert len(enumerate_tableaux((0, 1))) == 3


def test_su3_adjoint_count_vs_weyl_oracle():
    assert weyl_dim((1, 1)) == 8
    assert len(enumerate_tableaux((1, 1))) == 8


@settings(max_examples=30, deadline=None)
@given(weight=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple))
def test_enumeration_matches_weyl_formula(weight):
    assert len(enumerate_tableaux(weight)) == weyl_dim(weight)


def test_weyl_dim_at_ell_1100():
    # About 600,000 factor pairs, every one of them cancelled or multiplied
    # as an integer.
    zeros = (0,) * 1099
    assert weyl_dim(zeros + (0,)) == 1
    assert weyl_dim((1,) + zeros) == weyl_dim(zeros + (1,)) == 1101
    assert weyl_dim((2,) + zeros) == 1101 * 1102 // 2 == 606651


def test_enumeration_of_many_rows():
    # A recursion per row would pass the recursion limit here.
    [t] = enumerate_tableaux((0,) * 1100)
    assert t.ell == 1100 and set(t.flat()) == {0}


def test_ordering_is_lexicographic_on_flat():
    ts = enumerate_tableaux((1, 1))
    flats = [t.flat() for t in ts]
    assert flats == sorted(flats)


def test_fundamental_basis_is_the_integer_parametrization():
    # For weight (0,...,0,1) the basis vector |i> has ones above the step i.
    for ell in (1, 2, 3):
        weight = (0,) * (ell - 1) + (1,)
        ts = enumerate_tableaux(weight)
        assert len(ts) == ell + 1
        for i, t in enumerate(ts, start=1):
            for j in range(1, ell + 1):
                expected_last = 1 if j <= i - 1 else 0
                assert t.row(j)[-1] == expected_last


def test_interlacing_validation():
    assert GTTableau(((2, 0), (1,))).interlaces()
    assert not GTTableau(((2, 0), (3,))).interlaces()
    with pytest.raises(ValueError):
        GTTableau(((1, 0), (0, 0)))


def test_row_and_entry_ranges():
    t = GTTableau(((2, 1, 0), (2, 0), (1,)))
    assert [t.row(j) for j in (1, 2, 3)] == [(1,), (2, 0), (2, 1, 0)]
    assert t.entry(1, 1) == 1 and t.entry(2, 2) == 0 and t.entry(3, 3) == 0
    for j in (0, 4, 5):
        with pytest.raises(ValueError, match=r"row j must lie in 1\.\.3, got %d" % j):
            t.row(j)
    with pytest.raises(ValueError, match=r"entry i of row 3 must lie in 1\.\.3, got 0"):
        t.entry(0, 3)
    with pytest.raises(ValueError, match=r"entry i of row 2 must lie in 1\.\.2, got 3"):
        t.entry(3, 2)


@pytest.mark.parametrize("move,i,k", [("raised", 1, 4), ("raised", 3, 2), ("raised", 2, 1),
                                      ("raised", 0, 2), ("lowered", 0, 2), ("lowered", 1, 4)])
def test_moves_outside_the_tableau_are_value_errors(move, i, k):
    # Not a malformed tableau, a bare IndexError, or a None that would read
    # as broken interlacing.
    t = GTTableau(((2, 1, 0), (2, 0), (1,)))
    with pytest.raises(ValueError, match="must lie in 1"):
        getattr(t, move)(i, k)


@pytest.mark.parametrize("weight, message", [
    ((), "needs at least one component"),
    ((1, -1, 2), r"must be non-negative: \(1, -1, 2\)"),
])
def test_bad_highest_weights_are_rejected(weight, message):
    with pytest.raises(ValueError, match=message):
        validate_weight(weight)


@pytest.mark.parametrize("k", [0, 3])
def test_weight_exponent_rejects_k_outside_1_to_ell(k):
    t = GTTableau(((2, 1, 0), (2, 0), (1,)))
    with pytest.raises(ValueError, match="k must lie in 1..2, got %d" % k):
        t.a(k)


@pytest.mark.parametrize("k, j", [(3, 1), (1, 2), (2, 0)])
def test_raise_coeff_rejects_j_or_k_out_of_range(k, j):
    t = GTTableau(((2, 1, 0), (2, 0), (1,)))
    with pytest.raises(ValueError, match="need 1 <= j <= k <= 2, got j=%d k=%d" % (j, k)):
        raise_coeff(k, j, t, Q)


def test_a_negative_radicand_is_an_error_naming_the_amplitude(monkeypatch):
    # A sign slip in the transcribed b_j makes every nonzero radicand
    # a_j(m) b_j(m^j_k) negative; the exact sign test must catch it before
    # any rounding, in the build and in the single coefficient alike.
    amplitude = gtrep._amplitude

    def slipped(op, *args):
        num, den, e = amplitude(op, *args)
        return -num if op == "F" else num, den, e

    monkeypatch.setattr(gtrep, "_amplitude", slipped)
    with pytest.raises(NegativeRadicandError, match=r"^radicand of A\^1_1 is negative: -"):
        build_irrep((1, 1), Q, PREC)
    t = GTTableau(((2, 1, 0), (2, 0), (1,)))
    with pytest.raises(NegativeRadicandError, match=r"^radicand of A\^2_2 is negative: -"):
        raise_coeff(2, 2, t, Q, PREC)


# -- weight exponents ----------------------------------------------------------

def test_weight_exponent_direct_substitution():
    t = enumerate_tableaux((1,))[1]  # m_11 = 1 on top row (1, 0)
    assert t.a(1) == 2 * 1 - (1 + 0)


def test_weight_exponent_constant_tableau_vanishes():
    m = 3
    t = GTTableau(((m, m, m, m), (m, m, m), (m, m), (m,)))
    for k in (1, 2, 3):
        assert t.a(k) == 0


def test_weight_exponent_fundamental_delta_pattern():
    for ell in (1, 2, 3):
        ts = enumerate_tableaux((0,) * (ell - 1) + (1,))
        for j, t in enumerate(ts, start=1):
            for r in range(1, ell + 1):
                expected = (1 if r + 1 == j else 0) - (1 if r == j else 0)
                assert t.a(r) == expected


# -- raising coefficients --------------------------------------------------------

def test_fundamental_raise_coefficient_is_one():
    for ell in (1, 2, 3):
        ts = enumerate_tableaux((0,) * (ell - 1) + (1,))
        for r in range(1, ell + 1):
            c = raise_coeff(r, r, ts[r - 1], Q, PREC)
            assert abs(c - 1) < mp.mpf("1e-50")


def test_invalid_raise_gives_zero():
    ts = enumerate_tableaux((1,))
    top = ts[1]  # m_11 = 1, raising breaks m_11 <= m_12 = 1
    assert raise_coeff(1, 1, top, Q, PREC) == 0


def _longhand_e2(t, j):
    """Second-row raising radicands for ell = 2, expanded entry by entry.

    Written out independently of the library's shifted-entry product so a
    transcription slip on either side shows up as a numeric mismatch.
    """
    m13, m23, m33 = t.row(3)
    m12, m22 = t.row(2)
    m11 = t.row(1)[0]
    if j == 1:
        num = (qiv(m13 - m12) * qiv(m23 - m12 - 1) * qiv(m33 - m12 - 2)
               * qiv(m12 - m11 + 1))
        den = qiv(m12 - m22 + 1) * qiv(m12 - m22 + 2)
    else:
        num = (qiv(m13 - m22 + 1) * qiv(m23 - m22) * qiv(m33 - m22 - 1)
               * qiv(m11 - m22))
        den = qiv(m12 - m22 + 1) * qiv(m12 - m22)
    return num, den


def _longhand_f2(t, j):
    """Lowering radicands for ell = 2, expanded entry by entry.

    Obtained by transposing the longhand raising radicands (the basis is
    orthonormal, so lowering amplitudes are raising amplitudes of the
    lowered tableau).  The bottom-entry factors must be [m11 - m12] and
    [m11 - m22 + 1]; shifted variants would assign nonzero amplitude to
    interlacing-breaking moves (see the dedicated test below).
    """
    m13, m23, m33 = t.row(3)
    m12, m22 = t.row(2)
    m11 = t.row(1)[0]
    if j == 1:
        num = (qiv(m13 - m12 + 1) * qiv(m23 - m12) * qiv(m33 - m12 - 1)
               * qiv(m11 - m12))
        den = qiv(m12 - m22) * qiv(m12 - m22 + 1)
    else:
        num = (qiv(m13 - m22 + 2) * qiv(m23 - m22 + 1) * qiv(m33 - m22)
               * qiv(m11 - m22 + 1))
        den = qiv(m12 - m22 + 1) * qiv(m12 - m22 + 2)
    return num, den


def test_e2_coefficients_match_longhand_radicands():
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        weight = (rng.randint(0, 4), rng.randint(0, 4))
        ts = enumerate_tableaux(weight)
        t = rng.choice(ts)
        for j in (1, 2):
            with mp.workdps(PREC):
                num, den = _longhand_e2(t, j)
                ours = raise_coeff(2, j, t, Q, PREC)
                if den == 0:
                    assert ours == 0
                    continue
                longhand = mp.sqrt(abs(num / den)) if num / den else mp.mpf(0)
                if t.raised(j, 2) is None:
                    assert longhand < mp.mpf("1e-45") and ours == 0
                else:
                    assert abs(ours - longhand) < mp.mpf("1e-45")
            checked += 1


def test_f2_coefficients_match_longhand_radicands():
    rng = random.Random(11)
    q = Q
    checked = 0
    while checked < 20:
        weight = (rng.randint(0, 4), rng.randint(0, 4))
        mod = build_irrep(weight, q, PREC, dim_cap=500)
        index = {t: i for i, t in enumerate(mod.basis)}
        t = rng.choice(mod.basis)
        col = index[t]
        for j in (1, 2):
            with mp.workdps(PREC):
                target = t.lowered(j, 2)
                entry = mp.mpf(0)
                if target is not None:
                    entry = mod.F[2].get(index[target], col)
                num, den = _longhand_f2(t, j)
                if den == 0:
                    assert entry == 0
                    continue
                longhand = mp.sqrt(abs(num / den)) if num / den else mp.mpf(0)
                if target is None:
                    assert longhand < mp.mpf("1e-45")
                else:
                    assert abs(entry - longhand) < mp.mpf("1e-45")
            checked += 1


def test_f2_bottom_factor_shift_is_detectable():
    # A shifted bottom-entry factor [m11 - m22 - 2] in place of
    # [m11 - m22 + 1] would give the defining representation a lowering
    # amplitude sqrt([2]) != 1 on its top vector; the *-structure
    # (F = E transposed) forces amplitude exactly 1, so the cross-check
    # genuinely discriminates.
    t = enumerate_tableaux((0, 1))[2]
    m13, m23, m33 = t.row(3)
    m12, m22 = t.row(2)
    m11 = t.row(1)[0]
    shifted = (qiv(m13 - m22 + 2) * qiv(m23 - m22 + 1) * qiv(m33 - m22)
               * qiv(m11 - m22 - 2)) / (qiv(m12 - m22 + 1) * qiv(m12 - m22 + 2))
    assert abs(abs(shifted) - qiv(2)) < mp.mpf("1e-50")  # sqrt([2]) != 1
    mod = build_irrep((0, 1), Q, PREC)
    target = t.lowered(2, 2)
    index = {t: i for i, t in enumerate(mod.basis)}
    assert abs(mod.F[2].get(index[target], index[t]) - 1) < mp.mpf("1e-50")


# -- module construction ---------------------------------------------------------

def test_su2_matrix_entries_reproduce_spin_formulas():
    # Weight (2J): E raises m with <m|E|m-1> = sqrt([l-m+1][l+m]), K diag q^m.
    for twoJ in (1, 2, 3):
        mod = build_irrep((twoJ,), Q, PREC)
        index = {t: i for i, t in enumerate(mod.basis)}
        l = Fraction(twoJ, 2)
        with mp.workdps(PREC):
            qs = mp.sqrt(mp.mpf(Q.numerator) / mp.mpf(Q.denominator))
            for idx, t in enumerate(mod.basis):
                m = Fraction(t.row(1)[0]) - l
                assert abs(mod.K[1].get(idx, idx) - qs ** int(2 * m)) < mp.mpf("1e-50")
                if m > -l:
                    lower = index[t.lowered(1, 1)]
                    expected = mp.sqrt(qiv(int(l - m + 1)) * qiv(int(l + m)))
                    assert abs(mod.E[1].get(idx, lower) - expected) < mp.mpf("1e-45")


def test_fundamental_matrix_units():
    for ell in (1, 2, 3):
        mod = build_irrep((0,) * (ell - 1) + (1,), Q, PREC)
        for r in range(1, ell + 1):
            entries = dict(mod.E[r].entries())
            assert set(entries) == {(r, r - 1)}  # 0-based (r+1, r) in 1-based
            assert abs(entries[(r, r - 1)] - 1) < mp.mpf("1e-50")


def test_trivial_representation():
    mod = build_irrep((0, 0), Q, PREC)
    assert mod.dim == 1
    for k in (1, 2):
        assert mod.E[k].nnz == 0 and mod.F[k].nnz == 0
        assert abs(mod.K[k].get(0, 0) - 1) < mp.mpf("1e-55")


def test_f_is_transpose_of_e():
    mod = build_irrep((1, 1), Q, PREC)
    for k in (1, 2):
        assert dict(mod.F[k].entries()) == {(j, i): v for (i, j), v in mod.E[k].entries()}


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_irrep((3, 3, 3), Q, PREC, dim_cap=10)


def test_dimension_cap_is_exact_near_the_cap():
    # dim (1, 1) = 8: near the cap the exact dimension decides.
    assert build_irrep((1, 1), Q, PREC, dim_cap=8).dim == 8
    with pytest.raises(DimensionCapError, match=r"weight \(1, 1\) has dimension 8, above the cap 7$"):
        build_irrep((1, 1), Q, PREC, dim_cap=7)


def test_a_dimension_far_above_the_cap_fails_fast():
    # dim (1,...,1) at ell = 1100 has 605,551 bits; its exact product takes
    # tens of seconds, the logarithmic bound a fraction of one.
    weight = (1,) * 1100
    calls = [lambda: build_irrep(weight, Q, PREC, dim_cap=5000),
             lambda: ln_conditions_filter(0, weight, Q, dim_cap=5000)]
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(DimensionCapError) as info:
            call()
        assert time.perf_counter() - start < 10
        bits = re.search(r"has dimension at least 2\^(\d+), above the cap 5000$", str(info.value))
        assert bits and 605_500 <= int(bits.group(1)) <= 605_550


def test_enumeration_checks_the_default_cap_before_any_tableau(monkeypatch):
    # (3, 3, 3, 3) has 1,048,576 tableaux: enumerating them took 9.8 s and
    # 493 MiB before the weight was checked against the cap.
    built = []
    monkeypatch.setattr(gtrep, "_tableaux", lambda *args: built.append(args))
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match=r"\(3, 3, 3, 3\) .* above the cap 20000$"):
        enumerate_tableaux((3, 3, 3, 3))
    assert time.perf_counter() - start < 1 and built == []


def test_build_irrep_enumerates_under_its_own_cap(monkeypatch):
    monkeypatch.setattr(gtrep, "DEFAULT_DIM_CAP", 7)
    with pytest.raises(DimensionCapError, match=r"dimension 8, above the cap 7$"):
        enumerate_tableaux((1, 1))
    assert build_irrep((1, 1), Q, PREC, dim_cap=8).dim == 8


# -- relations --------------------------------------------------------------------

def test_relations_fundamental_su2_tight():
    report = verify_relations(build_irrep((1,), Q, PREC), mp.mpf("1e-50"))
    assert report.ok, report.checks


def test_relations_su3_adjoint():
    report = verify_relations(build_irrep((1, 1), Q, PREC), TOL)
    assert report.ok, report.checks


def test_relations_su4_serre_cases():
    report = verify_relations(build_irrep((1, 0, 1), Q, PREC), TOL)
    assert report.ok, report.checks
    serre = {c.name for c in report.checks if c.name.startswith("serre(E")}
    assert {"serre(E1,E2)", "serre(E2,E1)", "serre(E2,E3)", "serre(E3,E2)"} <= serre


def test_report_is_a_record_whose_ok_is_every_check_within_tolerance():
    mod = build_irrep((1, 1), Q, PREC)
    loose, strict = (verify_relations(mod, tol) for tol in (TOL, "0"))
    for report, tol in ((loose, TOL), (strict, 0)):
        assert type(report) is gtrep.RelationReport
        assert report._fields == ("checks", "tolerance", "ok")
        assert report.tolerance == tol
        assert report.ok is all(c.residual <= tol for c in report.checks)
    assert loose.ok and not strict.ok


def test_relations_refuse_a_rank_above_the_ceiling_before_any_product(monkeypatch):
    # The trivial module has dimension 1 at every l, so only this ceiling
    # bounds the about 5 l^2 checks.
    ceiling = gtrep.MAX_RELATION_ELL
    mod = build_irrep((0,) * (ceiling + 1), Q, PREC)
    monkeypatch.setattr(SparseMatrix, "_diagonal_exchange", None)
    with pytest.raises(ValueError, match=r"^the relation check takes ell at most 100, got 101$"):
        verify_relations(mod, TOL)
    assert gtrep._relation_tol(None, PREC, ceiling)[0] == "1e-40"


def test_a_built_module_is_a_record():
    mod = build_irrep((1, 1), Q, PREC)
    assert isinstance(mod, tuple) and type(mod) is IrrepModule
    assert mod._fields == ("weight", "basis", "q", "precision", "K", "E", "F")
    assert (mod.dim, mod.ell) == (8, 2)
    assert repr(mod) == "IrrepModule(n=(1, 1), dim=8, q=1/2)"
    # No instance dict: nothing but the seven fields is stored, so `index`
    # is the tuple method, not a tableau -> position map.
    assert not hasattr(mod, "__dict__") and IrrepModule.index is tuple.index


def test_a_k_with_an_off_diagonal_entry_is_refused():
    # The plain matrix algebra sees the extra K_2 entry at (0, 1); the
    # diagonal exchange must refuse it rather than read past it.
    mod = build_irrep((1, 1), Q, PREC)
    with mp.workdps(PREC):
        entries = dict(mod.K[2].entries())
        entries[(0, 1)] = mp.mpf(1)
        K = {1: mod.K[1], 2: SparseMatrix(mod.dim, mod.dim, entries)}
        bad = IrrepModule(mod.weight, mod.basis, mod.q, PREC, K, mod.E, mod.F)
        assert (K[1] @ K[2] - K[2] @ K[1])._max_abs()[0] > mp.mpf("0.5")
    with pytest.raises(ValueError, match=r"K is not diagonal: entry at \(0, 1\)"):
        verify_relations(bad)


# -- structural invariants ---------------------------------------------------------

def test_e_f_targets_stay_interlacing():
    mod = build_irrep((1, 1), Q, PREC)
    for k in (1, 2):
        for (i, j), _v in mod.E[k].entries():
            assert mod.basis[i].interlaces() and mod.basis[j].interlaces()


def test_raising_amplitudes_are_nonnegative():
    # the positive square root is taken everywhere
    for weight in [(2,), (1, 1), (0, 2)]:
        mod = build_irrep(weight, Q, PREC)
        for k in range(1, mod.ell + 1):
            assert all(v >= 0 for _ij, v in mod.E[k].entries())


def test_weight_additivity_along_e():
    for weight in [(2,), (1, 1), (0, 2), (1, 0, 1)]:
        mod = build_irrep(weight, Q, PREC)
        ell = mod.ell
        for k in range(1, ell + 1):
            for (i, j), _v in mod.E[k].entries():
                src, dst = mod.basis[j], mod.basis[i]
                assert dst.a(k) == src.a(k) + 2
                for other in (k - 1, k + 1):
                    if 1 <= other <= ell:
                        assert dst.a(other) == src.a(other) - 1


def test_e_columns_have_at_most_k_entries():
    # E_k raises one of k entries in row k, so columns carry <= k values.
    for weight in [(1, 1), (1, 0, 1)]:
        mod = build_irrep(weight, Q, PREC)
        for k in range(1, mod.ell + 1):
            per_col = {}
            for (_i, j), _v in mod.E[k].entries():
                per_col[j] = per_col.get(j, 0) + 1
            assert all(count <= k for count in per_col.values())


def test_ef_commutator_is_diagonal():
    mod = build_irrep((1, 1), Q, PREC)
    with mp.workdps(PREC):
        for k in (1, 2):
            comm = mod.E[k] @ mod.F[k] - mod.F[k] @ mod.E[k]
            off = [v for (i, j), v in comm.entries() if i != j]
            assert all(abs(v) < mp.mpf("1e-50") for v in off)


# -- export --------------------------------------------------------------------

def test_export_header_and_determinism():
    mod = build_irrep((0, 1), Q, PREC)
    text = export_matrix(mod, "E", 2)
    lines = text.splitlines()
    assert lines[0] == "# irrep ℓ=2 n=0,1 op=E2 q=1/2 precision=60"
    assert text == export_matrix(mod, "E", 2)
    for line in lines[1:]:
        i, j, value = line.split()
        assert int(i) >= 0 and int(j) >= 0
        mp.mpf(value)  # parses back


# sha256 of the K, E and F exports (K1.., E1.., F1.. concatenated), pinned so
# that a change to how entries are computed or printed shows up byte for byte.
EXPORT_SHA256 = {
    ((1, 1), Q, 60): "a880c0b4be0e78962019806dea51328e21cf86e43786e542563da92e32a7cc40",
    ((1, 0, 1), Q, 60): "8e505c6f0da0c7ae55cc140b5c3a4803f217b4d872d3f9bb1cb7ed8afdcb7007",
    ((1, 1), Fraction(9, 10), 60):
        "188a957be83fb1b0c7db4924ced7f47d7f8faddbee040bd21a8c6cdb3512d2bc",
    ((1, 0, 1), Fraction(9, 10), 60):
        "bc1d7bfe77ae975efe2342a91d223a0e7f7b209522650847e0cfc4f34c7819bb",
    ((1, 1), Q, 100): "9126e43f79664d0fdad5c014124d36873e74c3527e7c47331101aec49200b34c",
    ((1, 1, 1, 1), Q, 60): "d972294ba02208a81ca757ec84eba2149d6f562acfcc9612b2033cc651c70d41",
    # The precision extremes, where the rounding at precision + 10 and the
    # root at precision are easiest to get wrong.
    ((1, 1), Q, 30): "3b0eb9fac789477b8321818c96658449bc70ba384c8b2db624c26ecea551a10b",
    ((1, 1), Q, 4000): "6bf3f776c45dcedb26cea37a5fc76639b77a86152fd91698de5d6a828464ea9a",
    ((1, 0, 1), Fraction(9, 10), 30):
        "ffa5dc6403bc7c7dbd8d53933536e1b1367c23e725b13263d715ed4f9a26e097",
    ((1, 0, 1), Fraction(9, 10), 4000):
        "95f2170887564c1253da2b28d303351972fdc4d917448375f0184be31782ea98",
    ((2, 1), Fraction(9, 10), 1000):
        "2b7c2afb0dd48665960c5a3d78ec6abd6e788da8c5e05b19402caeda11d5622a",
}


@pytest.mark.parametrize("weight,q,precision", list(EXPORT_SHA256),
                         ids=["%s-q%s-p%d" % (",".join(map(str, w)), q, p)
                              for w, q, p in EXPORT_SHA256])
def test_export_bytes_are_pinned(weight, q, precision):
    mod = build_irrep(weight, q, precision)
    text = "".join(export_matrix(mod, op, k) for op in "KEF" for k in range(1, mod.ell + 1))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[(weight, q, precision)]


# sha256 of the verify_relations rows "name residual entry" (residual as the
# CLI prints it, mp.nstr(.., 8)), pinned like the exports above.
RELATIONS_SHA256 = {
    ((2, 1, 2), Q, 60): "4c58551a2336d822e0252ea1aacce8f37d6cdc274fd383bb4d811680b7b8b304",
    ((2, 1, 2), Q, 100): "3b75b595ef564ee896c6188cc105576ada8bd23af9acafc88d5fbb12872e4348",
    ((1, 2, 1), Fraction(9, 10), 60):
        "55fb5abcc8368cd857730f0e9ce7da662167148721c125a52c0e74a4996d9abe",
    ((4, 2), Fraction(3, 4), 60):
        "c9a43c0812d368a051a8b400bd3319294ec36bf32f5dddf49e965d2eb2a09228",
    ((1, 0, 0, 1), Q, 60): "31f8d3199b0c111030db9b08a9f7a354661b9e38be9dbba9707a96094e644f73",
    ((1, 1, 1, 1), Q, 60): "b847cb5f3678e6a4a0ff40c536ffed037ef62f0528311481a6899f5bdf23b13d",
    ((3, 3), Q, 60): "8bc7552950d2c579fd405c2ec52fe7738153e55d412c100969afc56c9f4ca669",
    ((3,), Fraction(9, 10), 60):
        "3adaff194c91ef95ef9775b451698693e0f31702ad71fb9a6b6912c1c3c5840c",
    ((1, 0, 0, 0, 1), Q, 60):
        "9d933ba1daab3c471aca272e3f11c05d5cd910f60d8fced2a7b6c6c71bdcd729",
    ((2, 2), Fraction(9, 10), 45):
        "1a059d65d5303b15ed21edc294c740e92c76d7af08757e3da16be7489eab09da",
    ((1, 1), Fraction(1, 3), 30):
        "3210f8986b89c0f898c38ddea5bb4fceb3ed590b72f47e3fbea7175d540ca7a0",
}


@pytest.mark.parametrize("weight,q,precision", list(RELATIONS_SHA256),
                         ids=["%s-q%s-p%d" % (",".join(map(str, w)), q, p)
                              for w, q, p in RELATIONS_SHA256])
def test_relation_residuals_are_pinned(weight, q, precision):
    report = verify_relations(build_irrep(weight, q, precision))
    text = "".join("%s %s %s\n" % (c.name, mp.nstr(c.residual, 8), c.entry)
                   for c in report.checks)
    assert hashlib.sha256(text.encode()).hexdigest() == RELATIONS_SHA256[(weight, q, precision)]


RELATION_ORACLE_CASES = [
    ((1,), Fraction(1, 3), 30),
    ((0, 0), Q, 60),
    ((2, 1), Fraction(9, 10), 100),
    ((3, 3), Fraction(1, 3), 60),
    ((1, 0, 1), Fraction(9, 10), 30),
    ((0, 0, 0), Fraction(1, 3), 100),
    ((1, 0, 0, 1), Fraction(9, 10), 100),
    ((1, 0, 0, 0, 1), Fraction(1, 3), 30),
    ((0, 1, 0, 0, 0), Q, 60),
]


@pytest.mark.parametrize("weight,q,precision", RELATION_ORACLE_CASES,
                         ids=["%s-q%s-p%d" % (",".join(map(str, w)), q, p)
                              for w, q, p in RELATION_ORACLE_CASES])
def test_relations_match_the_product_oracle(weight, q, precision):
    # The K checks entry by entry and the shared pair products must give
    # the matrix-algebra check's names, residual bits and entries exactly.
    mod = build_irrep(weight, q, precision)
    got = [(c.name, c.residual._mpf_, c.entry) for c in verify_relations(mod).checks]
    want = [(c.name, c.residual._mpf_, c.entry) for c in ref_relation_checks(mod)]
    assert got == want


@pytest.mark.parametrize("weight,products", [((1, 1, 1, 1), 100), ((2, 1, 2), 60),
                                             ((3, 3), 28)])
def test_relations_form_no_product_with_a_diagonal(monkeypatch, weight, products):
    # No product has a diagonal operand, and each generator product is formed
    # once per pair: the brackets, then per twin two products for each pair
    # and six more for each neighbouring pair, and one square per generator.
    # The hook is the product kernel, which `@` and the pair memo's products
    # both go through.
    mod = build_irrep(weight, Q, PREC)
    calls = []
    product = SparseMatrix._product

    def counted(a, b, memo=None):
        calls.append(any(m.nnz and all(r == s for r, s in m._d) for m in (a, b)))
        return product(a, b, memo)

    monkeypatch.setattr(SparseMatrix, "_product", counted)
    verify_relations(mod)
    assert len(calls) == products and not any(calls)


@pytest.mark.parametrize("weight,bound", [((1, 1, 1, 1), 12500), ((2, 1, 2), 8500)])
def test_relations_multiply_each_value_pair_once_per_generator_pair(monkeypatch, weight,
                                                                     bound):
    # The products of one generator pair share one memo, each product stored
    # under both operand orders: 12,121 and 8,120 mpf_mul calls, against
    # 30,500 and 16,736 with a fresh memo per product, and 14,125 and 9,270
    # with each product stored under one order only.
    mod = build_irrep(weight, Q, PREC)
    calls = [0]
    mpf_mul = linalg.mpf_mul

    def counted(*args):
        calls[0] += 1
        return mpf_mul(*args)

    monkeypatch.setattr(linalg, "mpf_mul", counted)
    verify_relations(mod)
    assert 0 < calls[0] <= bound


def test_relations_drop_each_pair_memo_when_the_pair_ends():
    # A tracemalloc peak of 1.58 MiB on Python 3.11 (1.30 with a fresh memo
    # per product); keeping every pair's memo to the end of the call reaches
    # 2.04 MiB.
    mod = build_irrep((1, 1, 1, 1), Q, PREC)
    tracemalloc.start()
    try:
        verify_relations(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 2 ** 20, "peak %.2f MiB" % (peak / 2 ** 20)


@pytest.mark.parametrize("weight,q", [((1, 1, 1, 1), Q), ((2, 1, 2), Fraction(9, 10)),
                                      ((1, 2, 1), Fraction(9, 10)), ((3, 3), Fraction(1, 3))],
                         ids=["1,1,1,1-q1/2", "2,1,2-q9/10", "1,2,1-q9/10", "3,3-q1/3"])
def test_transposed_brackets_are_equal_bit_for_bit(weight, q):
    # For i != j each entry (r, s) of E_i F_j and of F_j E_i has exactly one
    # term, so it is one mpf_mul, and mpf_mul gives the same bits in either
    # operand order: E_j F_i = (E_i F_j)^T and F_i E_j = (F_j E_i)^T value for
    # value.  Only the storage order may differ.
    mod = build_irrep(weight, q, PREC)
    E, F = mod.E, mod.F
    checked = 0
    with mp.workdps(PREC):
        for i in range(1, mod.ell + 1):
            for j in range(1, mod.ell + 1):
                if i == j:
                    continue
                for A, B, back in ((E[i], F[j], E[j] @ F[i]), (F[j], E[i], F[i] @ E[j])):
                    rows_of_b = {}
                    for (k, s), _ in B.entries():
                        rows_of_b.setdefault(k, []).append(s)
                    terms = Counter((r, s) for (r, k), _ in A.entries()
                                    for s in rows_of_b.get(k, ()))
                    assert set(terms.values()) <= {1}
                    got = {(s, r): v._mpf_ for (r, s), v in (A @ B).entries()}
                    assert got == {key: v._mpf_ for key, v in back.entries()}
                    checked += len(got)
    assert checked


@pytest.mark.parametrize("weight,q", [((1, 1, 1, 1), Q), ((1, 2, 1), Fraction(9, 10))],
                         ids=["1,1,1,1-q1/2", "1,2,1-q9/10"])
def test_built_entries_are_the_unmemoised_coefficients(weight, q):
    # build_irrep takes each root and each power of q^(1/2) once per distinct
    # value; every stored entry must still be the one computed afresh.
    mod = build_irrep(weight, q, PREC)
    with mp.workdps(PREC):
        qs = mp.sqrt(mp.mpf(q.numerator) / mp.mpf(q.denominator))
        for k in range(1, mod.ell + 1):
            for col, t in enumerate(mod.basis):
                assert mod.K[k].get(col, col)._mpf_ == (qs ** t.a(k))._mpf_
    index = {t: i for i, t in enumerate(mod.basis)}
    for k in range(1, mod.ell + 1):
        want = {}
        for col, t in enumerate(mod.basis):
            for j in range(1, k + 1):
                target = t.raised(j, k)
                if target is not None:
                    want[(index[target], col)] = raise_coeff(k, j, t, q, PREC)._mpf_
        assert {key: v._mpf_ for key, v in mod.E[k].entries()} == want


@pytest.mark.parametrize("weight,roots", [((1, 1, 1, 1), 103), ((2, 1, 2), 106)])
def test_build_roots_each_distinct_radicand_once(weight, roots, monkeypatch):
    # Shifted windows share radicands: 709 and 401 windows take a root each,
    # but they hold only 103 and 106 distinct radicands.
    seen, root = [], gtrep._rounded_root
    monkeypatch.setattr(gtrep, "_rounded_root",
                        lambda radicand, precision: seen.append(radicand)
                        or root(radicand, precision))
    build_irrep(weight, Q, PREC)
    assert len(seen) == len(set(seen)) == roots


def test_export_rejects_bad_op():
    mod = build_irrep((1,), Q, PREC)
    with pytest.raises(ValueError):
        export_matrix(mod, "X", 1)
    with pytest.raises(ValueError):
        export_matrix(mod, "E", 2)


# -- exact amplitudes in the non-normalized basis -------------------------------

def qfrac(z, q):
    """Exact q-integer at a rational q by direct power sum."""
    sign = 1 if z > 0 else -1
    return sign * sum((q**e for e in range(1 - abs(z), abs(z), 2)), Fraction(0))


def _exact_radicand(k, j, t, q):
    """(A^j_k)^2 by the module docstring's formula, in exact rationals."""
    ljk = t.l(j, k)
    value = Fraction(-1)
    for i in range(1, k + 2):
        value *= qfrac(t.l(i, k + 1) - ljk, q)
    for i in range(1, k):
        value *= qfrac(t.l(i, k - 1) - ljk - 1, q)
    for i in range(1, k + 1):
        if i != j:
            d = t.l(i, k) - ljk
            value /= qfrac(d, q) * qfrac(d - 1, q)
    return value


@pytest.mark.parametrize("q", [Q, Fraction(9, 10)])
@pytest.mark.parametrize("weight", [(1, 1), (2, 1), (1, 1, 1), (2, 1, 2), (1, 0, 1), (3, 3)])
def test_exact_amplitudes_multiply_to_raise_radicand(weight, q):
    # a_j(m) b_j(m^{+j}) = (A^j_k)^2 exactly, and raise_coeff is its root.
    # Every amplitude is a Fraction, the bare seed b_1 = [1] of F_1 too.
    checked = 0
    for t in enumerate_tableaux(weight):
        for k in range(1, len(weight) + 1):
            up, down = exact_column("E", k, t, q), exact_column("F", k, t, q)
            assert all(type(c) is Fraction for c in [*up.values(), *down.values()])
            if k == 1:
                assert set(down.values()) <= {1}
            raised = [t.raised(j, k) for j in range(1, k + 1)]
            assert set(up) == {s for s in raised if s is not None}
            assert set(down) == {
                s for s in (t.lowered(j, k) for j in range(1, k + 1)) if s is not None}
            for j, target in enumerate(raised, start=1):
                if target is None:
                    continue
                radicand = _exact_radicand(k, j, t, q)
                assert up[target] * exact_column("F", k, target, q)[t] == radicand
                with mp.workdps(PREC):
                    numeric = raise_coeff(k, j, t, q, PREC) ** 2
                    assert abs(numeric - mp.mpf(radicand.numerator) / radicand.denominator) \
                        <= mp.mpf("1e-50") * max(1, numeric)
                checked += 1
    assert checked


AMPLITUDE_QS = ["1/2", "9/10", "3/4", "1/3", "4/9"]


@pytest.mark.parametrize("q", AMPLITUDE_QS)
@pytest.mark.parametrize("op", ["E", "F"])
def test_integer_amplitude_equals_the_fraction_chain(op, q):
    # One Fraction from the integer products equals the chain of Fraction
    # steps, on random non-increasing rows (so every l_{i,k} is distinct)
    # under an unconstrained `other` row, so zero numerators occur too.
    rng = random.Random(30)
    qn = qarith._q_numbers(parse_q(q))
    zeros = 0
    for _ in range(300):
        k = rng.randint(1, 5)
        row = tuple(sorted((rng.randint(-6, 12) for _ in range(k)), reverse=True))
        other = tuple(rng.randint(-6, 12) for _ in range(k + 1 if op == "E" else k - 1))
        j = rng.randint(1, k)
        got = qarith._ratio(qn, *gtrep._amplitude(op, j, row, other, qn))
        assert type(got) is Fraction and got == ref_amplitude(op, j, row, other, q)
        zeros += not got
    assert 0 < zeros < 300


@pytest.mark.parametrize("q", AMPLITUDE_QS)
def test_raise_radicands_are_the_fraction_chain_products(q, monkeypatch):
    # The one Fraction `raise_coeff` roots is ref_amplitude("E") at m times
    # ref_amplitude("F") at m^j_k, exactly, and the root has the bits of that
    # product rounded at precision + 10 digits and rooted at precision.
    seen, ratio = [], gtrep._ratio
    monkeypatch.setattr(gtrep, "_ratio", lambda *args: seen.append(ratio(*args)) or seen[-1])
    qn = qarith._q_numbers(parse_q(q))
    checked = 0
    for weight in [(2, 1), (1, 1, 1), (2, 0, 1), (1, 0, 0, 1)]:
        for t in enumerate_tableaux(weight):
            for k in range(1, len(weight) + 1):
                for j in range(1, k + 1):
                    if t.raised(j, k) is None:
                        continue
                    upper, row, lower = window = gtrep._window(t, k)
                    raised = row[:j - 1] + (row[j - 1] + 1,) + row[j:]
                    want = (ref_amplitude("E", j, row, upper, q)
                            * ref_amplitude("F", j, raised, lower, q))
                    got = linalg._rounded_root(gtrep._radicand(k, j, window, qn), PREC)
                    assert seen == [want]
                    seen.clear()
                    with mp.workdps(PREC + 10):
                        value = mp.mpf(want.numerator) / want.denominator
                    with mp.workdps(PREC):
                        assert got == mp.sqrt(+value)
                    checked += 1
    assert checked > 100


def test_exact_column_drops_a_zero_amplitude():
    # Off the interlacing tableaux a move the bounds allow can carry a zero
    # amplitude: raising m_{1,1} = 1 under the top row (3, 2) multiplies by
    # [l_{2,2} - l_{1,1}] = [0].  The assembler drops it, so the column is
    # empty in integers and in Fractions alike.
    t = GTTableau(((3, 2), (1,)))
    assert not t.interlaces() and t.raised(1, 1) is not None
    assert gtrep._exact_column("E", 1, t, qarith._q_numbers(Q)) == []
    assert exact_column("E", 1, t, Q) == {}


def test_exact_column_rejects_unknown_op():
    with pytest.raises(ValueError):
        exact_column("K", 1, enumerate_tableaux((1,))[0], Q)


@pytest.mark.parametrize("op", ["E", "F"])
@pytest.mark.parametrize("k", [0, 3, 4])
def test_exact_column_rejects_k_outside_1_to_ell(op, k):
    # k = 3 would lower or raise the top row, which is the weight.
    t = enumerate_tableaux((1, 1))[4]
    with pytest.raises(ValueError, match="k must lie in 1..2, got %d" % k):
        exact_column(op, k, t, Q)


def _moved_by_rebuild(t, i, k, step):
    # The reference move: rebuild the whole tableau, re-check every row pair.
    rows = [list(r) for r in t.rows]
    rows[t.size - k][i - 1] += step
    moved = GTTableau(rows)
    return moved if moved.interlaces() else None


@pytest.mark.parametrize("weight", [(1, 1, 1, 1), (2, 1, 2), (3, 3), (1, 0, 0, 1)])
def test_raised_and_lowered_match_a_full_rebuild(weight):
    # raised/lowered check only the moved entry's bounds in rows k+1 and k-1;
    # every entry, the top row k = l+1 included, must agree with the full check.
    moves = 0
    for t in enumerate_tableaux(weight):
        for k in range(1, t.size + 1):
            for i in range(1, k + 1):
                for step, got in ((1, t.raised(i, k)), (-1, t.lowered(i, k))):
                    want = _moved_by_rebuild(t, i, k, step)
                    assert got == want
                    if got is not None:
                        assert got.rows == want.rows and got.interlaces()
                        moves += 1
    assert moves


def _moved_by_row_pairs(t, i, k, step):
    # Interlacing of the two whole row pairs that hold entry (i, k).
    rows = [list(r) for r in t.rows]
    pos = t.size - k
    rows[pos][i - 1] += step
    if pos and not _interlace(rows[pos - 1], rows[pos]):
        return None
    if k > 1 and not _interlace(rows[pos], rows[pos + 1]):
        return None
    return GTTableau(rows)


@pytest.mark.parametrize("weight", [(3,), (2, 1), (0, 3), (1, 2, 1), (3, 0, 2),
                                    (2, 0, 1, 1), (1, 1, 1, 1)])
def test_moves_check_only_the_moved_entry(weight):
    # The bounds of the moved entry decide exactly what the two row pairs do.
    moves = 0
    for t in enumerate_tableaux(weight):
        for k in range(1, t.size + 1):
            for i in range(1, k + 1):
                for step, got in ((1, t.raised(i, k)), (-1, t.lowered(i, k))):
                    assert got == _moved_by_row_pairs(t, i, k, step)
                    moves += got is not None
    assert moves
