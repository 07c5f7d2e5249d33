"""Gelfand-Tsetlin machinery: enumeration, coefficients, relations, export."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from oracles import ref_relation_checks
from qproj.gtrep import (
    DimensionCapError,
    GTTableau,
    _interlace,
    build_irrep,
    enumerate_tableaux,
    exact_column,
    export_matrix,
    raise_coeff,
    verify_relations,
    weyl_dim,
)
from qproj.linalg import SparseMatrix

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
        t = rng.choice(mod.basis)
        col = mod.index[t]
        for j in (1, 2):
            with mp.workdps(PREC):
                target = t.lowered(j, 2)
                entry = mp.mpf(0)
                if target is not None:
                    entry = mod.F[2].get(mod.index[target], col)
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
    assert abs(mod.F[2].get(mod.index[target], mod.index[t]) - 1) < mp.mpf("1e-50")


# -- module construction ---------------------------------------------------------

def test_su2_matrix_entries_reproduce_spin_formulas():
    # Weight (2J): E raises m with <m|E|m-1> = sqrt([l-m+1][l+m]), K diag q^m.
    for twoJ in (1, 2, 3):
        mod = build_irrep((twoJ,), Q, PREC)
        l = Fraction(twoJ, 2)
        with mp.workdps(PREC):
            qs = mp.sqrt(mp.mpf(Q.numerator) / mp.mpf(Q.denominator))
            for idx, t in enumerate(mod.basis):
                m = Fraction(t.row(1)[0]) - l
                assert abs(mod.K[1].get(idx, idx) - qs ** int(2 * m)) < mp.mpf("1e-50")
                if m > -l:
                    lower = mod.index[t.lowered(1, 1)]
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


# -- relations --------------------------------------------------------------------

def test_relations_fundamental_su2_tight():
    report = verify_relations(build_irrep((1,), Q, PREC), mp.mpf("1e-50"))
    assert report.ok, report.failures()


def test_relations_su3_adjoint():
    report = verify_relations(build_irrep((1, 1), Q, PREC), TOL)
    assert report.ok, report.failures()


def test_relations_su4_serre_cases():
    report = verify_relations(build_irrep((1, 0, 1), Q, PREC), TOL)
    assert report.ok, report.failures()
    serre = {c.name for c in report.checks if c.name.startswith("serre(E")}
    assert {"serre(E1,E2)", "serre(E2,E1)", "serre(E2,E3)", "serre(E3,E2)"} <= serre


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
    mod = build_irrep(weight, Q, PREC)
    calls = []
    matmul = SparseMatrix.__matmul__

    def counted(a, b):
        calls.append(any(m.nnz and all(r == s for r, s in m._d) for m in (a, b)))
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    verify_relations(mod)
    assert len(calls) == products and not any(calls)


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
    for k in range(1, mod.ell + 1):
        want = {}
        for col, t in enumerate(mod.basis):
            for j in range(1, k + 1):
                target = t.raised(j, k)
                if target is not None:
                    want[(mod.index[target], col)] = raise_coeff(k, j, t, q, PREC)._mpf_
        assert {key: v._mpf_ for key, v in mod.E[k].entries()} == want


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
