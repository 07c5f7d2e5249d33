"""Line bundle blocks: constraint filter, shapes, kernel dimensions."""

import ast
import collections
import math
import pathlib
import re
from fractions import Fraction

import pytest

from oracles import apply_e, numeric_rank
from qproj import bundles, gtrep, qarith
from qproj.bundles import (
    block_weight,
    build_block,
    ker_el_combinatorial,
    ker_el_numeric,
    ln_conditions_filter,
    closed_form_section_tableaux,
)
from qproj.gtrep import (
    DimensionCapError,
    build_irrep,
    enumerate_tableaux,
    exact_column,
    raise_coeff,
    top_row,
    weyl_dim,
)
from qproj.linalg import SparseMatrix, _Memo, exact_rank

Q = Fraction(1, 2)


# -- block weights ---------------------------------------------------------------

def test_block_weight_patterns():
    assert block_weight(2, 1, 0) == (0, 1)
    assert block_weight(2, 2, 1) == (1, 3)
    assert block_weight(3, 2, 1) == (1, 0, 3)
    assert block_weight(3, -2, 1) == (3, 0, 1)
    assert block_weight(1, 3, 2) == (7,)
    assert block_weight(1, -3, 2) == (7,)


def test_block_weight_validation():
    with pytest.raises(ValueError):
        block_weight(0, 1, 0)
    with pytest.raises(ValueError):
        block_weight(2, 1, -1)


# -- the constraint filter ---------------------------------------------------------

def test_filter_trivial_bundle_constant_section():
    got = ln_conditions_filter(0, (0, 0), Q)
    assert len(got) == 1
    assert got[0].rows == ((0, 0, 0), (0, 0), (0,))


def test_filter_degree_one_shape():
    got = ln_conditions_filter(1, (0, 1), Q)
    assert len(got) == 1
    t = got[0]
    # constant lower triangle, top row (m_{1,3}, m, 2m - m_{1,3} - N)
    assert t.rows == ((1, 1, 0), (1, 1), (1,))


def test_filter_equals_shape_enumeration_degree_two():
    weight = block_weight(2, 2, 1)
    assert weight == (1, 3)
    filtered = ln_conditions_filter(2, weight, Q)
    shaped = closed_form_section_tableaux(2, weight)
    assert filtered == shaped and len(filtered) == 1


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("N", [-2, -1, 0, 1, 2, 3])
def test_filter_equals_shape_enumeration_sweep(ell, N):
    for n1 in range(3):
        weight = block_weight(ell, N, n1)
        filtered = ln_conditions_filter(N, weight, Q)
        shaped = closed_form_section_tableaux(N, weight)
        assert filtered == shaped
        assert len(filtered) == 1  # one constrained tableau per block


@pytest.mark.parametrize("N, weight", [
    (0, (3,)),        # l = 1: 2m = 3 is odd
    (5, (1,)),        # l = 1: m = 3 lies above the top row's 1
    (0, (1, 1, 1)),   # l = 3: the top row (3, 2, 1, 0) has no constant middle
    (1, (1, 1)),      # l = 2: m = 1 needs the last top entry 2 - 2 - 1, not 0
])
def test_filter_and_shape_agree_where_a_weight_has_no_section(N, weight):
    # Not a block weight, so neither route may find a section tableau.
    assert closed_form_section_tableaux(N, weight) == []
    assert ln_conditions_filter(N, weight, Q) == []


def test_kernel_counts_reject_bad_inputs():
    with pytest.raises(ValueError, match="ell must be at least 1"):
        ker_el_combinatorial(0, 1)
    with pytest.raises(ValueError, match="n1_max must be non-negative"):
        ker_el_numeric(2, 1, -1, Q)


def _k_conditions_hold(ell, N, t):
    return (all(t.a(i) == 0 for i in range(1, ell))
            and sum(k * t.a(k) for k in range(1, ell + 1)) == N * ell)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_pruned_descent_is_the_k_filtered_enumeration(ell):
    # The descent keeps only rows whose sums follow s_j = j s_1; that must be
    # exactly the full enumeration cut down by the K conditions, element for
    # element and in order, before any K check is applied to it.  Each block
    # weight is paired with an off-family weight (last part plus one), which
    # moves N + s_(l+1) by l, off a multiple of l + 1.
    indivisible = 0
    for N in range(-4, 7):
        for n1 in range(3 if ell == 4 else 6):
            weight = block_weight(ell, N, n1)
            for w in (weight, weight[:-1] + (weight[-1] + 1,)):
                indivisible += (N + sum(top_row(w))) % (ell + 1) != 0
                full = [t for t in enumerate_tableaux(w) if _k_conditions_hold(ell, N, t)]
                assert bundles._candidates(N, w) == full, (N, w)
    assert indivisible == 11 * (3 if ell == 4 else 6)


def test_filter_off_block_weight_is_empty():
    # A weight outside the block family carries no constrained tableau.
    assert ln_conditions_filter(1, (1, 1), Q) == []


def test_non_positive_dim_cap_is_rejected():
    weight = block_weight(2, 1, 0)
    for cap in (0, -1):
        message = "dim_cap must be at least 1, got %d" % cap
        for call in (lambda: ln_conditions_filter(1, weight, Q, dim_cap=cap),
                     lambda: build_block(2, 1, 0, Q, dim_cap=cap),
                     lambda: ker_el_numeric(2, 1, 0, Q, dim_cap=cap),
                     lambda: build_irrep(weight, Q, dim_cap=cap)):
            with pytest.raises(ValueError, match=message) as info:
                call()
            assert not isinstance(info.value, DimensionCapError)


@pytest.mark.parametrize("cap", [14.5, "20000", None])
def test_a_dim_cap_that_is_not_an_int_is_a_type_error_naming_it(cap):
    # Not truncated to "the cap 14", and not a failed comparison with 1.
    message = "the dimension cap dim_cap must be an integer, got %s" % re.escape(repr(cap))
    for call in (lambda: ker_el_numeric(2, 1, 2, Q, dim_cap=cap),
                 lambda: build_irrep((1, 1), Q, dim_cap=cap)):
        with pytest.raises(TypeError, match=message):
            call()


# -- combinatorial kernel count ------------------------------------------------------

def test_kernel_count_examples():
    assert ker_el_combinatorial(1, 2) == 3
    assert ker_el_combinatorial(2, 1) == 3
    assert ker_el_combinatorial(3, 0) == 1


def test_kernel_count_negative_degree():
    for ell in (1, 2, 3):
        for N in (-1, -2, -5):
            assert ker_el_combinatorial(ell, N) == 0


def test_kernel_count_matches_binomial():
    for ell in range(1, 5):
        for N in range(0, 11):
            assert ker_el_combinatorial(ell, N) == math.comb(N + ell, ell)


# -- numeric kernel -------------------------------------------------------------------

def test_numeric_kernel_l2_N1_blocks():
    records = ker_el_numeric(2, 1, 3, Q)
    assert [(r.n1, r.dim_kernel) for r in records] == [(0, 3), (1, 0), (2, 0), (3, 0)]
    assert sum(r.dim_kernel for r in records) == math.comb(3, 2)


def test_numeric_kernel_negative_degree_all_zero():
    records = ker_el_numeric(1, -2, 3, Q)
    assert all(r.dim_kernel == 0 for r in records)


def test_numeric_kernel_trivial_degree():
    records = ker_el_numeric(2, 0, 2, Q)
    assert [(r.n1, r.dim_kernel) for r in records] == [(0, 1), (1, 0), (2, 0)]


def test_numeric_kernel_total_independent_of_n1max():
    for n1_max in (1, 2, 4):
        total = sum(r.dim_kernel for r in ker_el_numeric(2, 2, n1_max, Q))
        assert total == ker_el_combinatorial(2, 2) == 6


# (dim_constrained, dim_kernel) per n1 of the `ln-kernel` benchmark jobs.
BLOCK_TABLES = {
    (3, -2, 6): [(10, 0), (70, 0), (270, 0), (770, 0), (1820, 0), (3780, 0), (7140, 0)],
    (3, 0, 6): [(1, 1), (15, 0), (84, 0), (300, 0), (825, 0), (1911, 0), (3920, 0)],
    (3, 3, 6): [(20, 20), (120, 0), (420, 0), (1120, 0), (2520, 0), (5040, 0), (9240, 0)],
    (3, 6, 6): [(84, 84), (396, 0), (1170, 0), (2750, 0), (5610, 0), (10374, 0),
                (17836, 0)],
    (2, 6, 10): [(28, 28), (80, 0), (162, 0), (280, 0), (440, 0), (648, 0), (910, 0),
                 (1232, 0), (1620, 0), (2080, 0), (2618, 0)],
    (4, 2, 3): [(15, 15), (160, 0), (875, 0), (3360, 0)],
}


@pytest.mark.parametrize("ell, N, n1_max", list(BLOCK_TABLES))
def test_kernel_block_tables_are_pinned(ell, N, n1_max):
    records = ker_el_numeric(ell, N, n1_max, Q)
    assert [r.n1 for r in records] == list(range(n1_max + 1))
    assert [(r.dim_constrained, r.dim_kernel) for r in records] == BLOCK_TABLES[
        (ell, N, n1_max)]
    total = sum(r.dim_kernel for r in records)
    assert total == (ker_el_combinatorial(ell, N) if N >= 0 else 0)


def _bench_block_tables():
    """`LN_KERNEL_BLOCKS` of bench/workloads.py, the per-block table every
    `ln-kernel` job of the benchmark is checked against, read as a literal."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [
                "LN_KERNEL_BLOCKS"]:
            return ast.literal_eval(node.value)
    raise LookupError("no LN_KERNEL_BLOCKS in %s" % path)


@pytest.mark.parametrize("q", [Q, Fraction(9, 10)])
def test_kernel_blocks_of_the_bench_jobs_are_pinned_at_every_q(q):
    # The table is q-independent: the integer columns and the fraction-free
    # rank give it at q = 9/10 as at q = 1/2, on all six grids of the bench.
    tables = _bench_block_tables()
    assert {(ell, N, len(rows) - 1) for (ell, N), rows in tables.items()} == set(BLOCK_TABLES)
    for (ell, N), rows in tables.items():
        records = ker_el_numeric(ell, N, len(rows) - 1, q)
        assert [(r.n1, r.dim_constrained, r.dim_kernel) for r in records] == [
            (n1, c, k) for n1, (c, k) in enumerate(rows)]


class _CountingTable(_Memo):
    """A q-number table that counts its lookups and its computed [z]."""

    def __init__(self, f):
        super().__init__(f)
        self.lookups = 0
        self.computed = collections.Counter()

    def __getitem__(self, z):
        self.lookups += 1
        return super().__getitem__(z)

    def __missing__(self, z):
        self.computed[z] += 1
        return super().__missing__(z)


def _count_q_number_tables(monkeypatch):
    made = []
    original = qarith._q_numbers

    def counting(qf):
        table = original(qf)
        made.append(_CountingTable(table.f))
        made[-1].ab = table.ab
        return made[-1]

    monkeypatch.setattr(bundles, "_q_numbers", counting)
    monkeypatch.setattr(gtrep, "_q_numbers", counting)
    return made


def test_filter_computes_each_q_number_once(monkeypatch):
    made = _count_q_number_tables(monkeypatch)
    assert ln_conditions_filter(3, block_weight(3, 3, 2), Q)
    (table,) = made
    assert set(table.computed.values()) == {1}
    assert table.lookups > 2 * len(table.computed)  # shared by the amplitudes


def test_kernel_computes_each_q_number_once_per_table(monkeypatch):
    made = _count_q_number_tables(monkeypatch)
    assert len(ker_el_numeric(3, 6, 6, Q)) == 7
    # one table for the filters and the E_l columns of all seven blocks
    (table,) = made
    assert set(table.computed.values()) == {1}
    assert table.lookups > 2 * len(table.computed)
    made.clear()
    assert build_block(3, 3, 2, Q).section_basis
    (table,) = made
    assert set(table.computed.values()) == {1}


def test_top_antiholomorphic_form_constraint_is_degree_ell_plus_one():
    # The scaling constraint q^(l(l+1)/2) of the top anti-holomorphic form
    # is the bundle condition at degree N = l + 1: the selected tableaux
    # satisfy sum_k k a_k = l (l + 1) on the nose.
    for ell in (2, 3):
        N = ell + 1
        for n1 in (0, 1):
            weight = block_weight(ell, N, n1)
            for t in ln_conditions_filter(N, weight, Q):
                assert sum(k * t.a(k) for k in range(1, ell + 1)) == ell * (ell + 1)


def test_block_record_shape():
    block = build_block(2, 1, 1, Q)
    assert block.weight == (1, 2)
    assert len(block.section_basis) == 1
    assert block.free_dim == 15
    records = ker_el_numeric(2, 1, 1, Q)
    assert records[1].dim_constrained == 15  # one tableau times the free leg


def test_block_cap_raises_in_filter_and_block():
    weight = block_weight(2, 1, 2)
    cap = weyl_dim(weight)
    assert ln_conditions_filter(1, weight, Q, dim_cap=cap)
    with pytest.raises(DimensionCapError):
        ln_conditions_filter(1, weight, Q, dim_cap=cap - 1)
    with pytest.raises(DimensionCapError):
        build_block(2, 1, 2, Q, dim_cap=cap - 1)
    with pytest.raises(DimensionCapError):
        ker_el_numeric(2, 1, 2, Q, dim_cap=cap - 1)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_block_dimensions_grow_with_n1(ell):
    # The premise of `ker_el_numeric` checking only its n1_max block against the cap.
    for N in range(-4, 7):
        dims = [weyl_dim(block_weight(ell, N, n1)) for n1 in range(6)]
        assert all(a < b for a, b in zip(dims, dims[1:])), (ell, N, dims)


def test_kernel_refuses_the_top_block_before_building_any(monkeypatch):
    # It used to build every block under the cap first: 27.3 s for
    # `ln-kernel --ell 1 --N 0 --n1max 1000000` before its refusal.
    calls = collections.Counter()
    real = bundles._sections

    def counted(*args, **kwargs):
        calls["filter"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bundles, "_sections", counted)
    with pytest.raises(DimensionCapError, match=r"^block weight \(2000000,\) .* cap 20000$"):
        ker_el_numeric(1, 0, 10**6, Q)
    assert calls["filter"] == 0
    ker_el_numeric(1, 0, 2, Q)
    assert calls["filter"] == 3  # the counter does see the blocks that are built


@pytest.mark.parametrize("q", [Q, Fraction(9, 10)])
def test_kernel_ranks_each_block_without_the_public_entry_points(q, monkeypatch):
    # The kernel checks its inputs once and enters neither `build_block` nor
    # `ln_conditions_filter`, yet equals their composition with the exact
    # rank of the E_l columns.
    want = {}
    for ell in range(1, 5):
        for N in range(-3, 7):
            for n1 in range(2 if ell == 4 else 3):
                block = build_block(ell, N, n1, q)
                columns = [exact_column("E", ell, t, q) for t in block.section_basis]
                want[ell, N, n1] = bundles.BlockKernel(
                    ell, N, n1, len(columns) * block.free_dim,
                    (len(columns) - exact_rank(columns)) * block.free_dim)

    def refused(*args, **kwargs):
        raise AssertionError("re-entered a public entry point")

    monkeypatch.setattr(bundles, "build_block", refused)
    monkeypatch.setattr(bundles, "ln_conditions_filter", refused)
    got = {(r.ell, r.N, r.n1): r for ell in range(1, 5) for N in range(-3, 7)
           for r in ker_el_numeric(ell, N, 1 if ell == 4 else 2, q)}
    assert got == want and len(got) == 3 * 10 * 3 + 10 * 2


def test_block_rank_ceiling(monkeypatch):
    # The trivial block has dimension 1 whatever l, so the dimension cap never
    # bounded l: `ln-kernel --ell 4000 --N 0 --n1max 0` took 16.75 s and 632 MiB.
    ceiling = bundles.MAX_BLOCK_ELL
    assert block_weight(ceiling, 0, 0) == (0,) * ceiling

    def product(*args):
        raise AssertionError("formed a Weyl product above the ceiling")

    monkeypatch.setattr(bundles, "_capped_weyl_dim", product)
    monkeypatch.setattr(bundles, "weyl_dim", product)
    message = r"^ell must be at most 1000, got 1001$"
    for call in (lambda: block_weight(ceiling + 1, 0, 0),
                 lambda: build_block(ceiling + 1, 0, 0, Q),
                 lambda: ker_el_numeric(ceiling + 1, 0, 0, Q)):
        with pytest.raises(ValueError, match=message):
            call()


# -- integer columns ---------------------------------------------------------------

def _multiple(got, want):
    """The one positive integer m with got = m * want, entry by entry, on one
    support; None when there is none."""
    if got.keys() != want.keys() or any(type(v) is not int for v in got.values()):
        return None
    ratios = {Fraction(got[key]) / want[key] for key in want} or {Fraction(1)}
    m = ratios.pop()
    return m if not ratios and m > 0 and m.denominator == 1 else None


@pytest.mark.parametrize("q", ["1/2", "9/10", "1/3"])
def test_integer_columns_are_positive_multiples_of_the_exact_columns(q):
    # Every E_k and F_k column in integers has the support of the Fraction
    # column of `exact_column` and is one positive integer multiple of it,
    # and so is each stacked condition column.
    qn = qarith._q_numbers(qarith.parse_q(q))
    seen = collections.Counter()
    for weight in [(2, 1), (1, 1, 1), (2, 0, 1), (1, 0, 0, 1)]:
        ell = len(weight)
        for t in enumerate_tableaux(weight):
            stacked = {}
            for k in range(1, ell + 1):
                for op in ("E", "F"):
                    want = exact_column(op, k, t, q)
                    got = bundles._integer_column(gtrep._exact_column(op, k, t, qn), qn.ab)
                    m = _multiple(got, want)
                    assert m is not None, (weight, t, op, k)
                    seen[bool(want), m > 1] += 1
                    if k < ell:
                        stacked.update(((op, k, target.rows), c) for target, c in want.items())
            assert _multiple(bundles._condition_column(t, qn), stacked) is not None
    # empty columns, columns already in integers and scaled ones all occur
    assert seen[False, False] and seen[True, False] and seen[True, True]


def test_k_conditions_are_read_from_row_sums_on_every_candidate(monkeypatch):
    # With the row-sum descent switched off, every tableau of the weight is a
    # candidate; the row-sum K check alone must then cut them down to the
    # closed-form sections, and no GTTableau.a is called.
    def refused(*args):
        raise AssertionError("called GTTableau.a")

    monkeypatch.setattr(gtrep.GTTableau, "a", refused)
    monkeypatch.setattr(bundles, "_candidates", lambda N, weight: enumerate_tableaux(weight))
    checked = 0
    for ell in (1, 2, 3):
        for N in range(-3, 4):
            for n1 in range(3):
                weight = block_weight(ell, N, n1)
                got = ln_conditions_filter(N, weight, Q)
                assert got == closed_form_section_tableaux(N, weight), (N, weight)
                checked += bool(got)
    assert checked


# -- exact ranks against the numeric oracle ---------------------------------------

ORACLE_PREC = 60


def _oracle_rank(columns):
    """SVD rank, in the orthonormal basis, of the given {row key: mpf} columns."""
    row_ids = {}
    entries = {}
    for col, column in enumerate(columns):
        for key, c in column.items():
            entries[(row_ids.setdefault(key, len(row_ids)), col)] = c
    res = numeric_rank(SparseMatrix(len(row_ids), len(columns), entries), ORACLE_PREC)
    assert not res.ill_conditioned
    return res.rank


def _orthonormal_condition_column(ell, t, q):
    column = {}
    for i in range(1, ell):
        for target, c in apply_e(i, t, q, ORACLE_PREC).items():
            column[("E", i, target)] = c
        for j in range(1, i + 1):
            target = t.lowered(j, i)
            if target is not None:
                column[("F", i, target)] = raise_coeff(i, j, target, q, ORACLE_PREC)
    return column


@pytest.mark.parametrize("q", [Q, Fraction(9, 10)])
@pytest.mark.parametrize("ell, N", [(2, 0), (2, 6), (3, 0), (3, 3), (3, -2), (4, 2)])
def test_exact_ranks_match_numeric_oracle(ell, N, q):
    for n1 in range(2 if ell == 4 else 3):
        weight = block_weight(ell, N, n1)
        # the K conditions alone: the candidates the filter ranks
        candidates = [
            t for t in enumerate_tableaux(weight)
            if all(t.a(i) == 0 for i in range(1, ell))
            and sum(k * t.a(k) for k in range(1, ell + 1)) == N * ell
        ]
        assert exact_rank(
            [bundles._condition_column(t, gtrep._q_numbers(q)) for t in candidates]
        ) == _oracle_rank([_orthonormal_condition_column(ell, t, q) for t in candidates])
        assert exact_rank(
            [exact_column("E", ell, t, q) for t in candidates]
        ) == _oracle_rank([apply_e(ell, t, q, ORACLE_PREC) for t in candidates])
