"""Sparse matrix plumbing, the exact rank, and the numeric rank oracle."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from oracles import (
    numeric_rank,
    ref_add,
    ref_diagonal_exchange,
    ref_matmul,
    ref_max_abs,
    ref_rounded_root,
    ref_scaled,
    ref_sub,
)
from qproj.linalg import SparseMatrix, _rounded_root, exact_rank

PREC = 60


def M(nrows, ncols, entries):
    with mp.workdps(PREC):
        return SparseMatrix(nrows, ncols, {k: mp.mpf(v) for k, v in entries.items()})


def test_matmul_against_hand_product():
    a = M(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 3})
    b = M(2, 2, {(0, 0): 4, (1, 0): 5, (1, 1): 6})
    c = a @ b
    with mp.workdps(PREC):
        assert c.get(0, 0) == 14 and c.get(0, 1) == 12
        assert c.get(1, 0) == 15 and c.get(1, 1) == 18


def test_transpose_and_add():
    a = M(2, 3, {(0, 2): 7, (1, 0): -2})
    at = a.transpose()
    assert at.get(2, 0) == 7 and at.get(0, 1) == -2
    s = a + a.scaled(mp.mpf(-1))
    assert s.nnz == 0


def test_shape_checks():
    a = M(2, 2, {})
    b = M(3, 2, {})
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(IndexError):
        M(1, 1, {(1, 0): 1})
    with pytest.raises(ValueError, match="shape mismatch"):
        a + b
    with pytest.raises(ValueError, match="shape mismatch"):
        a - b


@pytest.mark.parametrize("i, j", [(5, 7), (-1, 0), (0, -1), (2, 0), (0, 2)])
def test_get_outside_the_matrix_is_an_index_error(i, j):
    # As the constructor refuses an entry there, `get` refuses to read one.
    a = M(2, 2, {(0, 0): 1, (1, 1): 2})
    with pytest.raises(IndexError, match=r"entry \(%d, %d\) outside 2x2" % (i, j)):
        a.get(i, j)


@pytest.mark.parametrize("i, j", [(0.5, 0), (0, 1.0), ("1", 0), (0, None), (Fraction(1), 1)])
def test_an_index_that_is_not_an_int_is_a_type_error_naming_the_entry(i, j):
    # (0.5, 0) was stored as it was: `entries()` yielded it, `get(0, 0)` read 0
    # and `get(0.5, 0)` read 3; a string index failed on the bare comparison.
    message = r"entry %s must have integer indices" % re.escape(repr((i, j)))
    with pytest.raises(TypeError, match=message):
        SparseMatrix(2, 2, {(0, 0): mp.mpf(1), (i, j): mp.mpf(3)})
    with pytest.raises(TypeError, match=message):
        M(2, 2, {(0, 0): 1}).get(i, j)


def test_a_bool_index_counts_as_an_int():
    a = SparseMatrix(2, 2, {(True, False): mp.mpf(3)})
    assert a.get(1, 0) == a.get(True, 0) == 3 and a.get(0, 0) == 0


@pytest.mark.parametrize("value", [1, 0, 0.5, Fraction(1, 2), "1", None])
def test_an_entry_that_is_not_an_mpf_is_a_type_error_naming_it(value):
    with pytest.raises(TypeError, match=r"entry \(1, 0\) must be an mpf, got %s"
                       % re.escape(repr(value))):
        SparseMatrix(2, 2, {(0, 0): mp.mpf(1), (1, 0): value})


@pytest.mark.parametrize("shape", [(2.5, 2), (2, 2.0), ("2", 2), (None, 2), (2, Fraction(2))])
def test_a_shape_that_is_not_an_int_is_a_type_error_naming_it(shape):
    # A float shape was truncated: SparseMatrix(2.5, 2) was a 2x2 matrix.
    bad = next(n for n in shape if type(n) is not int)
    with pytest.raises(TypeError, match="a matrix dimension must be an integer, got %s"
                       % re.escape(repr(bad))):
        SparseMatrix(*shape)


@pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (-3, -3)])
def test_a_negative_shape_is_a_value_error(shape):
    with pytest.raises(ValueError, match="a matrix dimension must be non-negative, got -"):
        SparseMatrix(*shape)


def test_an_empty_shape_is_a_matrix():
    assert (SparseMatrix(0, 3).nrows, SparseMatrix(0, 3).ncols) == (0, 3)
    assert SparseMatrix.diagonal([]).nnz == 0


@pytest.mark.parametrize("value", [1, 0, 0.5, Fraction(1, 2), "1", None])
def test_a_diagonal_value_that_is_not_an_mpf_is_a_type_error_naming_it(value):
    with pytest.raises(TypeError, match=r"entry \(1, 1\) must be an mpf, got %s"
                       % re.escape(repr(value))):
        SparseMatrix.diagonal([mp.mpf(1), value])


@pytest.mark.parametrize("value", [2, 0.5, Fraction(1, 2), "2", None])
def test_a_scale_that_is_not_an_mpf_is_a_type_error_naming_it(value):
    with pytest.raises(TypeError, match="the scale c must be an mpf, got %s"
                       % re.escape(repr(value))):
        M(2, 2, {(0, 0): 1}).scaled(value)


def _radicand(data, digits):
    # A positive Fraction whose numerator and denominator each have more
    # digits than either rounding keeps.
    n, d = (data.draw(st.integers(10 ** (digits + 10), 10 ** (digits + 30)))
            for _ in range(2))
    return Fraction(n, d)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), precision=st.integers(30, 1000))
def test_rounded_root_is_the_two_workdps_root_bit_for_bit(data, precision):
    radicand = _radicand(data, precision)
    assume(min(radicand.numerator, radicand.denominator) >= 10 ** (precision + 10))
    assert _rounded_root(radicand, precision)._mpf_ == \
        ref_rounded_root(radicand, precision)._mpf_


def test_rounded_root_at_4000_digits():
    rng = random.Random(32)
    radicand = Fraction(rng.randrange(10 ** 4010, 10 ** 4030) | 1,
                        rng.randrange(10 ** 4010, 10 ** 4030) | 1)
    assert min(radicand.numerator, radicand.denominator) >= 10 ** 4010
    assert _rounded_root(radicand, 4000)._mpf_ == ref_rounded_root(radicand, 4000)._mpf_


def test_rank_full_and_deficient():
    full = M(2, 2, {(0, 0): 1, (1, 1): 2})
    assert numeric_rank(full, PREC).rank == 2
    # second column is a multiple of the first
    defic = M(2, 2, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 6})
    res = numeric_rank(defic, PREC)
    assert res.rank == 1 and not res.ill_conditioned


def test_rank_empty_matrix():
    res = numeric_rank(M(4, 3, {}), PREC)
    assert res.rank == 0 and not res.ill_conditioned


def test_rank_flags_near_threshold_sigma():
    # a singular value sitting at the relative cut must be flagged, never
    # silently counted in or out
    with mp.workdps(PREC):
        tiny = mp.mpf(10) ** (-(PREC // 2))
        m = M(2, 2, {(0, 0): 1, (1, 1): tiny})
    res = numeric_rank(m, PREC)
    assert res.ill_conditioned



# -- exact rank -----------------------------------------------------------------

def _rows(matrix):
    """The rows of a literal matrix as the {column: value} dicts `exact_rank`
    takes."""
    return [dict(enumerate(row)) for row in matrix]


def test_eliminate_deficient_rank():
    assert exact_rank(_rows([[1, 3], [2, 6]])) == 1
    assert exact_rank(_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    # more rows than columns, one redundant
    assert exact_rank(_rows([[1, 0], [0, 1], [1, 1]])) == 2
    assert exact_rank(_rows([[0, 3], [Fraction(1, 2), 1]])) == 2


def test_eliminate_empty():
    assert exact_rank([]) == 0
    assert exact_rank(_rows([[0, 0], [0, 0]])) == 0
    assert exact_rank([{}, {}]) == 0


def test_eliminate_sparse_keys():
    # rows need not share keys, and keys need not be integers
    assert exact_rank([{"a": 1}, {"b": 2}, {"a": 3, "b": 6}]) == 2
    assert exact_rank([{"a": 1, "b": 1}, {"b": 1, "c": 1}, {"a": 1, "c": -1}]) == 2


def test_eliminate_rank_matches_numeric_oracle():
    rng = random.Random(3)
    for _ in range(30):
        nrows, ncols, inner = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        oracle = numeric_rank(
            M(nrows, ncols, {(i, j): v for i, row in enumerate(rows)
                             for j, v in enumerate(row)}), PREC)
        assert exact_rank(_rows(rows)) == oracle.rank


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols), max_size=5)))
def test_rank_of_rows_equals_rank_of_columns(matrix):
    # Small entries make zero rows, zero columns and dependent rows common;
    # the rows keep their zeros, the columns drop them (a zero column is {}).
    ncols = len(matrix[0]) if matrix else 0
    columns = [{i: row[j] for i, row in enumerate(matrix) if row[j]}
               for j in range(ncols)]
    oracle = numeric_rank(
        M(len(matrix), ncols, {(i, j): v for i, row in enumerate(matrix)
                               for j, v in enumerate(row)}), PREC)
    assert exact_rank(_rows(matrix)) == exact_rank(columns) == oracle.rank


# -- bit-for-bit arithmetic ------------------------------------------------------

def _random_sparse(rng, n, nnz, digits):
    with mp.workdps(digits):
        return SparseMatrix(n, n, {
            (rng.randrange(n), rng.randrange(n)):
                mp.mpf(rng.randint(-10**6, 10**6)) / rng.randint(1, 999) * mp.pi
            for _ in range(nnz)})


def _raw(d):
    # an oracle's {key: mpf} dict as the (key, raw tuple) pairs `_d` stores
    return [(k, v._mpf_) for k, v in d.items()]


@pytest.mark.parametrize("digits", [60, 100])
def test_sparse_arithmetic_is_the_mpf_loop_bit_for_bit(digits):
    # Entries created at `digits`, arithmetic at 60: with 100-digit entries
    # a subtraction that skips the rounding of the negated entry (a plain
    # mpf_sub) would cancel A - A exactly and keep no entry at all.
    rng = random.Random(digits)
    a = _random_sparse(rng, 12, 60, digits)
    b = _random_sparse(rng, 12, 60, digits)
    with mp.workdps(PREC):
        x, y, z = mp.mpf(3) / 7, mp.mpf(5) / 11, mp.mpf(2) / 13
        # (0, 0) of c @ e is x*z - x*z: exact cancellation inside a product
        c = SparseMatrix(2, 2, {(0, 0): x, (0, 1): x, (1, 1): y})
        e = SparseMatrix(2, 2, {(0, 0): z, (1, 0): -z, (1, 1): y})
        cases = [(a + b, ref_add(a, b)), (a - b, ref_sub(a, b)),
                 (a @ b, ref_matmul(a, b)), (b @ a, ref_matmul(b, a)),
                 (a - a, ref_sub(a, a)), (a @ b - b @ a, ref_sub(a @ b, b @ a)),
                 (c @ e, ref_matmul(c, e))]
        for got, want in cases:
            assert got.nnz == len(want)
            assert list(got._d.items()) == _raw(want)
        assert (0, 0) not in (c @ e)._d and (c @ e).nnz == 3
        if digits == PREC:
            assert (a - a).nnz == 0
        else:
            assert (a - a).nnz > 0


def _pool(digits):
    # A few values and their negatives: the sparse products meet the same
    # operand pairs over and over, and opposite signs cancel exactly.
    with mp.workdps(digits):
        base = [mp.mpf(1), mp.mpf(3) / 7, mp.mpf(5) / 11, mp.sqrt(2), mp.pi / 3]
        return base + [-x for x in base]


def _pool_matrix(data, n, pool):
    if data.draw(st.booleans(), label="diagonal"):
        cells = [(i, i) for i in range(n)]
    else:
        cells = [(i, j) for i in range(n) for j in range(n)]
    picks = data.draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(pool)),
                               max_size=3 * n))
    return SparseMatrix(n, n, dict(picks))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), digits=st.sampled_from([PREC, 100]), n=st.integers(1, 6))
def test_memoised_kernels_are_the_mpf_loops_bit_for_bit(data, digits, n):
    pool = _pool(digits)
    a, b = _pool_matrix(data, n, pool), _pool_matrix(data, n, pool)
    c = data.draw(st.sampled_from(pool))
    with mp.workdps(PREC):
        ab, ba = a @ b, b @ a
        cases = [(ab, ref_matmul(a, b)), (ba, ref_matmul(b, a)), (a @ a, ref_matmul(a, a)),
                 (a + b, ref_add(a, b)), (a - b, ref_sub(a, b)), (a - a, ref_sub(a, a)),
                 (ab - ba, ref_sub(ab, ba)), (ab + a, ref_add(ab, a)),
                 (a.scaled(c), ref_scaled(a, c)), (ab.scaled(c), ref_scaled(ab, c))]
        for got, want in cases:
            # the same keys in the same order, the same raw tuple in each
            assert list(got._d.items()) == _raw(want)
        if digits == PREC:
            assert (a - a).nnz == 0


# -- relation scans ----------------------------------------------------------------

def _same_scan(got, want):
    # the same residual bits and the same entry
    assert (got[0]._mpf_, got[1]) == (want[0]._mpf_, want[1])


@pytest.mark.parametrize("order", [(1, -1), (-1, 1)])
def test_max_abs_ties_go_to_the_first_entry_in_storage_order(order):
    with mp.workdps(PREC):
        v = mp.mpf(3) / 7
        # storage order (2, 0), (0, 1), (1, 2), (0, 0): +v and -v tie.
        m = SparseMatrix(3, 3, {(2, 0): v / 2, (0, 1): order[0] * v,
                                (1, 2): order[1] * v, (0, 0): -v / 3})
        got = m._max_abs()
        assert got[1] == (0, 1) and got[0] == v
        _same_scan(got, ref_max_abs(m.entries()))


def test_all_zero_scans_give_zero_and_no_entry():
    with mp.workdps(PREC):
        empty = SparseMatrix(3, 3)
        _same_scan(empty._max_abs(), (mp.mpf(0), None))
        # a diagonal commutes with a diagonal: every entry of M K - K M is 0
        k = [mp.mpf(2) / 3, mp.sqrt(2), mp.mpf(5)]
        m = SparseMatrix.diagonal([mp.mpf(1) / 7, -mp.pi, mp.mpf(3)])
        got = m._diagonal_exchange(SparseMatrix.diagonal(k), None, {})
        assert got[0]._mpf_ == mp.mpf(0)._mpf_ and got[1] is None
        _same_scan(got, ref_max_abs(ref_diagonal_exchange(m, k)))


def test_diagonal_exchange_refuses_a_k_of_another_size_or_off_its_diagonal():
    m = M(2, 2, {(0, 1): 3})
    with pytest.raises(ValueError, match="K is 3x3, M 2x2"):
        m._diagonal_exchange(M(3, 3, {(0, 0): 1}), None, {})
    with pytest.raises(ValueError, match="M 2x3"):
        M(2, 3, {})._diagonal_exchange(M(2, 2, {(0, 0): 1}), None, {})
    # the first off-diagonal entry in storage order is named
    with pytest.raises(ValueError, match=r"entry at \(1, 0\)"):
        m._diagonal_exchange(M(2, 2, {(0, 0): 1, (1, 0): 2, (0, 1): 5}), None, {})


@settings(max_examples=80, deadline=None)
@given(data=st.data(), digits=st.sampled_from([PREC, 100]), n=st.integers(1, 6))
def test_relation_scans_are_the_mpf_loops_bit_for_bit(data, digits, n):
    # Operands made at `digits`, scans at 60: with 100-digit operands every
    # |v| and every exchange product is rounded, as the mpf operators round.
    pool = _pool(digits)
    a, b = _pool_matrix(data, n, pool), _pool_matrix(data, n, pool)
    k = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="k")
    c = data.draw(st.sampled_from(pool), label="c")
    with mp.workdps(PREC):
        for m in (a, b, a @ b, a - b, a - a):
            _same_scan(m._max_abs(), ref_max_abs(m.entries()))
        K = SparseMatrix.diagonal(k)
        products = {}  # shared by every exchange, as in the relation check
        for m in (a, b, a @ b):
            _same_scan(m._diagonal_exchange(K, c, products),
                       ref_max_abs(ref_diagonal_exchange(m, k, c)))
            # c = None is c = 1: the int 1 of the mpf loop, or an mpf 1
            want = ref_max_abs(ref_diagonal_exchange(m, k))
            _same_scan(m._diagonal_exchange(K, None, products), want)
            _same_scan(m._diagonal_exchange(K, mp.mpf(1), {}), want)
            _same_scan(m._diagonal_exchange(K, None, {}), want)
