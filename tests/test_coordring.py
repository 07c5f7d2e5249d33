"""Coordinate ring: normal ordering, grading, tensor factorization, toy algebra."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qproj import coordring
from qproj.bundles import ker_el_combinatorial
from qproj.coordring import (
    MAX_COUNT,
    MAX_WORD_LENGTH,
    TruncatedPolynomialAlgebra,
    _check_count,
    factorization_exponent,
    format_monomial,
    graded_dim,
    inversion_count,
    monomials,
    normal_order,
    tensor_factorize,
)


# -- normal ordering -------------------------------------------------------------

def test_normal_order_single_swap():
    e, mono = normal_order((2, 1))
    assert e == -1
    assert mono == (1, 1)


def test_normal_order_already_sorted():
    e, mono = normal_order((1, 2))
    assert e == 0
    assert mono == (1, 1)


def reduce_by_swaps(word, rng=None):
    """Oracle: rewrite with adjacent swaps until sorted, counting steps.

    Each swap of a descent applies one inverse-q commutation; the strategy
    (which descent to pick) is either leftmost or randomized.
    """
    w = list(word)
    steps = 0
    while True:
        descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not descents:
            return -steps, tuple(w)
        i = descents[0] if rng is None else rng.choice(descents)
        w[i], w[i + 1] = w[i + 1], w[i]
        steps += 1


def test_normal_order_three_letter_word_all_orders():
    word = (3, 2, 1)
    results = set()
    # brute force every reduction order by exploring all descent choices
    def explore(w, steps):
        descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not descents:
            results.add((steps, tuple(w)))
            return
        for i in descents:
            nxt = list(w)
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            explore(nxt, steps + 1)
    explore(list(word), 0)
    assert results == {(3, (1, 2, 3))}
    e, mono = normal_order(word)
    assert e == -3 and mono == (1, 1, 1)


@settings(max_examples=80, deadline=None)
@given(word=st.lists(st.integers(1, 4), max_size=6).map(tuple), seed=st.integers(0, 999))
def test_normal_order_confluence(word, seed):
    e, mono = normal_order(word, 4)
    exponent, sorted_word = reduce_by_swaps(word, random.Random(seed))
    assert e == exponent
    counts = tuple(sorted_word.count(i) for i in range(1, 5))
    assert mono == counts


def test_normal_order_rejects_bad_indices():
    with pytest.raises(ValueError):
        normal_order((0, 1))
    with pytest.raises(ValueError):
        normal_order((1, 3), 2)


def test_inversion_count_small():
    assert inversion_count(()) == 0
    assert inversion_count((1, 2, 3)) == 0
    assert inversion_count((3, 2, 1)) == 3


def test_each_entry_point_checks_its_word_once(monkeypatch):
    # normal_order checked its word twice (again inside inversion_count), and
    # so did tensor_factorize through normal_order: 2, 1 and 2 checks.
    calls = []
    check = coordring._check_word
    monkeypatch.setattr(coordring, "_check_word",
                        lambda *args: calls.append(args) or check(*args))
    counts = []
    for call in (lambda: normal_order((2, 1, 3)), lambda: inversion_count((2, 1, 3)),
                 lambda: tensor_factorize((1, 2, 1), 2)):
        calls.clear()
        call()
        counts.append(len(calls))
    assert counts == [1, 1, 1]


# -- graded dimensions --------------------------------------------------------------

def test_graded_dim_examples():
    assert graded_dim(2, 3) == 4          # quantum line, degree 3
    assert graded_dim(3, 0) == 1
    assert graded_dim(3, 2) == 6          # quantum plane, degree 2
    assert graded_dim(3, 2) == ker_el_combinatorial(2, 2)


def test_monomials_are_every_exponent_tuple_in_lexicographic_order():
    # Oracle: the product of exponent ranges, which runs lexicographically,
    # filtered to the degree.
    for g in range(1, 6):
        for d in range(0, 7):
            expected = [m for m in itertools.product(range(d + 1), repeat=g) if sum(m) == d]
            assert list(monomials(g, d)) == expected


def test_monomials_of_many_generators():
    # A recursion per generator would pass the recursion limit here.
    assert list(monomials(1200, 0)) == [(0,) * 1200]
    assert graded_dim(1200, 1) == 1200


def test_graded_dim_matches_kernel_count():
    for ell in (1, 2, 3, 4):
        for N in range(0, 11):
            assert graded_dim(ell + 1, N) == ker_el_combinatorial(ell, N)


def test_monomials_are_distinct_and_graded():
    ms = list(monomials(3, 4))
    assert len(ms) == len(set(ms)) == math.comb(6, 2)
    assert all(sum(m) == 4 for m in ms)


def test_format_monomial():
    assert format_monomial((1, 0, 2)) == "z^[1,0,2]"


# -- tensor factorization --------------------------------------------------------------

def test_factorize_two_distinct_generators():
    fac = tensor_factorize((1, 1), 1)
    assert fac == (0, (1, 0), (0, 1))


def test_factorize_single_generator_power():
    fac = tensor_factorize((0, 2), 1)
    assert fac.R == 0 and fac.left == (0, 1) and fac.right == (0, 1)


def test_factorize_internal_consistency_mixed_monomial():
    fac = tensor_factorize((1, 2, 1), 2)
    assert fac.R == 0
    assert fac.left == (1, 1, 0) and fac.right == (0, 1, 1)


def test_factorize_nonzero_exponent_with_explicit_partition():
    fac = tensor_factorize((1, 1, 1), 2, partition=(1, 0, 1))
    assert fac.R == 1 and fac.left == (1, 0, 1) and fac.right == (0, 1, 0)
    fac = tensor_factorize((1, 1, 1), 2, partition=(0, 1, 1))
    assert fac.R == 2


def test_factorization_exponent_nested_form():
    # r_3{(s_2-r_2)+(s_1-r_1)} + r_2(s_1-r_1) written out longhand
    s, r = (3, 2, 2), (1, 1, 2)
    expected = r[2] * ((s[1] - r[1]) + (s[0] - r[0])) + r[1] * (s[0] - r[0])
    assert factorization_exponent(s, r) == expected


def test_factorization_exponent_is_the_double_sum():
    rng = random.Random(5)
    for _ in range(200):
        s = [rng.randrange(5) for _ in range(rng.randrange(1, 7))]
        r = [rng.randrange(x + 1) for x in s]
        expected = sum(r[j] * sum(s[i] - r[i] for i in range(j)) for j in range(len(s)))
        assert factorization_exponent(s, r) == expected


def test_factorization_of_many_generators_is_linear():
    # The nested double sum of the exponent took 16 s at 20,001 generators.
    mono = (0,) * 20000 + (1,)
    start = time.perf_counter()
    assert tensor_factorize(mono, 1) == (0, mono, (0,) * 20001)
    assert time.perf_counter() - start < 5


def test_words_above_the_length_ceiling_are_refused():
    assert MAX_WORD_LENGTH == 4000
    assert inversion_count((2, 1) * 2000) == 2000 * 2001 // 2
    message = "word length 4001 is above the ceiling of 4000"
    for call in (lambda: inversion_count((1,) * 4001),
                 lambda: normal_order((1,) * 4001)):
        with pytest.raises(ValueError, match=message):
            call()
    # The factorization degree is refused before its word is built.
    for mono in ((4000, 1), (10**8, 1)):
        with pytest.raises(ValueError, match="above the word length ceiling of 4000"):
            tensor_factorize(mono, 3)


def test_counts_above_the_ceiling_are_refused_before_enumerating():
    assert MAX_COUNT == 10**6
    _check_count(10**6, 1, "x")           # exactly the ceiling
    _check_count(10**6 + 1, 10**6 + 2, "x")  # k > n: nothing to count
    with pytest.raises(ValueError, match=r"x would enumerate C\(1000001, 1\) items"):
        _check_count(10**6 + 1, 1, "x")
    # C(36, 30) = C(36, 6) = 1,947,792; a huge count is never formed.
    for call, what in ((lambda: graded_dim(7, 30), "graded_dim"),
                       (lambda: ker_el_combinatorial(6, 30), "ker_el_combinatorial"),
                       (lambda: graded_dim(10**9, 10**9), "graded_dim"),
                       (lambda: ker_el_combinatorial(10**9, 10**9), "ker_el_combinatorial")):
        with pytest.raises(ValueError, match="%s would enumerate .* the ceiling of 1000000"
                           % what):
            call()


def test_truncated_algebra_refuses_a_basis_above_the_ceiling_before_building():
    # (2, 2000) used to build 2,003,001 monomials in 2.8 s at 519 MiB.
    for gens, max_degree in ((2, 2000), (3, 200), (1, 10**6), (10**9, 10**9)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"TruncatedPolynomialAlgebra would enumerate "
                           r"C\(%d, %d\) items, above the ceiling of 1000000"
                           % (gens + max_degree, gens)):
            TruncatedPolynomialAlgebra(gens, max_degree, Fraction(1, 2))
        assert time.perf_counter() - start < 1
    # The count is the basis size: C(2 + 2, 2) = 6 for the toy, C(3 + 3, 3) = 20.
    assert TruncatedPolynomialAlgebra(2, 2, Fraction(1, 2)).dim == 6
    assert TruncatedPolynomialAlgebra(3, 3, Fraction(1, 2)).dim == 20


def test_factorize_rejects_bad_degree():
    with pytest.raises(ValueError):
        tensor_factorize((1, 1), 3)
    with pytest.raises(ValueError):
        tensor_factorize((1, 1), -1)


def test_factorize_rejects_bad_partition():
    with pytest.raises(ValueError):
        tensor_factorize((1, 1, 1), 2, partition=(2, 0, 0))   # r_1 > s_1
    with pytest.raises(ValueError):
        tensor_factorize((1, 1, 1), 2, partition=(1, 1, 1))   # wrong sum
    with pytest.raises(ValueError):
        tensor_factorize((2, 1, 1), 1, partition=(0, 0, 1))   # beyond k
    with pytest.raises(ValueError, match="partition length must match"):
        tensor_factorize((1, 1, 1), 2, partition=(1, 1))


def test_factorize_rejects_negative_exponents():
    with pytest.raises(ValueError, match=r"exponents must be non-negative: \(1, -1\)"):
        tensor_factorize((1, -1), 0)
    with pytest.raises(ValueError, match="different lengths"):
        factorization_exponent((1, 2), (1,))


def test_monomials_reject_bad_sizes():
    # A generator: the checks run at the first step.
    with pytest.raises(ValueError, match="at least one generator"):
        next(monomials(0, 1))
    with pytest.raises(ValueError, match="degree must be non-negative"):
        next(monomials(2, -1))


def test_factorize_exhaustive_small_degrees():
    # every monomial of degree <= 5 over <= 3 generators, every split point
    for g in (1, 2, 3):
        for d in range(0, 6):
            for mono in monomials(g, d):
                for N in range(0, d + 1):
                    fac = tensor_factorize(mono, N)
                    assert sum(fac.left) == N and sum(fac.right) == d - N
                    total = tuple(a + b for a, b in zip(fac.left, fac.right))
                    assert total == mono


# -- truncated toy algebra ----------------------------------------------------------

def test_truncated_algebra_basis_and_products():
    alg = TruncatedPolynomialAlgebra(2, 2, Fraction(1, 2))
    assert alg.dim == 6
    z1 = alg.index[(1, 0)]
    z2 = alg.index[(0, 1)]
    c, idx = alg.product(z2, z1)   # z2 z1 = q^-1 z1 z2
    assert c == Fraction(2) and alg.basis[idx] == (1, 1)
    c, idx = alg.product(z1, z2)
    assert c == Fraction(1) and alg.basis[idx] == (1, 1)
    c, idx = alg.product(alg.index[(1, 1)], z1)  # degree 3 truncates to zero
    assert c == 0 and idx is None


def test_truncated_algebra_is_associative():
    alg = TruncatedPolynomialAlgebra(2, 3, Fraction(2, 3))
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        c1, ij = alg.product(i, j)
        left = (Fraction(0), None) if ij is None else tuple_scale(alg.product(ij, k), c1)
        c2, jk = alg.product(j, k)
        right = (Fraction(0), None) if jk is None else tuple_scale(alg.product(i, jk), c2)
        if left[0] == 0 and right[0] == 0:
            continue
        assert left == right


def tuple_scale(prod, c):
    coeff, idx = prod
    coeff = coeff * c
    return (coeff, idx) if coeff else (Fraction(0), None)


def test_scaling_automorphism_eigenvalues():
    alg = TruncatedPolynomialAlgebra(2, 2, Fraction(1, 2))
    eigs = alg.scaling_automorphism((Fraction(2, 3), Fraction(3, 2)))
    assert eigs[alg.index[(0, 0)]] == 1
    assert eigs[alg.index[(1, 0)]] == Fraction(2, 3)
    assert eigs[alg.index[(1, 1)]] == 1
    assert eigs[alg.index[(2, 0)]] == Fraction(4, 9)
    with pytest.raises(ValueError, match="one scale per generator"):
        alg.scaling_automorphism((Fraction(2, 3),))


@pytest.mark.parametrize("gens, max_degree, q, message", [
    (0, 2, Fraction(1, 2), "at least one generator"),
    (2, -1, Fraction(1, 2), "max_degree >= 0"),
    (2, 2, 0, "q must be a positive rational"),
    (2, 2, Fraction(-1, 2), "q must be a positive rational"),
])
def test_truncated_algebra_rejects_bad_inputs(gens, max_degree, q, message):
    with pytest.raises(ValueError, match=message):
        TruncatedPolynomialAlgebra(gens, max_degree, q)


def test_truncated_algebra_refuses_a_float_q():
    # 0.1 used to be stored as 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="q must be exact, got the float 0.1"):
        TruncatedPolynomialAlgebra(2, 2, 0.1)
    for q, want in ((2, 2), (Fraction(3, 2), Fraction(3, 2)), ("1/3", Fraction(1, 3))):
        assert TruncatedPolynomialAlgebra(2, 2, q).q == want


@pytest.mark.parametrize("i, j", [(-1, 0), (0, 6)])
def test_product_refuses_an_index_out_of_range(i, j):
    # product(-1, 0) used to return the product of basis element 5.
    alg = TruncatedPolynomialAlgebra(2, 2, Fraction(1, 2))
    with pytest.raises(IndexError, match="basis indices must lie in 0..5, got %d and %d"
                       % (i, j)):
        alg.product(i, j)


@pytest.mark.parametrize("gens, max_degree, q", [(2, 2, Fraction(1, 2)),
                                                 (3, 3, Fraction(2, 3))])
def test_product_table_matches_normal_order(gens, max_degree, q):
    alg = TruncatedPolynomialAlgebra(gens, max_degree, q)
    for i, a in enumerate(alg.basis):
        for j, b in enumerate(alg.basis):
            e, mono = normal_order(_word(a) + _word(b), gens)
            if sum(mono) > max_degree:
                assert alg.product(i, j) == (0, None)
                continue
            assert type(e) is int  # one power of q, named by its exponent
            assert alg.product(i, j) == (q**e, alg.index[mono])


def _word(mono):
    return tuple(g for g, s in enumerate(mono, start=1) for _ in range(s))
