"""q-arithmetic: frozen values, independent oracles, ring properties."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from oracles import ref_eval
from qproj import bundles, coordring, dolbeault, gtrep, qarith
from qproj.qarith import (
    QLaurent,
    check_precision,
    parse_q,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
)

Q = Fraction(1, 2)
PREC = 60


def qint_value(z, qv):
    """Independent numeric q-integer: direct power sum at a float q."""
    if z == 0:
        return mp.mpf(0)
    sign = 1 if z > 0 else -1
    z = abs(z)
    return sign * sum(qv**e for e in range(1 - z, z, 2))


# -- the integer q-number table ---------------------------------------------------

@pytest.mark.parametrize("q", ["1/2", "9/10", "3/4", "1/3", "4/9"])
def test_integer_q_numbers_are_the_symmetric_q_integers(q):
    # [z] = N_z / (ab)^(|z|-1) at q = a/b, against (q^z - q^-z)/(q - q^-1)
    # in Fractions, for |z| <= 40; N_z is an int and odd in z.
    qf = parse_q(q)
    table = qarith._q_numbers(qf)
    assert table.ab == qf.numerator * qf.denominator
    for z in range(-40, 41):
        n, e = table[z]
        assert type(n) is int and e == abs(z) - 1
        assert n * Fraction(table.ab) ** -e == (qf**z - qf**-z) / (qf - 1 / qf)
        assert n == -table[-z][0]


@pytest.mark.parametrize("q", ["1/2", "9/10", "3/4", "1/3", "4/9"])
def test_ratio_is_one_reduced_fraction(q):
    table = qarith._q_numbers(parse_q(q))
    for num, den, e in [(3, 5, 0), (-7, 2, 3), (6, -4, -2), (0, 9, 1), (12, 12, -1)]:
        r = qarith._ratio(table, num, den, e)
        assert type(r) is Fraction and r == Fraction(num, den) / Fraction(table.ab) ** e
    with pytest.raises(ZeroDivisionError):
        qarith._ratio(table, 1, 0, 0)


# -- q_int ------------------------------------------------------------------

def test_q_int_zero_and_one():
    assert q_int(0) == QLaurent.zero()
    assert q_int(1) == QLaurent.one()


def test_q_int_two():
    assert q_int(2) == QLaurent({1: 1, -1: 1})


def test_q_int_support():
    assert q_int(5).support() == (-4, -2, 0, 2, 4)
    assert q_int(4).support() == (-3, -1, 1, 3)


def test_q_int_antisymmetry():
    for z in range(1, 8):
        assert q_int(-z) == -q_int(z)


def test_q_int_classical_limit():
    # q -> 1^- recovers the plain integer within 1e-4 up to |z| = 50.
    q_near_one = Fraction(999999, 1000000)
    with mp.workdps(PREC):
        for z in (-50, -17, -2, 1, 3, 25, 50):
            val = q_int(z).eval(q_near_one, PREC)
            assert abs(val - z) < mp.mpf("1e-4")


# -- q_factorial --------------------------------------------------------------

def test_q_factorial_base_cases():
    assert q_factorial(0) == QLaurent.one()
    assert q_factorial(1) == QLaurent.one()
    assert q_factorial(2) == q_int(2)


def naive_product(dicts):
    """Independent term-by-term convolution of coefficient dicts."""
    acc = {0: 1}
    for d in dicts:
        nxt = {}
        for e1, c1 in acc.items():
            for e2, c2 in d.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        acc = {e: c for e, c in nxt.items() if c}
    return acc


def test_q_factorial_three_vs_expansion_oracle():
    # [3][2][1] expanded by hand-rolled convolution of explicit dicts.
    oracle = naive_product([{2: 1, 0: 1, -2: 1}, {1: 1, -1: 1}])
    assert q_factorial(3).coeffs() == oracle
    assert oracle == {3: 1, 1: 2, -1: 2, -3: 1}


def test_q_factorial_negative_rejected():
    with pytest.raises(ValueError):
        q_factorial(-1)


# -- q_binomial ---------------------------------------------------------------

def test_q_binomial_trivial():
    assert q_binomial(2, 1) == q_int(2)
    for n in range(6):
        assert q_binomial(n, 0) == QLaurent.one()
        assert q_binomial(n, n) == QLaurent.one()


def test_q_binomial_4_2_numeric_cross_evaluation():
    # Brute-force product/quotient of numeric q-integers at 5 rational q's.
    poly = q_binomial(4, 2)
    for q in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 11),
              Fraction(1, 7), Fraction(9, 13)):
        with mp.workdps(PREC):
            qv = mp.mpf(q.numerator) / mp.mpf(q.denominator)
            num = qint_value(4, qv) * qint_value(3, qv) * qint_value(2, qv) * qint_value(1, qv)
            den = (qint_value(2, qv) * qint_value(1, qv)) ** 2
            assert abs(poly.eval(q, PREC) - num / den) < mp.mpf(10) ** (5 - PREC)


def test_q_binomial_precondition():
    with pytest.raises(ValueError):
        q_binomial(3, 4)
    with pytest.raises(ValueError):
        q_binomial(3, -1)


def test_q_binomial_times_factorials_is_the_factorial():
    # Products only: [n, m] [m]! [n-m]! = [n]! for every 0 <= m <= n <= 14.
    for n in range(15):
        for m in range(n + 1):
            assert q_binomial(n, m) * q_factorial(m) * q_factorial(n - m) == q_factorial(n)


@given(n=st.integers(0, 12), m=st.integers(0, 12))
def test_q_binomial_symmetry(n, m):
    if m > n:
        n, m = m, n
    assert q_binomial(n, m) == q_binomial(n, n - m)


# -- q_multinomial -------------------------------------------------------------

def test_q_multinomial_single_part():
    for n in range(5):
        assert q_multinomial((n,)) == QLaurent.one()


def test_q_multinomial_1_1_hand_expansion():
    # Prefactor q^-1 times [2]! = q^-1 (q + q^-1) = 1 + q^-2.
    assert q_multinomial((1, 1)) == QLaurent({0: 1, -2: 1})


def pascal_multinomial(parts):
    """Recursion oracle: peel off the first letter of a shuffle word.

    Placing letter i first contributes one inverse-square factor per smaller
    letter still to come: M(j) = sum_i q^(-2 sum_{i'<i} j_{i'}) M(j - e_i).
    """
    parts = tuple(parts)
    if sum(parts) == 0:
        return QLaurent.one()
    acc = QLaurent.zero()
    for i, j in enumerate(parts):
        if j == 0:
            continue
        smaller = sum(parts[:i])
        rest = parts[:i] + (j - 1,) + parts[i + 1:]
        acc = acc + QLaurent.q_power(-2 * smaller) * pascal_multinomial(rest)
    return acc


@pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 2)])
def test_q_multinomial_vs_pascal_recursion(parts):
    expected = pascal_multinomial(parts)
    got = q_multinomial(parts)
    assert got == expected
    # and numerically at q = 1/2 to working precision, as an extra guard
    with mp.workdps(PREC):
        assert abs(got.eval(Q, PREC) - expected.eval(Q, PREC)) < mp.mpf(10) ** (5 - PREC)


def test_q_multinomial_word_enumeration_oracle():
    # The multinomial is the inversion generating function sum_w q^(-2 inv(w))
    # over distinct arrangements; enumerate them outright.
    for parts in [(1, 1), (2, 1), (1, 1, 1), (2, 2)]:
        letters = []
        for i, j in enumerate(parts):
            letters.extend([i] * j)
        acc = QLaurent.zero()
        for w in set(itertools.permutations(letters)):
            inv = sum(1 for a in range(len(w)) for b in range(a + 1, len(w))
                      if w[a] > w[b])
            acc = acc + QLaurent.q_power(-2 * inv)
        assert q_multinomial(parts) == acc


def test_q_multinomial_negative_part_rejected():
    with pytest.raises(ValueError):
        q_multinomial((1, -1))


# -- palindromicity ------------------------------------------------------------

@given(z=st.integers(-20, 20))
def test_q_int_palindromic(z):
    assert q_int(z).is_palindromic()


@given(n=st.integers(0, 10))
def test_q_factorial_palindromic(n):
    assert q_factorial(n).is_palindromic()


@given(n=st.integers(0, 10), m=st.integers(0, 10))
def test_q_binomial_palindromic(n, m):
    if m > n:
        n, m = m, n
    assert q_binomial(n, m).is_palindromic()


def test_q_multinomial_not_palindromic():
    # The q^(-sum j_r j_s) prefactor shifts the support whenever two parts
    # are simultaneously nonzero.
    assert not q_multinomial((1, 1)).is_palindromic()
    assert not q_multinomial((2, 1)).is_palindromic()
    assert not q_multinomial((1, 1, 1)).is_palindromic()


# -- evaluation ----------------------------------------------------------------

def test_eval_frozen_values():
    with mp.workdps(PREC):
        assert q_int(2).eval(Q, PREC) == mp.mpf("2.5")
        assert QLaurent.one().eval(Fraction(3, 7), PREC) == 1
        assert q_int(5).eval(Q, PREC) == mp.mpf("21.3125")


def test_eval_rejects_bad_q():
    with pytest.raises(ValueError):
        q_int(2).eval(Fraction(3, 2), PREC)
    with pytest.raises(ValueError):
        q_int(2).eval(Fraction(0, 1), PREC)
    with pytest.raises(ValueError):
        parse_q(Fraction(3, 2))
    with pytest.raises(TypeError):
        parse_q(0.5)  # floats are not exact


def test_eval_precision_floor():
    with pytest.raises(ValueError):
        q_int(2).eval(Q, 10)


def test_precision_ceiling_holds_at_every_entry_point():
    assert check_precision(qarith.MAX_PRECISION) == qarith.MAX_PRECISION == 4000
    message = "at most 4000 digits, got 4001"
    for call in (lambda: check_precision(4001),
                 lambda: q_int(2).eval(Q, 4001),
                 lambda: gtrep.raise_coeff(1, 1, gtrep.GTTableau(((1, 0), (0,))), Q, 4001),
                 lambda: gtrep.build_irrep((1,), Q, 4001),
                 lambda: dolbeault.cp2_coefficient_identity([0], [Q], 4001)):
        with pytest.raises(ValueError, match=message):
            call()


# A precision used to be truncated: check_precision(60.9) was 60,
# build_irrep((1,), Q, 60.9) exported precision=60, and
# q_int(3).eval(Q, 45.5) evaluated at 45 digits.
PRECISION_ENTRY_POINTS = {
    "check_precision": check_precision,
    "eval": lambda p: q_int(3).eval(Q, p),
    "raise_coeff": lambda p: gtrep.raise_coeff(1, 1, gtrep.GTTableau(((1, 0), (0,))), Q, p),
    "build_irrep": lambda p: gtrep.build_irrep((1,), Q, p),
    "cp2": lambda p: dolbeault.cp2_coefficient_identity([0], [Q], p),
}


@pytest.mark.parametrize("precision, error, message", [
    (60.9, TypeError, "the working precision must be an integer, got 60.9"),
    (45.5, TypeError, "the working precision must be an integer, got 45.5"),
    ("60", TypeError, "the working precision must be an integer, got '60'"),
    (Fraction(60), TypeError, "the working precision must be an integer, got Fraction"),
    (True, ValueError, "at least 30 digits, got 1$"),  # a bool counts as an int
])
@pytest.mark.parametrize("call", list(PRECISION_ENTRY_POINTS.values()),
                         ids=list(PRECISION_ENTRY_POINTS))
def test_a_precision_is_checked_not_truncated(call, precision, error, message):
    with pytest.raises(error, match=message):
        call(precision)


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
def test_zero_denominator_is_a_value_error_quoting_the_input(text):
    with pytest.raises(ValueError) as info:
        parse_q(text)
    assert str(info.value) == "q has a zero denominator: %r" % text
    assert not isinstance(info.value, ZeroDivisionError)


def test_q_formats_are_a_fraction_or_a_string():
    assert parse_q("3/4") == parse_q(Fraction(3, 4)) == Fraction(3, 4)
    for q in ((3, 4), 0.75, 3):
        with pytest.raises(TypeError, match="a Fraction or a 'p/r' string"):
            parse_q(q)


small_laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(QLaurent)


@settings(max_examples=40, deadline=None)
@given(p1=small_laurents, p2=small_laurents)
def test_eval_is_a_homomorphism(p1, p2):
    with mp.workdps(PREC):
        lhs = (p1 * p2).eval(Q, PREC)
        rhs = p1.eval(Q, PREC) * p2.eval(Q, PREC)
        scale = 1 + abs(lhs)
        assert abs(lhs - rhs) <= scale * mp.mpf(10) ** (5 - PREC)


rational_qs = st.integers(2, 60).flatmap(
    lambda r: st.integers(1, r - 1).map(lambda p: Fraction(p, r)))


@settings(max_examples=80, deadline=None)
@given(p=st.dictionaries(st.integers(-40, 40), st.integers(-10**6, 10**6), max_size=12)
       .map(QLaurent), q=rational_qs, precision=st.integers(30, 120))
def test_eval_is_the_term_by_term_sum_bit_for_bit(p, q, precision):
    got = p.eval(q, precision)
    assert got._mpf_ == ref_eval(p, q, precision)._mpf_


def _double_loop(p1, p2):
    # The product's terms as the plain double loop collects them, in order.
    c = {}
    for e1, v1 in p1.coeffs().items():
        for e2, v2 in p2.coeffs().items():
            nv = c.get(e1 + e2, 0) + v1 * v2
            if nv:
                c[e1 + e2] = nv
            else:
                c.pop(e1 + e2, None)
    return list(c.items())


@settings(max_examples=60, deadline=None)
@given(p=small_laurents, e=st.integers(-6, 6), v=st.integers(-9, 9).filter(bool))
def test_one_term_products_keep_the_double_loop_terms_and_order(p, e, v):
    one = QLaurent({e: v})
    for a, b in ((p, one), (one, p), (one, one), (p, p)):
        assert list((a * b).coeffs().items()) == _double_loop(a, b)


# -- ring operations -----------------------------------------------------------

def test_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        QLaurent({0: 0.5})


def test_a_sum_that_cancels_a_term_drops_it():
    total = QLaurent({1: 1, 0: 1}) + QLaurent({1: -1, -1: 2})
    assert total.coeffs() == {0: 1, -1: 2}
    assert (q_int(3) + -q_int(3)).coeffs() == {}


def test_a_product_that_cancels_a_term_drops_it():
    # (1 + q)(1 - q) = 1 - q^2: the two q terms cancel.
    assert (QLaurent({0: 1, 1: 1}) * QLaurent({0: 1, 1: -1})).coeffs() == {0: 1, 2: -1}


def test_difference_of_two_laurent_polynomials():
    assert q_int(3) - q_int(1) == QLaurent({2: 1, -2: 1})
    assert (q_factorial(4) - q_factorial(4)).coeffs() == {}


@pytest.mark.parametrize("op", [
    lambda p: p + 1, lambda p: 1 + p, lambda p: p - 1, lambda p: 1 - p,
    lambda p: p * 2, lambda p: 2 * p, lambda p: p ** 2])
def test_ring_operations_take_two_laurent_polynomials(op):
    with pytest.raises(TypeError):
        op(q_int(2))


def test_integers_compare_as_constants():
    assert q_int(1) == 1 and q_int(0) == 0 and q_int(2) != 2


def test_constants_hash_as_their_integers():
    # Equal objects must hash alike, or sets and dicts hold both.
    assert len({1, q_int(1)}) == len({0, QLaurent.zero()}) == 1
    assert len({-3, q_int(3) - q_int(3) - QLaurent({0: 3})}) == 1
    assert {q_int(1): "one"}[1] == "one" and {0: "zero"}[QLaurent.zero()] == "zero"
    assert {QLaurent({0: 5}): "five"}[5] == "five"
    assert len({q_int(2), q_int(2) * q_int(1), q_int(3)}) == 2


@pytest.mark.parametrize("coeffs", [
    {0.5: 1}, {1.5: 2, 1: 3}, {Fraction(7, 2): 1}, {"3": 1}, {2.0: 1}])
def test_exponents_must_be_integers(coeffs):
    # They used to be truncated: {0.5: 1} was 1 and {1.5: 2, 1: 3} was 5q.
    with pytest.raises(TypeError, match="exponents must be integers"):
        QLaurent(coeffs)


# Integer arguments used to be truncated: q_int(2.5) was [2], weyl_dim((1.5, 1))
# was 8, and GTTableau([[2.7, 0], [1.2]]) stored ((2, 0), (1,)).
@pytest.mark.parametrize("call, message", [
    (lambda: q_int(2.5), "a q-integer argument must be an integer, got 2.5"),
    (lambda: q_int(Fraction(5, 1)), "a q-integer argument must be an integer, got Fraction"),
    (lambda: q_multinomial((1.5, 1)), "a q-multinomial part must be an integer, got 1.5"),
    (lambda: gtrep.validate_weight((1, "2")), "a highest weight component must be .* got '2'"),
    (lambda: gtrep.weyl_dim((1.5, 1)), "a highest weight component must be .* got 1.5"),
    (lambda: gtrep.build_irrep((1.9,), Q), "a highest weight component must be .* got 1.9"),
    (lambda: gtrep.GTTableau([[2.7, 0], [1.2]]), "a tableau entry must be an integer, got 2.7"),
    (lambda: bundles.ln_conditions_filter(1, (1.5, 1), Q),
     "a highest weight component must be .* got 1.5"),
    (lambda: coordring.normal_order([1, 2.9, 1]), "a generator index must be .* got 2.9"),
    (lambda: coordring.inversion_count([2.0, 1]), "a generator index must be .* got 2.0"),
    (lambda: coordring.normal_order([1, 2], 2.5), "the number of generators must be .* got 2.5"),
    # These raised "'float' object cannot be interpreted as an integer", or
    # "unsupported operand type(s) for +" for a string, naming no argument.
    (lambda: coordring.graded_dim(2, 2.0), "the degree must be an integer, got 2.0"),
    (lambda: coordring.graded_dim("2", 1), "the number of generators must be .* got '2'"),
    (lambda: list(coordring.monomials(2.0, 2)), "the number of generators must be .* got 2.0"),
    (lambda: list(coordring.monomials(2, Fraction(2))), "the degree must be .* got Fraction"),
    (lambda: coordring.TruncatedPolynomialAlgebra(2, 2.0, Q),
     "the maximal degree max_degree must be an integer, got 2.0"),
    (lambda: coordring.TruncatedPolynomialAlgebra(2.0, 2, Q),
     "the number of generators must be an integer, got 2.0"),
    (lambda: coordring.tensor_factorize((1.5, 2), 1), "an exponent must be an integer, got 1.5"),
    (lambda: coordring.tensor_factorize((1, 2), 1.0), "the degree N must be an integer, got 1.0"),
    (lambda: coordring.tensor_factorize((1, 2), 1, (0.5, 0.5)),
     "a partition entry must be an integer, got 0.5"),
    (lambda: coordring.factorization_exponent((1, 2), (1, 0.0)),
     "a partition entry must be an integer, got 0.0"),
    (lambda: q_factorial(3.0), "the q-factorial n must be an integer, got 3.0"),
    (lambda: q_binomial(4, 2.0), "the q-binomial m must be an integer, got 2.0"),
    (lambda: q_binomial(Fraction(4), 2), "the q-binomial n must be an integer, got Fraction"),
    # A non-integer degree used to read as a block with no sections, or
    # failed deep inside with a message that named something else.
    (lambda: bundles.ln_conditions_filter(1.5, (1, 1), "1/2"),
     "the degree N must be an integer, got 1.5"),
    (lambda: bundles.closed_form_section_tableaux(1.5, (1, 1)),
     "the degree N must be an integer, got 1.5"),
    (lambda: bundles.block_weight(2, 1.5, 0), "the degree N must be an integer, got 1.5"),
    (lambda: bundles.block_weight(2.0, 1, 0), "ell must be an integer, got 2.0"),
    (lambda: bundles.block_weight(2, 1, 0.5), "the block label n1 must be an integer, got 0.5"),
    (lambda: bundles.build_block(2, 1, 1.0, Q), "the block label n1 must be an integer, got 1.0"),
    (lambda: bundles.ker_el_numeric(2, 1.0, 2, "1/2"), "the degree N must be an integer, got 1.0"),
    (lambda: bundles.ker_el_numeric(2, 1, 2.0, Q), "n1_max must be an integer, got 2.0"),
    (lambda: bundles.ker_el_combinatorial(2, 3.0), "the degree N must be an integer, got 3.0"),
    (lambda: bundles.ker_el_combinatorial(2.5, 3), "ell must be an integer, got 2.5"),
    (lambda: dolbeault.cp1_dolbeault_matrix(1.0, 4), "the degree N must be an integer, got 1.0"),
    (lambda: dolbeault.cp1_euler_characteristic(1.5, 4),
     "the degree N must be an integer, got 1.5"),
])
def test_integer_arguments_are_checked_not_truncated(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("call, given", [
    (lambda: dolbeault.cp1_euler_characteristic(0, 4.7), "4.7"),
    (lambda: dolbeault.cp1_dolbeault_matrix(0, Fraction(13, 3)), "13/3"),
    (lambda: dolbeault.cp1_dolbeault_matrix(0, "17/4"), "17/4"),
])
def test_a_spin_must_be_a_multiple_of_one_half(call, given):
    # l_max = 4.7 was echoed while 2 l_max = 9.4 was truncated to 9.
    with pytest.raises(ValueError, match="l_max must be a multiple of 1/2, got %s$" % given):
        call()


def test_bools_and_half_integer_spins_are_accepted():
    assert q_int(True) == q_int(1) and gtrep.validate_weight((True, 0)) == (1, 0)
    res = dolbeault.cp1_euler_characteristic(1, Fraction(9, 2))
    assert res.chi == 0 and res.stable and max(b.twol for b in res.blocks) == 9


@pytest.mark.parametrize("e", [2.9, Fraction(7, 2), "3"])
def test_q_power_exponent_must_be_an_integer(e):
    with pytest.raises(TypeError, match="exponents must be integers"):
        QLaurent.q_power(e)

