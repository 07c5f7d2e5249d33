"""The q-commuting homogeneous coordinate ring.

Generators z_1, ..., z_g satisfy z_i z_j = q z_j z_i for i < j, so every
word has a normal form z_1^{s_1} ... z_g^{s_g} times an integer power of q:
each inversion (a larger generator index standing before a smaller one)
costs one factor q^-1 on the way to sorted order.  Monomials are plain
exponent tuples; the graded dimension is obtained by enumerating them.

`tensor_factorize` splits a degree N+M monomial Z into Z1 of degree N and Z2
of degree M with Z1 Z2 = q^-R Z, where, for a partition r of N supported on
the first k indices (k the first index whose exponent prefix sum exceeds N),

    R = r_k {(s_{k-1}-r_{k-1}) + ... + (s_1-r_1)} + ... + r_2 (s_1-r_1).

The greedy left-filling partition is the canonical choice (it makes R = 0);
an explicit partition can be passed to exercise nonzero R.  The factorization
verifies its own postcondition through `normal_order`.

`TruncatedPolynomialAlgebra` is the same ring cut off above a total degree,
over an exact rational q: a small finite dimensional algebra with diagonal
scaling automorphisms, used as the test bed for twisted Hochschild checks.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .linalg import _check_int

__all__ = [
    "inversion_count",
    "normal_order",
    "monomials",
    "graded_dim",
    "factorization_exponent",
    "tensor_factorize",
    "Factorization",
    "format_monomial",
    "TruncatedPolynomialAlgebra",
    "MAX_COUNT",
    "MAX_WORD_LENGTH",
]

# The most items an enumeration counts (`graded_dim`, the kernel count of
# `bundles`, `ring-dims`): 10^6 take about 2 s.
MAX_COUNT = 10**6

# The longest word, and so the largest factorization degree: the inversion
# count is quadratic in the length, 0.4 s at 4,000.
MAX_WORD_LENGTH = 4000


def _check_count(n, k, what):
    """Refuse, before it starts, an enumeration of C(n, k) items above
    MAX_COUNT (C(n, k) is zero outside 0 <= k <= n); `what` names the caller
    in the ValueError."""
    j = min(k, n - k)
    # C(n, j) >= C(2j, j) >= 2^j, so a j this large is refused unformed.
    if j >= MAX_COUNT.bit_length() or j > 0 and math.comb(n, j) > MAX_COUNT:
        raise ValueError("%s would enumerate C(%d, %d) items, above the ceiling of %d"
                         % (what, n, k, MAX_COUNT))


def _check_word(word, num_generators=None):
    word = tuple(_check_int(x, "a generator index") for x in word)
    if len(word) > MAX_WORD_LENGTH:
        raise ValueError("word length %d is above the ceiling of %d"
                         % (len(word), MAX_WORD_LENGTH))
    g = (max(word, default=1) if num_generators is None
         else _check_int(num_generators, "the number of generators"))
    if any(not 1 <= x <= g for x in word):
        raise ValueError("generator indices must lie in 1..%d: %r" % (g, word))
    return word, g


def _inversions(word) -> int:
    # The inversions of a checked word: pairs a < b with word[a] > word[b].
    return sum(
        1
        for a in range(len(word))
        for b in range(a + 1, len(word))
        if word[a] > word[b]
    )


def inversion_count(word) -> int:
    """The number of inversions of a word of generator indices, checked as
    `normal_order` checks it, with no monomial built."""
    return _inversions(_check_word(word)[0])


def normal_order(word, num_generators=None):
    """Sort a word of generator indices; returns (q-exponent e, monomial).

    word = q^e * z_1^{s_1} ... z_g^{s_g} with e = -(number of inversions);
    the monomial is the exponent tuple (s_1, ..., s_g).
    """
    word, g = _check_word(word, num_generators)
    exps = [0] * g
    for x in word:
        exps[x - 1] += 1
    return -_inversions(word), tuple(exps)


def monomials(num_generators: int, degree: int):
    """Yield all exponent tuples of the given total degree, lexicographically."""
    if _check_int(num_generators, "the number of generators") < 1:
        raise ValueError("need at least one generator")
    if _check_int(degree, "the degree") < 0:
        raise ValueError("degree must be non-negative")

    # Stars and bars: the g - 1 bars among degree + g - 1 slots cut the stars
    # into the exponents, and bars in lexicographic order give exponent
    # tuples in lexicographic order.
    slots = degree + num_generators - 1
    for bars in itertools.combinations(range(slots), num_generators - 1):
        cuts = (-1,) + bars + (slots,)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def graded_dim(num_generators: int, degree: int) -> int:
    """Number of degree-N monomials in g q-commuting generators, by enumeration;
    a count C(N + g - 1, N) above MAX_COUNT is refused before it starts."""
    num_generators = _check_int(num_generators, "the number of generators")
    degree = _check_int(degree, "the degree")
    _check_count(degree + num_generators - 1, degree, "graded_dim")
    return sum(1 for _m in monomials(num_generators, degree))


def _word_of(mono):
    out = []
    for i, s in enumerate(mono, start=1):
        out.extend([i] * s)
    return tuple(out)


def format_monomial(mono) -> str:
    """Serialize an exponent tuple as z^[s1,s2,...]."""
    return "z^[%s]" % ",".join(str(s) for s in mono)


def factorization_exponent(s, r) -> int:
    """The commutation exponent R for moving the left factor past the right.

    R = sum over j >= 2 of r_j * sum_{i<j} (s_i - r_i); the nested form
    r_k{(s_{k-1}-r_{k-1}) + ...} + ... + r_2(s_1 - r_1) expands to exactly
    this.
    """
    s = tuple(_check_int(x, "an exponent") for x in s)
    r = tuple(_check_int(x, "a partition entry") for x in r)
    if len(r) != len(s):
        raise ValueError("partition and monomial have different lengths")
    R = prefix = 0  # prefix = sum_{i<j} (s_i - r_i)
    for x, y in zip(s, r):
        R += y * prefix
        prefix += x - y
    return R


Factorization = namedtuple("Factorization", "R left right")


def tensor_factorize(mono, N: int, partition=None) -> Factorization:
    """Split Z of degree N+M into (R, Z1, Z2) with Z1 Z2 = q^-R Z.

    The default partition fills r_1 = s_1, r_2 = s_2, ... greedily until N is
    exhausted.  An explicit partition must sum to N, satisfy 0 <= r_i <= s_i
    and be supported on indices 1..k, where k is the first index whose prefix
    sum of exponents exceeds N.  The stated postcondition is re-verified
    internally through `normal_order`.  A degree above MAX_WORD_LENGTH is
    refused before any word is built.
    """
    s = tuple(_check_int(x, "an exponent") for x in mono)
    N = _check_int(N, "the degree N")
    if any(x < 0 for x in s):
        raise ValueError("exponents must be non-negative: %r" % (mono,))
    degree = sum(s)
    if not 0 <= N <= degree:
        raise ValueError("need 0 <= N <= deg(Z) = %d, got N=%d" % (degree, N))
    if degree > MAX_WORD_LENGTH:
        raise ValueError("deg(Z) = %d is above the word length ceiling of %d"
                         % (degree, MAX_WORD_LENGTH))
    k = len(s)
    prefix = 0
    for i, x in enumerate(s, start=1):
        prefix += x
        if prefix > N:
            k = i
            break
    if partition is None:
        remaining = N
        r = []
        for x in s:
            take = min(x, remaining)
            r.append(take)
            remaining -= take
    else:
        r = [_check_int(x, "a partition entry") for x in partition]
        if len(r) != len(s):
            raise ValueError("partition length must match the monomial")
        if sum(r) != N:
            raise ValueError("partition must sum to N=%d" % N)
        if any(not 0 <= r[i] <= s[i] for i in range(len(s))):
            raise ValueError("partition must satisfy 0 <= r_i <= s_i")
        if any(r[i] for i in range(k, len(s))):
            raise ValueError("partition must be supported on the first k=%d indices" % k)
    left = tuple(r)
    right = tuple(s[i] - r[i] for i in range(len(s)))
    R = factorization_exponent(s, r)
    e, mono_check = normal_order(_word_of(left) + _word_of(right), len(s))
    if mono_check != s or e != -R:
        raise ArithmeticError("factorization postcondition failed: %s gives q^%d times %s, "
                              "expected q^%d times %s" % (s, e, mono_check, -R, s))
    return Factorization(R, left, right)


class TruncatedPolynomialAlgebra:
    """q-commuting polynomials modulo total degree > max_degree, exact q.

    Basis: exponent tuples of degree <= max_degree, graded then lexicographic.
    Products of basis monomials are single basis monomials scaled by an exact
    rational power of q (or zero past the cutoff), so multilinear cochains on
    this algebra can be evaluated with no rounding at all.  q is any positive
    int, Fraction or "p/r" string; a float is a TypeError, as in `parse_q`.
    A basis of C(max_degree + num_generators, num_generators) monomials above
    MAX_COUNT is refused before it is built.
    """

    def __init__(self, num_generators: int, max_degree: int, q):
        num_generators = _check_int(num_generators, "the number of generators")
        max_degree = _check_int(max_degree, "the maximal degree max_degree")
        if num_generators < 1 or max_degree < 0:
            raise ValueError("need at least one generator and max_degree >= 0")
        _check_count(max_degree + num_generators, num_generators, "TruncatedPolynomialAlgebra")
        self.num_generators = num_generators
        self.max_degree = max_degree
        if isinstance(q, float):
            raise TypeError("q must be exact, got the float %r" % (q,))
        self.q = Fraction(q)
        if not 0 < self.q:
            raise ValueError("q must be a positive rational")
        basis = []
        for d in range(max_degree + 1):
            basis.extend(monomials(num_generators, d))
        self.basis = basis
        self.index = {m: i for i, m in enumerate(basis)}

    @property
    def dim(self):
        return len(self.basis)

    def product(self, i: int, j: int):
        """Product of basis elements i, j in 0..dim-1 (else an IndexError) as
        (rational coefficient, index), or (0, None) past the degree cutoff."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("basis indices must lie in 0..%d, got %d and %d"
                             % (self.dim - 1, i, j))
        a, b = self.basis[i], self.basis[j]
        total = tuple(x + y for x, y in zip(a, b))
        if sum(total) > self.max_degree:
            return Fraction(0), None
        e = -sum(a[p] * b[r] for p in range(self.num_generators) for r in range(p))
        return self.q**e, self.index[total]

    def scaling_automorphism(self, factors):
        """Eigenvalues of z_i -> c_i z_i on the basis, as a list of Fractions."""
        factors = [Fraction(c) for c in factors]
        if len(factors) != self.num_generators:
            raise ValueError("need one scale per generator")
        out = []
        for m in self.basis:
            v = Fraction(1)
            for c, s in zip(factors, m):
                v *= c**s
            out.append(v)
        return out
