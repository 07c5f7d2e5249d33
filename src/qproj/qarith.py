"""Exact q-arithmetic: symmetric q-integers and their Laurent polynomial ring.

The symmetric q-integer of z is [z] = (q^z - q^-z)/(q - q^-1), a Laurent
polynomial in q with integer coefficients.  Everything assembled from
q-integers by ring operations and exact division (q-factorials, q-binomials,
the twisted q-multinomial) stays inside that ring and is represented exactly
by :class:`QLaurent`; no rounding ever happens on this tier.

Square roots force a second, numeric tier: evaluating a QLaurent at a fixed
rational 0 < q < 1 produces an arbitrary-precision mpmath float computed
under an explicit working precision (at least 30 decimal digits, default 60).
These "q-scalars" are ordinary ``mpmath.mpf`` values; every function that
creates them takes the precision explicitly so results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .linalg import _Memo

MIN_PRECISION = 30
DEFAULT_PRECISION = 60
DEFAULT_Q = Fraction(1, 2)

__all__ = [
    "QLaurent",
    "q_int",
    "q_factorial",
    "q_binomial",
    "q_multinomial",
    "parse_q",
    "check_precision",
    "guarded_sqrt",
    "ExactnessError",
    "NegativeRadicandError",
    "MIN_PRECISION",
    "DEFAULT_PRECISION",
    "DEFAULT_Q",
]


class ExactnessError(ArithmeticError):
    """A division that must be exact left a remainder.

    Raised instead of returning a rounded quotient: an inexact q-integer
    division always signals a transcription bug upstream.
    """


class NegativeRadicandError(ArithmeticError):
    """A radicand that must be non-negative came out significantly negative."""


def parse_q(q) -> Fraction:
    """Normalize a deformation parameter to an exact Fraction in (0, 1).

    Accepts a Fraction, a "p/r" string, or a (p, r) tuple.  Floats are
    rejected: the parameter enters exact arithmetic and must be exact.
    """
    if isinstance(q, str):
        q = Fraction(q)
    elif isinstance(q, tuple):
        q = Fraction(*q)
    elif not isinstance(q, Fraction):
        raise TypeError(
            "q must be a Fraction, a 'p/r' string or a (p, r) tuple, got %r" % (q,)
        )
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1, got %s" % q)
    return q


def check_precision(precision) -> int:
    precision = int(precision)
    if precision < MIN_PRECISION:
        raise ValueError(
            "working precision must be at least %d digits, got %d"
            % (MIN_PRECISION, precision)
        )
    return precision


class QLaurent:
    """An integer-coefficient Laurent polynomial in the deformation parameter q.

    Immutable.  Stored as a map exponent -> nonzero integer coefficient; all
    ring operations are exact.  Division is exact Laurent long division and
    hard-fails on a nonzero remainder (:class:`ExactnessError`).
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(v, int):
                    raise TypeError("coefficients must be exact integers, got %r" % (v,))
                e = int(e)
                nv = c.get(e, 0) + v
                if nv:
                    c[e] = nv
                elif e in c:
                    del c[e]
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "QLaurent":
        """The monomial coeff * q^e."""
        return cls({int(e): coeff})

    # -- inspection --------------------------------------------------------

    def coefficient(self, e: int) -> int:
        return self._c.get(e, 0)

    def support(self):
        """Sorted tuple of exponents with nonzero coefficient."""
        return tuple(sorted(self._c))

    def coeffs(self) -> dict:
        return dict(self._c)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QLaurent({0: other})
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            c = self._c[e]
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else "%d*" % abs(c)
                term = "%sq^%d" % (mag, e) if e != 1 else "%sq" % mag
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = QLaurent({0: other})
        if not isinstance(other, QLaurent):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            elif e in c:
                del c[e]
        out = QLaurent.__new__(QLaurent)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QLaurent.__new__(QLaurent)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = QLaurent({0: other})
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return QLaurent.zero()
            out = QLaurent.__new__(QLaurent)
            out._c = {e: other * v for e, v in self._c.items()}
            return out
        if not isinstance(other, QLaurent):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) == 1:  # a one-term factor shifts and scales the other's terms
            a, b = b, a
        if len(b) == 1:
            # The dict the double loop would build, in its order: with one
            # term (e2, v2) no two exponents e1 + e2 collide.
            (e2, v2), = b.items()
            c = {e1 + e2: v1 * v2 for e1, v1 in a.items()}
        else:
            c = {}
            for e1, v1 in a.items():
                for e2, v2 in b.items():
                    e = e1 + e2
                    nv = c.get(e, 0) + v1 * v2
                    if nv:
                        c[e] = nv
                    elif e in c:
                        del c[e]
        out = QLaurent.__new__(QLaurent)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("only non-negative powers are defined")
        out = QLaurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exact_div(self, other: "QLaurent") -> "QLaurent":
        """Exact Laurent division; raises ExactnessError on a remainder."""
        if not isinstance(other, QLaurent):
            raise TypeError("can only divide by another QLaurent")
        if not other:
            raise ZeroDivisionError("division of QLaurent by zero")
        if not self:
            return QLaurent.zero()
        lead_e = max(other._c)
        lead_c = other._c[lead_e]
        # For an exact quotient, valuations subtract; anything below is inexact.
        val_floor = min(self._c) - min(other._c)
        rem = dict(self._c)
        quo = {}
        while rem:
            e_r = max(rem)
            c_r = rem[e_r]
            if c_r % lead_c:
                raise ExactnessError("inexact division: %r by %r" % (self, other))
            shift = e_r - lead_e
            if shift < val_floor:
                raise ExactnessError("inexact division: %r by %r" % (self, other))
            t = c_r // lead_c
            quo[shift] = quo.get(shift, 0) + t
            for e, v in other._c.items():
                ne = e + shift
                nv = rem.get(ne, 0) - t * v
                if nv:
                    rem[ne] = nv
                elif ne in rem:
                    del rem[ne]
        out = QLaurent.__new__(QLaurent)
        out._c = quo
        return out

    # -- symmetry ----------------------------------------------------------

    def is_palindromic(self) -> bool:
        """Invariance under q <-> q^-1."""
        return self._c == {-e: v for e, v in self._c.items()}

    # -- numeric tier ------------------------------------------------------

    def eval(self, q, precision: int = DEFAULT_PRECISION):
        """Evaluate at a rational q in (0, 1) as an mpf at `precision` digits.

        Guard digits are used internally so that the returned value differs
        from the true one by at most 10^(1-precision) * (1 + |true value|).
        """
        return _evaluator(q, precision)(self)


def _evaluator(q, precision):
    """The function that evaluates a QLaurent at q to `precision` digits:
    its terms c q^e summed in ascending exponent order at precision + 10
    digits, then rounded.  Each distinct term (c, e) is computed once for
    the evaluator's life; a term is pure in (c, e) at that precision, so
    every value is the plain term-by-term sum bit for bit."""
    qf = parse_q(q)
    precision = check_precision(precision)
    with mp.workdps(precision + 10):
        qv = mp.mpf(qf.numerator) / mp.mpf(qf.denominator)
    terms = _Memo(lambda term: term[0] * qv**term[1])

    def evaluate(p):
        with mp.workdps(precision + 10):
            total = mp.mpf(0)
            for e in sorted(p._c):
                total += terms[p._c[e], e]
        with mp.workdps(precision):
            return +total

    return evaluate


def q_int(z: int) -> QLaurent:
    """The symmetric q-integer [z] = (q^z - q^-z)/(q - q^-1).

    For z > 0 this is q^(z-1) + q^(z-3) + ... + q^(1-z); [0] = 0 and
    [-z] = -[z].
    """
    z = int(z)
    if z == 0:
        return QLaurent.zero()
    if z < 0:
        return -q_int(-z)
    out = QLaurent.__new__(QLaurent)
    out._c = {e: 1 for e in range(1 - z, z, 2)}
    return out


def q_factorial(n: int) -> QLaurent:
    """[n]! = [n][n-1]...[1], with [0]! = 1."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0, got %d" % n)
    out = QLaurent.one()
    for z in range(2, n + 1):
        out = out * q_int(z)
    return out


def q_binomial(n: int, m: int) -> QLaurent:
    """The q-binomial [n]! / ([m]! [n-m]!), exact by construction."""
    if not 0 <= m <= n:
        raise ValueError("q-binomial needs 0 <= m <= n, got n=%d m=%d" % (n, m))
    return q_factorial(n).exact_div(q_factorial(m) * q_factorial(n - m))


def q_multinomial(parts) -> QLaurent:
    """The twisted q-multinomial q^(-sum_{r<s} j_r j_s) [J]!/([j_1]!...[j_k]!).

    J = j_1 + ... + j_k.  The prefactor breaks palindromicity whenever two
    parts are simultaneously nonzero.
    """
    js = [int(j) for j in parts]
    if any(j < 0 for j in js):
        raise ValueError("q-multinomial parts must be non-negative, got %r" % (parts,))
    total = sum(js)
    cross = 0
    for r in range(len(js)):
        for s in range(r + 1, len(js)):
            cross += js[r] * js[s]
    num = QLaurent.q_power(-cross) * q_factorial(total)
    den = QLaurent.one()
    for j in js:
        den = den * q_factorial(j)
    return num.exact_div(den)


def guarded_sqrt(value, precision: int = DEFAULT_PRECISION):
    """Square root of a numerically non-negative quantity.

    Values below -10^(-precision/2) raise NegativeRadicandError (a formula
    transcription bug, not round-off); tiny negatives are clamped to zero.
    """
    precision = check_precision(precision)
    with mp.workdps(precision):
        value = mp.mpf(value)
        if value < 0:
            if value < -mp.mpf(10) ** (-(precision // 2)):
                raise NegativeRadicandError(
                    "radicand %s is negative beyond round-off tolerance" % mp.nstr(value, 8)
                )
            return mp.mpf(0)
        return mp.sqrt(value)
