"""Exact q-arithmetic: symmetric q-integers and their Laurent polynomial ring.

The symmetric q-integer of z is [z] = (q^z - q^-z)/(q - q^-1), a Laurent
polynomial in q with integer coefficients.  Everything assembled from
q-integers by ring operations stays inside that ring and is represented
exactly by :class:`QLaurent`; nothing is divided and no rounding ever
happens on this tier.  (The q-factorials, q-binomials and the twisted
q-multinomial, which no library code calls, are kept with the test oracles.)

Square roots force a second, numeric tier: evaluating a QLaurent at a fixed
rational 0 < q < 1 produces an arbitrary-precision mpmath float computed
under an explicit working precision (30 to 4000 decimal digits, default 60).
These "q-scalars" are ordinary ``mpmath.mpf`` values; every function that
creates them takes the precision explicitly so results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .linalg import _Memo, _check_int

MIN_PRECISION = 30
MAX_PRECISION = 4000  # mp.nstr near 10^-4300 hits CPython's int-to-str limit
DEFAULT_PRECISION = 60
DEFAULT_Q = Fraction(1, 2)

__all__ = [
    "QLaurent",
    "q_int",
    "parse_q",
    "check_precision",
    "NegativeRadicandError",
    "MIN_PRECISION",
    "MAX_PRECISION",
    "DEFAULT_PRECISION",
    "DEFAULT_Q",
]


class NegativeRadicandError(ArithmeticError):
    """An exact radicand, whose sign is decided before any rounding, came
    out negative: that can only be a transcription bug upstream."""


def parse_q(q) -> Fraction:
    """Normalize a deformation parameter to an exact Fraction in (0, 1).

    Accepts a Fraction or a "p/r" string.  Floats are rejected: the
    parameter enters exact arithmetic and must be exact.
    """
    if isinstance(q, str):
        try:
            q = Fraction(q)
        except ZeroDivisionError:
            raise ValueError("q has a zero denominator: %r" % q) from None
    elif not isinstance(q, Fraction):
        raise TypeError("q must be a Fraction or a 'p/r' string, got %r" % (q,))
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1, got %s" % q)
    return q


def check_precision(precision) -> int:
    """`precision` as an int digit count; a non-int is a TypeError, one
    outside MIN_PRECISION..MAX_PRECISION a ValueError."""
    precision = _check_int(precision, "the working precision")
    if precision < MIN_PRECISION:
        raise ValueError(
            "working precision must be at least %d digits, got %d"
            % (MIN_PRECISION, precision)
        )
    if precision > MAX_PRECISION:
        raise ValueError("working precision must be at most %d digits, got %d"
                         % (MAX_PRECISION, precision))
    return precision


class QLaurent:
    """An integer-coefficient Laurent polynomial in the deformation parameter q.

    Immutable.  Stored as a map exponent -> nonzero integer coefficient, both
    Python ints (anything else is a TypeError).  The ring operations +, -
    and * take two QLaurents and are exact.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(e, int):
                    raise TypeError("exponents must be integers, got %r" % (e,))
                if not isinstance(v, int):
                    raise TypeError("coefficients must be exact integers, got %r" % (v,))
                if v:
                    c[e] = v
        self._c = c

    @classmethod
    def _of(cls, c) -> "QLaurent":
        # The one constructor of trusted results: `c` is taken as it is, an
        # exponent -> nonzero integer coefficient dict owned by the result.
        out = cls.__new__(cls)
        out._c = c
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def q_power(cls, e: int) -> "QLaurent":
        """The monomial q^e; a non-integer e is a TypeError."""
        return cls({e: 1})

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
        # A constant equals its integer, so it must hash as that integer.
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
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
        if not isinstance(other, QLaurent):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            else:  # v != 0, so a zero sum cancels a term of `c`
                del c[e]
        return QLaurent._of(c)

    def __neg__(self):
        return QLaurent._of({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                nv = c.get(e, 0) + v1 * v2
                if nv:
                    c[e] = nv
                else:
                    del c[e]
        return QLaurent._of(c)

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
    [-z] = -[z].  A non-integer z is a TypeError.
    """
    z = _check_int(z, "a q-integer argument")
    sign, n = (1, z) if z >= 0 else (-1, -z)
    return QLaurent._of(dict.fromkeys(range(1 - n, n, 2), sign))


def _q_numbers(qf):
    """[z] at q = a/b in integers, z -> (N_z, |z| - 1) with [z] = N_z / (ab)^(|z|-1):
    N_z = sign(z) (a^(2|z|) - b^(2|z|))/(a^2 - b^2) is the value at q of the
    factored form q^(1-|z|) P_|z|(q^2).  The table keeps ab for `_ratio`."""
    a2, b2 = qf.numerator ** 2, qf.denominator ** 2
    table = _Memo(lambda z: ((a2**abs(z) - b2**abs(z)) // (a2 - b2) * (-1) ** (z < 0), abs(z) - 1))
    table.ab = qf.numerator * qf.denominator
    return table


def _ratio(table, num, den, e):
    # num / (den (ab)^e) as one reduced Fraction, ab from a `_q_numbers` table.
    return Fraction(num, den * table.ab ** e) if e >= 0 else Fraction(num * table.ab ** -e, den)
