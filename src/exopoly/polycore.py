"""Exact rational polynomial algebra.

Dense univariate polynomials over arbitrary-precision rationals, stored as
integer numerators over one common denominator so that arithmetic runs on
Python ints; and Sturm root counting on (half-)open intervals, run on
integer coefficient lists: one pseudo-division deflates roots on the
endpoints and builds the signed remainder chain, one content removal per
term, and one Horner pass reads each sign.  Everything here is pure and
immutable, and no operation rounds except the one way out to floats,
``Poly.float_values``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

NEG_INF = float("-inf")
POS_INF = float("inf")


def rat(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and exact decimal strings to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_str(x: Union[Fraction, int]) -> str:
    """str(x) at any length: CPython refuses an int of more than 4,300 digits
    (sys.get_int_max_str_digits), so a longer one is printed in halves."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{rat_str(x.numerator)}/{rat_str(x.denominator)}"
    m = abs(int(x))
    if m.bit_length() <= 2000:  # <= 603 digits: under the lowest settable limit, 640
        return str(int(x))
    k = m.bit_length() * 3 // 20  # about half the digits (log10 2 = 0.301)
    high, low = divmod(m, 10**k)
    return "-" * (x < 0) + rat_str(high) + rat_str(low).zfill(k)


def _is_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x)


class IndeterminateRootCountError(ValueError):
    """Raised when a root count is requested for the zero polynomial."""


class Poly:
    """Dense univariate polynomial over the rationals, ascending powers.

    Stored as a tuple of integer numerators over one positive common
    denominator, kept in lowest terms (the gcd of the denominator and all
    numerators is 1) with trailing zeros trimmed.  So ``degree`` is well
    defined (-1 for the zero polynomial), equality and hashing are
    structural, and each operation runs on Python ints with one gcd
    normalisation per result.  ``coeffs`` returns the Fraction coefficients.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list[int], den: int) -> None:
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num) if num else den
        if g != 1:
            num, den = [c // g for c in num], den // g
        self._num, self._den = tuple(num), den

    @staticmethod
    def _of(num: list[int], den: int = 1) -> "Poly":
        """The polynomial sum(num[k] eta^k) / den, for a positive den."""
        p = Poly.__new__(Poly)
        p._set(num, den)
        return p

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        a, b, den = self._num, other._num, self._den
        if den != other._den:
            g = math.gcd(den, other._den)
            sa, sb = other._den // g, den // g
            a, b, den = [c * sa for c in a], [c * sb for c in b], den * sa
        if len(a) < len(b):
            a, b = b, a
        return Poly._of([x + y for x, y in zip(a, b)] + list(a[len(b):]), den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self._num], self._den)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = rat(other)
            return Poly._of([c * other.numerator for c in self._num],
                            self._den * other.denominator)
        a, b = self._num, other._num
        if not a or not b:
            return Poly()
        if len(a) < len(b):
            a, b = b, a
        na = len(a)
        out = [0] * (na + len(b) - 1)
        for j, c in enumerate(b):  # one C-level row a * c per coefficient of b
            if c:
                out[j:j + na] = map(operator.add, out[j:j + na], map(operator.mul, a, repeat(c)))
        return Poly._of(out, self._den * other._den)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly([x])
        raise TypeError(f"cannot coerce {type(x).__name__} to Poly")

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Exact euclidean division over the rationals."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q, r, m = _pseudo_divmod(self._num, divisor._num)
        # m * A = Q * B + R for self = A / self._den and divisor = B / divisor._den
        den = m * self._den
        return Poly._of([c * divisor._den for c in q], den), Poly._of(r, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(self._coerce(other))[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(self._coerce(other))[1]

    # -- calculus and evaluation -----------------------------------------

    def derivative(self) -> "Poly":
        return Poly._of([k * c for k, c in enumerate(self._num)][1:], self._den)

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation at a rational point (Horner)."""
        x = rat(x)
        return Fraction(_horner(self._num, x), self._den * x.denominator ** max(self.degree(), 0))

    def float_values(self, etas: Sequence[float]) -> list[float]:
        """The value at each node in floats: every coefficient rounded once,
        then Horner acc * eta + c, one coefficient at a time over the list."""
        acc = [0.0] * len(etas)
        for c in reversed(self._num):
            c = c / self._den
            acc = [a * e + c for a, e in zip(acc, etas)]
        return acc

    # -- transforms -------------------------------------------------------

    def compose_neg(self) -> "Poly":
        """p(eta) -> p(-eta)."""
        return Poly._of([-c if k % 2 else c for k, c in enumerate(self._num)], self._den)


def _horner(num: Sequence[int], x: Fraction) -> int:
    """q^d * sum(num[k] x^k) as an integer, for x = p/q and d = len(num) - 1:
    the value at x times a positive integer, so its sign is the value's."""
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for c in reversed(num):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: (q, r, m) with m*a == q*b + r, deg r < deg b
    and m a positive integer, so q and r are positive multiples of a // b and
    a % b; r comes trimmed, empty when b divides a."""
    db, lc = len(b) - 1, b[-1]
    step, sign = abs(lc), (1 if lc > 0 else -1)
    r, q, m = list(a), [0] * max(0, len(a) - db), 1
    for k in reversed(range(len(q))):
        c = r.pop()  # coefficient of eta^(k+db), cancelled against b * eta^k
        if not c:
            continue
        if step != 1:
            r, q, m = [step * v for v in r], [step * v for v in q], m * step
        q[k] = f = sign * c
        r[k:] = [v - f * w for v, w in zip(r[k:], b)]
    while r and not r[-1]:
        r.pop()
    return q, r, m


ETA = Poly([0, 1])
ONE = Poly([1])


@dataclass(frozen=True)
class Interval:
    """Real interval with per-endpoint open/closed flags.

    Bounds are Fractions, and float('+/-inf') marks half-infinite
    intervals.  Exact root counting insists on Fraction-or-infinite bounds;
    tanh-sinh quadrature reads them as floats.
    """

    lo: Union[Fraction, float]
    hi: Union[Fraction, float]
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: lo={self.lo!r} >= hi={self.hi!r}")

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo == NEG_INF else str(self.lo)
        hi = "inf" if self.hi == POS_INF else str(self.hi)
        return f"{lb}{lo}, {hi}{rb}"


def _variations(chain: Sequence[Sequence[int]], point) -> int:
    """Sign variations of an integer chain at a rational point, or at +/-inf
    from each term's leading coefficient and the parity of its degree."""
    if _is_inf(point):  # the sign at -inf is the leading one times (-1)^degree
        values = [t[-1] if point > 0 or len(t) % 2 else -t[-1] for t in chain]
    else:
        values = [_horner(t, point) for t in chain]
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def sturm_count(p: Poly, iv: Interval) -> int:
    """Exact count of distinct real roots of p in the interval.

    Roots landing exactly on a finite endpoint are counted only when that
    endpoint is flagged closed.  Half-infinite intervals use leading-term
    sign analysis.  The count runs on integer coefficient lists: p times its
    positive denominator, with no Poly or Fraction built on the way.
    """
    if p.is_zero:
        raise IndeterminateRootCountError("indeterminate root count")
    for bound in (iv.lo, iv.hi):
        if not (isinstance(bound, Fraction) or _is_inf(bound)):
            raise TypeError("sturm_count needs Fraction or infinite bounds")

    endpoint_roots, work = 0, p._num
    for bound, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)):
        if _is_inf(bound) or _horner(work, bound):
            continue
        endpoint_roots += closed
        while not _horner(work, bound):  # the quotient: a positive multiple of work / (eta - bound)
            work = _pseudo_divmod(work, [-bound.numerator, bound.denominator])[0]
    if len(work) <= 1:
        return endpoint_roots

    # the signed remainder sequence of (work, work'), each term over its
    # content.  No square-free step: the sequence ends in gcd(work, work'), and
    # sign variations at two non-roots of work still differ by its number of
    # distinct roots between them (Basu, Pollack & Roy, Algorithms in Real
    # Algebraic Geometry, Thm 2.50)
    chain, term = [], work
    while term:
        g = math.gcd(*term)
        chain.append([c // g for c in term])
        term = ([k * c for k, c in enumerate(term)][1:] if len(chain) == 1
                else [-c for c in _pseudo_divmod(chain[-2], chain[-1])[1]])
    return _variations(chain, iv.lo) - _variations(chain, iv.hi) + endpoint_roots
