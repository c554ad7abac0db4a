"""Classical Laguerre and Jacobi polynomials over exact rationals.

Construction is exact for every real rational parameter value, including the
negative values where the usual three-term recurrences break down: each
polynomial is its explicit sum (DLMF 18.5(iii)), polynomial in the
parameters, taken in one pass over Python ints.  Each constructed polynomial
is verified once against its defining second-order equation, so a
transcription error cannot survive construction.  The check runs power by
power: the equation applied to sum c_k eta^k is one integer identity per k
among c_k, c_{k+1} and c_{k+2}, the same condition as a zero residual
polynomial in O(n) integer operations.  Constructed polynomials are kept in
one memo per family, cleared a whole generation at a time when it reaches
1,024 entries, a bound that holds the working set of `verify` (see
`_CACHE_ENTRIES`).  The module also provides the derivative/contiguity
identity suite and the zero-count theory: counts on the positive axis and on
(-1, 1), the Klein symbol, the nodelessness criterion, the counts' one input
check and their seeded sampler (`zero_count_draws`, through the one rational
sampler `_random_rational`).
"""

from __future__ import annotations

import math
import operator
import random
import threading
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import update_wrapper
from typing import Iterator, Optional

from .polycore import ETA, Interval, POS_INF, Poly, rat, rat_str, sturm_count


def _falling(top: int, step: int, k: int) -> list[int]:
    """Integer partial products [prod_{j<i} (top - j step) for i = 0..k]."""
    out = [1]
    for j in range(k):
        out.append(out[-1] * (top - j * step))
    return out


def binomial(top, k: int) -> Fraction:
    """Generalized binomial C(top, k) = top (top-1) ... (top-k+1) / k!."""
    top = rat(top)
    q = top.denominator
    return Fraction(_falling(top.numerator, q, k)[k], q**k * math.factorial(k))


class TheoremHypothesisError(ValueError):
    """Parameters fall outside a zero-count theorem's hypotheses."""


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

# Entries per family memo, not bytes.  Sized to verify's working set: its
# eight suites, run in one process from cold caches, build 557 distinct Jacobi
# and 263 Laguerre polynomials, and 1024 is the least power of two that holds
# both, so verify, like every CLI command, never reaches the bound.  A system
# keeps its own family members (systems.XSystem._family), so a larger bound
# mostly holds memory for points a run has left behind.  exact-deep asks for
# ~16,500 distinct polynomials per 800 points, so there a full memo is cleared
# whole: evicting the oldest entry one at a time left pymalloc's pools half
# live, and the process kept taking new ones (in process, over the same 2,500
# points, 13 arenas and 27.6 MB peak with functools.lru_cache(1024) against 10
# arenas and 24.7 MB with the whole-generation flush).
_CACHE_ENTRIES = 1024

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _generational(build):
    """``build`` memoized on its arguments in one dict that a miss clears whole
    when it already holds _CACHE_ENTRIES entries.  ``cache_info()`` and
    ``cache_clear()`` behave as functools' do: hits and misses count on across
    flushes, and only cache_clear() resets them.  As in functools' Python
    version, a lock guards the counters and the dict; the build runs outside it."""
    table: dict = {}
    hits = misses = 0
    lock = threading.Lock()

    def cached(*key) -> Poly:
        # keyed on the arguments, Fractions as given: keys of their int ratios
        # look up faster but left exact-deep's peak 0.4-1.1 MB higher
        nonlocal hits, misses
        with lock:
            out = table.get(key)
            if out is not None:
                hits += 1
                return out
            misses += 1
        out = build(*key)
        with lock:
            if len(table) >= _CACHE_ENTRIES:
                table.clear()
            table[key] = out
        return out

    def cache_info() -> _CacheInfo:
        with lock:
            return _CacheInfo(hits, misses, _CACHE_ENTRIES, len(table))

    def cache_clear() -> None:
        nonlocal hits, misses
        with lock:
            hits = misses = 0
            table.clear()

    cached.cache_info, cached.cache_clear = cache_info, cache_clear
    return update_wrapper(cached, build)


@_generational
def _laguerre_cached(n: int, alpha: Fraction) -> Poly:
    # sum_k (-1)^k C(n+alpha, n-k) eta^k / k! over the common denominator
    # q^n n! (alpha = p/q): the k-th numerator is
    # (-1)^k C(n, k) q^k prod_{i=k+1..n} (i q + p)
    p, q = alpha.numerator, alpha.denominator
    tops = _falling(p + n * q, q, n)
    num = [(-1) ** k * math.comb(n, k) * q**k * tops[n - k] for k in range(n + 1)]
    L = Poly._of(num, q**n * math.factorial(n))
    _check_laguerre_ode(n, alpha, L)
    return L


def _check_laguerre_ode(n: int, alpha: Fraction, L: Poly) -> None:
    # eta L'' + (alpha + 1 - eta) L' + n L = 0 at each power eta^k of
    # L = sum c_k eta^k: (k+1)(k+alpha+1) c_{k+1} + (n-k) c_k = 0, times q
    # for alpha = p/q and over L's common denominator
    p, q = alpha.numerator, alpha.denominator
    c = L._num + (0,)
    if any((k + 1) * (k * q + p + q) * c[k + 1] + q * (n - k) * c[k]
           for k in range(len(c) - 1)):
        raise AssertionError(f"Laguerre construction failed its equation: n={n}, alpha={alpha}")


def _index(n, what: str, name: str = "n") -> int:
    """n as an int, by operator.index: ints and numpy ints pass, and a float or a
    Fraction raises TypeError naming it, rather than being truncated or evaluated."""
    try:
        return operator.index(n)
    except TypeError:
        raise TypeError(f"{what} must be an integer (got {name}={n})") from None


def laguerre(n: int, alpha) -> Poly:
    """Exact generalized Laguerre polynomial L_n^(alpha) of degree n."""
    if _index(n, "degree") < 0:
        raise ValueError("degree must be nonnegative")
    return _laguerre_cached(int(n), rat(alpha))


@_generational
def _jacobi_cached(n: int, alpha: Fraction, beta: Fraction) -> Poly:
    # sum_m C(n+alpha, n-m) C(n+alpha+beta+m, m) ((eta-1)/2)^m: no vanishing
    # prefactors at negative parameters, unlike the three-term recurrence.
    # With alpha = A/d, beta = B/d it is sum_m t_m (eta-1)^m over
    # d^n n! 2^n, taken out of the (eta-1) basis by Horner's rule on ints.
    d = math.lcm(alpha.denominator, beta.denominator)
    A, B = int(alpha * d), int(beta * d)
    tops = _falling(A + n * d, d, n)                  # C(n+alpha, n-m) numerators
    rises = _falling(A + B + (n + 1) * d, -d, n)      # C(n+alpha+beta+m, m) numerators
    acc: list[int] = []
    for m in range(n, -1, -1):  # acc <- acc (eta - 1) + t_m
        acc = [x - y for x, y in zip([0] + acc, acc + [0])]
        acc[0] += math.comb(n, m) * 2 ** (n - m) * tops[n - m] * rises[m]
    P = Poly._of(acc, d**n * math.factorial(n) * 2**n)
    _check_jacobi_ode(n, alpha, beta, P)
    return P


def _check_jacobi_ode(n: int, alpha: Fraction, beta: Fraction, P: Poly) -> None:
    # (1-eta^2) P'' + (beta - alpha - (alpha+beta+2) eta) P' + n(n+alpha+beta+1) P = 0
    # at each power eta^k of P = sum c_k eta^k:
    # (k+1)(k+2) c_{k+2} + (k+1)(beta-alpha) c_{k+1} + (n-k)(n+k+alpha+beta+1) c_k = 0,
    # times d for alpha = A/d, beta = B/d and over P's common denominator
    d = math.lcm(alpha.denominator, beta.denominator)
    A, B = int(alpha * d), int(beta * d)
    c = P._num + (0, 0)
    if any(d * (k + 1) * (k + 2) * c[k + 2] + (k + 1) * (B - A) * c[k + 1]
           + (n - k) * (d * (n + k + 1) + A + B) * c[k] for k in range(len(c) - 2)):
        raise AssertionError(
            f"Jacobi construction failed its equation: n={n}, alpha={alpha}, beta={beta}"
        )


def jacobi(n: int, alpha, beta) -> Poly:
    """Exact Jacobi polynomial P_n^(alpha, beta).

    For special negative parameter combinations the leading coefficient
    vanishes and the returned polynomial has degree < n.  The drop is never
    hidden: ``poly.degree()`` exposes it and
    :func:`jacobi_is_degree_degenerate` tests for it directly.
    """
    if _index(n, "degree") < 0:
        raise ValueError("degree must be nonnegative")
    return _jacobi_cached(int(n), rat(alpha), rat(beta))


def jacobi_is_degree_degenerate(n: int, alpha, beta) -> bool:
    """True iff the degree-n leading coefficient C(2n+alpha+beta, n)/2^n is 0."""
    return binomial(rat(alpha) + rat(beta) + 2 * n, n) == 0


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

IDENTITIES = ("L-1", "L-2", "L-3", "J-1", "J-2", "J-3", "J-4", "J-5", "J-6", "J-7")

_ONE_MINUS = Poly([1, -1])
_ONE_PLUS = Poly([1, 1])


def identity_residual(name: str, ell: int, alpha, beta=None) -> Poly:
    """Left minus right of a named derivative/contiguity identity.

    The residual is the exact zero polynomial precisely when the identity
    holds.  Laguerre identities take ``alpha`` only; Jacobi ones need
    ``beta`` too.  Identities referencing degree ell-1 require ell >= 1.
    """
    a = rat(alpha)
    if not name.startswith("L"):
        if beta is None:
            raise ValueError("Jacobi identities need beta")
        b = rat(beta)
    if name in IDENTITIES[:7] and ell < 1:  # L-1..L-3 and J-1..J-4 reference degree ell-1
        raise ValueError("identity needs degree >= 1")
    if name == "L-1":
        return laguerre(ell, a).derivative() + laguerre(ell - 1, a + 1)
    if name == "L-2":
        return laguerre(ell, a) + laguerre(ell - 1, a + 1) - laguerre(ell, a + 1)
    if name == "L-3":
        return ETA * laguerre(ell - 1, a + 2) \
            - (a + 1) * laguerre(ell - 1, a + 1) + ell * laguerre(ell, a)
    if name == "J-1":
        return jacobi(ell, a, b).derivative() \
            - Fraction(1, 2) * (ell + a + b + 1) * jacobi(ell - 1, a + 1, b + 1)
    if name == "J-2":
        return 2 * (b + 1) * jacobi(ell, a - 1, b + 1) \
            + (ell + a + b + 1) * _ONE_PLUS * jacobi(ell - 1, a, b + 2) \
            - 2 * (ell + b + 1) * jacobi(ell, a, b)
    if name == "J-3":
        return (ell + a) * jacobi(ell, a - 1, b + 1) - a * jacobi(ell, a, b) \
            - Fraction(1, 2) * (ell + a + b + 1) * Poly([-1, 1]) * jacobi(ell - 1, a + 1, b + 1)
    if name == "J-4":
        return (ell + a) * _ONE_PLUS * jacobi(ell - 1, a, b + 1) \
            - b * _ONE_MINUS * jacobi(ell - 1, a + 1, b) \
            - 2 * ell * jacobi(ell, a, b - 1)
    if name == "J-5":
        return _ONE_MINUS * jacobi(ell, a, b).derivative() \
            - a * jacobi(ell, a, b) + (ell + a) * jacobi(ell, a - 1, b + 1)
    if name == "J-6":
        return _ONE_PLUS * jacobi(ell, a - 1, b + 1).derivative() \
            + (b + 1) * jacobi(ell, a - 1, b + 1) - (ell + b + 1) * jacobi(ell, a, b)
    if name == "J-7":
        return _ONE_PLUS * jacobi(ell, a, b).derivative() \
            - (ell + b) * jacobi(ell, a + 1, b - 1) + b * jacobi(ell, a, b)
    raise ValueError(f"unknown identity {name!r}")


# ---------------------------------------------------------------------------
# zero counting
# ---------------------------------------------------------------------------


def klein_E(u) -> int:
    """Klein symbol: 0 for u <= 0, floor(u) for positive non-integers,
    u - 1 for positive integers."""
    u = rat(u)
    if u <= 0:
        return 0
    if u.denominator == 1:
        return int(u) - 1
    return math.floor(u)


@dataclass(frozen=True)
class ZeroCountPrediction:
    """Predicted real-zero count with the branch that produced it.

    ``oracle_resolved`` marks the ambiguous Laguerre branch -ell < alpha < -1,
    where the printed count formula admits two readings of the integral part;
    there the count is settled by exact Sturm counting and both readings are
    echoed in ``readings`` (floor first, truncation second).
    """

    count: int
    branch: str
    kind: str
    n: int
    alpha: Fraction
    beta: Optional[Fraction] = None
    oracle_resolved: bool = False
    readings: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.count > self.n:
            raise AssertionError("zero count exceeded the degree")


def _sign_test(n: int, a: Fraction, b: Fraction) -> Fraction:
    """(-1)^n C(n+a, n) C(n+b, n), the binomial sign test of the Jacobi
    zero-count theorems; a zero value is outside their hypotheses."""
    sign_product = binomial(n + a, n) * binomial(n + b, n)
    if sign_product == 0:
        raise TheoremHypothesisError("theorem hypothesis violated: binomial sign test is zero "
                                     f"(n={n}, alpha={rat_str(a)}, beta={rat_str(b)})")
    return -sign_product if n % 2 else sign_product


_POSITIVE_AXIS = Interval(Fraction(0), POS_INF)
_OPEN_UNIT = Interval(Fraction(-1), Fraction(1))


def _zero_count_args(kind: str, n: int, alpha, beta) -> tuple[Fraction, Optional[Fraction]]:
    """The zero counts' one input check: a known kind, n >= 0, and a beta given
    exactly when the kind is jacobi.  Returns (alpha, beta) as rationals."""
    if kind not in ("laguerre", "jacobi"):
        raise ValueError(f"unknown kind {kind!r}")
    if _index(n, "degree") < 0:
        raise ValueError(f"degree must be nonnegative (got n={n})")
    if (beta is None) == (kind == "jacobi"):
        raise ValueError("a jacobi zero count needs beta" if beta is None else
                         f"a laguerre zero count takes no beta (got beta={rat_str(rat(beta))})")
    return rat(alpha), None if beta is None else rat(beta)


def predict_zero_count(kind: str, n: int, alpha, beta=None) -> ZeroCountPrediction:
    """Classical theorem predictions for real-zero counts.

    kind='laguerre': zeros of L_n^(alpha) on the positive axis, for
    alpha not in {-1, ..., -n}.  kind='jacobi': zeros of P_n^(alpha, beta)
    in (-1, 1), for parameters where the binomial sign test is nonzero.
    """
    a, b = _zero_count_args(kind, n, alpha, beta)
    if kind == "laguerre":
        if a.denominator == 1 and -n <= a <= -1:
            raise TheoremHypothesisError(
                f"theorem hypothesis violated: alpha={a} is in {{-1,...,-{n}}}"
            )
        if a > -1:
            return ZeroCountPrediction(n, "laguerre_pos_zeros", kind, n, a)
        if a < -n:
            return ZeroCountPrediction(0, "laguerre_pos_zeros", kind, n, a)
        # -n < alpha < -1, non-integer: the printed count n + [alpha] + 1 is
        # ambiguous (floor vs truncation); count exactly and report both.
        floor_reading = n + math.floor(a) + 1
        trunc_reading = n + math.trunc(a) + 1
        count = sturm_count(laguerre(n, a), _POSITIVE_AXIS)
        return ZeroCountPrediction(
            count, "laguerre_middle_oracle", kind, n, a,
            oracle_resolved=True, readings=(floor_reading, trunc_reading),
        )
    X = klein_E(Fraction(1, 2) * (abs(2 * n + a + b + 1) - abs(a) - abs(b) + 1))
    if _sign_test(n, a, b) > 0:
        count = 2 * ((X + 1) // 2)
    else:
        count = 2 * (X // 2) + 1
    return ZeroCountPrediction(count, "jacobi_interval", kind, n, a, b)


def nodeless_condition(ell: int, alpha, beta) -> bool:
    """True iff P_ell^(alpha, beta) is guaranteed zero-free on (-1, 1):

        |2 ell + alpha + beta + 1| - |alpha| - |beta| + 1 <= 0
        and (-1)^ell C(ell+alpha, ell) C(ell+beta, ell) > 0.
    """
    a, b = rat(alpha), rat(beta)
    positive = _sign_test(ell, a, b) > 0
    return abs(2 * ell + a + b + 1) - abs(a) - abs(b) + 1 <= 0 and positive


def count_zeros_exact(kind: str, n: int, alpha, beta=None) -> int:
    """Sturm-count oracle on the exact polynomial, matching the theorem's
    interval convention (positive axis / open (-1, 1))."""
    a, b = _zero_count_args(kind, n, alpha, beta)
    if kind == "laguerre":
        return sturm_count(laguerre(n, a), _POSITIVE_AXIS)
    return sturm_count(jacobi(n, a, b), _OPEN_UNIT)


def _random_rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def zero_count_draws(seed: int) -> Iterator[ZeroCountPrediction]:
    """Endless predictions at random (kind, n, alpha, beta) where the
    zero-count theorems apply (a draw outside their hypotheses is skipped);
    a jacobi beta shares alpha's denominator.  ``zeros --sweep`` and verify's
    zero-count suite draw from this one stream."""
    rng = random.Random(seed)
    while True:
        kind = rng.choice(("laguerre", "jacobi"))
        n = rng.randint(1, 8)
        den = rng.randint(1, 6)
        a = _random_rational(rng, -10, 6, den)
        b = _random_rational(rng, -10, 6, den) if kind == "jacobi" else None
        try:
            pred = predict_zero_count(kind, n, a, b)
        except TheoremHypothesisError:
            continue
        yield pred
