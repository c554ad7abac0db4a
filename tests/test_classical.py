"""Classical polynomial layer: construction oracles, identities, zero counts."""

import random
from fractions import Fraction as F

import pytest

from exopoly.classical import (
    IDENTITIES,
    _CACHE_ENTRIES,
    _check_jacobi_ode,
    _check_laguerre_ode,
    _jacobi_cached,
    _laguerre_cached,
    TheoremHypothesisError,
    binomial,
    count_zeros_exact,
    identity_residual,
    jacobi,
    jacobi_is_degree_degenerate,
    klein_E,
    laguerre,
    nodeless_condition,
    predict_zero_count,
)
from exopoly.polycore import ETA, ONE, Poly


# ---------------------------------------------------------------------------
# independent construction oracles
# ---------------------------------------------------------------------------


def _binom(top, k):
    """C(top, k) in Fractions, independent of the library's binomial."""
    out = F(1)
    for j in range(k):
        out = out * (F(top) - j) / (j + 1)
    return out


def laguerre_recurrence(n, alpha):
    """Recurrence (k+1) L_{k+1} = (2k+1+alpha-eta) L_k - (k+alpha) L_{k-1};
    its leading prefactor k+1 never vanishes, so it holds at every alpha."""
    a = F(alpha)
    prev, cur = ONE, Poly([a + 1, -1])
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = (Poly([2 * k + 1 + a, -1]) * cur - (k + a) * prev) * F(1, k + 1)
        prev, cur = cur, nxt
    return cur


def jacobi_two_binomial(n, alpha, beta):
    """Two-binomial sum sum_s C(n+alpha, n-s) C(n+beta, s)
    ((eta-1)/2)^s ((eta+1)/2)^(n-s); polynomial in alpha and beta."""
    a, b = F(alpha), F(beta)
    minus, plus = Poly([F(-1, 2), F(1, 2)]), Poly([F(1, 2), F(1, 2)])
    total = Poly()
    for s in range(n + 1):
        term = ONE * (_binom(n + a, n - s) * _binom(n + b, s))
        for _ in range(s):
            term = term * minus
        for _ in range(n - s):
            term = term * plus
        total = total + term
    return total


def jacobi_recurrence(n, alpha, beta):
    """Three-term recurrence oracle; caller must avoid vanishing prefactors."""
    a, b = F(alpha), F(beta)
    prev = ONE
    cur = Poly([(a - b) / 2, (a + b + 2) / 2])
    if n == 0:
        return prev
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        assert c1 != 0, "oracle hit a degenerate prefactor"
        c2 = (2 * k + a + b - 1) * (a * a - b * b)
        c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
        c4 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        nxt = (Poly([c2, c3]) * cur - c4 * prev) * (1 / c1)
        prev, cur = cur, nxt
    return cur


def _random_rational(rng, lo=-8, hi=8, max_den=6):
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return F(num, den)


def _degenerate_or_random(rng, n):
    """A parameter pair: random rationals, negative integers, or a sum
    alpha + beta in -2n..-n-1 where the Jacobi degree drops."""
    a, b = _random_rational(rng), _random_rational(rng)
    pick = rng.randrange(3)
    if pick == 1:
        a, b = F(rng.randint(-n - 2, -1)), F(rng.randint(-n - 2, 2))
    elif pick == 2:
        b = -a - rng.randint(n, 2 * n)
    return a, b


def test_laguerre_matches_recurrence_oracle():
    rng = random.Random(20315)
    for _ in range(60):
        n = rng.randint(0, 20)
        alpha, _ = _degenerate_or_random(rng, n)
        assert laguerre(n, alpha) == laguerre_recurrence(n, alpha), (n, alpha)


def test_jacobi_matches_two_binomial_oracle():
    rng = random.Random(4141)
    degenerate = 0
    for _ in range(60):
        n = rng.randint(0, 20)
        a, b = _degenerate_or_random(rng, n)
        degenerate += jacobi_is_degree_degenerate(n, a, b)
        assert jacobi(n, a, b) == jacobi_two_binomial(n, a, b), (n, a, b)
    assert degenerate >= 10


def test_laguerre_small_cases():
    assert laguerre(0, F(7, 3)) == ONE
    alpha = F(-9, 4)
    assert laguerre(1, alpha) == Poly([alpha + 1, -1])
    assert laguerre(2, F(-5, 2)) == Poly([F(3, 8), F(1, 2), F(1, 2)])


def test_jacobi_matches_recurrence_oracle():
    rng = random.Random(977)
    done = 0
    while done < 25:
        n = rng.randint(0, 8)
        a = _random_rational(rng)
        b = _random_rational(rng)
        # skip parameter points where the recurrence itself degenerates
        if any(
            2 * k * (k + a + b) * (2 * k + a + b - 2) == 0 for k in range(2, n + 1)
        ):
            continue
        assert jacobi(n, a, b) == jacobi_recurrence(n, a, b)
        done += 1


def test_jacobi_small_cases():
    a, b = F(1, 3), F(-7, 2)
    assert jacobi(0, a, b) == ONE
    assert jacobi(1, a, b) == Poly([(a - b) / 2, (a + b + 2) / 2])


def test_jacobi_against_sympy():
    import sympy

    x = sympy.symbols("x")
    for n, a, b in [(2, F(-5, 2), F(-5, 2)), (3, F(1, 2), F(-4)), (4, F(0), F(-13, 3))]:
        expr = sympy.jacobi(n, sympy.Rational(a), sympy.Rational(b), x)
        coeffs = sympy.Poly(sympy.expand(expr), x).all_coeffs()[::-1]
        assert jacobi(n, a, b) == Poly([F(str(c)) for c in coeffs])


def test_jacobi_parity():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(0, 7)
        a, b = _random_rational(rng), _random_rational(rng)
        lhs = jacobi(n, a, b).compose_neg()
        rhs = jacobi(n, b, a) * F((-1) ** n)
        assert lhs == rhs


def test_jacobi_degree_degenerate_flagging():
    # alpha + beta = -2n .. -n-1 kills the leading binomial
    assert jacobi_is_degree_degenerate(1, 0, -2)
    p = jacobi(1, 0, -2)
    assert p.degree() == 0 and p == ONE
    assert not jacobi_is_degree_degenerate(2, F(-5, 2), F(-5, 2))
    assert jacobi(2, F(-5, 2), F(-5, 2)).degree() == 2
    assert jacobi_is_degree_degenerate(3, F(-5, 2), F(-7, 2))
    assert jacobi(3, F(-5, 2), F(-7, 2)).degree() < 3


def test_defining_equations_hold_on_random_draws():
    # the builders self-check their equation; this re-checks externally
    rng = random.Random(314159)
    for _ in range(20):
        n = rng.randint(0, 10)
        a = _random_rational(rng)
        b = _random_rational(rng)
        L = laguerre(n, a)
        lag_resid = ETA * L.derivative().derivative() + Poly([a + 1, -1]) * L.derivative() + n * L
        assert lag_resid.is_zero
        P = jacobi(n, a, b)
        jac_resid = (
            Poly([1, 0, -1]) * P.derivative().derivative()
            + Poly([b - a, -(a + b + 2)]) * P.derivative()
            + n * (n + a + b + 1) * P
        )
        assert jac_resid.is_zero


@pytest.mark.parametrize("check, params, built", [
    (_check_laguerre_ode, (6, F(1, 3)), laguerre(6, F(1, 3))),
    (_check_jacobi_ode, (6, F(1, 2), F(-2, 3)), jacobi(6, F(1, 2), F(-2, 3))),
    # degree-degenerate: P_3^(-5/2, -7/2) has degree 2 < 3
    (_check_jacobi_ode, (3, F(-5, 2), F(-7, 2)), jacobi(3, F(-5, 2), F(-7, 2))),
])
def test_coefficientwise_self_check_catches_one_perturbed_coefficient(check, params, built):
    check(*params, built)
    for k in range(built.degree() + 1):
        mutant = Poly([c + (j == k) for j, c in enumerate(built.coeffs)])
        with pytest.raises(AssertionError, match="failed its equation"):
            check(*params, mutant)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def test_classical_caches_stop_at_their_bound():
    # 2,000 distinct constructions per family: a miss that finds the memo full
    # clears it whole, so it never holds more than _CACHE_ENTRIES, whatever
    # fits in memory
    for cached, build in ((_jacobi_cached, lambda k: jacobi(1, k, F(1, 2))),
                          (_laguerre_cached, lambda k: laguerre(1, k))):
        cached.cache_clear()
        for k in range(2000):
            build(k)
            info = cached.cache_info()
            assert info.currsize <= _CACHE_ENTRIES, (k, info)
            if k == _CACHE_ENTRIES:  # the 1,025th distinct build starts a generation
                assert info.currsize == 1, info
        info = cached.cache_info()
        assert info.maxsize == _CACHE_ENTRIES == 1024, info
        assert info.currsize == 976 and info.hits + info.misses == 2000, info


def test_classical_cache_flush_frees_its_generation():
    # one-at-a-time eviction would free a single entry here; the flush frees
    # the whole generation the 1,024 builds made
    import tracemalloc

    _jacobi_cached.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(_CACHE_ENTRIES):
            jacobi(16, F(k, 7), F(-1, 3))
        full = tracemalloc.get_traced_memory()[0]
        jacobi(16, F(-1, 7), F(-1, 3))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _jacobi_cached.cache_clear()
    assert full - after >= (full - before) / 2, (before, full, after)


def test_classical_cache_counters_survive_a_flush():
    # perfbench/tracer.py reads these counters over a whole run, and reports 0
    # without a word if cache_info is missing
    _laguerre_cached.cache_clear()
    for k in range(_CACHE_ENTRIES):
        laguerre(2, k)
    laguerre(2, 0)
    assert _laguerre_cached.cache_info() == (1, _CACHE_ENTRIES, _CACHE_ENTRIES, _CACHE_ENTRIES)
    laguerre(2, -1)  # a miss on a full memo: the flush
    laguerre(2, -1)
    laguerre(2, 0)  # built again in the new generation
    assert _laguerre_cached.cache_info() == (2, _CACHE_ENTRIES + 2, _CACHE_ENTRIES, 2)
    _laguerre_cached.cache_clear()
    assert _laguerre_cached.cache_info() == (0, 0, _CACHE_ENTRIES, 0)


def test_classical_cache_counts_every_call_from_threads():
    # eight threads share one memo through flushes, switching every
    # microsecond: no count is lost and the bound holds at every store
    import concurrent.futures
    import sys

    def build(t):
        for k in range(2000):
            laguerre(8, F(k, t + 2))
            laguerre(8, F(k, t + 2))
            assert _laguerre_cached.cache_info().currsize <= _CACHE_ENTRIES

    _laguerre_cached.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(build, t) for t in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    info = _laguerre_cached.cache_info()
    _laguerre_cached.cache_clear()
    assert info.hits + info.misses == 8 * 2000 * 2 and info.currsize <= _CACHE_ENTRIES, info


def test_identity_spot_checks():
    assert identity_residual("L-1", 3, F(1, 3)).is_zero
    assert identity_residual("J-7", 2, F(1, 2), F(-5, 2)).is_zero
    for alpha in (F(0), F(5, 7), F(-13, 4)):
        assert identity_residual("L-2", 1, alpha).is_zero


def test_identity_argument_errors():
    # a missing beta is reported before a degree below 1, and only the seven
    # identities that reference degree ell-1 need ell >= 1
    for name in IDENTITIES:
        if name.startswith("J"):
            with pytest.raises(ValueError, match="need beta"):
                identity_residual(name, 0, F(1, 2))
        if name in ("J-5", "J-6", "J-7"):
            assert identity_residual(name, 0, F(1, 2), F(1, 3)).is_zero
        else:
            with pytest.raises(ValueError, match="degree >= 1"):
                identity_residual(name, 0, F(1, 2), F(1, 3))
    for name, beta in (("L-9", None), ("J-9", F(1, 3))):
        with pytest.raises(ValueError, match="unknown identity"):
            identity_residual(name, 0, F(1, 2), beta)


def test_all_identities_random_sweep():
    rng = random.Random(8675309)
    for _ in range(20):
        ell = rng.randint(1, 10)
        a, b = _random_rational(rng), _random_rational(rng)
        for name in IDENTITIES:
            if name.startswith("L"):
                assert identity_residual(name, ell, a).is_zero, (name, ell, a)
            else:
                assert identity_residual(name, ell, a, b).is_zero, (name, ell, a, b)


# ---------------------------------------------------------------------------
# Klein symbol and zero counts
# ---------------------------------------------------------------------------


def test_klein_symbol():
    assert klein_E(0) == 0
    assert klein_E(F(-7, 3)) == 0
    assert klein_E(F(5, 2)) == 2
    assert klein_E(3) == 2
    assert klein_E(1) == 0
    assert klein_E(F(1, 4)) == 0


def test_laguerre_zero_count_branches():
    pred = predict_zero_count("laguerre", 3, F(1, 2))
    assert pred.count == 3 and pred.branch == "laguerre_pos_zeros"
    pred = predict_zero_count("laguerre", 2, -3)
    assert pred.count == 0
    with pytest.raises(TheoremHypothesisError):
        predict_zero_count("laguerre", 3, -2)


def test_laguerre_prediction_rejects_beta():
    # the beta used to be dropped silently
    with pytest.raises(ValueError, match="laguerre zero count takes no beta"):
        predict_zero_count("laguerre", 3, F(1, 2), F(2))


def test_laguerre_exact_count_rejects_beta():
    with pytest.raises(ValueError, match="laguerre zero count takes no beta"):
        count_zeros_exact("laguerre", 3, F(1, 2), F(2))


@pytest.mark.parametrize("count", [predict_zero_count, count_zeros_exact])
@pytest.mark.parametrize("kind, beta", [("laguerre", None), ("jacobi", F(1, 2))])
def test_zero_counts_reject_a_negative_degree(count, kind, beta):
    # a laguerre prediction once returned count -2 here, and a jacobi one
    # raised "factorial() not defined for negative values"
    with pytest.raises(ValueError, match=r"^degree must be nonnegative \(got n=-2\)$"):
        count(kind, -2, F(1, 2), beta)


@pytest.mark.parametrize("count", [predict_zero_count, count_zeros_exact])
def test_zero_counts_check_kind_and_beta(count):
    # count_zeros_exact once raised TypeError for a jacobi count without beta
    with pytest.raises(ValueError, match="^a jacobi zero count needs beta$"):
        count("jacobi", 2, F(1, 2))
    with pytest.raises(ValueError, match="^unknown kind 'hermite'$"):
        count("hermite", 2, F(1, 2))


def test_laguerre_middle_branch_is_oracle_resolved():
    pred = predict_zero_count("laguerre", 2, F(-3, 2))
    assert pred.oracle_resolved and pred.branch == "laguerre_middle_oracle"
    assert pred.readings == (1, 2)  # floor vs truncation reading
    assert pred.count == count_zeros_exact("laguerre", 2, F(-3, 2)) == 1


def test_jacobi_zero_count_examples():
    pred = predict_zero_count("jacobi", 2, F(-5, 2), F(-5, 2))
    assert pred.count == 0
    assert count_zeros_exact("jacobi", 2, F(-5, 2), F(-5, 2)) == 0
    # classical range: all n zeros lie inside (-1, 1)
    for n in range(1, 6):
        pred = predict_zero_count("jacobi", n, F(1, 3), F(3, 2))
        assert pred.count == n == count_zeros_exact("jacobi", n, F(1, 3), F(3, 2))
    with pytest.raises(TheoremHypothesisError):
        predict_zero_count("jacobi", 2, -1, F(1, 2))


@pytest.mark.parametrize("beta, shown", [(F(-8), "-8"), (F(10) ** 5000, "1" + "0" * 5000)],
                         ids=["-8", "10^5000"])
def test_sign_test_failure_names_its_parameters(beta, shown):
    # a 5,001-digit beta prints whole: str() would refuse it past 4,300 digits
    with pytest.raises(TheoremHypothesisError) as err:
        predict_zero_count("jacobi", 2, -2, beta)
    assert str(err.value) == ("theorem hypothesis violated: binomial sign test is zero "
                              f"(n=2, alpha=-2, beta={shown})")


def test_prediction_matches_sturm_on_random_admissible_points():
    rng = random.Random(424242)
    checked = 0
    while checked < 60:
        kind = rng.choice(["laguerre", "jacobi"])
        n = rng.randint(1, 8)
        a = _random_rational(rng)
        if kind == "laguerre":
            if a.denominator == 1 and -n <= a <= -1:
                continue
            pred = predict_zero_count("laguerre", n, a)
            if pred.oracle_resolved:
                continue
            assert pred.count == count_zeros_exact("laguerre", n, a), (n, a)
        else:
            b = _random_rational(rng)
            if binomial(n + a, n) * binomial(n + b, n) == 0:
                continue
            pred = predict_zero_count("jacobi", n, a, b)
            assert pred.count == count_zeros_exact("jacobi", n, a, b), (n, a, b)
        checked += 1


def test_nodeless_condition_examples():
    assert nodeless_condition(1, 0, -3)
    assert count_zeros_exact("jacobi", 1, 0, -3) == 0
    assert not nodeless_condition(1, 0, 0)
    assert nodeless_condition(2, F(-5, 2), F(-5, 2))


def test_nodeless_condition_agrees_with_sturm_when_true():
    rng = random.Random(777)
    found = 0
    while found < 15:
        ell = rng.randint(1, 5)
        a, b = _random_rational(rng, -5, 2), _random_rational(rng, -5, 2)
        if binomial(ell + a, ell) * binomial(ell + b, ell) == 0:
            continue
        if nodeless_condition(ell, a, b):
            assert count_zeros_exact("jacobi", ell, a, b) == 0
            found += 1


# ---------------------------------------------------------------------------
# endpoint-zero rules
# ---------------------------------------------------------------------------


def test_laguerre_origin_zero_rule():
    for ell in range(1, 6):
        for num in range(-2 * ell - 2, 3):
            alpha = F(num, 2)
            at_zero = laguerre(ell, alpha)(0)
            expected_zero = alpha.denominator == 1 and -ell <= alpha <= -1
            assert (at_zero == 0) == expected_zero, (ell, alpha)


def test_concurrent_construction_is_consistent():
    # builders memoize internally; concurrent callers must always observe
    # identical exact results
    import concurrent.futures

    jobs = [(n, F(num, 3), F(-num, 4)) for n in range(6) for num in range(-6, 7)]

    def build(job):
        n, a, b = job
        return laguerre(n, a), jacobi(n, a, b)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(build, jobs * 4))
    serial = [build(j) for j in jobs * 4]
    assert results == serial


def test_jacobi_endpoint_multiplicities():
    # eta=+1 is a zero iff alpha in {-1..-ell}, with multiplicity |alpha|;
    # mirrored at eta=-1 for beta
    p = jacobi(3, -2, F(1, 2))
    lin = Poly([-1, 1])
    q, r = p.divmod(lin * lin)
    assert r.is_zero and q(1) != 0
    p2 = jacobi(4, F(1, 3), -3)
    lin2 = Poly([1, 1])
    q2, r2 = p2.divmod(lin2 * lin2 * lin2)
    assert r2.is_zero and q2(-1) != 0
    assert jacobi(3, F(1, 2), F(1, 3))(1) != 0
