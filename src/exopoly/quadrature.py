"""Numerical inner products under the deformed orthogonality weights.

The closed-form norms of the deformed families involve non-elementary
integrals, so orthogonality is checked numerically, by tanh-sinh
(double-exponential) quadrature, which absorbs the algebraic endpoint
singularities of the weights without case analysis.  Semi-infinite domains
are brought to (0, 1) by eta = t / (1 - t), which presumes integrands with
at least exponential decay (true of every weight here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polycore import Interval, Poly
from .systems import XSystem, _horner, level_poly

__all__ = [
    "QuadRule",
    "make_rule",
    "integrate",
    "QuadratureConvergenceError",
    "inner_product",
    "gram",
    "GramReport",
]

_MAX_NODES = 2 ** 14
_ETA_CAP = 1e6  # drop mapped nodes beyond this on semi-infinite domains


class QuadratureConvergenceError(RuntimeError):
    """Adaptive integration stalled; carries the best available estimate."""

    def __init__(self, message: str, achieved: float, last_change: float, nodes: int):
        super().__init__(f"{message} after {nodes} nodes "
                         f"(achieved estimate {achieved!r}, last change {last_change!r})")
        self.achieved = achieved
        self.last_change = last_change
        self.nodes = nodes


@dataclass(frozen=True)
class QuadRule:
    nodes: np.ndarray
    weights: np.ndarray
    domain: Interval
    scheme: str


def _tanh_sinh_raw(level: int, only_new: bool) -> tuple[np.ndarray, np.ndarray]:
    """Abscissa offsets and weights on (-1, 1) at step h = 2^-level.

    Returns (delta, w) where delta > 0 is the distance of the node from the
    nearer endpoint; the node pair is (-1 + delta, 1 - delta).  Computing the
    endpoint distance directly keeps full precision where the weight
    singularities live.  ``only_new`` keeps odd multiples of h only (the
    nodes added when refining level-1 to level).
    """
    h = 2.0 ** (-level)
    u_max = 4.0
    j_max = int(u_max / h)
    js = np.arange(1, j_max + 1)
    if only_new and level > 0:
        js = js[js % 2 == 1]
    u = js * h
    z = 0.5 * math.pi * np.sinh(u)
    # 1 - tanh(z) = 2 / (e^(2z) + 1), cancellation-free
    delta = 2.0 / (np.exp(2 * z) + 1.0)
    w = 0.5 * math.pi * np.cosh(u) / np.cosh(z) ** 2 * h
    keep = delta > 0.0
    return delta[keep], w[keep]


def _ts_points(domain: Interval, level: int, only_new: bool):
    """Nodes/weights for one tanh-sinh refinement step on the domain.

    With only_new=False this is the complete rule at step h = 2^-level;
    with only_new=True only the nodes absent from the level-1 rule appear,
    so S(level) = S(level-1)/2 + dot(new weights, new values).
    """
    lo, hi = float(domain.lo), float(domain.hi)
    if math.isinf(lo):
        raise ValueError("unsupported domain/scheme combination")
    h = 2.0 ** (-level)
    delta, w = _tanh_sinh_raw(level, only_new)
    if math.isinf(hi):
        # t runs over (0, 1); eta = t/(1-t) maps onto (0, inf), shifted by lo
        d = 0.5 * delta  # distance of t from the nearer endpoint
        nodes_list, weights_list = [], []
        if not only_new:
            nodes_list.append(np.array([lo + 1.0]))  # t = 1/2
            weights_list.append(np.array([0.5 * (0.5 * math.pi) * h * 4.0]))
        eta_lo = d / (1.0 - d)           # t = d
        jac_lo = 1.0 / (1.0 - d) ** 2
        eta_hi = (1.0 - d) / d           # t = 1 - d, evaluated cancellation-free
        jac_hi = 1.0 / (d * d)
        for eta, jac in ((eta_lo, jac_lo), (eta_hi, jac_hi)):
            keep = (eta > 0.0) & (eta < _ETA_CAP) & np.isfinite(jac)
            nodes_list.append(lo + eta[keep])
            weights_list.append(0.5 * w[keep] * jac[keep])
        return np.concatenate(nodes_list), np.concatenate(weights_list)
    half = 0.5 * (hi - lo)
    xs_lo = lo + half * delta
    xs_hi = hi - half * delta
    keep = (xs_lo > lo) & (xs_hi < hi)
    nodes = [xs_lo[keep], xs_hi[keep]]
    weights = [half * w[keep], half * w[keep]]
    if not only_new:
        nodes.append(np.array([0.5 * (hi + lo)]))
        weights.append(np.array([half * (0.5 * math.pi) * h]))
    return np.concatenate(nodes), np.concatenate(weights)


def make_rule(domain: Interval, scheme: str, level: int) -> QuadRule:
    """Build a quadrature rule on the domain.

    The one scheme is tanh_sinh: the step 2^-level rule on a finite or
    right-half-infinite interval, robust to integrable endpoint
    singularities.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if scheme == "tanh_sinh":
        # nodes introduced at step lv carry weights built with h = 2^-lv;
        # rescale them to the final step 2^-level
        parts = [_ts_points(domain, lv, only_new=(lv > 1)) for lv in range(1, level + 1)]
        nodes = np.concatenate([p[0] for p in parts])
        weights = np.concatenate(
            [p[1] * 2.0 ** (lv - level) for lv, p in enumerate(parts, start=1)]
        )
        order = np.argsort(nodes)
        return QuadRule(nodes[order], weights[order], domain, scheme)
    raise ValueError("unsupported domain/scheme combination")


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    domain: Interval,
    rtol: float = 1e-12,
    max_nodes: int = _MAX_NODES,
) -> float:
    """Adaptive tanh-sinh integration of a vectorized integrand.

    Refines the step until the relative change drops below rtol, where
    'relative' is measured against the integral of |f| so that genuinely
    tiny integrals (orthogonality defects) converge too.  Raises
    QuadratureConvergenceError with the best estimate if the node cap is hit.
    """
    total = 0.0
    total_abs = 0.0
    n_nodes = 0
    prev = None
    level = 1
    while True:
        nodes, weights = _ts_points(domain, level, only_new=(level > 1))
        vals = np.asarray(f(nodes), dtype=float)
        if level == 1:
            total = float(np.dot(weights, vals))
            total_abs = float(np.dot(weights, np.abs(vals)))
        else:
            total = 0.5 * total + float(np.dot(weights, vals))
            total_abs = 0.5 * total_abs + float(np.dot(weights, np.abs(vals)))
        n_nodes += len(nodes)
        if prev is not None:
            change = abs(total - prev)
            scale = max(abs(total), total_abs)
            if change <= rtol * scale or (scale == 0.0 and change == 0.0):
                return total
            if n_nodes >= max_nodes:
                raise QuadratureConvergenceError(
                    "integration non-convergence at requested tolerance",
                    achieved=total, last_change=change, nodes=n_nodes,
                )
        prev = total
        level += 1


def _log_abs_poly(coeffs: list[float], eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals = _horner(coeffs, eta)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals)), np.sign(vals)


def _weighted_product_integrand(sys: XSystem, pn: Poly, pm: Poly):
    """Log-space integrand weight(eta) * pn * pm / xi^2; weight positive."""
    w = sys.weight
    s, a, b, c = float(w.s), float(w.a), float(w.b), float(w.c)
    cn, cm, cxi = pn.float_coeffs(), pm.float_coeffs(), sys.xi.float_coeffs()

    def f(eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = s * eta
            if a:
                log_w = log_w + a * np.log(eta)
            if b:
                log_w = log_w + b * np.log1p(-eta)
            if c:
                log_w = log_w + c * np.log1p(eta)
            ln_n, sg_n = _log_abs_poly(cn, eta)
            ln_m, sg_m = _log_abs_poly(cm, eta)
            ln_xi, _ = _log_abs_poly(cxi, eta)
            out = sg_n * sg_m * np.exp(log_w + ln_n + ln_m - 2.0 * ln_xi)
        return np.nan_to_num(out, nan=0.0, posinf=np.inf, neginf=-np.inf)

    return f


def inner_product(sys: XSystem, n: int, m: int, rtol: float = 1e-12) -> float:
    """<p_n, p_m> under the system's orthogonality weight (level-indexed)."""
    f = _weighted_product_integrand(sys, level_poly(sys, n), level_poly(sys, m))
    return integrate(f, sys.domain_eta, rtol=rtol)


@dataclass(frozen=True)
class GramReport:
    size: int
    matrix: tuple[tuple[float, ...], ...]
    max_offdiag: float


def gram(sys: XSystem, N: int, rtol: float = 1e-12) -> GramReport:
    """Normalized Gram matrix of the lowest N levels.

    Entries g_nm = <p_n, p_m> / sqrt(<p_n, p_n> <p_m, p_m>); for the
    extended Jacobi case level 0 is the constant ground function.
    """
    if N < 2:
        raise ValueError("need at least two levels")
    polys = [level_poly(sys, n) for n in range(N)]
    raw = [[0.0] * N for _ in range(N)]
    for i in range(N):
        for j in range(i, N):
            f = _weighted_product_integrand(sys, polys[i], polys[j])
            try:
                raw[i][j] = raw[j][i] = integrate(f, sys.domain_eta, rtol=rtol)
            except QuadratureConvergenceError as exc:
                p = sys.params
                exc.args = (f"case {sys.case.value} (ell={p.ell}, alpha={p.alpha}, "
                            f"beta={p.beta}), pair ({i}, {j}): {exc}",)
                raise
    for i in range(N):
        if raw[i][i] <= 0:
            raise RuntimeError(f"non-positive norm at level {i}")
    norms = [math.sqrt(raw[i][i]) for i in range(N)]
    g = tuple(
        tuple(
            1.0 if i == j else raw[i][j] / (norms[i] * norms[j])
            for j in range(N)
        )
        for i in range(N)
    )
    max_off = max(
        abs(g[i][j]) for i in range(N) for j in range(N) if i != j
    ) if N > 1 else 0.0
    return GramReport(size=N, matrix=g, max_offdiag=max_off)
