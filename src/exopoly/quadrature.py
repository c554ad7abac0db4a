"""Numerical inner products under the deformed orthogonality weights.

The closed-form norms of the deformed families involve non-elementary
integrals, so orthogonality is checked numerically, by tanh-sinh
(double-exponential) quadrature, which absorbs the algebraic endpoint
singularities of the weights without case analysis.  Semi-infinite domains
are brought to (0, 1) by eta = t / (1 - t), which presumes integrands with
at least exponential decay (true of every weight here).  One shared rule
serves each Gram matrix: every entry must still pass the adaptive criterion
under the same node cap, and a failure names the pair of levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .polycore import Interval, Poly
from .systems import Array, XSystem, _horner, level_poly

__all__ = [
    "integrate",
    "QuadratureConvergenceError",
    "inner_product",
    "gram",
    "GramReport",
]

_MAX_NODES = 2 ** 14
_RTOL = 1e-12  # relative tolerance of each integral and each Gram entry
_BLOCK = 2048  # nodes per evaluation block: bounds the Phi array
_ETA_CAP = 1e6  # drop mapped nodes beyond this on semi-infinite domains


class QuadratureConvergenceError(RuntimeError):
    """Adaptive integration stalled; carries the best available estimate."""

    def __init__(self, message: str, achieved: float, last_change: float, nodes: int):
        super().__init__(f"{message} after {nodes} nodes "
                         f"(achieved estimate {achieved!r}, last change {last_change!r})")
        self.achieved = achieved
        self.last_change = last_change
        self.nodes = nodes


def _tanh_sinh_raw(level: int) -> tuple[Array, Array]:
    """Abscissa offsets and weights on (-1, 1) at step h = 2^-level.

    Returns (delta, w) where delta > 0 is the distance of the node from the
    nearer endpoint; the node pair is (-1 + delta, 1 - delta).  Computing the
    endpoint distance directly keeps full precision where the weight
    singularities live.  Above level 1 only odd multiples of h are kept (the
    nodes added when refining level-1 to level).
    """
    import numpy as np  # local: exact-only commands must not load numpy
    h = 2.0 ** (-level)
    u_max = 4.0
    j_max = int(u_max / h)
    u = np.arange(1, j_max + 1, 1 if level == 1 else 2) * h
    z = 0.5 * math.pi * np.sinh(u)
    # 1 - tanh(z) = 2 / (e^(2z) + 1), cancellation-free
    delta = 2.0 / (np.exp(2 * z) + 1.0)
    w = 0.5 * math.pi * np.cosh(u) / np.cosh(z) ** 2 * h
    keep = delta > 0.0
    return delta[keep], w[keep]


def _ts_points(domain: Interval, level: int):
    """Nodes/weights for one tanh-sinh refinement step on the domain.

    Level 1 is the complete rule at step h = 1/2; above it only the nodes
    absent from the level-1 rule appear, so
    S(level) = S(level-1)/2 + dot(new weights, new values).
    """
    import numpy as np
    lo, hi = float(domain.lo), float(domain.hi)
    if math.isinf(lo):
        raise ValueError(f"tanh-sinh needs a finite lower bound, not the domain {domain}")
    h = 2.0 ** (-level)
    delta, w = _tanh_sinh_raw(level)
    if math.isinf(hi):
        # t runs over (0, 1); eta = t/(1-t) maps onto (0, inf), shifted by lo
        d = 0.5 * delta  # distance of t from the nearer endpoint
        nodes_list, weights_list = [], []
        if level == 1:
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
    if level == 1:
        nodes.append(np.array([0.5 * (hi + lo)]))
        weights.append(np.array([half * (0.5 * math.pi) * h]))
    return np.concatenate(nodes), np.concatenate(weights)


def _refine(domain: Interval, block_sums, rtol: float, where):
    """The one adaptive tanh-sinh loop, for a scalar or an array of integrals.

    ``block_sums(nodes, weights)`` gives the weighted sums of the integrands
    and of their absolute values over at most _BLOCK nodes.  Each level adds
    its new nodes until every entry changes by at most rtol * max(|I|, the
    integral of |f|), so tiny integrals (orthogonality defects) converge too.
    At the node cap the error names the first unconverged entry via ``where``.
    """
    import numpy as np
    prev, n_nodes, level = None, 0, 1
    total = total_abs = 0.0
    while True:
        nodes, weights = _ts_points(domain, level)
        step = [block_sums(nodes[k:k + _BLOCK], weights[k:k + _BLOCK])
                for k in range(0, len(nodes), _BLOCK)]
        total = 0.5 * total + sum(b[0] for b in step)
        total_abs = 0.5 * total_abs + sum(b[1] for b in step)
        n_nodes += len(nodes)
        if prev is not None:
            change = np.abs(total - prev)
            scale = np.maximum(np.abs(total), total_abs)
            done = (change <= rtol * scale) | ((scale == 0.0) & (change == 0.0))
            if done.all():
                return total
            if n_nodes >= _MAX_NODES:
                idx = np.unravel_index(np.argmin(done), done.shape)
                raise QuadratureConvergenceError(
                    f"{where(idx)}integration non-convergence at requested tolerance",
                    achieved=float(total[idx]), last_change=float(change[idx]), nodes=n_nodes,
                )
        prev = total
        level += 1


def integrate(f: Callable[[Array], Array], domain: Interval, rtol: float = _RTOL) -> float:
    """Adaptive tanh-sinh integration of a vectorized integrand; raises
    QuadratureConvergenceError with the best estimate at the node cap."""
    import numpy as np

    def block_sums(nodes, weights):
        vals = np.asarray(f(nodes), dtype=float)
        return np.dot(weights, vals), np.dot(weights, np.abs(vals))

    return float(_refine(domain, block_sums, rtol, lambda idx: ""))


def _phi(sys: XSystem, polys: list[Poly]):
    """Phi[n](eta) = sqrt(w) p_n / xi, one row per polynomial, for an array of
    nodes; sign times exp of a log-space magnitude, so the weight factor
    neither overflows nor underflows ahead of the polynomials."""
    import numpy as np
    w = sys.weight
    s, a, b, c = float(w.s), float(w.a), float(w.b), float(w.c)
    coeffs, cxi = [p.float_coeffs() for p in polys], sys.xi.float_coeffs()

    def phi(eta: Array) -> Array:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = s * eta
            if a:
                log_w = log_w + a * np.log(eta)
            if b:
                log_w = log_w + b * np.log1p(-eta)
            if c:
                log_w = log_w + c * np.log1p(eta)
            vals = np.array([_horner(cs, eta) for cs in coeffs])
            log_half = 0.5 * log_w - np.log(np.abs(_horner(cxi, eta)))
            out = np.sign(vals) * np.exp(log_half + np.log(np.abs(vals)))
        return np.nan_to_num(out, nan=0.0, posinf=np.inf, neginf=-np.inf)

    return phi


def inner_product(sys: XSystem, n: int, m: int, rtol: float = _RTOL) -> float:
    """<p_n, p_m> under the system's orthogonality weight (level-indexed)."""
    phi = _phi(sys, [level_poly(sys, n), level_poly(sys, m)])
    return integrate(lambda eta: phi(eta).prod(axis=0), sys.domain_eta, rtol=rtol)


@dataclass(frozen=True)
class GramReport:
    size: int
    matrix: tuple[tuple[float, ...], ...]
    max_offdiag: float


def gram(sys: XSystem, N: int) -> GramReport:
    """Normalized Gram matrix of the lowest N levels, on one shared rule.

    Entries g_nm = <p_n, p_m> / sqrt(<p_n, p_n> <p_m, p_m>); for the
    extended Jacobi case level 0 is the constant ground function.  Each level
    evaluates Phi once per new node and adds (Phi w) Phi^T to every entry.
    """
    import numpy as np
    if N < 2:
        raise ValueError("need at least two levels")
    phi = _phi(sys, [level_poly(sys, n) for n in range(N)])

    def block_sums(nodes, weights):
        # einsum, not a BLAS product: BLAS buffers add ~0.5 MB to a process's peak RSS
        v = phi(nodes)
        vw = v * weights
        return np.einsum("ik,jk->ij", vw, v), np.einsum("ik,jk->ij", np.abs(vw), np.abs(v))

    raw = _refine(sys.domain_eta, block_sums, _RTOL,
                  lambda idx: f"{sys.label}, pair ({idx[0]}, {idx[1]}): ")
    raw = np.triu(raw) + np.triu(raw, 1).T
    positive = np.diag(raw) > 0
    if not positive.all():
        raise RuntimeError(f"non-positive norm at level {np.argmin(positive)}")
    norms = np.sqrt(np.diag(raw))
    g = raw / np.outer(norms, norms)
    np.fill_diagonal(g, 1.0)
    max_off = float(np.max(np.abs(g - np.eye(N))))
    return GramReport(size=N, matrix=tuple(map(tuple, g.tolist())), max_offdiag=max_off)
