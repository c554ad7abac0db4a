"""Normalized Gram matrices under the deformed orthogonality weights.

The closed-form norms of the deformed families involve non-elementary
integrals, so orthogonality is checked numerically, by tanh-sinh
(double-exponential) quadrature, which absorbs the algebraic endpoint
singularities of the weights without case analysis.  Semi-infinite domains
are brought to (0, 1) by eta = t / (1 - t), which presumes integrands with
at least exponential decay (true of every weight here).  One rule, refined
level by level, serves each Gram matrix: every entry must pass the adaptive
criterion under the same node cap, a failure names the pair of levels, and
an entry beyond the float range names the level.  This is the one module
that loads numpy, inside the functions that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polycore import Interval, Poly
from .systems import XSystem, level_poly

__all__ = [
    "QuadratureConvergenceError",
    "gram",
    "GramReport",
]

_MAX_NODES = 2 ** 14  # refinement stops at the first level that reaches this many nodes
_RTOL = 1e-12  # relative tolerance of each Gram entry
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


def _ts_points(domain: Interval, level: int):
    """Nodes/weights for one tanh-sinh refinement step on a domain with a
    finite lower bound.

    Level 1 is the complete rule at step h = 2^-level = 1/2; above it only
    the odd multiples of h appear (the nodes absent from level-1), so
    S(level) = S(level-1)/2 + dot(new weights, new values).  Each node's
    distance delta from the nearer end of (-1, 1) is computed directly,
    which keeps full precision where the weight singularities live.
    """
    import numpy as np  # local: exact-only commands must not load numpy
    lo, hi = float(domain.lo), float(domain.hi)
    h = 2.0 ** (-level)
    u = np.arange(1, int(4.0 / h) + 1, 1 if level == 1 else 2) * h
    z = 0.5 * math.pi * np.sinh(u)
    # 1 - tanh(z) = 2 / (e^(2z) + 1), cancellation-free
    delta = 2.0 / (np.exp(2 * z) + 1.0)
    w = 0.5 * math.pi * np.cosh(u) / np.cosh(z) ** 2 * h
    keep = delta > 0.0
    delta, w = delta[keep], w[keep]
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


def _horner(coeffs: list[float], eta):
    """Float Horner evaluation of ascending coefficients, as acc * eta + c,
    at a float or elementwise over an array of nodes."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * eta + c
    return acc


def _phi(sys: XSystem, polys: list[Poly]):
    """Phi[n](eta) = sqrt(w) p_n / xi, one row per polynomial, for an array of
    nodes; sign times exp of a log-space magnitude, so the weight factor
    neither overflows nor underflows ahead of the polynomials.  A magnitude
    beyond the float range gives inf, silently: gram reports it."""
    import numpy as np
    w = sys.weight
    s, a, b, c = float(w.s), float(w.a), float(w.b), float(w.c)
    coeffs, cxi = [p.float_coeffs() for p in polys], sys.xi.float_coeffs()

    def phi(eta):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


@dataclass(frozen=True)
class GramReport:
    size: int
    matrix: tuple[tuple[float, ...], ...]
    max_offdiag: float


def gram(sys: XSystem, N: int) -> GramReport:
    """Normalized Gram matrix of the lowest N levels, on one shared rule.

    Entries g_nm = <p_n, p_m> / sqrt(<p_n, p_n> <p_m, p_m>); for the
    extended Jacobi case level 0 is the constant ground function.  Each
    tanh-sinh level evaluates Phi once per new node, _BLOCK nodes at a time,
    and adds (Phi w) Phi^T to every entry, until every entry changes by at
    most _RTOL * max(|I|, integral of |f|), so tiny integrals (orthogonality
    defects) converge too.  At the node cap the error names the first
    unconverged pair; an entry beyond the float range raises OverflowError.
    """
    import numpy as np
    if N < 2:
        raise ValueError(f"{sys.label}: need at least two levels")
    phi = _phi(sys, [level_poly(sys, n) for n in range(N)])
    prev, n_nodes, level = None, 0, 1
    total = total_abs = 0.0
    while True:
        nodes, weights = _ts_points(sys.domain_eta, level)
        sums, abs_sums = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(0, len(nodes), _BLOCK):
                # einsum, not a BLAS product: BLAS buffers add ~0.5 MB to a process's peak RSS
                v = phi(nodes[k:k + _BLOCK])
                vw = v * weights[k:k + _BLOCK]
                sums.append(np.einsum("ik,jk->ij", vw, v))
                abs_sums.append(np.einsum("ik,jk->ij", np.abs(vw), np.abs(v)))
                del v, vw  # before the next block's Phi: one block's arrays at a time
            total = 0.5 * total + sum(sums)
            total_abs = 0.5 * total_abs + sum(abs_sums)
        n_nodes += len(nodes)
        if not np.isfinite(total_abs).all():  # and so at every later level
            raise OverflowError(f"{sys.label}: Gram entries beyond the float range "
                                f"at tanh-sinh level {level}")
        if prev is not None:
            change = np.abs(total - prev)
            scale = np.maximum(np.abs(total), total_abs)
            done = (change <= _RTOL * scale) | ((scale == 0.0) & (change == 0.0))
            if done.all():
                break
            if n_nodes >= _MAX_NODES:
                i, j = np.unravel_index(np.argmin(done), done.shape)
                raise QuadratureConvergenceError(
                    f"{sys.label}, pair ({i}, {j}): integration non-convergence at requested tolerance",
                    achieved=float(total[i, j]), last_change=float(change[i, j]), nodes=n_nodes,
                )
        prev = total
        level += 1
    raw = np.triu(total) + np.triu(total, 1).T
    positive = np.diag(raw) > 0
    if not positive.all():
        raise RuntimeError(f"{sys.label}: non-positive norm at level {np.argmin(positive)}")
    norms = np.sqrt(np.diag(raw))
    g = raw / np.outer(norms, norms)
    np.fill_diagonal(g, 1.0)
    max_off = float(np.max(np.abs(g - np.eye(N))))
    return GramReport(size=N, matrix=tuple(map(tuple, g.tolist())), max_offdiag=max_off)
