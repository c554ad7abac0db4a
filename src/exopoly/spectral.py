"""Independent spectral check of the constructed potentials.

The Hamiltonian -d^2/dx^2 + V(x) is discretized by second-order central
differences with Dirichlet walls on a truncated domain, and its lowest
eigenvalues are extracted by plain bisection on the LDL^T inertia count of
the shifted tridiagonal matrix.  The count never falls as the shift rises,
so only a count no sample decides costs a pass, and the first one next to a
level the samples isolate places safeguarded Newton steps on det(T - sigma)
there: the answer is unchanged, in about a third of the passes.
`compare_spectrum` extrapolates from two grids on one box (999 and 499
interior points by default), cancelling the h^2 error term; what remains is
the box truncation, ~1e-5 on j1/j2.  Nothing here reuses the symbolic
eigenvalue formulas, so agreement with them is a genuine two-route test.
Grids, potential values and matrices are lists of Python floats: the
spectrum needs no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .systems import XSystem, energy, potential_eval

# documented truncation defaults: wave functions decay like gaussians times powers
# on the half line and like powers of the wall distance, so a box WALL_MARGIN inside
# each finite wall, ending at HALF_LINE_END on the half line, truncates far below 1e-3
WALL_MARGIN = 1e-3
HALF_LINE_END = 12.0

DEFAULT_POINTS = 999  # interior points of the fine grid; its coarse partner has 499
MIN_POINTS = 201  # the smallest fine grid whose coarse partner still has 100 points


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid on [x_min, x_max] with `points` interior nodes."""

    x_min: float
    x_max: float
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.points + 1)

    def interior(self) -> list[float]:
        h = self.h
        return [self.x_min + h * k for k in range(1, self.points + 1)]

    def coarse(self) -> "GridSpec":
        """The same box with half as many cells (exactly when points + 1 is even)."""
        return GridSpec(self.x_min, self.x_max, (self.points + 1) // 2 - 1)


@dataclass(frozen=True)
class Tridiag:
    """Symmetric tridiagonal operator (diagonal and subdiagonal)."""

    diag: Sequence[float]
    off: Sequence[float]

    def __post_init__(self):
        if len(self.off) != len(self.diag) - 1:
            raise ValueError("subdiagonal length must be n-1")


def default_grid(sys: XSystem, points: int = DEFAULT_POINTS) -> GridSpec:
    walls = sys.walls  # the box stops WALL_MARGIN short of each
    hi = walls[1].x - WALL_MARGIN if len(walls) > 1 else HALF_LINE_END
    return GridSpec(walls[0].x + WALL_MARGIN, hi, points)


def tridiag_from_potential(v: Callable[[list[float]], Sequence[float]], grid: GridSpec) -> Tridiag:
    """Central-difference matrix: 2/h^2 + V(x_i) on the diagonal, -1/h^2 off;
    v maps the list of interior nodes x_i to the values V(x_i)."""
    if grid.points < 1:
        raise ValueError(f"the grid needs at least one interior point, not {grid.points}")
    h = grid.h
    xs = grid.interior()
    vals = list(map(float, v(xs)))
    if not all(map(math.isfinite, vals)):
        i = next(i for i, val in enumerate(vals) if not math.isfinite(val))
        raise ValueError(f"potential is not finite at grid node {i} (x={xs[i]!r}, V={vals[i]!r})")
    d = 2.0 / h**2
    return Tridiag([d + val for val in vals], [-1.0 / h**2] * (len(xs) - 1))


def discretize(sys: XSystem, grid: Optional[GridSpec] = None) -> Tridiag:
    grid = grid or default_grid(sys)
    return tridiag_from_potential(lambda x: potential_eval(sys, x), grid)


def _count_below(diag: Sequence[float], off2: Sequence[float], sigma: float,
                 slope: bool = False) -> int | tuple[int, float]:
    """Eigenvalues of the tridiagonal matrix strictly below sigma, by the
    inertia of the LDL^T pivots q_i of (T - sigma).  With slope=True also
    s = sum q_i'/q_i = d/dsigma log|det(T - sigma)| from the same pass, so
    -1/s is the Newton step on the determinant (Barth, Martin & Wilkinson,
    Numer. Math. 9, 1967)."""
    tiny = 1e-300
    q = diag[0] - sigma
    count = 0
    if not slope:
        for d, e2 in zip(diag[1:], off2):
            if q <= 0.0:  # one test for the common positive pivot; zero is rare
                if q == 0.0:
                    q = -tiny
                count += 1
            q = d - sigma - e2 / q
        return count + (q <= 0.0)
    dq, s = -1.0, 0.0
    for d, e2 in zip(diag[1:], off2):
        if q <= 0.0:
            if q == 0.0:
                q = -tiny
            count += 1
        t, r = dq / q, e2 / q
        s += t
        dq = r * t - 1.0  # q_i' = -1 + e2 q_{i-1}' / q_{i-1}^2
        q = d - sigma - r
    return count + (q <= 0.0), s + dq / (q or -tiny)


class _Samples:
    """The Sturm counts taken on one matrix, by shift.  In IEEE arithmetic
    the count never falls as the shift rises (Demmel, Dhillon & Ren, ETNA 3,
    1995), so the samples decide every count outside their gaps.  The
    Gershgorin bounds enter with counts 0 and n; bisection never reads them."""

    def __init__(self, diag: list[float], off2: list[float], lo0: float, hi0: float):
        self.diag, self.off2, self.lo0, self.hi0 = diag, off2, lo0, hi0
        self.xs = [lo0, hi0]  # the shifts, ascending
        self.cs = [0, len(diag)]  # their counts, so non-decreasing
        self.placed = 0  # the highest level with Newton samples

    def count(self, sigma: float, slope: bool = False):
        got = _count_below(self.diag, self.off2, sigma, slope)
        i = bisect_left(self.xs, sigma)
        self.xs.insert(i, sigma)
        self.cs.insert(i, got[0] if slope else got)
        return got

    def at_least(self, sigma: float, j: int) -> bool:
        """count(sigma) >= j, by a pass only when no sample decides it; the
        first such pass in a gap isolating the j-th level follows place(j)."""
        xs, cs = self.xs, self.cs
        i = bisect_left(xs, sigma)
        if cs[i] < j or xs[i] == sigma:
            return cs[i] >= j
        if self.placed < j and cs[i - 1] == j - 1 and cs[i] == j:
            self.placed = j
            self.place(j)
            return self.at_least(sigma, j)
        return cs[i - 1] >= j or self.count(sigma) >= j

    def place(self, j: int) -> None:
        """Samples just below and just above the j-th lowest level, which the
        samples isolate: take Newton steps that stay in its bracket, and
        certify the root by counts at +-eps max(|lo0|, |hi0|), widened by 4
        until they straddle it."""
        xs, cs = self.xs, self.cs
        x = math.nan  # the first step starts from the middle of the bracket
        for _ in range(200):
            i = bisect_left(cs, j)
            lo, hi = xs[i - 1], xs[i]
            if not lo < x < hi:  # also catches a NaN step
                x = 0.5 * (lo + hi)
            s = self.count(x, slope=True)[1]
            step = -1.0 / s if s else math.inf
            done = abs(step) <= 1e-9 * max(1.0, abs(x))
            x += step
            if done:
                break
        else:
            return
        eps_norm, span = 2.0**-52 * max(abs(self.lo0), abs(self.hi0)), self.hi0 - self.lo0
        w = eps_norm  # the backward error of a count
        while self.count(x - w) >= j and w < span:
            w *= 4.0
        w = eps_norm
        while self.count(x + w) < j and w < span:
            w *= 4.0


def eigen_lowest(op: Tridiag, k: int) -> list[float]:
    """The k smallest eigenvalues, ascending, by Sturm-count bisection.

    Each level is bisected from the Gershgorin bounds, reading its counts
    through the samples of one `_Samples`: a pass only for a count they
    leave undecided, with Newton samples placed at a level's first one."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 10:
        raise ValueError("only the lowest 10 levels are supported")
    n = len(op.diag)
    if k > n:
        raise ValueError("k exceeds the matrix dimension")
    diag = [float(d) for d in op.diag]
    offs = [float(e) for e in op.off]
    off2 = [e * e for e in offs]
    pad = [0.0, *map(abs, offs), 0.0]  # |off| on each side of a row, 0 past the ends
    radius = [left + right for left, right in zip(pad, pad[1:])]
    lo0 = min(d - r for d, r in zip(diag, radius))
    hi0 = max(d + r for d, r in zip(diag, radius))
    samples = _Samples(diag, off2, lo0, hi0)
    out = []
    for j in range(1, k + 1):
        lo, hi = lo0, hi0
        # invariant: count(lo) < j <= count(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if samples.at_least(mid, j):
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-14 * max(1.0, abs(mid)):
                break
        out.append(0.5 * (lo + hi))
    return out


@dataclass(frozen=True)
class SpectrumReport:
    analytic: tuple[Fraction, ...]
    numeric: tuple[float, ...]
    errors: tuple[float, ...]
    grid: GridSpec
    coarse: GridSpec

    @property
    def max_error(self) -> float:
        """The largest error, or NaN if any error is NaN."""
        return max(self.errors, key=lambda e: (e != e, e))


def richardson_lowest(operator: Callable[[GridSpec], Tridiag], grid: GridSpec, k: int) -> list[float]:
    """The k smallest eigenvalues extrapolated from `grid` and its coarse
    partner, (r E_fine - E_coarse)/(r - 1) with r = (h_coarse/h_fine)^2; the
    operator maps a grid to its discretized Hamiltonian."""
    if grid.points < MIN_POINTS:
        raise ValueError(f"the two-grid spectrum needs at least {MIN_POINTS} points")
    coarse = grid.coarse()
    fine_vals = eigen_lowest(operator(grid), k)
    coarse_vals = eigen_lowest(operator(coarse), k)
    r = ((grid.points + 1) / (coarse.points + 1)) ** 2
    return [(r * f - c) / (r - 1) for f, c in zip(fine_vals, coarse_vals)]


def compare_spectrum(sys: XSystem, k: int = 5, grid: Optional[GridSpec] = None) -> SpectrumReport:
    """Numeric vs closed-form eigenvalues for the lowest k levels.

    The numeric values are extrapolated from `grid` and its coarse partner.
    Errors are relative, except for an analytically zero level (the extended
    Jacobi ground state), where the absolute error is reported.
    """
    grid = grid or default_grid(sys)
    try:
        numeric = richardson_lowest(lambda g: discretize(sys, g), grid, k)
    except ValueError as exc:
        raise ValueError(f"{sys.label}, {grid.points}-point grid: {exc}") from exc
    analytic = [energy(sys, j) for j in range(k)]
    errors = []
    for a, v in zip(analytic, numeric):
        fa = float(a)
        errors.append(abs(v - fa) if fa == 0.0 else abs(v - fa) / abs(fa))
    return SpectrumReport(
        analytic=tuple(analytic),
        numeric=tuple(numeric),
        errors=tuple(errors),
        grid=grid,
        coarse=grid.coarse(),
    )
