"""Equidistribution and Diophantine tooling for shift frequencies.

The discrepancy of a finite orbit is the worst deviation between its
empirical distribution and Lebesgue measure over axis-aligned boxes
[rho_1, beta_1] x ... x [rho_b, beta_b] with rho < beta.  In one dimension
the supremum is computed exactly from the sorted points (candidate
endpoints at data values, plus open-interval limits); in higher dimension
the same candidate construction runs per axis, optionally thinned to a
grid resolution, and the result is flagged as method "grid-bd".

Frequencies are certified against the Diophantine condition
||k . alpha|| >= tau / |k|^kappa by brute force over the half-box of
0 < |k| <= k_max with first nonzero coordinate positive: about
(2 k_max + 1)^(b-1) k_max vectors, so the default 10^6 is a 1-d cutoff and
b >= 2 must name its own.  A continued-fraction expander helps choose them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
import numpy as np

from .lattice import _integer
from .operators import ShiftDynamics


@dataclass(frozen=True)
class DiscrepancyReport:
    """Worst empirical-vs-Lebesgue deviation over axis-aligned boxes.

    ``witness_low``/``witness_high`` bound the (possibly limiting) box where
    the supremum is approached; ``attained`` is False when the supremum is a
    limit of shrinking or open boxes rather than a member of the family.
    """

    n_points: int
    torus_dim: int
    value: float
    witness_low: tuple[float, ...]
    witness_high: tuple[float, ...]
    method: str  # exact-1d | grid-bd
    attained: bool
    grid_resolution: int | None = None


def _sweep_1d(
    closed: tuple[np.ndarray, np.ndarray],
    opened: tuple[np.ndarray, np.ndarray],
    n: int,
    area: float,
) -> tuple[float, float, float, bool]:
    """Worst deviation |count / n - area * length| over intervals of one axis.

    ``closed`` and ``opened`` are the (unique values, counts) of the points
    lying in the closed and in the open box of cross-section ``area`` above
    the axis.  Overshoot runs over closed intervals [u_i, u_j] and the
    shrinking interval [u_k, u_k + 0); deficit runs over open intervals with
    virtual endpoints at 0 and 1.  Returns (value, low, high, attained); on
    a tie the earlier of overshoot, shrinking and deficit wins.
    """
    def slopes(u, counts):
        # right_j = (points <= u_j)/n - area u_j, left_j = area u_j - (points < u_j)/n
        cum = np.cumsum(counts)
        scaled = area * u
        return cum / n - scaled, scaled - (cum - counts) / n

    best, low, high, attained = -math.inf, 0.0, 0.0, True
    u, counts = closed
    right, left = slopes(u, counts)
    if u.size >= 2:
        # the closed interval [u_i, u_j] overshoots by right_j + left_i
        cand = right[1:] + np.maximum.accumulate(left)[:-1]
        k = int(np.argmax(cand))
        i = int(np.argmax(left[: k + 1]))
        best, low, high = float(cand[k]), float(u[i]), float(u[k + 1])
    if u.size:
        k = int(np.argmax(counts))
        if counts[k] / n > best:
            best, low, high = float(counts[k]) / n, float(u[k]), float(u[k])
            attained = False

    if opened is not closed:
        u, counts = opened
        right, left = slopes(u, counts)
    # the open interval (u_i, u_j) falls short by left_j + right_i, with
    # virtual endpoints 0 (right = 0) and 1 (left = area - points/n)
    left_v = np.concatenate(([0.0], -right))
    right_v = np.concatenate((left, [area - counts.sum() / n]))
    cand = right_v - np.minimum.accumulate(left_v)
    k = int(np.argmax(cand))
    if cand[k] > best:
        i = int(np.argmin(left_v[: k + 1]))
        best, attained = float(cand[k]), False
        low = 0.0 if i == 0 else float(u[i - 1])
        high = 1.0 if k == u.size else float(u[k])
    return best, low, high, attained


def _axis_candidates(vals: np.ndarray, resolution: int | None) -> np.ndarray:
    u = np.unique(vals)
    if resolution is not None and u.size > resolution:
        idx = np.unique(np.linspace(0, u.size - 1, resolution).astype(int))
        u = u[idx]
    return u


def _grid_nd(
    pts: np.ndarray, resolution: int | None
) -> tuple[float, tuple, tuple, bool]:
    n, b = pts.shape
    axes = [_axis_candidates(pts[:, s], resolution) for s in range(b - 1)]

    best = -math.inf
    witness = ((0.0,) * b, (0.0,) * b)
    attained = True

    def scan_last(mask_closed, mask_open, area, lows, highs):
        nonlocal best, witness, attained
        value, low, high, att = _sweep_1d(
            np.unique(pts[mask_closed, -1], return_counts=True),
            np.unique(pts[mask_open, -1], return_counts=True),
            n,
            area,
        )
        if value > best:
            best, attained = value, att
            witness = (lows + (low,), highs + (high,))

    def descend(axis, mask_closed, mask_open, area, lows, highs):
        if axis == b - 1:
            scan_last(mask_closed, mask_open, area, lows, highs)
            return
        cands = axes[axis]
        extended = np.concatenate(([0.0], cands, [1.0]))
        col = pts[:, axis]
        for ia, a in enumerate(extended[:-1]):
            for bb in extended[ia + 1 :]:
                if bb <= a:
                    continue
                closed = mask_closed & (col >= a) & (col <= bb)
                open_ = mask_open & (col > a) & (col < bb)
                descend(
                    axis + 1,
                    closed,
                    open_,
                    area * (bb - a),
                    lows + (float(a),),
                    highs + (float(bb),),
                )

    all_true = np.ones(n, dtype=bool)
    descend(0, all_true, all_true, 1.0, (), ())
    return best, witness[0], witness[1], attained


def discrepancy(
    points, grid_resolution: int | None = 32
) -> DiscrepancyReport:
    """Discrepancy of a finite sequence in [0, 1)^b.

    One-dimensional input is handled exactly; in higher dimension the scan
    runs over candidate box corners at (optionally thinned) data coordinate
    values, which attains the supremum for the counting part but is a lower
    bound once thinned.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(points) == 1:
        pts = pts.T
    n, b = pts.shape
    if pts.size == 0:  # [] and [[]] read as one point of no coordinates
        raise ValueError("need at least one point")
    if not ((pts >= 0.0) & (pts < 1.0)).all():  # so that NaN fails
        raise ValueError("points must lie in [0, 1)^b")
    if b == 1:
        counted = np.unique(pts[:, 0], return_counts=True)
        value, lo, hi, attained = _sweep_1d(counted, counted, n, 1.0)
        return DiscrepancyReport(
            n, 1, value, (lo,), (hi,), "exact-1d", attained
        )
    value, lows, highs, attained = _grid_nd(pts, grid_resolution)
    return DiscrepancyReport(
        n, b, value, lows, highs, "grid-bd", attained, grid_resolution
    )


def orbit_points(dynamics: ShiftDynamics, n_points: int) -> np.ndarray:
    """The orbit sequence f(1, x), ..., f(N, x) as an (N, b) array.

    Defined for dynamics driven by a single lattice index (d = 1); the
    count is read by the library's integer rule and must be at least 1."""
    if not dynamics.lattice_dim_compatible(1):
        raise ValueError("orbit sequences need one-dimensional dynamics")
    n_points = _integer(n_points, "the number of points")
    if n_points < 1:
        raise ValueError(f"the number of points must be at least 1, got {n_points}")
    sites = np.arange(1, n_points + 1, dtype=float)[:, None]
    return dynamics.orbit_array(sites)


@dataclass(frozen=True)
class DiophantineParams:
    """``k_max = None`` is the 1-d cutoff 10^6; b >= 2 needs its own, an
    integer by the library's rule.  kappa and tau must be finite."""

    kappa: float = 1.01
    tau: float = 0.3
    k_max: int | None = None

    def __post_init__(self) -> None:
        if not 1.0 <= self.kappa < math.inf:  # so that NaN fails
            raise ValueError(f"kappa must be at least 1 and finite, got {self.kappa}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.k_max is not None:
            object.__setattr__(self, "k_max", _integer(self.k_max, "k_max"))
            if self.k_max < 1:
                raise ValueError("k_max must be at least 1")


@dataclass(frozen=True)
class DiophantineReport:
    passed: bool
    worst_k: tuple[int, ...]
    margin: float  # min over k of ||k.alpha|| |k|^kappa
    params: DiophantineParams


def _torus_distance(values: np.ndarray) -> np.ndarray:
    # x - floor(x) rounds once, as np.mod(x, 1.0) does, at a tenth of its cost
    frac = values - np.floor(values)
    return np.minimum(frac, 1.0 - frac)


def diophantine_check(
    alpha, params: DiophantineParams = DiophantineParams()
) -> DiophantineReport:
    """Brute-force certificate for ||k.alpha|| >= tau / |k|^kappa: one numpy
    pass over the last coordinate of the half-box per choice of the leading
    ones, in lexicographic order, the first of tied vectors winning.  The
    report's ``params`` carry the cutoff that was used."""
    vec = np.atleast_1d(np.asarray(alpha, dtype=float))
    if vec.ndim != 1 or not vec.size or not np.isfinite(vec).all():
        raise ValueError(
            f"alpha must be a non-empty list of finite frequencies, got {alpha!r}"
        )
    if params.k_max is None:
        if vec.size >= 2:
            raise ValueError(
                f"k_max must be given for {vec.size} frequencies; the default "
                "10^6 is a 1-d cutoff"
            )
        params = replace(params, k_max=10**6)
    k_max, kappa = params.k_max, params.kappa

    @functools.cache
    def last(lo: int):  # the last coordinate from lo to k_max, k alpha_b, |k|^kappa
        k = np.arange(lo, k_max + 1, dtype=float)
        return k, k * vec[-1], np.abs(k) ** kappa

    margin, worst = math.inf, (0,) * vec.size
    for lead in itertools.product(range(-k_max, k_max + 1), repeat=vec.size - 1):
        if next((c for c in lead if c), 0) < 0:
            continue
        k, shifts, weights = last(-k_max if any(lead) else 1)
        margins = _torus_distance(shifts + float(np.dot(lead, vec[:-1]))) * np.maximum(
            weights, max(map(abs, lead), default=0) ** kappa
        )
        i = int(np.argmin(margins))
        if margins[i] < margin:
            margin, worst = float(margins[i]), (*lead, int(k[i]))
    return DiophantineReport(margin >= params.tau, worst, margin, params)


@dataclass(frozen=True)
class ContinuedFraction:
    value: float
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]  # (p, q) with p/q -> value
    rational: bool


def continued_fraction(
    alpha: float, depth: int = 20, rational_tol: float = 1e-12
) -> ContinuedFraction:
    """Standard continued-fraction expansion of alpha in (0, 1).

    Stops early, flagging a rational, when the remainder falls below
    ``rational_tol``, which must lie in (0, 1): at 0 or NaN an exact
    rational would divide by its zero remainder.  ``depth`` is read by the
    library's integer rule.  Convergents p/q satisfy |alpha - p/q| < 1/q^2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if _integer(depth, "depth") < 1:
        raise ValueError("depth must be at least 1")
    if not 0.0 < rational_tol < 1.0:  # so that NaN fails
        raise ValueError(f"rational_tol must lie in (0, 1), got {rational_tol}")
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, q_prev = 1, 0
    p, q = 0, 1
    x = alpha
    rational = False
    for _ in range(depth):
        inv = 1.0 / x
        a = int(math.floor(inv))
        rem = inv - a
        if rem > 1.0 - rational_tol:  # guard against floor(1/x) landing low
            a += 1
            rem = 0.0
        quotients.append(a)
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        convergents.append((p, q))
        if rem < rational_tol or q * q > 1e15:
            rational = rem < rational_tol
            break
        x = rem
    return ContinuedFraction(alpha, tuple(quotients), tuple(convergents), rational)
