"""Time evolution, position-operator moments, and the two time-average
routes.

The lattice operator is truncated to a cube of a given radius and evolved in
the eigenbasis of that box, which is exact up to floating point at desk
scale.  A 1-d box of a real nearest-neighbour kernel is tridiagonal and is
decomposed by LAPACK's tridiagonal divide and conquer (``stevd``) in O(n^2)
time; every other box (d >= 2, kernel range > 1, complex hopping) by the
dense Hermitian ``eigh``.  A real eigenbasis is applied to complex data as
two real products, never through a complex copy.  The time-averaged site
occupations

    a(j, n, T) = (2/T) integral_0^inf exp(-2t/T) |(exp(-itH) delta_j, delta_n)|^2 dt

are computed two ways.  The direct route evaluates the time integral in
closed form in the box eigenbasis, so it has no quadrature and no cut in
time.  The energy route integrates the identity
a(j, n, T) = (1/(T pi)) integral |G(E + i/T)(j, n)|^2 dE at eps = 1/T by
adaptive quadrature.  Both routes take their eigenpairs from the same
``_box_eigh``, so their agreement (the tests enforce 1e-6 relative) checks
the time integral and the energy quadrature, not the eigenvectors; the
tests pin the direct route to a Gauss-Legendre time quadrature as well.

Truncation safety is operational: the mass reaching the outer 10% shell of
the box is monitored and results are flagged when it exceeds a tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .lattice import Coords, ElementaryRegion
from .operators import OperatorSpec, StateVector, assemble, site_list

DEFAULT_LEAKAGE_TOL = 1e-8
MAX_PANELS = 4000  # band panels before the energy route gives up
POOR_FIT_RMS = 0.05  # log-fit residual above which growth is not logarithmic
RENORM_EVERY = 8  # transfer-matrix steps between renormalisations


@lru_cache(maxsize=4)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _sup_norms(sites: Sequence[Coords]) -> np.ndarray:
    """Sup norms |n| of the sites, as floats (exact: they are integers)."""
    return np.abs(np.asarray(sites, dtype=np.int64)).max(axis=1).astype(float)


@lru_cache(maxsize=4)
def _box_eigh(spec: OperatorSpec, radius: int):
    """Sites, their sup norms, eigenvalues, and eigenvectors of the cube
    truncation.

    A 1-d box of a real kernel with offsets |k| <= 1 is a real symmetric
    tridiagonal matrix (``OperatorSpec.is_tridiagonal``): ``stevd``
    decomposes it without the O(n^3) reduction a dense ``eigh`` starts
    with.  Any other box takes the dense ``eigh``.
    """
    sites = site_list(ElementaryRegion((0,) * spec.dimension, radius))
    H = assemble(spec, sites)
    if spec.is_tridiagonal:
        d, e = H.diagonal().copy(), H.diagonal(1).copy()
        del H
        w, U = eigh_tridiagonal(d, e, lapack_driver="stevd")
    else:
        w, U = np.linalg.eigh(H)
    return sites, _sup_norms(sites), w, U


def _apply(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """U @ X for complex X; a real U enters as two real products, with no
    complex copy of U."""
    if np.iscomplexobj(U):
        return U @ X
    out = np.empty(U.shape[:1] + X.shape[1:], dtype=np.complex128)
    out.real = U @ X.real
    out.imag = U @ X.imag
    return out


def _shell_mask(norms: np.ndarray, radius: int) -> np.ndarray:
    return norms > 0.9 * radius


def _table_leakage(
    values: np.ndarray, norms: np.ndarray, radius: int, leakage_tol: float
) -> tuple[float, bool]:
    """Leakage of a time-averaged table: its mass on the outer 10% shell,
    and whether that exceeds the tolerance."""
    leakage = float(values[_shell_mask(norms, radius)].sum())
    return leakage, leakage > leakage_tol


@dataclass(frozen=True)
class EvolutionResult:
    """Snapshots of exp(-itH)phi on the truncation box.

    ``leakage`` is the largest mass seen in the outer 10% shell across the
    sampled times; ``flagged`` marks results whose leakage exceeded the
    tolerance (retry with a larger radius).
    """

    radius: int
    times: tuple[float, ...]
    sites: tuple[Coords, ...]
    amplitudes: np.ndarray  # (n_times, n_sites)
    leakage: float
    flagged: bool
    norm_drift: float

    def state(self, i: int) -> StateVector:
        row = self.amplitudes[i]
        return StateVector(
            {p: complex(a) for p, a in zip(self.sites, row) if a != 0.0}
        )

    def site_norms(self) -> np.ndarray:
        return _sup_norms(self.sites)

    def moments(self, p: float) -> np.ndarray:
        weights = self.site_norms() ** p
        return (np.abs(self.amplitudes) ** 2) @ weights


def evolve(
    spec: OperatorSpec,
    phi: StateVector,
    times: Sequence[float],
    radius: int,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> EvolutionResult:
    """exp(-itH) phi at the given times on the cube of the given radius."""
    times = tuple(float(t) for t in times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    if 2 * phi.support_radius > radius:
        raise ValueError("initial state must be supported in [-R/2, R/2]^d")
    sites, norms, w, U = _box_eigh(spec, radius)
    dense = phi.dense(sites)
    c = _apply(U.conj().T, dense)
    phases = np.exp(-1j * np.outer(np.asarray(times), w))
    amps = _apply(U, (phases * c[None, :]).T).T
    for i, t in enumerate(times):  # exp(0) is the identity, exactly
        if t == 0.0:
            amps[i] = dense
    probs = np.abs(amps) ** 2
    shell = _shell_mask(norms, radius)
    leakage = float(probs[:, shell].sum(axis=1).max()) if len(times) else 0.0
    norm0 = phi.norm_sq()
    drift = float(np.abs(probs.sum(axis=1) - norm0).max()) if len(times) else 0.0
    return EvolutionResult(
        radius=radius,
        times=times,
        sites=sites,
        amplitudes=amps,
        leakage=leakage,
        flagged=leakage > leakage_tol,
        norm_drift=drift,
    )


def double_while_flagged(run: Callable, radius: int, max_doublings: int):
    """The truncation policy: ``run(r)`` at r = radius, doubling r while the
    result is flagged, for at most ``max_doublings + 1`` attempts.

    ``run`` returns a result with ``flagged`` and ``radius``; the last
    result stays flagged when the cap is reached.
    """
    r = radius
    result = run(r)
    for _ in range(max_doublings):
        if not result.flagged:
            break
        r *= 2
        result = run(r)
    return result


def moment(psi: StateVector, p: float) -> float:
    """p-th moment sum |n|^p |psi_n|^2 with the sup norm."""
    if p <= 0:
        raise ValueError("p must be positive")
    return sum(
        (max(abs(c) for c in n) ** p) * abs(a) ** 2
        for n, a in psi.amplitudes.items()
    )


@dataclass(frozen=True)
class MomentSeries:
    """Sampled moment values for one p, in one of the three modes."""

    mode: str  # instantaneous | time-averaged-direct | time-averaged-parseval
    p: float
    entries: tuple[tuple[float, float], ...]  # (t or T, value)
    radius: int
    leakage: float
    flagged: bool
    fingerprint: str
    norm_drift: float  # of the evolution behind an instantaneous series

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.entries])

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.entries])


def moment_series(
    spec: OperatorSpec,
    phi: StateVector,
    p: float,
    times: Sequence[float],
    radius: int,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> MomentSeries:
    """Instantaneous p-th moments of the evolved state."""
    result = evolve(spec, phi, times, radius, leakage_tol)
    vals = result.moments(p)
    return MomentSeries(
        "instantaneous",
        p,
        tuple(zip(result.times, (float(v) for v in vals))),
        radius,
        result.leakage,
        result.flagged,
        spec.fingerprint(),
        result.norm_drift,
    )


@dataclass(frozen=True)
class AmplitudeTable:
    """Time-averaged site occupations a(., n, T) over a truncation box.

    ``leakage`` is the mass of a(j, ., T) in the outer 10% shell, on both
    routes; ``flagged`` marks tables whose leakage exceeded the tolerance.
    """

    source: Coords | None
    horizon: float  # T
    radius: int
    sites: tuple[Coords, ...]
    values: np.ndarray
    route: str  # direct | parseval
    leakage: float
    flagged: bool
    tail_bound: float
    band_edge: float | None = None

    def total(self) -> float:
        return float(self.values.sum())

    def moment(self, p: float) -> float:
        return float((_sup_norms(self.sites) ** p) @ self.values)

    @cached_property
    def _index(self) -> dict[Coords, int]:
        return {p: i for i, p in enumerate(self.sites)}

    def value_at(self, n: Coords) -> float:
        return float(self.values[self._index[tuple(n)]])


def _real_weights(c: np.ndarray, w: np.ndarray, T: float) -> np.ndarray:
    """Re M_lm = (Re(c_l conj c_m) + x_lm Im(c_l conj c_m)) / (1 + x_lm^2),
    x_lm = T (w_l - w_m) / 2, with at most three real n x n arrays alive."""
    x = np.subtract.outer(w, w)
    x *= 0.5 * T
    re = np.outer(c.imag, c.real)
    re -= np.outer(c.real, c.imag)
    re *= x
    re += np.outer(c.real, c.real)
    re += np.outer(c.imag, c.imag)
    x *= x
    x += 1.0
    re /= x
    return re


def amplitude_table_direct(
    spec: OperatorSpec,
    phi: StateVector,
    T: float,
    radius: int,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> AmplitudeTable:
    """Direct route: the exp(-2t/T)-weighted time average in closed form.

    With H = U diag(w) U^H and c = U^H phi, the weighted integral of
    exp(-i(w_l - w_m)t) is 1 / (1 + iT(w_l - w_m)/2), so
    a(., n, T) = Re sum_l (U M)_{nl} conj(U_{nl}) with
    M_lm = c_l conj(c_m) / (1 + iT(w_l - w_m)/2).  One n x n product, at a
    cost that does not depend on T; the only truncation is the box.

    Im M is antisymmetric, so for a real U the diagonal of U Im(M) U^T
    vanishes and a(., n, T) = sum_l (U Re M)_{nl} U_{nl}: one real product,
    with Re M built in real arithmetic.
    """
    if T <= 0:
        raise ValueError("averaging horizon T must be positive")
    if 2 * phi.support_radius > radius:
        raise ValueError("initial state must be supported in [-R/2, R/2]^d")
    sites, norms, w, U = _box_eigh(spec, radius)
    c = _apply(U.conj().T, phi.dense(sites))
    if np.iscomplexobj(U):
        M = np.outer(c, c.conj()) / (1.0 + 0.5j * T * np.subtract.outer(w, w))
        values = np.einsum("nl,nl->n", U @ M, U.conj()).real
    else:
        values = np.einsum("nl,nl->n", U @ _real_weights(c, w, T), U)
    leakage, flagged = _table_leakage(values, norms, radius, leakage_tol)
    src = phi.support[0] if len(phi.support) == 1 else None
    return AmplitudeTable(
        source=src,
        horizon=T,
        radius=radius,
        sites=sites,
        values=values,
        route="direct",
        leakage=leakage,
        flagged=flagged,
        tail_bound=0.0,
    )


class QuadratureError(RuntimeError):
    """Adaptive energy quadrature failed to reach the requested tolerance."""


def _panel_integrals(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    weight_rows: np.ndarray,
):
    """Vector integral of f over [a, b] with embedded GL-15 / GL-31 rules.

    Returns (vector31, functionals31, per-functional error estimates).
    """
    out = []
    for order in (15, 31):
        x, wq = _leggauss(order)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = f(mid + half * x)  # (n_sites, order)
        vec = half * (vals @ wq)
        out.append(vec)
    func15 = weight_rows @ out[0]
    func31 = weight_rows @ out[1]
    return out[1], func31, np.abs(func31 - func15)


def amplitude_table_parseval(
    spec: OperatorSpec,
    source: Coords,
    T: float,
    radius: int,
    band_edge: float | None = None,
    control_orders: Sequence[float] = (0.0, 2.0),
    rel_tol: float = 1e-9,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> AmplitudeTable:
    """Energy route: adaptive quadrature of |G(E + i/T)(j, n)|^2 / (T pi).

    The band [-K', K'] (K' = spectral bound + 2 by default) holds all the
    Lorentzian structure and is refined adaptively, controlling the error of
    sum_n |n|^q a(j, n, T) for each q in ``control_orders``.  The smooth
    out-of-band tails are integrated over geometrically doubling panels
    until the measured remainder, with a safety factor, drops below the
    tolerance; the returned table therefore does not depend on the band
    edge beyond the quadrature tolerance.
    """
    if T <= 0:
        raise ValueError("averaging horizon T must be positive")
    src = tuple(int(c) for c in source)
    if len(src) != spec.dimension:
        raise ValueError(
            f"source site {src} must have {spec.dimension} coordinates"
        )
    if 2 * max(abs(c) for c in src) > radius:
        raise ValueError("source site must lie in [-R/2, R/2]^d")
    sites, norms, w, U = _box_eigh(spec, radius)
    j = sites.index(src)
    cj = U[j, :].conj()
    eps = 1.0 / T
    prefactor = 1.0 / (T * math.pi)

    def integrand(energies: np.ndarray) -> np.ndarray:
        denom = w[:, None] - (energies[None, :] + 1j * eps)
        cols = _apply(U, cj[:, None] / denom)
        return np.abs(cols) ** 2

    weight_rows = np.vstack([norms**q for q in control_orders])
    edge = band_edge if band_edge is not None else spec.spectral_bound + 2.0

    # initial band panels: break at eigenvalues so peaks start resolved
    breaks = np.unique(
        np.concatenate(([-edge, edge], np.clip(w, -edge, edge)))
    )
    heap: list = []  # (-largest error, push order, panel) per open panel
    counter = 0
    total_vec = None
    total_func = np.zeros(len(control_orders))
    total_err = np.zeros(len(control_orders))

    def push(a: float, b: float):
        nonlocal counter, total_func, total_err, total_vec
        vec, func, err = _panel_integrals(integrand, a, b, weight_rows)
        heapq.heappush(heap, (-float(err.max()), counter, (a, b, vec, func, err)))
        total_func += func
        total_err += err
        if total_vec is None:
            total_vec = vec.copy()
        else:
            total_vec += vec
        counter += 1

    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            push(a, b)

    while len(heap) < MAX_PANELS:
        scale = np.maximum(np.abs(total_func), 1e-30)
        if np.all(total_err <= rel_tol * scale):
            break
        a, b, vec, func, err = heapq.heappop(heap)[2]
        total_func -= func
        total_err -= err
        total_vec -= vec
        mid = 0.5 * (a + b)
        push(a, mid)
        push(mid, b)
    else:
        scale = np.maximum(np.abs(total_func), 1e-30)
        if not np.all(total_err <= rel_tol * scale):
            raise QuadratureError(
                f"band quadrature did not converge in {MAX_PANELS} panels; "
                f"errors {total_err} vs scale {scale}"
            )

    # out-of-band tails: doubling panels with a measured-decay remainder stop
    tail_bound = 0.0
    for sign in (1.0, -1.0):
        lo = edge
        prev_func = None
        converged = False
        for _ in range(80):
            hi = 2.0 * lo
            a, b = (lo, hi) if sign > 0 else (-hi, -lo)
            vec, func, _ = _panel_integrals(integrand, a, b, weight_rows)
            total_vec += vec
            total_func += func
            if prev_func is not None:
                # panel sums decay geometrically (integrand ~ E^-2 or faster)
                ratio = np.where(
                    prev_func > 0.0, func / np.maximum(prev_func, 1e-300), 0.0
                )
                ratio = np.minimum(ratio, 0.9)
                remainder = func * ratio / (1.0 - ratio)
                scale = np.maximum(np.abs(total_func), 1e-30)
                if np.all(remainder * 10.0 <= rel_tol * scale):
                    tail_bound += float(np.max(remainder))
                    converged = True
            prev_func = func
            lo = hi
            if converged:
                break
        if not converged:
            raise QuadratureError("tail integration did not converge")

    values = prefactor * total_vec
    leakage, flagged = _table_leakage(values, norms, radius, leakage_tol)
    return AmplitudeTable(
        source=src,
        horizon=T,
        radius=radius,
        sites=sites,
        values=values,
        route="parseval",
        leakage=leakage,
        flagged=flagged,
        tail_bound=prefactor * tail_bound,
        band_edge=edge,
    )


@dataclass(frozen=True)
class TimeAveragedMoment:
    """One time-averaged p-th moment value with its provenance."""

    value: float
    p: float
    horizon: float
    route: str
    flagged: bool
    note: str
    table: AmplitudeTable | None = None


def averaged_moment_direct(
    spec: OperatorSpec,
    phi: StateVector,
    p: float,
    T: float,
    radius: int,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> TimeAveragedMoment:
    """Time-averaged p-th moment by the exact time average of the direct
    route."""
    if p <= 0:
        raise ValueError("p must be positive")
    table = amplitude_table_direct(spec, phi, T, radius, leakage_tol)
    note = "truncation-unsafe" if table.flagged else ""
    return TimeAveragedMoment(
        table.moment(p), p, T, "direct", table.flagged, note, table
    )


def averaged_moment_parseval(
    spec: OperatorSpec,
    phi: StateVector,
    p: float,
    T: float,
    radius: int,
) -> TimeAveragedMoment:
    """Time-averaged p-th moment through the energy-integral route.

    Exact (up to quadrature) for a single-site phi, flagged when the table
    leaks; for multi-site phi the cross-term-free upper bound
    ||phi||^2 sum_j sum_n |n|^p a(j, n, T) is computed and flagged as a
    bound, not an equality (and as truncation-unsafe when any table leaks).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    support = phi.support
    if not support:
        raise ValueError("phi must have non-empty support")
    orders = (0.0, p)
    if len(support) == 1:
        j = support[0]
        table = amplitude_table_parseval(spec, j, T, radius, control_orders=orders)
        scale = abs(phi.amplitudes[j]) ** 2
        note = "truncation-unsafe" if table.flagged else ""
        return TimeAveragedMoment(
            scale * table.moment(p), p, T, "parseval", table.flagged, note,
            table,
        )
    tables = [
        amplitude_table_parseval(spec, j, T, radius, control_orders=orders)
        for j in support
    ]
    note = "bound-not-equality"
    if any(table.flagged for table in tables):
        note += ",truncation-unsafe"
    return TimeAveragedMoment(
        phi.norm_sq() * sum(table.moment(p) for table in tables),
        p, T, "parseval", True, note, None,
    )


@dataclass(frozen=True)
class LogFit:
    """Least-squares exponent of log(value) against log(log t)."""

    gamma: float
    residual_rms: float
    poor_fit: bool


def fit_log_exponent(series) -> LogFit:
    """Growth exponent gamma with value ~ (log t)^gamma.

    Requires at least 10 samples spanning two decades with t > 1 and
    positive values; a large residual flags non-logarithmic growth.
    """
    if isinstance(series, MomentSeries):
        t, v = series.times(), series.values()
    else:
        t, v = (np.asarray(a, dtype=float) for a in series)
    if len(t) < 10:
        raise ValueError("need at least 10 samples")
    if t.min() <= 1.0:
        raise ValueError("samples must have t > 1")
    if t.max() / t.min() < 100.0:
        raise ValueError("samples must span at least two decades")
    if np.any(v <= 0.0):
        raise ValueError("values must be positive")
    x = np.log(np.log(t))
    y = np.log(v)
    gamma, intercept = np.polyfit(x, y, 1)
    resid = y - (gamma * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return LogFit(float(gamma), rms, rms > POOR_FIT_RMS)


@dataclass(frozen=True)
class LyapunovEstimate:
    energy: complex
    length: int
    value: float
    stderr: float
    samples: tuple[float, ...]


def lyapunov_estimate(
    spec: OperatorSpec,
    energy,
    length: int,
    phases: Iterable[float],
) -> LyapunovEstimate:
    """Transfer-matrix Lyapunov exponent for a 1-d nearest-neighbour model.

    Averages (1/N) log || prod_n [[v(f^n(x)) - E, -1], [1, 0]] || over the
    given phases, renormalising the running product periodically so it
    never overflows.
    """
    if not spec.is_schrodinger_1d:
        raise ValueError(
            "Lyapunov estimates need the 1-d nearest-neighbour kernel at "
            "unit coupling"
        )
    z = complex(energy)
    dtype = np.float64 if z.imag == 0.0 else np.complex128
    e = z.real if z.imag == 0.0 else z
    samples = []
    for x in phases:
        run = spec.with_phase((float(x),))
        v = np.asarray(
            [run.potential_at((n,)) for n in range(1, length + 1)], dtype=float
        )
        B = np.eye(2, dtype=dtype)
        log_scale = 0.0
        for n in range(length):
            A = np.array([[v[n] - e, -1.0], [1.0, 0.0]], dtype=dtype)
            B = A @ B
            if (n + 1) % RENORM_EVERY == 0:
                s = float(np.linalg.norm(B))
                B /= s
                log_scale += math.log(s)
        samples.append((log_scale + math.log(float(np.linalg.norm(B)))) / length)
    arr = np.asarray(samples)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return LyapunovEstimate(z, length, float(arr.mean()), stderr, tuple(samples))
