"""Time evolution, position-operator moments, and the two time-average
routes.

The lattice operator is truncated to a cube of a given radius and evolved in
the eigenbasis of that box, which is exact up to floating point at desk
scale.  A 1-d box of a real nearest-neighbour kernel is tridiagonal and is
decomposed from its diagonals by LAPACK's tridiagonal divide and conquer
(``stevd``) in O(n^2) time; every other box (d >= 2, kernel range > 1,
complex hopping) by the dense Hermitian ``eigh``.  A real eigenbasis is
applied to complex data as two real products, never through a complex
copy.  The time-averaged site occupations

    a(j, n, T) = (2/T) integral_0^inf exp(-2t/T) |(exp(-itH) delta_j, delta_n)|^2 dt

are computed two ways.  The direct route evaluates the time integral in
closed form in the box eigenbasis, so it has no quadrature and no cut in
time.  The energy route integrates the identity
a(j, n, T) = (1/(T pi)) integral |G(E + i/T)(j, n)|^2 dE at eps = 1/T by
adaptive quadrature.  On a tridiagonal box the energy route takes the
column G(E + i/T)(., j) from a two-sided continued fraction in O(n) per
energy and its panel breaks from eigenvalues it computes itself, so it
shares only the box's diagonal and hopping with the direct route, and
their agreement (the tests enforce 1e-6 relative) checks the direct
route's eigenvectors too.  On every other box both routes take their
eigenpairs from the same ``_box_eigh``, and their agreement checks the
time integral and the energy quadrature, not the eigenvectors; the tests
pin the direct route to a Gauss-Legendre time quadrature as well.

Truncation safety is operational: the mass reaching the outer 10% shell of
the box is monitored and results are flagged when it exceeds a tolerance.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .greens import RECURSION_ENTRIES, _as_complex, continued_fractions
from .lattice import Coords, ElementaryRegion, site, sup_norm, sup_norms
from .operators import (
    OperatorSpec,
    StateVector,
    assemble,
    potential_values,
    site_list,
)

DEFAULT_LEAKAGE_TOL = 1e-8
MAX_PANELS = 4000  # band bisections after the eigenvalue breaks before giving up
POOR_FIT_RMS = 0.05  # log-fit residual above which growth is not logarithmic
RENORM_EVERY = 8  # transfer-matrix steps between renormalisations


@lru_cache(maxsize=4)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _check_positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:  # so that NaN fails
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_state(spec: OperatorSpec, phi: StateVector, radius: int) -> None:
    """The checks on an initial state that need no box, so that a bad state
    raises before any decomposition."""
    wrong = [p for p in phi.support if len(p) != spec.dimension]
    if wrong:
        raise ValueError(f"support sites {wrong} are not among the sites")
    if 2 * phi.support_radius > radius:
        raise ValueError("initial state must be supported in [-R/2, R/2]^d")


def _moment_weights(norms: np.ndarray, p: float) -> np.ndarray:
    """|n|^p over sites of sup norms ``norms``: every moment's weights."""
    _check_positive(p, "p")
    return norms**p


@lru_cache(maxsize=4)
def _box_diagonals(spec: OperatorSpec, radius: int):
    """Sites, their sup norms, and the diagonal a and hopping b of a
    tridiagonal box, from the potential and the band
    ``OperatorSpec.tridiagonal``, with no n x n matrix."""
    onsite, hop = spec.tridiagonal
    sites = site_list(ElementaryRegion((0,) * spec.dimension, radius))
    return sites, sup_norms(sites), onsite + potential_values(spec, sites), hop


@lru_cache(maxsize=4)
def _box_eigh(spec: OperatorSpec, radius: int):
    """Sites, their sup norms, eigenvalues, and eigenvectors of the cube
    truncation.

    A tridiagonal box is decomposed by ``stevd`` from its diagonals,
    without the O(n^3) reduction a dense ``eigh`` starts with.  Any other
    box takes the dense ``eigh``.
    """
    if spec.tridiagonal is not None:
        sites, norms, a, hop = _box_diagonals(spec, radius)
        w, U = eigh_tridiagonal(a, np.full(len(a) - 1, hop), lapack_driver="stevd")
        return sites, norms, w, U
    sites = site_list(ElementaryRegion((0,) * spec.dimension, radius))
    w, U = np.linalg.eigh(assemble(spec, sites))
    return sites, sup_norms(sites), w, U


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
    norms: np.ndarray  # sup norms |n| of the sites
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
        return self.norms

    def moments(self, p: float) -> np.ndarray:
        return (np.abs(self.amplitudes) ** 2) @ _moment_weights(self.norms, p)


def evolve(
    spec: OperatorSpec,
    phi: StateVector,
    times: Sequence[float],
    radius: int,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> EvolutionResult:
    """exp(-itH) phi at the given times on the cube of the given radius."""
    times = tuple(float(t) for t in times)
    if not all(map(math.isfinite, times)):
        raise ValueError(f"times must be finite, got {times}")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    _check_state(spec, phi, radius)
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
        norms=norms,
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
    norms = np.array([sup_norm(n) for n in psi.amplitudes], dtype=float)
    return float(_moment_weights(norms, p) @ np.abs(list(psi.amplitudes.values())) ** 2)


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
    _check_positive(p, "p")
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
    norms: np.ndarray  # sup norms |n| of the sites
    values: np.ndarray
    route: str  # direct | parseval
    leakage: float
    flagged: bool
    tail_bound: float
    band_edge: float | None = None
    panels: int = 0  # quadrature panels of a parseval table: band + tails

    def total(self) -> float:
        return float(self.values.sum())

    def moment(self, p: float) -> float:
        return float(_moment_weights(self.norms, p) @ self.values)

    @cached_property
    def _index(self) -> dict[Coords, int]:
        return {p: i for i, p in enumerate(self.sites)}

    def value_at(self, n: Coords) -> float:
        return float(self.values[self._index[site(n)]])


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
    _check_positive(T, "averaging horizon T")
    _check_state(spec, phi, radius)
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
        norms=norms,
        values=values,
        route="direct",
        leakage=leakage,
        flagged=flagged,
        tail_bound=0.0,
    )


class QuadratureError(RuntimeError):
    """Adaptive energy quadrature failed to reach the requested tolerance."""


class _RecursionColumn:
    """G(z)(., j) of a tridiagonal box, for each z of an array with
    Im z > 0, by a two-sided continued fraction (recursive Green's
    functions, Thouless & Kirkpatrick, J. Phys. C 14, 235, 1981) in O(n)
    per energy and with no eigenvectors.

    With diagonal a and hopping b, the fractions
    h_k = b^2 / (a_k - z - h_{k-1}) run from the left boundary to j - 1,
    and their mirror images from the right boundary to j + 1; then
    G(j, j) = 1/(a_j - z - hL_{j-1} - hR_{j+1}), and
    G(k, j) = -(h_k / b) G(k + 1, j) for k < j, mirrored for k > j.  Both
    sides sit in one (m + 1, 2, K) work array, boundary first, so one
    ``greens.continued_fractions`` sweep, as in the box resolver, runs both
    inward; the shorter side is padded at its boundary end with decoupled
    rows, whose numerator 0 makes h = 0.  The column overwrites the
    fractions in place, unmasked; row m of side 0 holds G(j, j), row m of
    side 1 is scratch, and ``rows`` maps each site to its row of the
    flattened array.
    """

    def __init__(self, a: np.ndarray, hop: float, j: int):
        n = len(a)
        m = max(j, n - 1 - j)
        self.diag = np.zeros((m + 1, 2, 1))
        self.diag[m - j : m, 0, 0] = a[:j]
        self.diag[m + 1 - n + j : m, 1, 0] = a[:j:-1]
        self.diag[m, 0, 0] = a[j]
        real = np.arange(m)[:, None] >= m - np.array([j, n - 1 - j])
        self.numerators = list((hop * hop * real)[:, :, None])
        self.scale = -1.0 / hop if hop else 0.0
        k = np.arange(n)
        self.rows = np.where(k < j, 2 * (m - j + k), 2 * (m + j - k) + 1)
        self.rows[j] = 2 * m
        self.size = 2 * (m + 1)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """The column at each z, as a (2 (m + 1), K) array whose row
        ``rows[k]`` is G(z)(k, j)."""
        work = np.subtract(self.diag, z)
        *sides, (center, _) = work  # views: each op is in place
        continued_fractions(sides, self.numerators)  # the same views: new ones cost 3-5%
        if sides:
            center -= sides[-1][0]
            center -= sides[-1][1]
        np.reciprocal(center, out=center)
        if sides:
            work[:-1] *= self.scale
            prev = center
            for row in reversed(sides):
                row *= prev
                prev = row
        return work.reshape(self.size, -1)


class _EigenColumn:
    """G(z)(., j) = U diag(1/(w - z)) U^H e_j over the box eigenbasis, for
    boxes that are not tridiagonal; one row per site."""

    def __init__(self, w: np.ndarray, U: np.ndarray, j: int):
        self.w, self.U = w, U
        self.cj = U[j, :].conj()
        self.rows = np.arange(len(w))
        self.size = len(w)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return _apply(self.U, self.cj[:, None] / np.subtract.outer(self.w, z))


def _panel_integrals(column, eps: float, a: np.ndarray, b: np.ndarray,
                     weight_rows: np.ndarray):
    """Vector integrals of |column(E + i eps)|^2 over the panels [a_p, b_p]
    with embedded GL-15 / GL-31 rules, all panels in one evaluation.

    Returns (vectors31, functionals31, per-functional error estimates), one
    row per panel.
    """
    rules = [_leggauss(order) for order in (15, 31)]
    x = np.concatenate([nodes for nodes, _ in rules])
    weights = np.zeros((len(x), 2))
    weights[:15, 0], weights[15:, 1] = rules[0][1], rules[1][1]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    energies = mid[:, None] + half[:, None] * x
    sq = np.abs(column((energies + 1j * eps).ravel()))
    sq *= sq
    sums = sq.reshape(column.size, len(a), len(x)) @ weights
    vec = (sums[column.rows] * half[:, None]).transpose(2, 1, 0)
    func = vec @ weight_rows.T
    return vec[1], func[1], np.abs(func[1] - func[0])


def _panels(column, eps: float, a, b, weight_rows: np.ndarray):
    """(a, b, vector31, functionals31, error estimates) of each panel
    [a_p, b_p] in order, evaluated lazily in chunks of whole panels, at
    least one, whose nodes times the column's rows fit
    ``RECURSION_ENTRIES``: a consumer that stops early leaves the later
    chunks unevaluated."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    per = max(1, RECURSION_ENTRIES // (column.size * (15 + 31)))
    for s in range(0, len(a), per):
        part = slice(s, s + per)
        yield from zip(a[part], b[part], *_panel_integrals(
            column, eps, a[part], b[part], weight_rows))


def _source_column(spec: OperatorSpec, radius: int, source: Coords):
    """Sites, sup norms and eigenvalues of the box, and its column
    z -> G(z)(., source): the recursion for a tridiagonal box, which never
    forms U, and the eigenvector sum for every other box."""
    if spec.tridiagonal is not None:
        sites, norms, a, hop = _box_diagonals(spec, radius)
        w = eigvalsh_tridiagonal(a, np.full(len(a) - 1, hop), lapack_driver="sterf")
        return sites, norms, w, _RecursionColumn(a, hop, sites.index(source))
    sites, norms, w, U = _box_eigh(spec, radius)
    return sites, norms, w, _EigenColumn(w, U, sites.index(source))


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
    Lorentzian structure.  It starts from panels broken at the box
    eigenvalues, evaluated in chunks, and is refined by bisecting the panel
    of largest error estimate, at most ``MAX_PANELS`` times, controlling
    the error of sum_n |n|^q a(j, n, T) for each q in ``control_orders``.
    An open panel keeps its functionals but not its n-vector: a bisection
    evaluates the panel again with its two halves in one call and swaps
    its vector for theirs.  The smooth out-of-band tails are integrated
    over geometrically doubling panels until the measured remainder, with
    a safety factor, drops below the tolerance; the doublings are evaluated
    in speculative chunks and replayed in order, and the panels past the
    stopping one are never used.  The returned table therefore does not
    depend on the band edge beyond the quadrature tolerance.
    """
    _check_positive(T, "averaging horizon T")
    if band_edge is not None:  # a negative edge reverses the band panels
        _check_positive(band_edge, "band edge")
    src = site(source)
    _check_state(spec, StateVector.delta(src), radius)
    sites, norms, w, column = _source_column(spec, radius, src)
    eps = 1.0 / T
    prefactor = 1.0 / (T * math.pi)
    weight_rows = np.vstack([norms**q for q in control_orders])
    edge = band_edge if band_edge is not None else spec.spectral_bound + 2.0

    def integrals(a, b):
        return _panels(column, eps, a, b, weight_rows)

    # initial band panels: break at eigenvalues so peaks start resolved
    breaks = np.unique(
        np.concatenate(([-edge, edge], np.clip(w, -edge, edge)))
    )
    heap: list = []  # (-largest error, push order, panel) per open panel
    order = itertools.count()
    total_vec = np.zeros(len(sites))
    total_func = np.zeros(len(control_orders))
    total_err = np.zeros(len(control_orders))

    def push(a, b, vec, func, err):
        # an open panel keeps no vector: a bisection evaluates it again
        nonlocal total_func, total_err, total_vec
        heapq.heappush(heap, (-float(err.max()), next(order), (a, b, func, err)))
        total_func += func
        total_err += err
        total_vec += vec

    bisections = 0
    for panel in integrals(breaks[:-1], breaks[1:]):
        push(*panel)

    while True:
        scale = np.maximum(np.abs(total_func), 1e-30)
        if np.all(total_err <= rel_tol * scale):
            break
        if bisections == MAX_PANELS:
            raise QuadratureError(
                f"band quadrature did not converge in {bisections} "
                f"bisections; errors {total_err} vs scale {scale}"
            )
        a, b, func, err = heapq.heappop(heap)[2]
        mid = 0.5 * (a + b)
        whole, *halves = integrals([a, a, mid], [b, mid, b])
        total_func -= func
        total_err -= err
        total_vec -= whole[2]
        bisections += 1
        for panel in halves:
            push(*panel)

    # out-of-band tails: doubling panels with a measured-decay remainder stop
    tail_bound = 0.0
    tail_panels = 0
    doublings = edge * 2.0 ** np.arange(80)
    for lo, hi in ((doublings, 2.0 * doublings), (-2.0 * doublings, -doublings)):
        prev_func = None
        for _, _, vec, func, _ in integrals(lo, hi):
            tail_panels += 1
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
                    break
            prev_func = func
        else:
            raise QuadratureError("tail integration did not converge")

    values = prefactor * total_vec
    leakage, flagged = _table_leakage(values, norms, radius, leakage_tol)
    return AmplitudeTable(
        source=src,
        horizon=T,
        radius=radius,
        sites=sites,
        norms=norms,
        values=values,
        route="parseval",
        leakage=leakage,
        flagged=flagged,
        tail_bound=prefactor * tail_bound,
        band_edge=edge,
        panels=len(heap) + tail_panels,
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
    _check_positive(p, "p")
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
    _check_positive(p, "p")
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
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise ValueError("samples must be finite")
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
    """Transfer-matrix Lyapunov exponent for H = v + the 1-d Laplacian.

    Averages (1/N) log || prod_n [[v(f^n(x)) - E, -1], [1, 0]] || over the
    given phases, renormalising the running product periodically so it
    never overflows.
    """
    if spec.tridiagonal != (0.0, 1.0):
        raise ValueError(
            "Lyapunov estimates need the 1-d nearest-neighbour kernel at "
            "unit coupling"
        )
    z = _as_complex(energy)
    e = z.real if z.imag == 0.0 else z
    samples = []
    for x in phases:
        run = spec.with_phase((float(x),))
        v = potential_values(run, np.arange(1, length + 1)[:, None]).tolist()
        # the product's two columns (p, q) and (r, s), each stepped by the
        # three-term recurrence (p, q) -> ((v_n - E) p - q, p)
        p, q, r, s = 1.0, 0.0, 0.0, 1.0
        log_scale = 0.0
        for n in range(length):
            p, q, r, s = (v[n] - e) * p - q, p, (v[n] - e) * r - s, r
            if (n + 1) % RENORM_EVERY == 0:
                norm = math.hypot(abs(p), abs(q), abs(r), abs(s))
                p, q, r, s = p / norm, q / norm, r / norm, s / norm
                log_scale += math.log(norm)
        norm = math.hypot(abs(p), abs(q), abs(r), abs(s))
        samples.append((log_scale + math.log(norm)) / length)
    arr = np.asarray(samples)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return LyapunovEstimate(z, length, float(arr.mean()), stderr, tuple(samples))
