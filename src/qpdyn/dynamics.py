"""Time evolution, position-operator moments, and the two time-average
routes.

The lattice operator is truncated to a cube of a given radius and evolved in
the eigenbasis of that box, which is exact up to floating point at desk
scale.  A 1-d box of a real nearest-neighbour kernel is tridiagonal and is
decomposed from its diagonals by LAPACK's tridiagonal divide and conquer
(``stevd``) in O(n^2) time; every other box (d >= 2, kernel range > 1,
complex hopping) by the dense Hermitian ``eigh``, capped at the scans'
``greens.MAX_DENSE_POINTS`` before it is assembled (``check_box_order``).
Instantaneous moments are read from one evolution; ``moment_series``
returns them as (times, values) arrays.  A real eigenbasis is
applied to complex data as two real products, never through a complex
copy.  Every eigenbasis sum reads the overlaps c = U^H phi once, from the
support rows of phi, and runs over the eigenvectors whose overlap is
nonzero.  Divide and conquer deflates the overlaps of a localized source
with most eigenvectors to exact zeros, so on a localized box the sums run
over a few localization lengths' worth of eigenvectors; skipping an exact
zero changes only the order of summation.  The time-averaged site
occupations

    a(j, n, T) = (2/T) integral_0^inf exp(-2t/T) |(exp(-itH) delta_j, delta_n)|^2 dt

are computed two ways.  The direct route evaluates the time integral in
closed form in the box eigenbasis, so it has no quadrature and no cut in
time.  The energy route integrates the identity
a(j, n, T) = (1/(T pi)) integral |G(E + i/T)(j, n)|^2 dE at eps = 1/T over
the whole real line by adaptive quadrature: the band around the spectrum
and the two tails beyond it, each mapped onto (0, 1], are panels of one
heap under one stop rule.  On a tridiagonal box the energy route takes the
column |G(E + i/T)(., j)|^2 from the two regular solutions of the
three-term recurrence in O(n) per energy and its panel breaks from
eigenvalues it computes itself, once per box, so it shares only the box's
diagonal and hopping with the direct route, and their agreement (the tests enforce
1e-6 relative) checks the direct route's eigenvectors too.  On every other box both routes take their
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

from .greens import RECURSION_ENTRIES, _as_complex, _check_dense
from .lattice import Coords, ElementaryRegion, _integer, site, sup_norms
from .operators import (
    OperatorSpec,
    StateVector,
    assemble,
    potential_values,
    site_list,
)

DEFAULT_LEAKAGE_TOL = 1e-8
MAX_PANELS = 4000  # bisections, band and tail, past the first panels before giving up
POOR_FIT_RMS = 0.05  # log-fit residual above which growth is not logarithmic
RENORM_EVERY = 8  # transfer-matrix steps between renormalisations
_LOG_MAX = math.log(np.finfo(float).max)  # the double range, for rescaling


@lru_cache(maxsize=4)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=1)
def _embedded_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 45 distinct nodes of the GL-15 and GL-31 rules on [-1, 1], and
    their (45, 2) weights, one column per rule.  Both rules hold the
    midpoint 0.0 exactly, so the GL-31 weight of the midpoint sits on row 7,
    the GL-15 midpoint, and the panel midpoint is evaluated once."""
    (x15, w15), (x31, w31) = _leggauss(15), _leggauss(31)
    x = np.concatenate((x15, x31[:15], x31[16:]))
    weights = np.zeros((len(x), 2))
    weights[:15, 0] = w15
    weights[7, 1] = w31[15]
    weights[15:, 1] = np.concatenate((w31[:15], w31[16:]))
    return x, weights


def _check_positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:  # so that NaN fails
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_inputs(
    spec: OperatorSpec, phi: StateVector, radius: int, leakage_tol: float
) -> None:
    """The checks on an initial state and a leakage tolerance that need no
    box, so that a bad input raises before any decomposition; a NaN
    tolerance would never flag."""
    if not 0.0 <= leakage_tol < math.inf:  # so that NaN fails
        raise ValueError(
            f"leakage_tol must be non-negative and finite, got {leakage_tol}")
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
def _box_eigenvalues(spec: OperatorSpec, radius: int) -> np.ndarray:
    """The eigenvalues of a tridiagonal box, read-only, from its diagonals
    by ``sterf`` (no eigenvectors), cached by (spec, radius) as the
    diagonals are, so every horizon of a run and every doubling retry at
    the same radius takes them once."""
    _, _, a, hop = _box_diagonals(spec, radius)
    w = eigvalsh_tridiagonal(a, np.full(len(a) - 1, hop), lapack_driver="sterf")
    w.flags.writeable = False
    return w


def check_box_order(spec: OperatorSpec, radius: int) -> None:
    """Raise the ValueError that the box of the given radius would raise
    before its decomposition: a box that is not tridiagonal takes a dense
    ``eigh`` of order (2r + 1)^d, capped at ``greens.MAX_DENSE_POINTS`` as
    the volumes of a scan are.  A tridiagonal box has no cap."""
    if spec.tridiagonal is None:
        _check_dense((2 * radius + 1) ** spec.dimension)


@lru_cache(maxsize=4)
def _box_eigh(spec: OperatorSpec, radius: int):
    """Sites, their sup norms, eigenvalues, and eigenvectors of the cube
    truncation.

    A tridiagonal box is decomposed by ``stevd`` from its diagonals,
    without the O(n^3) reduction a dense ``eigh`` starts with.  Any other
    box takes the dense ``eigh``, within ``check_box_order``'s cap.
    """
    if spec.tridiagonal is not None:
        sites, norms, a, hop = _box_diagonals(spec, radius)
        w, U = eigh_tridiagonal(a, np.full(len(a) - 1, hop), lapack_driver="stevd")
        return sites, norms, w, U
    check_box_order(spec, radius)
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


def _eigen_support(U: np.ndarray, dense: np.ndarray):
    """(keep, c[keep]) for the overlaps c = U^H dense, read from the
    support rows of ``dense`` alone; ``keep`` indexes the eigenvectors
    whose overlap is nonzero.  The skipped overlaps are exact zeros, so a
    sum over ``keep`` is the full sum in another order.  When more than
    half the overlaps are nonzero, ``keep`` is ``slice(None)``: then
    ``U[:, keep]`` is a view of U, with no copy."""
    rows = np.flatnonzero(dense)
    c = _apply(U[rows].conj().T, dense[rows])
    keep = np.flatnonzero(c)
    if 2 * len(keep) > len(c):
        return slice(None), c
    return keep, c[keep]


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
    tolerance (retry with a larger radius).  ``eigen_support`` is the
    number of box eigenvectors the evolution summed over.
    """

    radius: int
    times: tuple[float, ...]
    sites: tuple[Coords, ...]
    norms: np.ndarray  # sup norms |n| of the sites
    amplitudes: np.ndarray  # (n_times, n_sites)
    leakage: float
    flagged: bool
    norm_drift: float
    eigen_support: int

    def moments(self, p: float) -> np.ndarray:
        return (np.abs(self.amplitudes) ** 2) @ _moment_weights(self.norms, p)


def evolve(
    spec: OperatorSpec,
    phi: StateVector,
    times: Sequence[float],
    radius: int,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> EvolutionResult:
    """exp(-itH) phi at the given times on the cube of the given radius.

    With H = U diag(w) U^H and c = U^H phi, the amplitudes are
    U[:, keep] (exp(-i t w) c)[keep] over the eigenvectors ``keep`` that phi
    overlaps (``_eigen_support``); the rest contribute exact zeros.  The
    amplitudes cover every site of the box at every time."""
    times = tuple(float(t) for t in times)
    if not all(map(math.isfinite, times)):
        raise ValueError(f"times must be finite, got {times}")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted ascending")
    _check_inputs(spec, phi, radius, leakage_tol)
    sites, norms, w, U = _box_eigh(spec, radius)
    dense = phi.dense(sites)
    keep, c = _eigen_support(U, dense)
    phases = np.exp(-1j * np.outer(np.asarray(times), w[keep]))
    amps = _apply(U[:, keep], (phases * c[None, :]).T).T
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
        eigen_support=len(c),
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


def moment_series(
    spec: OperatorSpec,
    phi: StateVector,
    p: float,
    times: Sequence[float],
    radius: int,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous p-th moments of the evolved state as (times, values)
    arrays, the pair ``fit_log_exponent`` reads: a view of one ``evolve``,
    whose result also carries the leakage and its flag."""
    _check_positive(p, "p")
    result = evolve(spec, phi, times, radius, leakage_tol)
    return np.array(result.times), result.moments(p)


@dataclass(frozen=True)
class AmplitudeTable:
    """Time-averaged site occupations a(., n, T) over a truncation box.

    ``leakage`` is the mass of a(j, ., T) in the outer 10% shell, on both
    routes; ``flagged`` marks tables whose leakage exceeded the tolerance.
    ``eigen_support`` is the number of box eigenvectors the table summed
    over: none for the 1-d energy route, which forms no eigenvectors.
    ``energies`` is the number of energies the energy route evaluated its
    column at, 45 a panel: the first band and tail panels, and each
    bisected panel again with its two halves; none for a direct table.
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
    panels: int = 0  # parseval panels after refinement: band + tails
    eigen_support: int = 0
    energies: int = 0

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
    x_lm = T (w_l - w_m) / 2, with at most three real k x k arrays alive
    for k overlaps."""
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
    M_lm = c_l conj(c_m) / (1 + iT(w_l - w_m)/2).  Only the k eigenvectors
    that phi overlaps enter (``_eigen_support``), so M is k x k and the
    route is one n x k product, O(n k^2), at a cost that does not depend
    on T; the only truncation is the box.

    Im M is antisymmetric, so for a real U the diagonal of U Im(M) U^T
    vanishes and a(., n, T) = sum_l (U Re M)_{nl} U_{nl}: one real product,
    with Re M built in real arithmetic.
    """
    _check_positive(T, "averaging horizon T")
    _check_inputs(spec, phi, radius, leakage_tol)
    sites, norms, w, U = _box_eigh(spec, radius)
    keep, c = _eigen_support(U, phi.dense(sites))
    w, U = w[keep], U[:, keep]
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
        eigen_support=len(c),
    )


class QuadratureError(RuntimeError):
    """Adaptive energy quadrature failed to reach the requested tolerance."""


class _RecursionColumn:
    """|G(z)(., j)|^2 of a tridiagonal box, for each z of an array with
    Im z > 0, from the two regular solutions of the three-term recurrence
    (transfer matrices) in O(n) per energy and with no eigenvectors.

    With diagonal a and hopping b, the solution of (H - z) phi = 0 that
    vanishes just outside one end of the box runs inward from that end by
    phi_{-1} = 0, phi_0 = 1, phi_{r+1} = ((z - a_r)/b) phi_r - phi_{r-1}:
    phiL from the left end to j, phiR from the right end to j.  Then
    G(k, j) = G(j, j) phiL(k)/phiL(j) for k <= j, mirrored for k >= j, with
    G(j, j) = 1/(a_j - z + b (phiL(j-1)/phiL(j) + phiR(j+1)/phiR(j))).
    Both sides sit in one (m + 2, 2, K) work array, which holds
    (z - a_r)/b on the row after site r's and ends at site j on row m + 1,
    so one loop of two in-place ops a row (multiply, subtract) runs both
    inward.  The shorter side is padded at its boundary end with rows of
    coefficient 0, which map a pair (phi_{r-1}, phi_r) to (phi_r, -phi_{r-1});
    it starts from (0, 1) or (1, 0) by the parity of its padding, so that
    it reaches its first real site as (0, +-1).  A zero hopping b leaves
    the diagonal column 1/(a_j - z).

    Each step grows the larger of the last two moduli at most by
    g = (max|a| + max|z|)/|b| + 1, so at an interval of rows set by g and
    the double range the last two rows are divided by the larger of their
    moduli.  The moduli then take the factors of the later rescales
    blockwise in one pass, and |G(j, j)|/|phi(j)| before squaring, so no
    value leaves the double range.  ``rows`` maps each site to its row of
    the flattened (2 (m + 2), K) result.
    """

    eigen_support = 0

    def __init__(self, a: np.ndarray, hop: float, j: int):
        n = len(a)
        m = max(j, n - 1 - j)
        self.hop, self.center, self.max_diag = hop, a[j], np.abs(a).max()
        pads = (m - j, m + 1 + j - n)
        self.diag = np.zeros((m + 2, 2, 1))
        self.diag[pads[0] + 2 :, 0, 0] = a[:j]
        self.diag[pads[1] + 2 :, 1, 0] = a[:j:-1]
        if hop:
            self.diag /= hop
        self.heads = []  # the start pair, then the zero coefficients of padding
        for pad in pads:
            head = np.zeros((pad + 2, 1))
            head[1 - pad % 2] = 1.0
            self.heads.append(head)
        k = np.arange(n)
        self.rows = np.where(k <= j, 2 * (m + 1 - j + k), 2 * (m + 1 + j - k) + 1)
        self.size = 2 * (m + 2)
        self.energies = 0

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """The squared column at each z, as a (2 (m + 2), K) array whose row
        ``rows[k]`` is |G(z)(k, j)|^2."""
        self.energies += len(z)
        if not self.hop:
            sq = np.zeros((self.size, len(z)))
            sq[self.size - 2] = np.abs(1.0 / (self.center - z)) ** 2  # site j
            return sq
        work = np.subtract(z / self.hop, self.diag)
        for side, head in enumerate(self.heads):
            work[: len(head), side] = head
        views = list(work)  # each op is in place
        # g^every stays a step short of the double range, so that rounding
        # cannot overflow between two rescales
        g = (self.max_diag + np.abs(z).max()) / abs(self.hop) + 1.0
        every = max(1, int(_LOG_MAX / math.log(g)) - 1)
        cuts = []  # (first row of a block, the factor its first rows took)
        for r in range(2, len(views)):
            row = views[r]
            row *= views[r - 1]
            row -= views[r - 2]
            if (r - 1) % every == 0:
                s = np.maximum(np.abs(views[r - 1]), np.abs(row))
                views[r - 1] /= s
                row /= s
                cuts.append((r - 1, s))
        last, prev = views[-1], views[-2]
        diagonal = self.center - z + self.hop * (prev[0] / last[0] + prev[1] / last[1])
        sq = np.abs(work)
        factor = 1.0 / np.abs(diagonal) / sq[-1]  # |G(j, j)|/|phi(j)| per side
        end = len(sq)
        for start, s in reversed(cuts):
            sq[start:end] *= factor
            factor /= s
            end = start
        sq[:end] *= factor
        sq *= sq
        return sq.reshape(self.size, -1)


class _EigenColumn:
    """|G(z)(., j)|^2 with G(z)(., j) = U diag(1/(w - z)) U^H e_j over the
    box eigenbasis, for boxes that are not tridiagonal; one row per site.
    The sum runs over the ``eigen_support`` eigenvectors that e_j
    overlaps."""

    def __init__(self, w: np.ndarray, U: np.ndarray, j: int):
        source = np.zeros(len(w), dtype=np.complex128)
        source[j] = 1.0
        keep, self.cj = _eigen_support(U, source)
        self.w, self.U = w[keep], U[:, keep]
        self.eigen_support = len(self.cj)
        self.rows = np.arange(len(w))
        self.size = len(w)
        self.energies = 0

    def __call__(self, z: np.ndarray) -> np.ndarray:
        self.energies += len(z)
        sq = np.abs(_apply(self.U, self.cj[:, None] / np.subtract.outer(self.w, z)))
        sq *= sq
        return sq


def _panel_integrals(column, eps: float, a: np.ndarray, b: np.ndarray,
                     maps: np.ndarray, weight_rows: np.ndarray):
    """Vector integrals of the column's |G(E + i eps)|^2 over the panels
    [a_p, b_p] with embedded GL-15 / GL-31 rules, all panels in one
    evaluation at the 45 distinct nodes of each (``_embedded_rule``).
    A band panel (``maps`` 0) runs over E itself.  A tail panel runs over
    u in (0, 1] with E = c / u for its map c = +-K', and the Jacobian
    |c| / u^2 scales its own rows only, so band panels cost what they
    would alone.

    Returns (vectors31, functionals31, per-functional error estimates), one
    row per panel.
    """
    x, weights = _embedded_rule()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    energies = mid[:, None] + half[:, None] * x
    tails = np.flatnonzero(maps)
    u = energies[tails]
    energies[tails] = maps[tails, None] / u
    sq = column((energies + 1j * eps).ravel()).reshape(column.size, len(a), len(x))
    sq[:, tails] *= np.abs(maps[tails, None]) / (u * u)
    sums = sq @ weights
    vec = (sums[column.rows] * half[:, None]).transpose(2, 1, 0)
    func = vec @ weight_rows.T
    return vec[1], func[1], np.abs(func[1] - func[0])


def _panels(column, eps: float, a, b, maps, weight_rows: np.ndarray):
    """(a, b, map, vector31, functionals31, error estimates) of each panel
    [a_p, b_p] in order (``_panel_integrals``), evaluated in chunks of
    whole panels, at least one, whose 45 nodes times the column's rows fit
    ``RECURSION_ENTRIES``: a consumer that drops each vector as it reads it
    holds one chunk's vectors at a time."""
    a, b, maps = (np.asarray(v, dtype=float) for v in (a, b, maps))
    nodes, _ = _embedded_rule()
    per = max(1, RECURSION_ENTRIES // (column.size * len(nodes)))
    for s in range(0, len(a), per):
        part = slice(s, s + per)
        yield from zip(a[part], b[part], maps[part], *_panel_integrals(
            column, eps, a[part], b[part], maps[part], weight_rows))


def _source_column(spec: OperatorSpec, radius: int, source: Coords):
    """Sites, sup norms and eigenvalues of the box, and its column
    z -> G(z)(., source): the recursion for a tridiagonal box, which never
    forms U, with the box's cached ``sterf`` eigenvalues
    (``_box_eigenvalues``), never those of the direct route's ``stevd``;
    and the eigenvector sum for every other box."""
    if spec.tridiagonal is not None:
        sites, norms, a, hop = _box_diagonals(spec, radius)
        w = _box_eigenvalues(spec, radius)
        return sites, norms, w, _RecursionColumn(a, hop, sites.index(source))
    sites, norms, w, U = _box_eigh(spec, radius)
    return sites, norms, w, _EigenColumn(w, U, sites.index(source))


def _band_breaks(w: np.ndarray, edge: float, width: float) -> np.ndarray:
    """The starting breaks of the band [-edge, edge]: +-edge and the box
    eigenvalues ``w`` clipped to the band, sorted and unique, with the
    breaks of each cluster closer than ``width`` (1/T) merged.  A walk
    keeps an interior break when it lies at least ``width`` past the last
    kept break or the next break lies at least ``width`` away (it ends a
    cluster).  So every eigenvalue next to a gap of ``width`` stays a
    break, and a panel inside a cluster is shorter than 2 ``width``: every
    pole w + i/T lies outside the Bernstein ellipse of parameter 1 + sqrt 2
    of its panel, where GL-15 agrees with GL-31 to about 3e-12 of the
    panel."""
    points = np.unique(
        np.concatenate(([-edge, edge], np.clip(w, -edge, edge)))).tolist()
    kept = points[:1]
    for x, after in zip(points[1:-1], points[2:]):
        if x - kept[-1] >= width or after - x >= width:
            kept.append(x)
    kept += points[-1:]
    return np.array(kept)


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

    The band [-K', K'] (K' = spectral bound + 2 by default) starts from
    panels broken at the box eigenvalues, the breaks of each cluster closer
    than 1/T merged (``_band_breaks``).  Each tail beyond +-K' is one more
    panel, over u in (0, 1] with E = +-K'/u and the Jacobian K'/u^2 (the
    map of QUADPACK's ``qagi``); the integrand times the Jacobian tends to
    a constant at u = 0.  All panels are evaluated in chunks and sit in
    one heap, refined by bisecting the panel of largest error estimate,
    band or tail, at most ``MAX_PANELS`` times, until the summed error of
    sum_n |n|^q a(j, n, T) is within ``rel_tol`` for each q in
    ``control_orders``.  An open panel keeps its functionals but not its
    n-vector: a bisection evaluates the panel again with its two halves in
    one call and swaps its vector for theirs.  ``tail_bound`` is the tail
    panels' error estimate.  The returned table therefore does not depend
    on the band edge beyond the quadrature tolerance, an edge inside the
    spectrum included.  A ``rel_tol`` that is not positive and finite, or
    control orders that are none or not finite and >= 0, raise
    ``ValueError`` before the box is decomposed.
    """
    _check_positive(T, "averaging horizon T")
    if band_edge is not None:  # a negative edge reverses the band panels
        _check_positive(band_edge, "band edge")
    _check_positive(rel_tol, "rel_tol")
    if len(control_orders) == 0 or not all(
            0.0 <= q < math.inf for q in control_orders):  # so that NaN fails
        raise ValueError(
            f"control orders must be one or more finite values >= 0, got "
            f"{control_orders}")
    src = site(source)
    _check_inputs(spec, StateVector.delta(src), radius, leakage_tol)
    sites, norms, w, column = _source_column(spec, radius, src)
    eps = 1.0 / T
    prefactor = 1.0 / (T * math.pi)
    weight_rows = np.vstack([norms**q for q in control_orders])
    edge = band_edge if band_edge is not None else spec.spectral_bound + 2.0

    # the band's panels between its breaks, clusters closer than 1/T
    # merged so peaks start resolved, then one tail panel a side
    breaks = _band_breaks(w, edge, eps)
    starts = np.append(breaks[:-1], [0.0, 0.0])
    ends = np.append(breaks[1:], [1.0, 1.0])
    maps = np.append(np.zeros(len(breaks) - 1), [edge, -edge])
    heap: list = []  # (-largest error, push order, panel) per open panel
    order = itertools.count()
    total_vec = np.zeros(len(sites))
    total_func = np.zeros(len(control_orders))
    total_err = np.zeros(len(control_orders))

    def push(a, b, c, vec, func, err):
        # an open panel keeps no vector: a bisection evaluates it again
        nonlocal total_func, total_err, total_vec
        heapq.heappush(heap, (-float(err.max()), next(order), (a, b, c, func, err)))
        total_func += func
        total_err += err
        total_vec += vec

    bisections = 0
    for panel in _panels(column, eps, starts, ends, maps, weight_rows):
        push(*panel)

    while True:
        scale = np.maximum(np.abs(total_func), 1e-30)
        if np.all(total_err <= rel_tol * scale):
            break
        if bisections == MAX_PANELS:
            raise QuadratureError(
                f"energy quadrature did not converge in {bisections} "
                f"bisections; errors {total_err} vs scale {scale}"
            )
        a, b, c, func, err = heapq.heappop(heap)[2]
        mid = 0.5 * (a + b)
        whole, *halves = _panels(column, eps, [a, a, mid], [b, mid, b], [c] * 3,
                                 weight_rows)
        total_func -= func
        total_err -= err
        total_vec -= whole[3]
        bisections += 1
        for panel in halves:
            push(*panel)

    tail_err = sum(err for _, _, (_, _, c, _, err) in heap if c)
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
        tail_bound=prefactor * float(np.max(tail_err)),
        band_edge=edge,
        panels=len(heap),
        eigen_support=column.eigen_support,
        energies=column.energies,
    )


@dataclass(frozen=True)
class LogFit:
    """Least-squares exponent of log(value) against log(log t)."""

    gamma: float
    residual_rms: float
    poor_fit: bool


def fit_log_exponent(series) -> LogFit:
    """Growth exponent gamma with value ~ (log t)^gamma, from a pair of
    sample arrays (t, value).

    Requires at least 10 samples spanning two decades with t > 1 and
    positive values; a large residual flags non-logarithmic growth.
    """
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
    never overflows.  Needs an integer length of at least 1 and at least
    one phase.
    """
    if spec.tridiagonal != (0.0, 1.0):
        raise ValueError(
            "Lyapunov estimates need the 1-d nearest-neighbour kernel at "
            "unit coupling"
        )
    z = _as_complex(energy)
    length = _integer(length, "length")
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    phases = [float(x) for x in phases]
    if not phases:
        raise ValueError("need at least one phase")
    e = z.real if z.imag == 0.0 else z
    samples = []
    for x in phases:
        run = spec.with_phase((x,))
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
