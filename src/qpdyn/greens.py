"""Finite-volume Green's functions and their good/bad classification.

The Green's function of a volume is G = (H_volume - z)^{-1} at a complex
energy z = E + i eps.  A box is *good* when |G(n, n')| decays at rate c2
for all pairs at sup-distance >= ceil(N/10), and *strongly good* when in
addition ||G|| <= exp(N^sigma).  Scans count centers whose translated box
fails strong goodness for some shape, and a log-log fit extracts the
sublinear exponent from counts across scales.

Classification picks one of two resolvers per shape (``_resolver``).  A 1-d
box of a real kernel with offsets |k| <= 1 (``OperatorSpec.is_tridiagonal``)
at eps > 0 takes the recursive Green's-function method: O(n) per box, no
n x n matrix, and as its residual that of the column of G through the worst
decay pair.  Every other box takes the batched engine, which is ``greens``
and ``resolvent_norm`` batched over the translates of one shape: an LU solve
of (H - z) G = I, the Hermitian eigenvalues for ||G||, and the Frobenius
residual ||(H - z) G - I||_F.  Dense volumes are capped at desk scale (a few
thousand points), where direct factorisation is the most verifiable route;
the per-box ``greens`` with an explicit loop over pairs is the engine's test
oracle, and the engine the recursion's.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as sla

from .lattice import Coords, ElementaryRegion, enumerate_shapes, tile_disjoint
from .operators import (
    OperatorSpec,
    assemble,
    hopping_block,
    potential_values,
    site_list,
)

MAX_DENSE_POINTS = 4500


@dataclass(frozen=True)
class ComplexEnergy:
    """z = energy + i epsilon; epsilon = 1/T when tied to time averaging."""

    energy: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")

    @property
    def z(self) -> complex:
        return complex(self.energy, self.epsilon)


def _as_complex(z) -> complex:
    if isinstance(z, ComplexEnergy):
        return z.z
    return complex(z)


@dataclass(frozen=True)
class GreensMatrix:
    """Dense resolvent of one volume with a solve-quality diagnostic.

    ``residual`` is the Frobenius norm ||(H - z) G - I||_F of the whole
    LU-solved matrix, an upper bound on its spectral norm.  The batched
    engine's box residuals are the same; a box of the 1-d recursion reports
    a single column's residual instead (see ``BoxVerdict``).
    """

    sites: tuple[Coords, ...]
    z: complex
    matrix: np.ndarray
    residual: float

    @cached_property
    def _index(self) -> dict[Coords, int]:
        return {p: i for i, p in enumerate(self.sites)}

    def entry(self, n: Coords, nprime: Coords) -> complex:
        return self.matrix[self._index[tuple(n)], self._index[tuple(nprime)]]

    def norm(self) -> float:
        """Spectral norm of G, computed independently via SVD."""
        return float(np.linalg.norm(self.matrix, 2))


def _dense_sites(region_or_points) -> tuple[Coords, ...]:
    sites = site_list(region_or_points)
    if not sites:
        raise ValueError("region is empty")
    if len(sites) > MAX_DENSE_POINTS:
        raise ValueError(
            f"volume has {len(sites)} points; dense solves are capped at "
            f"{MAX_DENSE_POINTS}"
        )
    return sites


def _singular(z: complex) -> str:
    return f"volume is singular at z={z}; use epsilon > 0 away from eigenvalues"


def _residual_norm(R: np.ndarray):
    """Frobenius norm of a residual (H - z) G - I, or of each of a stack of
    them: an upper bound on its spectral norm."""
    return np.linalg.norm(R, axis=(-2, -1))


def greens(spec: OperatorSpec, region_or_points, z) -> GreensMatrix:
    """Solve (H_volume - z) G = I by dense LU factorisation."""
    zc = _as_complex(z)
    sites = _dense_sites(region_or_points)
    H = assemble(spec, sites)
    A = H.astype(np.complex128, copy=True)
    A[np.diag_indices(len(sites))] -= zc
    eye = np.eye(len(sites), dtype=np.complex128)
    singular = _singular(zc)
    try:
        with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            G = sla.solve(A, eye)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(singular) from exc
    if not np.isfinite(G).all():  # scipy may hand back inf/nan with a warning
        raise np.linalg.LinAlgError(singular)
    return GreensMatrix(sites, zc, G, float(_residual_norm(A @ G - eye)))


def resolvent_norm(spec: OperatorSpec, region_or_points, z) -> float:
    """||G|| = 1 / dist(z, spectrum of the restriction), exact for the
    normal matrix H - z; computed from the Hermitian eigenvalues.

    Dense eigenvalues carry an error dw of about n eps_mach ||H||.  Where
    |w - E| is near eps that moves ||G|| by up to dw / (2 eps) relative,
    about 4e-11 at eps = 1e-4 on a 21-site AMO box, so the bisection of the
    1-d recursion is the more accurate side there."""
    zc = _as_complex(z)
    H = assemble(spec, region_or_points)
    w = np.linalg.eigvalsh(H)
    dist = float(np.min(np.hypot(w - zc.real, zc.imag)))
    if dist == 0.0:
        return math.inf
    return 1.0 / dist


@dataclass(frozen=True)
class ClassificationParams:
    """Knobs of the good / strongly-good classification.

    ``c2`` is the decay rate demanded of Green's functions, at most the
    kernel rate c1 (default four fifths of it); ``sigma`` the norm exponent;
    ``xi`` the sub-box scale exponent; ``varsigma`` the sublinear-count
    exponent.
    """

    c2: float = 0.8
    sigma: float = 0.5
    xi: float = 0.5
    varsigma: float = 0.95  # near 1, yet small enough that the count bound
    # can actually fail at desk scales (N^(0.95-xi) < tile count at N ~ 100)

    def __post_init__(self) -> None:
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")
        for name in ("sigma", "xi", "varsigma"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")

    @classmethod
    def for_spec(cls, spec: OperatorSpec, **overrides) -> "ClassificationParams":
        overrides.setdefault("c2", 0.8 * spec.kernel.decay_rate)
        return cls(**overrides)


def pair_distance_threshold(size: int) -> int:
    # decay is demanded from |n - n'| >= N/10, rounded up to stay integral
    return max(1, math.ceil(size / 10.0))


@dataclass(frozen=True)
class DecayWitness:
    pair: tuple[Coords, Coords]
    value: float
    bound: float

    @property
    def margin(self) -> float:
        """log |G| - log bound; positive means the decay bound fails."""
        if self.value == 0.0:
            return -math.inf
        return math.log(self.value) - math.log(self.bound)


def _pair_geometry(sites: np.ndarray, min_dist: int, c2: float):
    """Mask of the pairs at sup-distance >= min_dist and the exponents
    c2 |n - n'| of their decay bounds, for an (n, d) array of sites."""
    coords = sites.astype(float)
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)
    return dist >= min_dist, c2 * dist


def _worst_decay_pairs(absG: np.ndarray, far: np.ndarray, decay: np.ndarray):
    """Index arrays (i, j) of the worst pair of each of b volumes: ``absG``
    holds the (b, n, n) moduli |G|, ``far`` / ``decay`` the shared pair
    geometry, which must hold some far pair."""
    with np.errstate(divide="ignore"):
        margin = np.where(far, np.log(np.maximum(absG, 1e-300)) + decay, -np.inf)
    return np.divmod(margin.reshape(len(absG), -1).argmax(axis=1), absG.shape[1])


def _witnesses(sites, shifts, i, j, values, decays) -> list[DecayWitness]:
    """The witness of each translate k: the pair (i[k], j[k]) of the (n, d)
    ``sites`` shifted by ``shifts[k]``, with |G| = values[k] and bound
    exp(-decays[k])."""
    first, second = sites[i] + shifts, sites[j] + shifts
    return [
        DecayWitness((tuple(p), tuple(q)), v, math.exp(-e))
        for p, q, v, e in zip(first.tolist(), second.tolist(), values.tolist(),
                              decays.tolist())
    ]


@dataclass(frozen=True)
class BoxVerdict:
    """Classification record for one box at one complex energy.

    ``residual`` is the solve-quality diagnostic of the resolvent the
    verdict came from: the Frobenius norm ||(H - z) G - I||_F of the LU
    solve (as in ``GreensMatrix.residual``) for a box of the batched engine,
    and ||(H - z) g - e_j||_2 of the column g = G e_j through the worst decay
    pair for a box of the recursion (see ``_resolver``).
    """

    region: ElementaryRegion
    z: complex
    norm: float
    norm_bound: float
    witness: DecayWitness | None
    good: bool
    strongly_good: bool
    residual: float

    @property
    def decay_margin(self) -> float:
        return self.witness.margin if self.witness is not None else -math.inf


BATCH_ENTRIES = 1 << 14
# matrix entries per batched solve: bounds the working memory of a scan to a
# few MB whatever the scan size or the task chunk

RECURSION_ENTRIES = 1 << 16
# sites per batch of the recursion (n per box): its dozen working arrays stay
# near 10 MB, and a scan task of 64 boxes of up to 1024 sites is one batch,
# so the recursion's loop over sites runs once per task


def _shift_batches(shifts, d: int, batch: int) -> list[np.ndarray]:
    # raises ValueError when a shift has the wrong dimension
    shifts = np.asarray(shifts, dtype=np.int64).reshape(len(shifts), d)
    return [shifts[s : s + batch] for s in range(0, len(shifts), batch)]


class _TranslateEngine:
    """Resolvents of the translates of one shape at one complex energy.

    The shape's hopping block and pair distances are built once.  Each batch
    of translates adds its potential diagonals to the block, solves
    (H - z) G = I by one batched LU solve, as ``greens`` does box by box,
    and takes ||G|| = 1/min|w - z| from one batched ``eigvalsh``, as
    ``resolvent_norm`` does.  The worst decay pair and the Frobenius
    residual ||(H - z) G - I||_F come from G.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z: complex,
                 c2: float):
        sites = _dense_sites(shape)
        self.spec = spec
        self.z = z
        self.sites = np.asarray(sites, dtype=np.int64)
        self.hopping = hopping_block(spec, self.sites)
        self.far, self.decay = _pair_geometry(
            self.sites, pair_distance_threshold(shape.size), c2
        )
        self.batch = max(1, BATCH_ENTRIES // len(sites) ** 2)

    def resolve(
        self, shifts
    ) -> list[tuple[float, DecayWitness, float]]:
        """(||G||, worst decay pair, residual) of the shape translated by
        each row of ``shifts``."""
        out = []
        for s in _shift_batches(shifts, self.sites.shape[1], self.batch):
            norm, i, j, value, residual = self._resolve_batch(s)
            witnesses = _witnesses(self.sites, s, i, j, value, self.decay[i, j])
            out.extend(zip(norm.tolist(), witnesses, residual.tolist()))
        return out

    def verdicts(self, shifts, norm_bound: float) -> tuple[np.ndarray, float]:
        """Mask of the translates that decay and have ||G|| <= norm_bound,
        and the largest residual among them all."""
        good, worst = [], 0.0
        for s in _shift_batches(shifts, self.sites.shape[1], self.batch):
            norm, i, j, value, residual = self._resolve_batch(s)
            with np.errstate(divide="ignore"):
                margin = np.log(value) + self.decay[i, j]
            good.append((margin <= 0.0) & (norm <= norm_bound))
            worst = max(worst, float(residual.max()))
        return np.concatenate(good), worst

    def _resolve_batch(self, shifts: np.ndarray):
        """||G||, the worst decay pair (i, j), |G(i, j)| and the residual of
        each translate, as arrays."""
        b, (n, d) = len(shifts), self.sites.shape
        z = self.z
        translated = self.sites[None, :, :] + shifts[:, None, :]
        diag = np.arange(n)
        H = np.repeat(self.hopping[None, :, :], b, axis=0)
        H[:, diag, diag] += potential_values(
            self.spec, translated.reshape(-1, d)
        ).reshape(b, n)
        nearest = np.hypot(np.linalg.eigvalsh(H) - z.real, z.imag).min(axis=1)
        if not nearest.all():
            raise np.linalg.LinAlgError(_singular(z))
        A = H - z * np.eye(n)
        eye = np.broadcast_to(np.eye(n), A.shape)
        G = np.linalg.solve(A, eye)
        absG = np.abs(G)
        i, j = _worst_decay_pairs(absG, self.far, self.decay)
        value = absG[np.arange(b), i, j]
        return 1.0 / nearest, i, j, value, _residual_norm(A @ G - eye)


class _TridiagonalResolver:
    """Resolvents of the translates of a 1-d interval at Im z > 0 for a spec
    whose boxes are tridiagonal, by the recursive Green's-function method
    (Thouless & Kirkpatrick, J. Phys. C 14, 235, 1981), in O(n) per box and
    vectorised over a batch of translates.

    With diagonal a, hopping b and the continued fractions
    gL_k = 1/(a_k - z - b^2 gL_{k-1}) and gR_k = 1/(a_k - z - b^2 gR_{k+1}),
    G(j, j) = 1/(a_j - z - b^2 gL_{j-1} - b^2 gR_{j+1}), and G is complex
    symmetric with G(i, j) = G(j, j) prod_{k=i}^{j-1} (-b gL_k) for i < j.
    So the decay margin log|G(i, j)| + c2 (j - i) splits into B_j - A_i,
    and a prefix minimum of A over i <= j - ceil(N/10) finds the worst pair
    with no n x n matrix.  The residual is ||(H - z) g - e_j||_2 of the
    column g = G e_j through the worst pair.

    ||G|| = 1/min|w - z| comes from the eigenvalues next to E: a Sturm
    count gives their index and LAPACK bisection (``stebz``) finds them.  A
    verdict needs only ||G|| <= bound, that is, no eigenvalue within
    sqrt(bound^-2 - eps^2) of E, which two Sturm counts decide.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z: complex,
                 c2: float):
        self.spec = spec
        self.z = z
        self.c2 = c2
        self.sites = np.asarray(site_list(shape), dtype=np.int64)
        block = hopping_block(spec, self.sites[:2])  # an interval: n >= 3
        self.onsite, self.hop = block[0, 0], block[1, 0]
        self.min_dist = pair_distance_threshold(shape.size)
        self.batch = max(1, RECURSION_ENTRIES // len(self.sites))

    def resolve(
        self, shifts
    ) -> list[tuple[float, DecayWitness, float]]:
        """(||G||, worst decay pair, residual) of the shape translated by
        each row of ``shifts``."""
        out = []
        for s in _shift_batches(shifts, 1, self.batch):
            a, gL, gR, diag = self._fractions(s)
            i, j, margin = self._worst_pairs(gL, diag)
            decay = self.c2 * (j - i)
            witnesses = _witnesses(self.sites, s, i, j, np.exp(margin - decay), decay)
            residual = self._column_residuals(a, gL, gR, diag, j)
            out.extend(zip(self._norms(a).tolist(), witnesses, residual.tolist()))
        return out

    def verdicts(self, shifts, norm_bound: float) -> tuple[np.ndarray, float]:
        """Mask of the translates that decay and have ||G|| <= norm_bound,
        and the largest residual among them all."""
        energy, eps = self.z.real, self.z.imag
        radius_sq = norm_bound**-2 - eps**2
        good, worst = [], 0.0
        for s in _shift_batches(shifts, 1, self.batch):
            a, gL, gR, diag = self._fractions(s)
            _, j, margin = self._worst_pairs(gL, diag)
            worst = max(worst, float(self._column_residuals(a, gL, gR, diag, j).max()))
            ok = margin <= 0.0
            if radius_sq > 0.0 and ok.any():
                r = math.sqrt(radius_sq)
                below = self._counts(a[:, ok], np.array([[energy - r], [energy + r]]))
                ok[ok] = below[0] == below[1]
            good.append(ok)
        return np.concatenate(good), worst

    def _fractions(self, shifts: np.ndarray):
        """Diagonals a, fractions gL and gR, and G(j, j) of each translate,
        as (n, b) arrays."""
        n = len(self.sites)
        translated = (self.sites + shifts[:, 0]).reshape(-1, 1)
        a = self.onsite + potential_values(self.spec, translated).reshape(n, -1)
        d = a - self.z
        b2 = self.hop * self.hop
        gL, gR = np.empty_like(d), np.empty_like(d)
        gL[0], gR[-1] = 1.0 / d[0], 1.0 / d[-1]
        for k in range(1, n):
            gL[k] = 1.0 / (d[k] - b2 * gL[k - 1])
        for k in range(n - 2, -1, -1):
            gR[k] = 1.0 / (d[k] - b2 * gR[k + 1])
        d[1:] -= b2 * gL[:-1]
        d[:-1] -= b2 * gR[1:]
        return a, gL, gR, 1.0 / d

    def _worst_pairs(self, gL: np.ndarray, diag: np.ndarray):
        """Index arrays (i, j), i < j, of the worst decay pair of each
        translate, and its margin log|G(i, j)| + c2 (j - i)."""
        (n, b), m = gL.shape, self.min_dist
        if self.hop == 0.0:  # G is diagonal: every far pair has |G| = 0
            return np.zeros(b, np.int64), np.full(b, n - 1), np.full(b, -np.inf)
        steps = np.log(np.abs(self.hop * gL[:-1]))
        # A_i = sum_{k < i} log|b gL_k| + c2 i, B_j = log|G(j, j)| + A_j
        A = np.zeros((n, b))
        np.cumsum(steps, axis=0, out=A[1:])
        A += self.c2 * np.arange(n)[:, None]
        margins = np.log(np.abs(diag[m:])) + A[m:] - np.minimum.accumulate(A[: n - m])
        j = margins.argmax(axis=0)
        margin = margins[j, np.arange(b)]
        j += m
        i = np.where(np.arange(n)[:, None] <= j - m, A, np.inf).argmin(axis=0)
        return i, j, margin

    def _column_residuals(self, a, gL, gR, diag, j) -> np.ndarray:
        """||(H - z) g - e_j||_2 of each translate's column g = G e_j."""
        n, b = a.shape
        boxes = np.arange(b)
        g = np.zeros_like(diag)
        g[j, boxes] = diag[j, boxes]
        fL, fR = -self.hop * gL, -self.hop * gR
        for k in range(n - 2, -1, -1):  # G(k, j) = -b gL_k G(k + 1, j), k < j
            np.multiply(fL[k], g[k + 1], out=g[k], where=k < j)
        for k in range(1, n):  # G(k, j) = -b gR_k G(k - 1, j), k > j
            np.multiply(fR[k], g[k - 1], out=g[k], where=k > j)
        r = (a - self.z) * g
        r[1:] += self.hop * g[:-1]
        r[:-1] += self.hop * g[1:]
        r[j, boxes] -= 1.0
        return np.linalg.norm(r, axis=0)

    def _counts(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Number of eigenvalues <= x of each box: the non-positive pivots
        of the LDL^T factorisation of H - x, guarded as LAPACK's bisection
        guards them.  ``a`` is (n, b); ``x`` broadcasts against a row."""
        b2 = self.hop * self.hop
        pivmin = np.finfo(float).tiny * max(1.0, b2)
        count = np.zeros(np.broadcast_shapes(a.shape[1:], x.shape), np.int64)
        q = None
        for k in range(len(a)):
            q = a[k] - x if q is None else (a[k] - b2 / q) - x
            q[np.abs(q) < pivmin] = -pivmin
            count += q <= 0.0
        return count

    def _norms(self, a: np.ndarray) -> np.ndarray:
        """||G|| = 1/min|w - z| of each box, from the eigenvalues on either
        side of E."""
        energy, eps = self.z.real, self.z.imag
        n = len(a)
        hops = np.full(n - 1, self.hop)
        below = self._counts(a, np.array(energy))
        norms = np.empty(a.shape[1])
        for k, count in enumerate(below.tolist()):
            w = sla.eigvalsh_tridiagonal(
                a[:, k], hops, select="i",
                select_range=(max(count - 1, 0), min(count, n - 1)),
                tol=2.0 * np.finfo(float).tiny, lapack_driver="stebz",
            )
            norms[k] = 1.0 / np.hypot(w - energy, eps).min()
        return norms


def _resolver(spec: OperatorSpec, shape: ElementaryRegion, z: complex, c2: float):
    """The resolver of the translates of ``shape``: the recursion when the
    boxes are tridiagonal (``OperatorSpec.is_tridiagonal``) and z lies off
    the real axis, where no pivot of the fractions can vanish; the batched
    engine for every other box (d >= 2, kernel range > 1, complex hopping,
    or eps = 0, where it reports a singular box)."""
    if spec.is_tridiagonal and z.imag > 0.0:
        return _TridiagonalResolver(spec, shape, z, c2)
    return _TranslateEngine(spec, shape, z, c2)


def _resolve_box(spec, region: ElementaryRegion, z: complex, c2: float):
    return _resolver(spec, region, z, c2).resolve([(0,) * region.dimension])[0]


def _decays(witness: DecayWitness | None) -> bool:
    return witness is None or witness.margin <= 0.0


def _verdict(region, z, norm, witness, residual, sigma) -> BoxVerdict:
    good = _decays(witness)
    norm_bound = math.exp(region.size**sigma)
    strongly_good = good and norm <= norm_bound
    return BoxVerdict(
        region, z, norm, norm_bound, witness, good, strongly_good, residual
    )


def classify_box(
    spec: OperatorSpec,
    region: ElementaryRegion,
    z,
    params: ClassificationParams,
) -> BoxVerdict:
    """Good / strongly-good verdict for one elementary region."""
    zc = _as_complex(z)
    return _verdict(
        region, zc, *_resolve_box(spec, region, zc, params.c2), params.sigma
    )


def is_good(
    spec: OperatorSpec, region: ElementaryRegion, z, c2: float
) -> tuple[bool, DecayWitness | None]:
    """Class-G check: |G(n,n')| <= exp(-c2 |n-n'|) for all pairs at
    sup-distance >= ceil(N/10).  Returns the verdict and the worst pair."""
    _, witness, _ = _resolve_box(spec, region, _as_complex(z), c2)
    return _decays(witness), witness


def is_strongly_good(
    spec: OperatorSpec, region: ElementaryRegion, z, c2: float, sigma: float
) -> bool:
    """Class-SG check: class G plus ||G|| <= exp(N^sigma)."""
    zc = _as_complex(z)
    return _verdict(
        region, zc, *_resolve_box(spec, region, zc, c2), sigma
    ).strongly_good


@dataclass(frozen=True)
class BadSetReport:
    """Bad centers of one scan: n is bad when some shape of size N1
    translated to n fails strong goodness.  ``max_residual`` is the largest
    residual (as in ``BoxVerdict.residual``) over the boxes the scan
    resolved."""

    size: int
    sub_size: int
    z: complex
    bad_centers: tuple[Coords, ...]
    total_centers: int
    max_residual: float

    @property
    def count(self) -> int:
        return len(self.bad_centers)

    @property
    def fraction(self) -> float:
        return self.count / self.total_centers


def scan_centers(size: int, d: int) -> Iterable[Coords]:
    """Lexicographic centers of the scan cube [-N, N]^d."""
    return itertools.product(range(-size, size + 1), repeat=d)


def _scan_setup(spec, size, sub_size, z, params, centers):
    """The shapes of size N1, one resolver per shape, and the scan centers
    in batches that every resolver takes in one call."""
    if sub_size >= size:
        raise ValueError("sub-box size must be smaller than the scan size")
    shapes = enumerate_shapes(spec.dimension, sub_size)
    resolvers = [_resolver(spec, s, z, params.c2) for s in shapes]
    it = iter(centers if centers is not None else scan_centers(size, spec.dimension))
    batch_size = min(r.batch for r in resolvers)
    batches = iter(lambda: [tuple(c) for c in itertools.islice(it, batch_size)], [])
    return shapes, resolvers, batches


def scan_boxes(
    spec: OperatorSpec,
    size: int,
    sub_size: int,
    z,
    params: ClassificationParams,
    centers: Iterable[Coords] | None = None,
) -> Iterable[tuple[Coords, int, BoxVerdict]]:
    """Exhaustive verdicts for every center in [-N, N]^d and every shape of
    size N1; yields (center, shape index, verdict).

    ``centers`` restricts the scan to a subset, letting a pool of workers
    split the cube into chunks while keeping center order deterministic."""
    zc = _as_complex(z)
    shapes, resolvers, batches = _scan_setup(spec, size, sub_size, zc, params, centers)
    for batch in batches:
        resolved = [resolver.resolve(batch) for resolver in resolvers]
        for k, center in enumerate(batch):
            for shape_id, shape in enumerate(shapes):
                verdict = _verdict(
                    shape.translate(center), zc, *resolved[shape_id][k],
                    params.sigma,
                )
                yield center, shape_id, verdict


def bad_set(
    spec: OperatorSpec,
    size: int,
    sub_size: int,
    z,
    params: ClassificationParams,
    centers: Iterable[Coords] | None = None,
) -> BadSetReport:
    """Scan of [-N, N]^d for centers with a non-strongly-good shape.

    Each shape only resolves the centers that every earlier shape left
    strongly good."""
    zc = _as_complex(z)
    _, resolvers, batches = _scan_setup(spec, size, sub_size, zc, params, centers)
    norm_bound = math.exp(sub_size**params.sigma)
    bad: list[Coords] = []
    total = 0
    max_residual = 0.0
    for batch in batches:
        total += len(batch)
        remaining = batch
        for resolver in resolvers:
            if not remaining:
                break
            good, residual = resolver.verdicts(remaining, norm_bound)
            max_residual = max(max_residual, residual)
            remaining = [c for c, ok in zip(remaining, good.tolist()) if ok]
        good = set(remaining)
        bad.extend(c for c in batch if c not in good)
    return BadSetReport(size, sub_size, zc, tuple(bad), total, max_residual)


@dataclass(frozen=True)
class SublinearFit:
    """delta = 1 - slope of log(count + 1) against log N."""

    delta: float
    slope: float
    slope_stderr: float
    residual_rms: float
    no_bad_boxes: bool


def fit_sublinear_exponent(counts: Sequence[tuple[int, int]]) -> SublinearFit:
    """Least-squares sublinear exponent from (N, bad count) pairs.

    Needs at least three scales.  All-zero counts cap delta at 1 and set
    the ``no_bad_boxes`` flag.
    """
    pts = [(int(n), int(c)) for n, c in counts]
    if len({n for n, _ in pts}) < 3:
        raise ValueError("need at least three scales to fit an exponent")
    if any(c < 0 for _, c in pts):
        raise ValueError("counts must be non-negative")
    if all(c == 0 for _, c in pts):
        return SublinearFit(1.0, 0.0, 0.0, 0.0, True)
    x = np.log([n for n, _ in pts])
    y = np.log([c + 1.0 for _, c in pts])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    resid = y - fitted
    dof = max(len(pts) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if sxx > 0 else math.inf
    return SublinearFit(
        delta=1.0 - float(slope),
        slope=float(slope),
        slope_stderr=stderr,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        no_bad_boxes=False,
    )


def verify_resolvent_identity(
    spec: OperatorSpec, region1, region2, z
) -> float:
    """Deviation of the exact two-block resolvent identity.

    For disjoint volumes with union L,
    G_L = (G_1 + G_2) - (G_1 + G_2)(H_L - H_1 - H_2) G_L
    holds exactly; returns the relative spectral-norm deviation.
    """
    zc = _as_complex(z)
    sites1 = site_list(region1)
    sites2 = site_list(region2)
    if set(sites1) & set(sites2):
        raise ValueError("regions overlap")
    union = site_list(sites1 + sites2)
    G = greens(spec, union, zc).matrix
    idx1 = [union.index(p) for p in sites1]
    idx2 = [union.index(p) for p in sites2]
    n = len(union)
    B = np.zeros((n, n), dtype=np.complex128)
    B[np.ix_(idx1, idx1)] = greens(spec, sites1, zc).matrix
    B[np.ix_(idx2, idx2)] = greens(spec, sites2, zc).matrix
    H = assemble(spec, union).astype(np.complex128)
    coupling = np.zeros_like(H)
    coupling[np.ix_(idx1, idx2)] = H[np.ix_(idx1, idx2)]
    coupling[np.ix_(idx2, idx1)] = H[np.ix_(idx2, idx1)]
    rhs = B - B @ coupling @ G
    dev = np.linalg.norm(G - rhs, 2)
    return float(dev / max(1.0, np.linalg.norm(G, 2)))


def combes_thomas_probe(
    spec: OperatorSpec,
    radius: int,
    energy: float,
    epsilon: float = 0.0,
    source: Coords | None = None,
) -> float:
    """Measured off-diagonal decay rate of G on a cube of the given radius.

    Requires the energy to sit at distance >= 1 from the spectrum of the
    truncation.  Fits log |G(source, n)| against |n| over the annulus
    R/4 <= |n| <= R/2; a diagonal resolvent reports an infinite rate.
    """
    d = spec.dimension
    src = tuple(source) if source is not None else (0,) * d
    box = ElementaryRegion((0,) * d, radius)
    sites = site_list(box)
    H = assemble(spec, sites)
    w = np.linalg.eigvalsh(H)
    zc = complex(energy, epsilon)
    dist = float(np.min(np.hypot(w - energy, epsilon)))
    if dist < 1.0:
        raise ValueError(
            f"energy {energy} is at distance {dist:.3g} < 1 from the "
            "truncated spectrum"
        )
    A = H.astype(np.complex128, copy=True)
    A[np.diag_indices(len(sites))] -= zc
    rhs = np.zeros(len(sites), dtype=np.complex128)
    rhs[sites.index(src)] = 1.0
    col = sla.solve(A, rhs)
    lo, hi = math.ceil(radius / 4.0), radius // 2
    xs, ys = [], []
    for p, g in zip(sites, col):
        r = max(abs(c) for c in p)
        if lo <= r <= hi and abs(g) > 0.0:
            xs.append(r)
            ys.append(math.log(abs(g)))
    if not xs:
        return math.inf
    slope = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0]
    rate = -float(slope)
    if rate <= 0.0:
        raise ArithmeticError(
            f"measured rate {rate:.3g} is not positive; the energy may be "
            "too close to the spectrum for this radius"
        )
    return rate


@dataclass(frozen=True)
class MultiscaleReport:
    """Outcome of the sub-box count vs whole-box decay experiment."""

    size: int
    sub_size: int
    bad_sub_boxes: int
    sub_box_total: int
    count_bound: float
    hypothesis_met: bool
    decay_holds: bool | None
    required_rate: float
    witness: DecayWitness | None

    @property
    def status(self) -> str:
        return "ok" if self.hypothesis_met else "hypothesis-not-met"


def multiscale_decay_check(
    spec: OperatorSpec,
    region: ElementaryRegion,
    z,
    params: ClassificationParams,
    slack: float | None = None,
) -> MultiscaleReport:
    """Count bad sub-boxes in the canonical tiling and, when the count is
    sublinear, test whether the host Green's function decays at rate
    c2 - slack (default slack c2/10) for pairs at distance >= ceil(N/10).
    The host's witness comes from the resolver ``is_good`` uses."""
    zc = _as_complex(z)
    N = region.size
    M = int(N**params.xi)
    if M < 10:
        raise ValueError("sub-box scale N^xi must be at least 10")
    tiles = tile_disjoint(region, M)
    cube = _resolver(
        spec, ElementaryRegion((0,) * region.dimension, M), zc, params.c2
    )
    decays, _ = cube.verdicts([t.center for t in tiles], math.inf)
    bad = int(np.count_nonzero(~decays))
    bound = N**params.varsigma / N**params.xi
    met = bad <= bound
    decay_holds: bool | None = None
    witness = None
    rate = params.c2 - (slack if slack is not None else params.c2 / 10.0)
    if met:
        _, witness, _ = _resolve_box(spec, region, zc, rate)
        decay_holds = _decays(witness)
    return MultiscaleReport(
        size=N,
        sub_size=M,
        bad_sub_boxes=bad,
        sub_box_total=len(tiles),
        count_bound=bound,
        hypothesis_met=met,
        decay_holds=decay_holds,
        required_rate=rate,
        witness=witness,
    )
