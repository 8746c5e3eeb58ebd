"""Finite-volume Green's functions and their good/bad classification.

The Green's function of a volume is G = (H_volume - z)^{-1} at a complex
energy z = E + i eps.  A box is *good* when |G(n, n')| decays at rate c2
for all pairs at sup-distance >= ceil(N/10), and *strongly good* when in
addition ||G|| <= exp(N^sigma).  Scans count centers whose translated box
fails strong goodness for some shape, and a log-log fit extracts the
sublinear exponent from counts across scales.

Classification picks one of two resolvers per shape (``_resolver``), and a
resolver covers every energy of a scan (all of them share Im z).  A 1-d
box of a real kernel with offsets |k| <= 1 (``OperatorSpec.tridiagonal``)
at eps > 0 takes the recursive Green's-function method: one
``continued_fractions`` sweep per energy, shared with ``dynamics``, of an
(n, 2, batch) array holding both directions, O(n) per box and no n x n
matrix; its residual is that of the column of G through the worst decay
pair.  Every other box takes the batched engine, which is ``greens`` and
``resolvent_norm`` batched over the translates of one shape: the Hermitian
eigenvalues for ||G||, computed once per box for all energies since H does
not depend on z, then at each energy an LU solve of (H - z) G = I and the
Frobenius residual ||(H - z) G - I||_F, taken in one pass over the product.
Dense volumes are capped at desk scale (a few thousand points), where
direct factorisation is the most verifiable route; the per-box ``greens``
with an explicit loop over pairs is the engine's test oracle, and the
engine the recursion's.  Both resolvers run the same batch loops
(``_BatchResolver``): a resolver's ``_batch`` gives, at each energy in turn,
five arrays, the worst decay pair (i, j) of each translate, its margin, its
residual and the state its norms need, and the loops derive each pair's
exponent c2 |i - j|.  Each decay margin stays in log space, so no bound
exp(-c2 |n - n'|) is formed on the way to a verdict.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.linalg as sla

from .lattice import (Coords, ElementaryRegion, _integer, enumerate_shapes, site,
                      sup_norm, sup_norms, tile_disjoint)
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
        if not self.epsilon >= 0.0:  # so that NaN fails
            raise ValueError("epsilon must be non-negative")
        _as_complex(self.z)  # raises on a non-finite energy

    @property
    def z(self) -> complex:
        return complex(self.energy, self.epsilon)


def _as_complex(z) -> complex:
    """z as a complex number; a non-finite z is an error."""
    zc = z.z if isinstance(z, ComplexEnergy) else complex(z)
    if not cmath.isfinite(zc):
        raise ValueError(f"energy {zc} is not finite")
    return zc


def _energies(z) -> tuple[complex, ...]:
    """One complex energy, or each of a sequence of them, as a tuple of
    complex numbers; the energies of one scan share Im z, which picks the
    resolver of every shape."""
    if isinstance(z, (ComplexEnergy, numbers.Number)):
        return (_as_complex(z),)
    zs = tuple(_as_complex(e) for e in z)
    if not zs:
        raise ValueError("a scan needs at least one energy")
    if len({e.imag for e in zs}) > 1:
        raise ValueError("the energies of one scan must share Im z")
    return zs


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
        return self.matrix[self._index[site(n)], self._index[site(nprime)]]

    def norm(self) -> float:
        """Spectral norm of G, computed independently via SVD."""
        return float(np.linalg.norm(self.matrix, 2))


def _check_dense(points: int) -> None:
    if points > MAX_DENSE_POINTS:
        raise ValueError(
            f"volume has {points} points; dense solves are capped at "
            f"{MAX_DENSE_POINTS}"
        )


def _dense_sites(region_or_points) -> tuple[Coords, ...]:
    sites = site_list(region_or_points)
    if not sites:
        raise ValueError("region is empty")
    _check_dense(len(sites))
    return sites


def _singular(z: complex) -> str:
    return f"volume is singular at z={z}; use epsilon > 0 away from eigenvalues"


def _residual_norm(A: np.ndarray, G: np.ndarray):
    """Frobenius norm of the residual A G - I, or of each of a stack of
    them: an upper bound on its spectral norm.  One pass over the product,
    taken in place: subtract 1 on its diagonal and sum the squares of its
    real and imaginary parts."""
    R = A @ G
    n = R.shape[-1]
    R[..., np.arange(n), np.arange(n)] -= 1.0
    parts = R.view(np.float64).reshape(*R.shape[:-2], -1)
    return np.sqrt(np.square(parts, out=parts).sum(axis=-1))


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
    return GreensMatrix(sites, zc, G, float(_residual_norm(A, G)))


def resolvent_norm(spec: OperatorSpec, region_or_points, z) -> float:
    """||G|| = 1 / dist(z, spectrum of the restriction), exact for the
    normal matrix H - z; computed from the Hermitian eigenvalues.

    Dense eigenvalues carry an error dw of about n eps_mach ||H||.  Where
    |w - E| is near eps that moves ||G|| by up to dw / (2 eps) relative,
    about 4e-11 at eps = 1e-4 on a 21-site AMO box, so the bisection of the
    1-d recursion is the more accurate side there."""
    zc = _as_complex(z)
    H = assemble(spec, _dense_sites(region_or_points))
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
        if not self.c2 > 0:  # so that NaN fails
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


def strong_norm_bound(size: int, sigma: float) -> float:
    # ||G|| <= exp(N^sigma), inf once N^sigma > log(DBL_MAX) ~ 709.78
    try:
        return math.exp(size**sigma)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DecayWitness:
    """The worst decay pair of a box, in log space: ``margin`` is
    log|G(n, n')| + c2 |n - n'|, positive when the decay bound fails, and
    ``exponent`` is c2 |n - n'|.  ``value`` and ``bound`` are derived and
    underflow to 0 beyond an exponent of about 745; the margin does not."""

    pair: tuple[Coords, Coords]
    margin: float
    exponent: float

    @property
    def value(self) -> float:
        """|G(n, n')|."""
        return math.exp(self.margin - self.exponent)

    @property
    def bound(self) -> float:
        """exp(-c2 |n - n'|)."""
        return math.exp(-self.exponent)


@dataclass(frozen=True)
class BoxVerdict:
    """Classification record for one box at one complex energy.

    ``residual`` is the solve-quality diagnostic of the resolvent the
    verdict came from: the Frobenius norm ||(H - z) G - I||_F of the LU
    solve (as in ``GreensMatrix.residual``) for a box of the batched engine,
    and ||(H - z) g - e_j||_2 of the column g = G e_j through the worst decay
    pair for a box of the recursion (see ``_resolver``).  ``norm_bound`` is
    exp(N^sigma), or inf where that overflows (N^sigma > 709.78).
    """

    region: ElementaryRegion
    z: complex
    norm: float
    norm_bound: float
    witness: DecayWitness
    good: bool
    strongly_good: bool
    residual: float

    @property
    def decay_margin(self) -> float:
        return self.witness.margin


BATCH_ENTRIES = 1 << 14
# matrix entries per batched solve: bounds the working memory of a scan to a
# few MB whatever the scan size or the task chunk

RECURSION_ENTRIES = 1 << 16
# sites per batch of the recursion (n per box): its dozen working arrays stay
# near 10 MB, and a scan task of 64 boxes of up to 1024 sites is one batch,
# so the recursion's loop over sites runs once per task


class _BatchResolver:
    """The batch loops of both resolvers of one shape at one complex energy
    or at each of a sequence of them (``zs``).

    A resolver supplies ``_batch``: for a batch of shifts it gives, at each
    energy in turn, the five arrays (i, j, margin, residual, state) of each
    translate, that is, the site indices of its worst decay pair, the pair's
    margin log|G(i, j)| + c2 |i - j|, its residual, and the state its norms
    need.  ``resolve`` derives each pair's exponent c2 |i - j| from (i, j),
    the one place it is formed.  ``_norms`` turns the state at energy z into
    ||G||, and ``_norms_within`` into the mask ``ok`` & ||G|| <= bound; by
    default the state is ||G|| itself.  ``spectra`` counts the dense
    eigenvalue sets the resolver has computed.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z,
                 c2: float, sites, batch: int):
        self.spec, self.zs, self.c2 = spec, _energies(z), c2
        self.sites = np.asarray(sites)
        self.min_dist = pair_distance_threshold(shape.size)
        self.batch = max(1, batch)
        self.spectra = 0

    def _batches(self, shifts) -> list[np.ndarray]:
        # the shifts are sites read by ``lattice.site``; raises ValueError
        # when one has the wrong dimension
        shifts = np.asarray(shifts).reshape(len(shifts), self.sites.shape[1])
        return [shifts[s : s + self.batch] for s in range(0, len(shifts), self.batch)]

    def resolve(
        self, shifts
    ) -> list[tuple[float, DecayWitness, float]]:
        """(||G||, worst decay pair, residual) of the shape translated by
        each row of ``shifts``, at each energy in turn: row s at the k-th
        energy is entry k len(shifts) + s."""
        out = [[] for _ in self.zs]
        for s in self._batches(shifts):
            for z, rows, (i, j, margin, residual, state) in zip(
                self.zs, out, self._batch(s)
            ):
                exponent = self.c2 * sup_norms(self.sites[i] - self.sites[j])
                witnesses = [
                    DecayWitness((tuple(p), tuple(q)), m, e)
                    for p, q, m, e in zip((self.sites[i] + s).tolist(),
                                          (self.sites[j] + s).tolist(),
                                          margin.tolist(), exponent.tolist())
                ]
                rows.extend(zip(self._norms(state, z).tolist(), witnesses,
                                residual.tolist()))
        return [row for rows in out for row in rows]

    def verdicts(self, shifts, norm_bound: float) -> tuple[np.ndarray, float]:
        """Mask of the translates that decay and have ||G|| <= norm_bound,
        at each energy in turn as in ``resolve``, and the largest residual
        among them all."""
        good, worst = [[] for _ in self.zs], 0.0
        for s in self._batches(shifts):
            for z, masks, (_, _, margin, residual, state) in zip(
                self.zs, good, self._batch(s)
            ):
                worst = max(worst, float(residual.max()))
                masks.append(self._norms_within(state, margin <= 0.0, norm_bound, z))
        return np.concatenate([m for masks in good for m in masks]), worst

    def _norms(self, norm: np.ndarray, z: complex) -> np.ndarray:
        return norm

    def _norms_within(self, norm, ok: np.ndarray, norm_bound: float,
                      z: complex) -> np.ndarray:
        return ok & (norm <= norm_bound)


class _TranslateEngine(_BatchResolver):
    """Resolvents of the translates of one shape at each of its energies.

    The shape's hopping block and pair distances are built once.  Each batch
    of translates adds its potential diagonals to the block and takes the
    Hermitian eigenvalues of the batch from one batched ``eigvalsh``, as
    ``resolvent_norm`` does; H and its spectrum do not depend on z, so one
    spectrum per box serves every energy.  At each energy ||G|| =
    1/min|w - z| comes from that spectrum, and a complex copy of H shifted on
    its diagonal gives G by one batched LU solve of (H - z) G = I, as
    ``greens`` does box by box.  The worst decay pair and the Frobenius
    residual ||(H - z) G - I||_F come from G.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z,
                 c2: float):
        sites = _dense_sites(shape)
        super().__init__(spec, shape, z, c2, sites, BATCH_ENTRIES // len(sites) ** 2)
        self.hopping = hopping_block(spec, self.sites)
        dist = sup_norms(self.sites[:, None, :] - self.sites[None, :, :]).ravel()
        # flat indices of the far pairs, in row-major order, and their c2 |i - j|
        self.far = np.flatnonzero(dist >= self.min_dist)
        self.decay = c2 * dist[self.far]

    def _batch(self, shifts: np.ndarray):
        b, (n, d) = len(shifts), self.sites.shape
        translated = self.sites[None, :, :] + shifts[:, None, :]
        diag = np.arange(n)
        H = np.repeat(self.hopping[None, :, :], b, axis=0)
        H[:, diag, diag] += potential_values(
            self.spec, translated.reshape(-1, d)
        ).reshape(b, n)
        w = np.linalg.eigvalsh(H)
        self.spectra += b
        for z in self.zs:
            nearest = np.hypot(w - z.real, z.imag).min(axis=1)
            if not nearest.all():
                raise np.linalg.LinAlgError(_singular(z))
            A = H.astype(np.complex128)
            A[:, diag, diag] -= z
            G = np.linalg.inv(A)  # the LU solve of A G = I
            # the worst far pair by the margin it reports, -inf where G(i, j) = 0
            with np.errstate(divide="ignore"):
                margins = np.log(np.abs(G.reshape(b, -1)[:, self.far])) + self.decay
            k = margins.argmax(axis=1)
            i, j = np.divmod(self.far[k], n)
            margin = margins[np.arange(b), k]
            yield i, j, margin, _residual_norm(A, G), 1.0 / nearest


def continued_fractions(work: np.ndarray, numerators) -> None:
    """The continued fractions h_k = c_k / (a_k - z - h_{k-1}), h_{-1} = 0,
    along the rows of ``work`` (an array, or a list of its row views), in
    place: row k holds a_k - z on entry and h_k on return, with
    c_k = ``numerators[k]`` (b^2, or 0 on a decoupled padding row, whose h
    is then 0).  This is the one recurrence of the recursive Green's-function
    method: G(k, k) of the last row of a chain is 1/(a_k - z - h_{k-1}), and
    G(i, j) = -(h_i / b) G(i + 1, j) below it.  A row may hold independent
    chains side by side, and one numpy op advances them all."""
    prev = 0.0
    for row, c in zip(work, numerators):
        row -= prev
        np.divide(c, row, out=row)
        prev = row


class _TridiagonalResolver(_BatchResolver):
    """Resolvents of the translates of a 1-d interval at Im z > 0 for a spec
    whose boxes are tridiagonal, by the recursive Green's-function method
    (Thouless & Kirkpatrick, J. Phys. C 14, 235, 1981), in O(n) per box and
    vectorised over a batch of translates.

    The diagonals a of a batch are formed once.  At each energy, with
    hopping b, one ``continued_fractions`` sweep of an (n, 2, batch) array
    gives hL_k = b^2 / (a_k - z - hL_{k-1}) on side 0 and the same from the
    right end on side 1, whose row r is hR_{n-1-r}.
    Then G(j, j) = 1/(a_j - z - hL_{j-1} - hR_{j+1}), and G is complex
    symmetric with G(i, j) = G(j, j) prod_{k=i}^{j-1} (-hL_k / b) for i < j.
    So the decay margin log|G(i, j)| + c2 (j - i) splits into B_j - A_i,
    and a prefix minimum of A over i <= j - ceil(N/10) finds the worst pair
    with no n x n matrix.  The residual is ||(H - z) g - e_j||_2 of the
    column g = G e_j through the worst pair, one masked pass over that array.

    ||G|| = 1/min|w - z| comes from the eigenvalues next to E: a Sturm
    count gives their index and LAPACK bisection (``stebz``) finds them.  A
    verdict needs only ||G|| <= bound, that is, no eigenvalue within
    sqrt(bound^-2 - eps^2) of E, which two Sturm counts decide.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z,
                 c2: float):
        sites = site_list(shape)
        super().__init__(spec, shape, z, c2, sites, RECURSION_ENTRIES // len(sites))
        self.onsite, self.hop = spec.tridiagonal

    def _batch(self, shifts: np.ndarray):
        n = len(self.sites)
        translated = (self.sites + shifts[:, 0]).reshape(-1, 1)
        a = self.onsite + potential_values(self.spec, translated).reshape(n, -1)
        for z in self.zs:
            h, diag = self._fractions(a, z)
            i, j, margin = self._worst_pairs(h[:, 0], diag)
            residual = self._column_residuals(a, h, diag, j, z)
            yield i, j, margin, residual, a

    def _norms_within(self, a, ok: np.ndarray, norm_bound: float,
                      z: complex) -> np.ndarray:
        energy, eps = z.real, z.imag
        radius_sq = norm_bound**-2 - eps**2
        if radius_sq > 0.0 and ok.any():
            r = math.sqrt(radius_sq)
            below = self._counts(a[:, ok], np.array([[energy - r], [energy + r]]))
            ok[ok] = below[0] == below[1]
        return ok

    def _fractions(self, a: np.ndarray, z: complex):
        """The fractions of both sides at z as one (n, 2, b) array, and
        G(j, j) of each translate as an (n, b) array, from its diagonals a."""
        d = a - z
        h = np.stack((d, d[::-1]), axis=1)
        continued_fractions(h, [self.hop * self.hop] * len(a))
        d[1:] -= h[:-1, 0]
        d[:-1] -= h[-2::-1, 1]
        return h, 1.0 / d

    def _worst_pairs(self, hL: np.ndarray, diag: np.ndarray):
        """Index arrays (i, j), i < j, of the worst decay pair of each
        translate, and its margin log|G(i, j)| + c2 (j - i)."""
        (n, b), m = hL.shape, self.min_dist
        if self.hop == 0.0:  # G is diagonal: the first far pair, at |G| = 0
            return np.zeros(b, np.int64), np.full(b, m), np.full(b, -np.inf)
        steps = np.log(np.abs(hL[:-1] / self.hop))
        # A_i = sum_{k < i} log|hL_k / b| + c2 i, B_j = log|G(j, j)| + A_j
        A = np.zeros((n, b))
        np.cumsum(steps, axis=0, out=A[1:])
        A += self.c2 * np.arange(n)[:, None]
        margins = np.log(np.abs(diag[m:])) + A[m:] - np.minimum.accumulate(A[: n - m])
        j = margins.argmax(axis=0)
        margin = margins[j, np.arange(b)]
        j += m
        i = np.where(np.arange(n)[:, None] <= j - m, A, np.inf).argmin(axis=0)
        return i, j, margin

    def _column_residuals(self, a, h, diag, j, z: complex) -> np.ndarray:
        """||(H - z) g - e_j||_2 of each box's column g = G e_j, built in h."""
        n, b = a.shape
        boxes = np.arange(b)
        ends = np.stack((j, n - 1 - j))
        h *= -1.0 / self.hop if self.hop else 0.0
        h[ends, [[0], [1]], boxes] = diag[j, boxes]
        # G(k, j) = -(h_k / b) G(k', j), k' the next site towards j
        for r in range(n - 2, -1, -1):
            np.multiply(h[r], h[r + 1], out=h[r], where=r < ends)
        g = np.where(np.arange(n)[:, None] <= j, h[:, 0], h[::-1, 1])
        r = (a - z) * g
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

    def _norms(self, a: np.ndarray, z: complex) -> np.ndarray:
        """||G|| = 1/min|w - z| of each box, from the eigenvalues on either
        side of E."""
        energy, eps = z.real, z.imag
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


def _resolver(spec: OperatorSpec, shape: ElementaryRegion, z, c2: float):
    """The resolver of the translates of ``shape``: the recursion when the
    boxes are tridiagonal (``OperatorSpec.tridiagonal``) and z lies off
    the real axis, where no pivot of the fractions can vanish; the batched
    engine for every other box (d >= 2, kernel range > 1, complex hopping,
    or eps = 0, where it reports a singular box).  ``z`` is one complex
    energy or a sequence of them that share Im z."""
    zs = _energies(z)
    if _recursive(spec, zs[0].imag):
        return _TridiagonalResolver(spec, shape, zs, c2)
    return _TranslateEngine(spec, shape, zs, c2)


def _recursive(spec: OperatorSpec, epsilon: float) -> bool:
    # the routing rule of ``_resolver``: it reads Im z only
    return spec.tridiagonal is not None and epsilon > 0.0


def check_scan_volume(spec: OperatorSpec, sub_size: int, epsilon: float) -> None:
    """Raise the ValueError that a scan of the shapes of size ``sub_size``
    at Im z = ``epsilon`` would raise when it builds its resolvers: the
    batched engine's volumes are capped at ``MAX_DENSE_POINTS``, and the
    largest shape is the full cube of (2 N1 + 1)^d points.  The 1-d
    recursion has no cap."""
    if not _recursive(spec, epsilon):
        _check_dense((2 * sub_size + 1) ** spec.dimension)


def _verdict(region, z, norm, witness, residual, sigma) -> BoxVerdict:
    good, bound = witness.margin <= 0.0, strong_norm_bound(region.size, sigma)
    return BoxVerdict(
        region, z, norm, bound, witness, good, good and norm <= bound, residual
    )


def classify_box(
    spec: OperatorSpec,
    region: ElementaryRegion,
    z,
    params: ClassificationParams,
) -> BoxVerdict:
    """Good / strongly-good verdict for one elementary region."""
    zc = _as_complex(z)
    resolver = _resolver(spec, region, zc, params.c2)
    (resolved,) = resolver.resolve([(0,) * region.dimension])
    return _verdict(region, zc, *resolved, params.sigma)


def is_good(
    spec: OperatorSpec, region: ElementaryRegion, z, c2: float
) -> tuple[bool, DecayWitness]:
    """Class-G check: |G(n,n')| <= exp(-c2 |n-n'|) for all pairs at
    sup-distance >= ceil(N/10).  Returns the verdict and the worst pair.
    A view of ``classify_box``, so ``c2`` obeys ``ClassificationParams``."""
    verdict = classify_box(spec, region, z, ClassificationParams(c2=c2))
    return verdict.good, verdict.witness


def is_strongly_good(
    spec: OperatorSpec, region: ElementaryRegion, z, c2: float, sigma: float
) -> bool:
    """Class-SG check: class G plus ||G|| <= exp(N^sigma).  A view of
    ``classify_box``, so ``c2`` and ``sigma`` obey ``ClassificationParams``."""
    params = ClassificationParams(c2=c2, sigma=sigma)
    return classify_box(spec, region, z, params).strongly_good


@dataclass(frozen=True)
class BadSetReport:
    """Bad centers of one scan: n is bad when some shape of size N1
    translated to n fails strong goodness.  ``max_residual`` is the largest
    residual (as in ``BoxVerdict.residual``) over the ``boxes`` boxes the
    scan resolved, and ``box_spectra`` the number of dense eigenvalue sets
    it computed."""

    size: int
    sub_size: int
    z: complex
    bad_centers: tuple[Coords, ...]
    total_centers: int
    max_residual: float
    boxes: int
    box_spectra: int

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
    """The shapes of size N1, one resolver per shape, and the scan centers;
    each resolver batches the centers by the size of its own shape."""
    if sub_size >= size:
        raise ValueError("sub-box size must be smaller than the scan size")
    shapes = enumerate_shapes(spec.dimension, sub_size)
    resolvers = [_resolver(spec, s, z, params.c2) for s in shapes]
    if centers is None:
        centers = scan_centers(size, spec.dimension)
    return shapes, resolvers, [site(c) for c in centers]


@dataclass(frozen=True)
class BoxScan:
    """The verdicts of ``scan_boxes`` as (center, shape index, verdict), in
    (energy, center, shape) order; iterating a scan iterates them.
    ``boxes`` counts the resolutions of one box at one energy, and
    ``box_spectra`` the dense eigenvalue sets they took: one per box of the
    batched engine, whatever the number of energies, and none in the 1-d
    recursion."""

    verdicts: tuple[tuple[Coords, int, BoxVerdict], ...]
    box_spectra: int

    @property
    def boxes(self) -> int:
        return len(self.verdicts)

    def __iter__(self) -> Iterator[tuple[Coords, int, BoxVerdict]]:
        return iter(self.verdicts)


def scan_boxes(
    spec: OperatorSpec,
    size: int,
    sub_size: int,
    z,
    params: ClassificationParams,
    centers: Iterable[Coords] | None = None,
) -> BoxScan:
    """Exhaustive verdicts for every center in [-N, N]^d and every shape of
    size N1, at one complex energy ``z`` or at each of a sequence of them
    sharing Im z, in (energy, center, shape) order.

    Each shape's resolver covers every energy, so the batched engine takes
    one spectrum per box for all of them.  ``centers`` restricts the scan to
    a subset, letting a pool of workers split the cube into chunks while
    keeping center order deterministic.  One call holds the verdicts of all
    the centers it is given at every energy, so its memory grows with their
    number; the recipes pass 64 at a time."""
    zs = _energies(z)
    shapes, resolvers, centers = _scan_setup(spec, size, sub_size, zs, params, centers)
    resolved = [resolver.resolve(centers) for resolver in resolvers]
    regions = [[shape.translate(c) for shape in shapes] for c in centers]
    n = len(centers)
    verdicts = tuple(
        (center, shape_id,
         _verdict(region, z, *resolved[shape_id][k * n + c], params.sigma))
        for k, z in enumerate(zs)
        for c, (center, row) in enumerate(zip(centers, regions))
        for shape_id, region in enumerate(row)
    )
    return BoxScan(verdicts, sum(r.spectra for r in resolvers))


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
    _, resolvers, centers = _scan_setup(spec, size, sub_size, zc, params, centers)
    norm_bound = strong_norm_bound(sub_size, params.sigma)
    remaining = centers
    max_residual, boxes = 0.0, 0
    for resolver in resolvers:
        if not remaining:
            break
        good, residual = resolver.verdicts(remaining, norm_bound)
        max_residual = max(max_residual, residual)
        boxes += len(remaining)
        remaining = [c for c, ok in zip(remaining, good.tolist()) if ok]
    good = set(remaining)
    bad = tuple(c for c in centers if c not in good)
    return BadSetReport(size, sub_size, zc, bad, len(centers), max_residual,
                        boxes, sum(r.spectra for r in resolvers))


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
    pts = [(_integer(n, "a scale N"), _integer(c, "a bad count"))
           for n, c in counts]
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
    whole = greens(spec, union, zc)
    G = whole.matrix
    idx1 = [whole._index[p] for p in sites1]
    idx2 = [whole._index[p] for p in sites2]
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
    src = site(source) if source is not None else (0,) * d
    if len(src) != d or sup_norm(src) > radius:
        raise ValueError(
            f"source site {src} must have {d} coordinates and lie in the cube "
            f"of radius {radius}"
        )
    box = ElementaryRegion((0,) * d, radius)
    sites = site_list(box)
    zc = _as_complex(complex(energy, epsilon))
    dist = 1.0 / resolvent_norm(spec, sites, zc)
    if dist < 1.0:
        raise ValueError(
            f"energy {energy} is at distance {dist:.3g} < 1 from the "
            "truncated spectrum"
        )
    A = assemble(spec, sites).astype(np.complex128)
    A[np.diag_indices(len(sites))] -= zc
    rhs = np.zeros(len(sites), dtype=np.complex128)
    rhs[sites.index(src)] = 1.0
    col = sla.solve(A, rhs)
    r, g = sup_norms(sites), np.abs(col)
    annulus = (math.ceil(radius / 4.0) <= r) & (r <= radius // 2) & (g > 0.0)
    if not annulus.any():
        return math.inf
    slope = np.polyfit(r[annulus], np.log(g[annulus]), 1)[0]
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
    c2 - slack (default slack c2/10, and a slack outside [0, c2) raises
    ``ValueError``) for pairs at distance >= ceil(N/10), by ``is_good``."""
    zc = _as_complex(z)
    slack = params.c2 / 10.0 if slack is None else slack
    if not 0.0 <= slack < params.c2:  # so that NaN fails
        raise ValueError(f"slack must lie in [0, c2 = {params.c2}), got {slack}")
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
    rate = params.c2 - slack
    decay_holds, witness = is_good(spec, region, zc, rate) if met else (None, None)
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
