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
``continued_fractions`` sweep of an (n, 2, columns) array holding both
directions of every (energy, translate) pair of a batch, O(n) per box and
no n x n matrix; its residual is that of the column of G through the worst
decay pair.  Every other box takes the
batched engine, which is ``greens`` and
``resolvent_norm`` batched over the translates of one shape: the Hermitian
eigenvalues for ||G||, computed once per box for all energies since H does
not depend on z, then at each energy G = (H - z)^-1 and the Frobenius
residual ||(H - z) G - I||_F, taken as H G - z G - I, a real H in one real
product.  With real hopping H - z is complex symmetric, and a box whose order lies in
``LDL_ORDERS`` is inverted by a Bunch-Kaufman LDL^T factorisation (LAPACK
``zsytrf`` and ``zsytri``, about n^3 flops to LU's 8/3 n^3 against I);
every other box, complex hopping included, by one batched LU solve of
(H - z) G = I.  Dense volumes are capped at desk scale
(``MAX_DENSE_POINTS``, which caps the dense boxes of ``dynamics`` too),
where direct factorisation is the most verifiable route; the per-box
``greens``, an LU solve with an explicit loop over pairs, is the engine's
test oracle, and the engine the recursion's.  Both resolvers run the same
batch loops (``_BatchResolver``): a resolver's ``_batch`` gives, over the
(energy, translate) pairs a scan wants, five arrays, the worst decay pair
(i, j) of each box, its margin, its residual and the state its norms need,
and ``resolve`` places them with ||G|| in arrays indexed [energy, translate],
the one record of a scanned box from ``scan_boxes`` to the CSV.
``bad_sets`` counts bad centers at every energy in one pass, each shape
resolving a center only at the energies where it is still strongly good.
Each decay margin stays in log space, so no bound exp(-c2 |n - n'|) is
formed on the way to a verdict.  Energies are plain complex numbers, and
the multiscale check resolves the tile centers of ``lattice.tile_disjoint``
as one array.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg as sla

from .lattice import (Coords, ElementaryRegion, _integer, enumerate_shapes, site,
                      site_array, sup_norms, tile_disjoint)
from .operators import (
    OperatorSpec,
    assemble,
    hopping_block,
    potential_values,
    site_list,
)

MAX_DENSE_POINTS = 4500


def _as_complex(z) -> complex:
    """z as a complex number; a non-finite z is an error."""
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise ValueError(f"energy {zc} is not finite")
    return zc


def _energies(z) -> tuple[complex, ...]:
    """One complex energy, or each of a sequence of them, as a tuple of
    complex numbers; the energies of one scan share Im z, which picks the
    resolver of every shape."""
    if isinstance(z, numbers.Number):
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
    LU-solved matrix, an upper bound on its spectral norm, taken from the
    complex product A G with A = H - z.  The batched engine's box residuals
    are the same norm of its own G, from LDL^T or LU, taken as
    H G - z G - I (see ``_TranslateEngine``); a box of the 1-d recursion
    reports a single column's residual instead (see ``BoxVerdict``).
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


def _frobenius_from_identity(R: np.ndarray):
    """Frobenius norm of R - I for a complex R, or of each of a stack of
    them: an upper bound on its spectral norm.  One pass, taken in place on
    R: subtract 1 on its diagonal and sum the squares of its real and
    imaginary parts."""
    n = R.shape[-1]
    R[..., np.arange(n), np.arange(n)] -= 1.0
    parts = R.view(np.float64).reshape(*R.shape[:-2], -1)
    return np.sqrt(np.square(parts, out=parts).sum(axis=-1))


def _residual_norm(H: np.ndarray, G: np.ndarray, z: complex):
    """The engine's residual ||(H - z) G - I||_F of each box of a stack,
    taken as H G - z G - I so that no shifted copy of H is kept: a real H
    enters as one real product against the float64 view of G, whose rows
    interleave Re G and Im G, half the flops of the complex product.  It
    differs from ``greens``' (A G - I, A = H - z) at the rounding level."""
    if np.iscomplexobj(H):
        R = H @ G
    else:
        R = (H @ G.view(np.float64)).view(np.complex128)
    R -= z * G
    return _frobenius_from_identity(R)


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
    return GreensMatrix(sites, zc, G, float(_frobenius_from_identity(A @ G)))


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
    verdict came from: the Frobenius norm ||(H - z) G - I||_F of the
    engine's LDL^T or LU inverse (as in ``GreensMatrix.residual``) for a box
    of the batched engine, and ||(H - z) g - e_j||_2 of the column
    g = G e_j through the worst decay pair for a box of the recursion (see
    ``_resolver``).  ``norm_bound`` is exp(N^sigma), or inf where that
    overflows (N^sigma > 709.78).
    """

    region: ElementaryRegion
    z: complex
    norm: float
    norm_bound: float
    witness: DecayWitness
    good: bool
    strongly_good: bool
    residual: float


BATCH_ENTRIES = 1 << 14
# matrix entries per batched solve: bounds the working memory of a scan to a
# few MB whatever the scan size or the task chunk

LDL_ORDERS = range(10, 601)
# the orders of the boxes of real hopping that the engine inverts by LDL^T
# (zsytrf, zsytri), each box by itself; LU (np.linalg.inv) takes the rest.
# Time per box, LDL^T over LU, one BLAS thread: 1.12 at order 9, 0.81 at 11,
# 0.40 at 49, 0.64 at 169, 0.90 at 441, 0.92 at 551, 1.00 at 601, 1.06 at
# 701, 1.15 at 1089, 1.32 at 2401, 1.73 at 4489.  Below 10 the batched LU
# inverts a box in about the time of two LAPACK calls from Python; above
# 600 the unblocked zsytri falls behind the blocked LU

RECURSION_ENTRIES = 1 << 16
# sites per sweep of the recursion (n per box and energy): one full sweep of
# 21-site boxes at two energies peaks at about 6 MB of working arrays (peak
# RSS +6.4 MB on sublinear-1d with scan tasks of 4096 centers).  A scan task
# of k energies holds 2^14 / k box sites, a quarter sweep, or 64 boxes if
# that is more (recipes._scan_tasks), so it is one sweep while 64 k n <= 2^16
# (n <= 512 at two energies) and the loop over sites runs once per task


class _BatchResolver:
    """The batch loops of both resolvers of one shape at one complex energy
    or at each of a sequence of them (``zs``), which share Im z.

    A resolver supplies ``_batch``: for a batch of shifts and a mask
    ``wanted`` of the (energy, translate) pairs to resolve, one row per
    energy, it gives five arrays over the wanted pairs in energy-major order
    (``np.nonzero(wanted)``): the site indices (i, j) of each box's worst
    decay pair, the pair's margin log|G(i, j)| + c2 |i - j|, its residual,
    and the state its norms need.  ``resolve`` places them, with ||G||, in
    arrays indexed [energy, translate], the one record of a resolved box;
    ``witness`` turns one box's (i, j) into a ``DecayWitness``, the one
    place the exponent c2 |i - j| is formed.  ``_norms`` turns the state at
    the energies ``z`` of the pairs into ||G||, and ``_norms_within`` into
    the mask ``ok`` & ||G|| <= bound; by default the state is ||G|| itself.
    ``spectra`` counts the dense eigenvalue sets the resolver has computed.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z,
                 c2: float, sites, batch: int):
        self.spec, self.zs, self.c2 = spec, _energies(z), c2
        self.sites = np.asarray(sites)
        self.min_dist = pair_distance_threshold(shape.size)
        self.batch = max(1, batch)
        self.spectra = 0

    def _batches(self, shifts, wanted):
        """(start, shifts, wanted) of each batch that resolves some pair;
        ``wanted`` defaults to every pair.  The shifts are sites read by
        ``lattice.site_array``; raises ValueError when one has the wrong
        dimension."""
        shifts = np.asarray(shifts).reshape(len(shifts), self.sites.shape[1])
        if wanted is None:
            wanted = np.ones((len(self.zs), len(shifts)), bool)
        return [(s, shifts[s : s + self.batch], wanted[:, s : s + self.batch])
                for s in range(0, len(shifts), self.batch)
                if wanted[:, s : s + self.batch].any()]

    def resolve(self, shifts):
        """(||G||, margin, residual, i, j) of the shape translated by each row
        of ``shifts``: five arrays of shape (energies, shifts), the last two
        the site indices of each box's worst decay pair."""
        zs, shape = np.asarray(self.zs), (len(self.zs), len(shifts))
        norm, margin, residual = np.empty((3, *shape))
        i, j = np.empty((2, *shape), np.int64)
        for start, s, wanted in self._batches(shifts, None):
            bi, bj, margin_b, residual_b, state = self._batch(s, wanted)
            k, t = np.nonzero(wanted)
            t += start
            i[k, t], j[k, t], margin[k, t], residual[k, t] = bi, bj, margin_b, residual_b
            norm[k, t] = self._norms(state, zs[k])
        return norm, margin, residual, i, j

    def witness(self, i: int, j: int, margin: float) -> DecayWitness:
        """The worst decay pair (i, j) of an untranslated box: the one place
        its exponent c2 |i - j| is formed."""
        p, q = self.sites[i], self.sites[j]
        return DecayWitness((tuple(p.tolist()), tuple(q.tolist())), float(margin),
                            float(self.c2 * sup_norms(p - q)))

    def verdicts(self, shifts, norm_bound: float,
                 wanted=None) -> tuple[np.ndarray, np.ndarray]:
        """Mask of the translates that decay and have ||G|| <= norm_bound,
        one row per energy, over the (energy, translate) pairs ``wanted``
        (default all; every other pair reads False), and the largest
        residual at each energy among the wanted pairs (0 where none)."""
        good = np.zeros((len(self.zs), len(shifts)), bool)
        worst = np.zeros(len(self.zs))
        zs = np.asarray(self.zs)
        for start, s, batch_wanted in self._batches(shifts, wanted):
            _, _, margin, residual, state = self._batch(s, batch_wanted)
            k, t = np.nonzero(batch_wanted)
            np.maximum.at(worst, k, residual)
            good[k, start + t] = self._norms_within(state, margin <= 0.0,
                                                    norm_bound, zs[k])
        return good, worst

    def _norms(self, norm: np.ndarray, z: np.ndarray) -> np.ndarray:
        return norm

    def _norms_within(self, norm, ok: np.ndarray, norm_bound: float,
                      z: np.ndarray) -> np.ndarray:
        return ok & (norm <= norm_bound)


class _TranslateEngine(_BatchResolver):
    """Resolvents of the translates of one shape at each of its energies.

    The shape's hopping block and pair distances are built once.  Each batch
    of translates adds its potential diagonals to the block and takes the
    Hermitian eigenvalues of the batch from one batched ``eigvalsh``, as
    ``resolvent_norm`` does; H and its spectrum do not depend on z, so one
    spectrum per box serves every energy.  At each energy, for the
    translates wanted there, ||G|| = 1/min|w - z| comes from that spectrum,
    and one complex stack per energy, H shifted on its diagonal, is
    inverted into G (in place on the LDL^T path).  The worst decay pair
    comes from G, a far entry that underflowed to 0 entering at
    log(2^-1074); a shape whose hopping block has no nonzero entry has an
    exactly diagonal G, and names its first far pair (i < j) at margin
    -inf, as the recursion does at zero hopping.  The Frobenius residual
    ||(H - z) G - I||_F comes from H and G as H G - z G - I
    (``_residual_norm``).

    ``__init__`` picks the inverse once per shape.  With real hopping A is
    complex symmetric, and a shape whose order lies in ``LDL_ORDERS`` takes
    the LDL^T path (``ldl``): each box is factorised by LDL^T (``zsytrf``,
    with its blocked work size) and inverted from the factors (``zsytri``),
    the computed triangle is mirrored into G, and the worst pair is searched
    over the far pairs with i < j only, so a witness has i < j.  Complex
    hopping (A is not symmetric) and every other order keep one batched LU
    solve of A G = I, as ``greens`` does box by box, and search every far
    pair.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z,
                 c2: float):
        sites = _dense_sites(shape)
        n = len(sites)
        super().__init__(spec, shape, z, c2, sites, BATCH_ENTRIES // n**2)
        self.hopping = hopping_block(spec, self.sites)
        self.diagonal = not self.hopping.any()  # so G is diagonal, exactly
        # H - z is complex symmetric when the hopping is real
        self.ldl = spec.is_real and n in LDL_ORDERS
        dist = sup_norms(self.sites[:, None, :] - self.sites[None, :, :])
        far = dist >= self.min_dist
        if self.ldl:
            far = np.triu(far, 1)  # G is symmetric: the pairs i < j suffice
            self.lwork = int(sla.lapack.zsytrf_lwork(n, lower=1)[0].real)
            i, j = np.triu_indices(n, 1)
            self.mirror = (j * n + i, i * n + j)  # flat (j, i) and (i, j), i < j
        # flat indices of the far pairs, in row-major order, and their c2 |i - j|
        self.far = np.flatnonzero(far)
        self.decay = c2 * dist.ravel()[self.far]

    def _batch(self, shifts: np.ndarray, wanted: np.ndarray):
        b, (n, d) = len(shifts), self.sites.shape
        translated = self.sites[None, :, :] + shifts[:, None, :]
        diag = np.arange(n)
        H = np.repeat(self.hopping[None, :, :], b, axis=0)
        H[:, diag, diag] += potential_values(
            self.spec, translated.reshape(-1, d)
        ).reshape(b, n)
        w = np.linalg.eigvalsh(H)
        self.spectra += b
        parts = []
        for z, rows in zip(self.zs, wanted):
            if not rows.any():
                continue
            Hz, wz = (H, w) if rows.all() else (H[rows], w[rows])
            nearest = np.hypot(wz - z.real, z.imag).min(axis=1)
            if not nearest.all():
                raise np.linalg.LinAlgError(_singular(z))
            G = Hz.astype(np.complex128)
            G[:, diag, diag] -= z
            G = self._invert(G, z)
            if self.diagonal:  # G is diagonal: the first far pair, at |G| = 0
                k, margin = np.zeros(len(G), np.int64), np.full(len(G), -np.inf)
            else:
                # the worst far pair by the margin it reports; a far entry
                # that is 0 is only known to lie below 2^-1074, the least
                # subnormal, so it enters at log(2^-1074) = -744.44, not -inf
                moduli = np.abs(G.reshape(len(G), -1)[:, self.far])
                margins = np.log(np.maximum(moduli, math.ulp(0.0), out=moduli),
                                 out=moduli)
                margins += self.decay
                k = margins.argmax(axis=1)
                margin = margins[np.arange(len(G)), k]
            i, j = np.divmod(self.far[k], n)
            parts.append((i, j, margin, _residual_norm(Hz, G, z), 1.0 / nearest))
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _invert(self, A: np.ndarray, z: complex) -> np.ndarray:
        """G = A^-1 of each box of the stack A = H - z: by LU (the solve of
        A G = I, into a new stack), or on the LDL^T path one box at a time
        in place, with the computed triangle mirrored, so that the stack
        returned is A itself."""
        if not self.ldl:
            return np.linalg.inv(A)
        sytrf, sytri = sla.lapack.zsytrf, sla.lapack.zsytri
        lower, upper = self.mirror
        for g in A:
            # g.T is g in Fortran order, its lower triangle g's upper one
            ldu, ipiv, info = sytrf(g.T, lower=1, lwork=self.lwork, overwrite_a=1)
            if info == 0:
                _, info = sytri(ldu, ipiv, lower=1, overwrite_a=1)
            if info != 0:
                raise np.linalg.LinAlgError(_singular(z))
            flat = g.reshape(-1)
            flat[lower] = flat[upper]
        return A


def continued_fractions(work: np.ndarray, numerators) -> None:
    """The continued fractions h_k = c_k / (a_k - z - h_{k-1}), h_{-1} = 0,
    along the rows of ``work`` (an array, or a list of its row views), in
    place: row k holds a_k - z on entry and h_k on return, with
    c_k = ``numerators[k]`` (b^2, or 0 on a decoupled padding row, whose h
    is then 0).  This is the scans' recurrence of the recursive
    Green's-function method, whose logs of h_k / b give the decay margins:
    G(k, k) of the last row of a chain is 1/(a_k - z - h_{k-1}), and
    G(i, j) = -(h_i / b) G(i + 1, j) below it.  (The energy route of
    ``dynamics`` needs only |G|^2 and takes it from the linear three-term
    recurrence instead.)  A row may hold independent chains side by side,
    and one numpy op advances them all."""
    prev = 0.0
    for row, c in zip(work, numerators):
        row -= prev
        np.divide(c, row, out=row)
        prev = row


class _TridiagonalResolver(_BatchResolver):
    """Resolvents of the translates of a 1-d interval at Im z > 0 for a spec
    whose boxes are tridiagonal, by the recursive Green's-function method
    (Thouless & Kirkpatrick, J. Phys. C 14, 235, 1981), in O(n) per box and
    vectorised over a batch of translates at every energy at once.

    The diagonals a of a batch are formed once, and the wanted (energy,
    translate) pairs are stacked energy-major along the batch axis, so one
    sweep covers every energy: a translate batch holds RECURSION_ENTRIES /
    (n energies) boxes, at least one, and a sweep at most RECURSION_ENTRIES
    / n columns.  With hopping b, one ``continued_fractions`` sweep of an
    (n, 2, columns) array gives hL_k = b^2 / (a_k - z - hL_{k-1}) on side 0
    and the same from the right end on side 1, whose row r is hR_{n-1-r}.
    Then G(j, j) = 1/(a_j - z - hL_{j-1} - hR_{j+1}), and G is complex
    symmetric with G(i, j) = G(j, j) prod_{k=i}^{j-1} (-hL_k / b) for i < j.
    So the decay margin log|G(i, j)| + c2 (j - i) splits into B_j - A_i,
    and a prefix minimum of A over i <= j - ceil(N/10) finds the worst pair
    with no n x n matrix.  The residual is ||(H - z) g - e_j||_2 of the
    column g = G e_j through the worst pair, one masked pass over that array.

    ||G|| = 1/min|w - z| comes from the eigenvalues next to E: a Sturm
    count gives their index and LAPACK bisection (``stebz``) finds them.  A
    verdict needs only ||G|| <= bound, that is, no eigenvalue within
    sqrt(bound^-2 - eps^2) of E, which two Sturm counts decide, for every
    column at once.
    """

    def __init__(self, spec: OperatorSpec, shape: ElementaryRegion, z,
                 c2: float):
        sites, zs = site_list(shape), _energies(z)
        super().__init__(spec, shape, zs, c2, sites,
                         RECURSION_ENTRIES // (len(sites) * len(zs)))
        self.onsite, self.hop = spec.tridiagonal

    def _batch(self, shifts: np.ndarray, wanted: np.ndarray):
        n = len(self.sites)
        translated = (self.sites + shifts[:, 0]).reshape(-1, 1)
        a = self.onsite + potential_values(self.spec, translated).reshape(n, -1)
        k, t = np.nonzero(wanted)
        a, z = np.take(a, t, axis=1), np.asarray(self.zs)[k]  # C-ordered columns
        width = max(1, RECURSION_ENTRIES // n)
        sweeps = [self._sweep(a[:, c : c + width], z[c : c + width])
                  for c in range(0, len(t), width)]
        i, j, margin, residual = (np.concatenate(p) for p in zip(*sweeps))
        return i, j, margin, residual, a

    def _sweep(self, a: np.ndarray, z: np.ndarray):
        """(i, j, margin, residual) of the columns of diagonals ``a`` at the
        energies ``z``, one per column."""
        h, diag = self._fractions(a, z)
        i, j, margin = self._worst_pairs(h[:, 0], diag)
        gjj = diag[j, np.arange(len(j))]
        del diag  # the column needs only G(j, j): free the (n, b) array first
        return i, j, margin, self._column_residuals(a, h, gjj, j, z)

    def _norms_within(self, a, ok: np.ndarray, norm_bound: float,
                      z: np.ndarray) -> np.ndarray:
        radius_sq = norm_bound**-2 - self.zs[0].imag ** 2
        if radius_sq > 0.0 and ok.any():
            r, energy = math.sqrt(radius_sq), z.real[ok]
            below = self._counts(a[:, ok], np.stack((energy - r, energy + r)))
            ok[ok] = below[0] == below[1]
        return ok

    def _fractions(self, a: np.ndarray, z: np.ndarray):
        """The fractions of both sides as one (n, 2, b) array, and G(j, j)
        of each column as an (n, b) array, from its diagonals a at its
        energy z."""
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
        # A_i = sum_{k < i} log|hL_k / b| + c2 i, B_j = log|G(j, j)| + A_j,
        # each formed in place
        A = np.zeros((n, b))
        np.log(np.abs(hL[:-1] / self.hop), out=A[1:])
        np.cumsum(A[1:], axis=0, out=A[1:])
        A += self.c2 * np.arange(n)[:, None]
        margins = np.log(np.abs(diag[m:]))
        margins += A[m:]
        margins -= np.minimum.accumulate(A[: n - m])
        j = margins.argmax(axis=0)
        margin = margins[j, np.arange(b)]
        j += m
        i = np.where(np.arange(n)[:, None] <= j - m, A, np.inf).argmin(axis=0)
        return i, j, margin

    def _column_residuals(self, a, h, gjj, j, z: np.ndarray) -> np.ndarray:
        """||(H - z) g - e_j||_2 of each box's column g = G e_j, built in h
        from G(j, j) (``gjj``)."""
        n, b = a.shape
        boxes = np.arange(b)
        ends = np.stack((j, n - 1 - j))
        h *= -1.0 / self.hop if self.hop else 0.0
        h[ends, [[0], [1]], boxes] = gjj
        # G(k, j) = -(h_k / b) G(k', j), k' the next site towards j
        for r in range(n - 2, -1, -1):
            np.multiply(h[r], h[r + 1], out=h[r], where=r < ends)
        g = h[:, 0]  # side 0 below j, side 1 (reversed) above it
        np.copyto(g, h[::-1, 1], where=np.arange(n)[:, None] > j)
        r = a - z
        r *= g
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

    def _norms(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        """||G|| = 1/min|w - z| of each column, from the eigenvalues on
        either side of its E."""
        energy, eps = z.real, self.zs[0].imag
        n = len(a)
        hops = np.full(n - 1, self.hop)
        below = self._counts(a, energy)
        norms = np.empty(a.shape[1])
        for k, count in enumerate(below.tolist()):
            w = sla.eigvalsh_tridiagonal(
                a[:, k], hops, select="i",
                select_range=(max(count - 1, 0), min(count, n - 1)),
                tol=2.0 * np.finfo(float).tiny, lapack_driver="stebz",
            )
            norms[k] = 1.0 / np.hypot(w - energy[k], eps).min()
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


def classify_box(
    spec: OperatorSpec,
    region: ElementaryRegion,
    z,
    params: ClassificationParams,
) -> BoxVerdict:
    """Good / strongly-good verdict for one elementary region."""
    zc = _as_complex(z)
    resolver = _resolver(spec, region, zc, params.c2)
    norm, margin, residual, i, j = (
        a[0, 0].item() for a in resolver.resolve([(0,) * region.dimension]))
    good, bound = margin <= 0.0, strong_norm_bound(region.size, params.sigma)
    return BoxVerdict(region, zc, norm, bound, resolver.witness(i, j, margin),
                      good, good and norm <= bound, residual)


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
    """Bad centers of one scan at one energy: n is bad when some shape of
    size N1 translated to n fails strong goodness.  ``max_residual`` is the
    largest residual (as in ``BoxVerdict.residual``) over the ``boxes``
    boxes the scan resolved at this energy, and ``box_spectra`` the number
    of dense eigenvalue sets the pass that made the report computed, shared
    by every energy of that pass (see ``bad_sets``)."""

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
    """One resolver per shape of size N1, in ``enumerate_shapes`` order, and
    the scan centers as one (m, d) integer array (``lattice.site_array``);
    each resolver batches the centers by the size of its own shape."""
    if sub_size >= size:
        raise ValueError("sub-box size must be smaller than the scan size")
    resolvers = [_resolver(spec, s, z, params.c2)
                 for s in enumerate_shapes(spec.dimension, sub_size)]
    if centers is None:
        centers = scan_centers(size, spec.dimension)
    return resolvers, site_array(centers, spec.dimension)


def _coords(sites: np.ndarray) -> list[Coords]:
    return [tuple(p) for p in sites.tolist()]


@dataclass(frozen=True, eq=False)
class BoxScan:
    """The boxes of ``scan_boxes``: ``norm``, ``margin`` and ``residual``
    (as in ``BoxVerdict``) indexed [energy, center, shape] by the complex
    ``energies``, the rows of the (m, d) array ``centers`` and the shapes in
    ``enumerate_shapes`` order; ``good`` and ``strongly_good`` derive from
    them and ``norm_bound``.  ``box_spectra`` counts the dense eigenvalue
    sets the scan took: one per box of the batched engine for all energies,
    none in the 1-d recursion."""

    energies: tuple[complex, ...]
    centers: np.ndarray
    norm: np.ndarray
    margin: np.ndarray
    residual: np.ndarray
    norm_bound: float
    box_spectra: int

    @property
    def good(self) -> np.ndarray:
        return self.margin <= 0.0

    @property
    def strongly_good(self) -> np.ndarray:
        return self.good & (self.norm <= self.norm_bound)

    @property
    def boxes(self) -> int:
        return self.norm.size


def scan_boxes(
    spec: OperatorSpec,
    size: int,
    sub_size: int,
    z,
    params: ClassificationParams,
    centers: Iterable[Coords] | None = None,
) -> BoxScan:
    """Exhaustive norms, margins and residuals for every center in
    [-N, N]^d and every shape of size N1, at one complex energy ``z`` or at
    each of a sequence of them sharing Im z, as the arrays of a ``BoxScan``;
    no per-box object is built.

    Each shape's resolver covers every energy, so the batched engine takes
    one spectrum per box for all of them.  ``centers`` restricts the scan to
    a subset, letting a pool of workers split the cube into chunks while
    keeping center order deterministic.  One call holds three floats per box
    of the centers it is given at every energy; a recipe task passes 2^14
    box sites per energy of them, at least 64 centers
    (``recipes._scan_tasks``)."""
    zs = _energies(z)
    resolvers, centers = _scan_setup(spec, size, sub_size, zs, params, centers)
    norm, margin, residual = (
        np.stack(arrays, axis=-1)
        for arrays in zip(*(r.resolve(centers)[:3] for r in resolvers)))
    return BoxScan(zs, centers, norm, margin, residual,
                   strong_norm_bound(sub_size, params.sigma),
                   sum(r.spectra for r in resolvers))


def bad_sets(
    spec: OperatorSpec,
    size: int,
    sub_size: int,
    z,
    params: ClassificationParams,
    centers: Iterable[Coords] | None = None,
) -> tuple[BadSetReport, ...]:
    """``bad_set`` at one complex energy ``z`` or at each of a sequence of
    them sharing Im z, in one pass: one report per energy, with the bad
    centers and the ``boxes`` of that energy's own ``bad_set``.  Its
    ``max_residual`` is a rounding-level figure, and numpy may round a
    column of a wider sweep differently in its last bits.

    The resolvers and the centers are set up once.  Each shape resolves
    the centers still strongly good at one or more energies, at exactly
    the energies where they still are, so a report resolves the boxes its
    one-energy scan would; the 1-d recursion stacks those energies into one
    sweep per batch, and the batched engine takes one spectrum per box for
    all of them, counted once in every report's ``box_spectra``."""
    zs = _energies(z)
    resolvers, centers = _scan_setup(spec, size, sub_size, zs, params, centers)
    norm_bound = strong_norm_bound(sub_size, params.sigma)
    # alive[k, c]: center remaining[c] is strongly good at zs[k] so far
    remaining = np.arange(len(centers))
    alive = np.ones((len(zs), len(centers)), bool)
    max_residual, boxes = np.zeros(len(zs)), np.zeros(len(zs), np.int64)
    for resolver in resolvers:
        if not len(remaining):
            break
        boxes += alive.sum(axis=1)
        alive, residual = resolver.verdicts(centers[remaining], norm_bound, alive)
        max_residual = np.maximum(max_residual, residual)
        keep = alive.any(axis=0)
        remaining, alive = remaining[keep], alive[:, keep]
    good = np.zeros((len(zs), len(centers)), bool)
    good[:, remaining] = alive
    spectra = sum(r.spectra for r in resolvers)
    return tuple(
        BadSetReport(size, sub_size, zk, tuple(_coords(centers[~ok])), len(centers),
                     float(residual), int(n), spectra)
        for zk, ok, residual, n in zip(zs, good, max_residual, boxes)
    )


def bad_set(
    spec: OperatorSpec,
    size: int,
    sub_size: int,
    z,
    params: ClassificationParams,
    centers: Iterable[Coords] | None = None,
) -> BadSetReport:
    """Scan of [-N, N]^d for centers with a non-strongly-good shape at one
    complex energy: the one-energy view of ``bad_sets``.

    Each shape only resolves the centers that every earlier shape left
    strongly good."""
    (report,) = bad_sets(spec, size, sub_size, (_as_complex(z),), params, centers)
    return report


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


def _sub_box_scale(N: int, xi: float) -> int:
    """floor(N^xi), read from the float power and corrected by one step
    where M^(1/xi), taken in integers when 1/xi is one, shows that the power
    rounded across an integer (1000 ** (1/3) is 9.999999999999998)."""
    M, root = int(N**xi), 1.0 / xi
    root = int(root) if root.is_integer() else root
    if (M + 1) ** root <= N:
        return M + 1
    if M**root > N:
        return M - 1
    return M


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
    ``ValueError``) for pairs at distance >= ceil(N/10) by ``classify_box``."""
    zc = _as_complex(z)
    slack = params.c2 / 10.0 if slack is None else slack
    if not 0.0 <= slack < params.c2:  # so that NaN fails
        raise ValueError(f"slack must lie in [0, c2 = {params.c2}), got {slack}")
    N = region.size
    M = _sub_box_scale(N, params.xi)
    if M < 10:
        raise ValueError("sub-box scale N^xi must be at least 10")
    tiles = tile_disjoint(region, M)  # the tile centers, one row each
    cube = _resolver(
        spec, ElementaryRegion((0,) * region.dimension, M), zc, params.c2
    )
    (decays,), _ = cube.verdicts(tiles, math.inf)
    bad = int(np.count_nonzero(~decays))
    bound = N**params.varsigma / N**params.xi
    met = bad <= bound
    rate = params.c2 - slack
    host = classify_box(spec, region, zc, ClassificationParams(c2=rate)) if met else None
    return MultiscaleReport(
        size=N,
        sub_size=M,
        bad_sub_boxes=bad,
        sub_box_total=len(tiles),
        count_bound=bound,
        hypothesis_met=met,
        decay_holds=host.good if met else None,
        required_rate=rate,
        witness=host.witness if met else None,
    )
