"""Covariant long-range kernels, quasi-periodic potentials, and the
finite-volume Hermitian matrices they assemble into.

A kernel is a finite Toeplitz table S(k) indexed by lattice offsets and
validated against Hermiticity, S(k) = conj(S(-k)), and an exponential decay
envelope |S(k)| <= C1 exp(-c1 |k|).  The lattice operator is

    H(n, n') = S(n - n') / coupling + v(f^n(x)) [n = n']

where f is a torus shift and v a real trigonometric polynomial.  Specs are
immutable (and hashable, so eigendecompositions can be cached per spec).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lattice import (Coords, ElementaryRegion, GeneralizedRegion, site, site_array,
                      sup_norm)

LINEAR_FORM = "linear-form"
RANK_ONE = "rank-one"
PRODUCT = "product"
_MODES = (LINEAR_FORM, RANK_ONE, PRODUCT)


def _freeze(mapping: Mapping) -> tuple:
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class KernelSpec:
    """Finite Toeplitz kernel with an exponential decay certificate.

    ``coefficients`` maps offsets k in Z^d to S(k); missing offsets are zero.
    Construction checks that the table is Hermitian (so assembled matrices
    are exactly Hermitian) and that every stored value respects the decay
    envelope given by ``decay_amplitude`` (C1) and ``decay_rate`` (c1).
    """

    dimension: int
    coefficients: tuple[tuple[Coords, complex], ...]
    decay_amplitude: float = math.e
    decay_rate: float = 1.0
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not (self.decay_amplitude > 0 and self.decay_rate > 0):  # NaN fails
            raise ValueError("decay constants must be positive")
        table = {}
        for k, v in self.coefficients:
            k = site(k)
            if len(k) != self.dimension:
                raise ValueError(f"offset {k} has the wrong dimension")
            table[k] = complex(v)
            if not cmath.isfinite(table[k]):
                raise ValueError(f"kernel value {v} at offset {k} is not finite")
        for k, v in table.items():
            neg = tuple(-c for c in k)
            if neg not in table or table[neg] != v.conjugate():
                raise ValueError(f"kernel is not Hermitian at offset {k}")
            if any(k) and abs(v) > self.decay_amplitude * math.exp(
                -self.decay_rate * sup_norm(k)
            ):
                raise ValueError(f"kernel violates the decay envelope at {k}")
        object.__setattr__(
            self, "coefficients", tuple(sorted(table.items()))
        )
        object.__setattr__(self, "_table", table)

    @classmethod
    def zero(cls, dimension: int = 1) -> "KernelSpec":
        return cls(dimension, ())

    @classmethod
    def laplacian(cls, dimension: int = 1) -> "KernelSpec":
        """Nearest-neighbour hopping: S(+-e_i) = 1."""
        coeffs = {}
        for i in range(dimension):
            e = tuple(1 if j == i else 0 for j in range(dimension))
            coeffs[e] = 1.0
            coeffs[tuple(-c for c in e)] = 1.0
        return cls(dimension, _freeze(coeffs))

    @classmethod
    def toeplitz(
        cls,
        coefficients: Mapping[Coords, complex],
        decay_amplitude: float,
        decay_rate: float,
    ) -> "KernelSpec":
        """Kernel from an explicit offset table; the conjugate at -k is
        filled in when missing."""
        table = {tuple(k): complex(v) for k, v in coefficients.items()}
        for k, v in list(table.items()):
            table.setdefault(tuple(-c for c in k), v.conjugate())
        dimension = len(next(iter(table), (0,)))
        return cls(dimension, _freeze(table), decay_amplitude, decay_rate)

    def value(self, offset: Coords) -> complex:
        return self._table.get(offset, 0.0 + 0.0j)

    def offsets(self) -> Iterable[Coords]:
        return self._table.keys()

    def row_sum(self) -> float:
        """sup_n sum_k |S(k)|, exact for a finite table."""
        return sum(abs(v) for v in self._table.values())

    @property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for v in self._table.values())


@dataclass(frozen=True)
class PotentialSpec:
    """Real trigonometric polynomial on the torus T^b.

    v(theta) = constant + sum_k cos_k cos(2 pi k.theta)
                        + sum_k sin_k sin(2 pi k.theta)
    with real coefficients indexed by integer frequency vectors.
    ``values`` is the one evaluator; calling the spec at one point is a
    view of it.
    """

    torus_dim: int
    constant: float = 0.0
    cosine: tuple[tuple[Coords, float], ...] = ()
    sine: tuple[tuple[Coords, float], ...] = ()

    def __post_init__(self) -> None:
        if self.torus_dim < 1:
            raise ValueError("torus dimension must be at least 1")
        if not math.isfinite(self.constant):
            raise ValueError(f"constant {self.constant} is not finite")
        for name in ("cosine", "sine"):
            terms = []
            for k, a in getattr(self, name):
                k = site(k)
                if len(k) != self.torus_dim:
                    raise ValueError(f"frequency {k} has the wrong dimension")
                a = float(a)
                if not math.isfinite(a):
                    raise ValueError(
                        f"coefficient {a} of frequency {k} is not finite"
                    )
                terms.append((k, a))
            object.__setattr__(self, name, tuple(sorted(terms)))

    @classmethod
    def constant_value(cls, c: float, torus_dim: int = 1) -> "PotentialSpec":
        return cls(torus_dim, constant=c)

    @classmethod
    def cosine_series(
        cls, coefficients: Mapping[Coords, float], torus_dim: int | None = None
    ) -> "PotentialSpec":
        coeffs = {tuple(k): float(a) for k, a in coefficients.items()}
        b = torus_dim or len(next(iter(coeffs)))
        return cls(b, cosine=_freeze(coeffs))

    def __call__(self, theta: Sequence[float]) -> float:
        """v(theta) at one point of the torus."""
        return float(self.values([theta])[0])

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorised evaluation; ``thetas`` has shape (m, torus_dim)."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] != self.torus_dim:
            raise ValueError(f"points of dimension {thetas.shape[1]} are not "
                             f"on a torus of torus_dim {self.torus_dim}")
        out = np.full(thetas.shape[0], self.constant)
        for k, a in self.cosine:
            out += a * np.cos(2.0 * np.pi * (thetas @ np.asarray(k, dtype=float)))
        for k, a in self.sine:
            out += a * np.sin(2.0 * np.pi * (thetas @ np.asarray(k, dtype=float)))
        return out

    def sup_bound(self) -> float:
        """l1 coefficient bound on sup |v|."""
        return (
            abs(self.constant)
            + sum(abs(a) for _, a in self.cosine)
            + sum(abs(a) for _, a in self.sine)
        )


@dataclass(frozen=True)
class ShiftDynamics:
    """Torus shift orbits n -> f^n(x).

    mode "linear-form": d = 1, any torus dimension b, f^n(x) = x + n alpha.
    mode "rank-one":    b = 1, any lattice dimension d, the phase advances
                        by n . alpha with one alpha component per axis.
    mode "product":     d = b, component-wise x_i + n_i alpha_i.

    ``orbit_array`` is the one evaluator, and ``orbit`` a view of it for one
    site; a site whose dimension the mode does not take raises ValueError.
    """

    mode: str
    alpha: tuple[float, ...]
    phase: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        alpha = tuple(map(float, self.alpha))
        phase = tuple(map(float, self.phase))
        if not all(map(math.isfinite, alpha + phase)):
            raise ValueError("alpha and phase must be finite")
        object.__setattr__(self, "alpha", tuple(a % 1.0 for a in alpha))
        object.__setattr__(self, "phase", tuple(x % 1.0 for x in phase))
        if self.mode == LINEAR_FORM and len(phase) != len(alpha):
            raise ValueError("linear-form needs one alpha per torus axis")
        if self.mode == RANK_ONE and len(phase) != 1:
            raise ValueError("rank-one drives a one-dimensional torus")
        if self.mode == PRODUCT and len(phase) != len(alpha):
            raise ValueError("product mode needs d = b")

    @property
    def torus_dim(self) -> int:
        return len(self.phase)

    def lattice_dim_compatible(self, d: int) -> bool:
        if self.mode == LINEAR_FORM:
            return d == 1
        return d == len(self.alpha)

    def orbit(self, n: Sequence[int]) -> tuple[float, ...]:
        """f^n(x) for a lattice site n."""
        return tuple(self.orbit_array([n])[0].tolist())

    def orbit_array(self, sites: np.ndarray) -> np.ndarray:
        """Orbit points for an (m, d) integer site array, shape (m, b)."""
        sites = np.atleast_2d(np.asarray(sites, dtype=float))
        if not self.lattice_dim_compatible(sites.shape[1]):
            raise ValueError(f"{self.mode} dynamics take no site of "
                             f"dimension {sites.shape[1]}")
        alpha = np.asarray(self.alpha, dtype=float)
        phase = np.asarray(self.phase, dtype=float)
        if self.mode == RANK_ONE:
            return (phase[0] + sites @ alpha)[:, None] % 1.0
        # linear-form broadcasts its one index over the b axes; product pairs
        # axis i with alpha_i
        return (phase + sites * alpha) % 1.0


@dataclass(frozen=True)
class OperatorSpec:
    """H = kernel / coupling + v(f^n(x)) on the diagonal."""

    kernel: KernelSpec
    potential: PotentialSpec
    dynamics: ShiftDynamics
    coupling: float = 1.0

    def __post_init__(self) -> None:
        if not self.coupling > 0:  # so that NaN fails
            raise ValueError("coupling must be positive")
        if not self.dynamics.lattice_dim_compatible(self.kernel.dimension):
            raise ValueError(
                "shift dynamics are incompatible with the lattice dimension"
            )
        if self.potential.torus_dim != self.dynamics.torus_dim:
            raise ValueError("potential and dynamics torus dimensions differ")

    @property
    def dimension(self) -> int:
        return self.kernel.dimension

    @property
    def is_real(self) -> bool:
        return self.kernel.is_real

    @property
    def tridiagonal(self) -> tuple[float, float] | None:
        """The band (S(0), S(1)) / coupling when every box is real symmetric
        tridiagonal (1-d, a real kernel, offsets |k| <= 1), else None; band
        (0.0, 1.0) is H = v + the Laplacian of ``lyapunov_estimate``."""
        if self.dimension != 1 or not self.is_real or any(
            abs(k) > 1 for (k,) in self.kernel.offsets()
        ):
            return None
        return self.hopping((0,)), self.hopping((1,))

    @property
    def spectral_bound(self) -> float:
        """K with the spectrum inside [-K + 1, K - 1].

        Row-sum bound: sup_n sum_n' |H(n, n')| <= row_sum(S)/coupling
        + sup|v|, and the spectrum of a Hermitian operator lies within the
        sup row sum.
        """
        return (
            1.0
            + self.kernel.row_sum() / self.coupling
            + self.potential.sup_bound()
        )

    def hopping(self, offset: Coords) -> float | complex:
        """H(n, n - k) = S(k) / coupling for the offset k, real when the
        kernel is; k = 0 gives the kernel's on-site part."""
        v = self.kernel.value(offset)
        inv = 1.0 / self.coupling
        return v.real * inv if self.is_real else v * inv

    def potential_at(self, n: Coords) -> float:
        return float(potential_values(self, [n])[0])

    def with_phase(self, phase: Sequence[float]) -> "OperatorSpec":
        dyn = ShiftDynamics(self.dynamics.mode, self.dynamics.alpha, tuple(phase))
        return OperatorSpec(self.kernel, self.potential, dyn, self.coupling)

    def fingerprint(self) -> str:
        import hashlib

        text = repr(
            (
                self.kernel.coefficients,
                self.kernel.decay_amplitude,
                self.kernel.decay_rate,
                self.potential.constant,
                self.potential.cosine,
                self.potential.sine,
                self.dynamics.mode,
                self.dynamics.alpha,
                self.dynamics.phase,
                self.coupling,
            )
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def site_list(region_or_points) -> tuple[Coords, ...]:
    """Canonical (lexicographically sorted) site tuple for a region or an
    explicit iterable of lattice points.  A region's points are integer
    tuples already in that order; an explicit point is read by
    ``lattice.site``, so a coordinate that is not an integer raises
    ``ValueError``, and the points are sorted."""
    if isinstance(region_or_points, (ElementaryRegion, GeneralizedRegion)):
        return tuple(region_or_points.points())
    return tuple(sorted(map(site, region_or_points)))


def potential_values(spec: OperatorSpec, sites: Sequence[Coords]) -> np.ndarray:
    arr = np.asarray(sites, dtype=float)
    return spec.potential.values(spec.dynamics.orbit_array(arr))


def hopping_block(spec: OperatorSpec, sites: np.ndarray) -> np.ndarray:
    """Kernel part S(n - n') / coupling of the volume matrix.

    ``sites`` is an (m, d) array of distinct sites, read by
    ``lattice.site_array``; rows and columns follow its order.  A dict from
    site to row finds, for each kernel offset k, the row of every target
    p - k inside the volume, so any coordinate range works.  Each (row, col)
    pair has one offset, so every entry is zero plus one hop.  The block
    depends only on site differences, so every translate of a volume
    shares it.
    """
    sites = site_array(sites, spec.dimension)
    n = len(sites)
    H = np.zeros((n, n), dtype=np.float64 if spec.is_real else np.complex128)
    row_of = {p: i for i, p in enumerate(map(tuple, sites.tolist()))}
    for k, _ in spec.kernel.coefficients:
        targets = map(tuple, (sites - k).tolist())
        cols = np.fromiter((row_of.get(q, -1) for q in targets), np.int64, n)
        rows = np.flatnonzero(cols >= 0)
        H[rows, cols[rows]] += spec.hopping(k)
    return H


def assemble(spec: OperatorSpec, region_or_points) -> np.ndarray:
    """Finite-volume matrix of H over the canonical site ordering.

    Returns a real array when the kernel table is real, complex otherwise;
    either way the matrix equals its conjugate transpose exactly because the
    kernel table is validated Hermitian.
    """
    sites = site_list(region_or_points)
    if not sites:
        raise ValueError("region is empty")
    H = hopping_block(spec, np.asarray(sites))
    H[np.diag_indices(len(sites))] += potential_values(spec, sites)
    return H


def free_laplacian(dimension: int = 1) -> OperatorSpec:
    """Pure nearest-neighbour hopping with zero potential."""
    return OperatorSpec(
        KernelSpec.laplacian(dimension),
        PotentialSpec.constant_value(0.0),
        _trivial_dynamics(dimension),
    )


def diagonal_model(
    potential: PotentialSpec, dynamics: ShiftDynamics, dimension: int = 1
) -> OperatorSpec:
    return OperatorSpec(KernelSpec.zero(dimension), potential, dynamics)


def almost_mathieu(
    lam: float, alpha: float, phase: float = 0.0
) -> OperatorSpec:
    """Nearest-neighbour hopping plus 2 lam cos(2 pi (x + n alpha))."""
    return OperatorSpec(
        KernelSpec.laplacian(1),
        PotentialSpec.cosine_series({(1,): 2.0 * lam}),
        ShiftDynamics(LINEAR_FORM, (alpha,), (phase,)),
    )


def _trivial_dynamics(dimension: int) -> ShiftDynamics:
    if dimension == 1:
        return ShiftDynamics(LINEAR_FORM, (0.0,), (0.0,))
    return ShiftDynamics(RANK_ONE, (0.0,) * dimension, (0.0,))


@dataclass(frozen=True)
class StateVector:
    """Finitely supported complex amplitudes on Z^d.  ``amplitudes`` is a
    read-only copy of the mapping given, its keys read by ``lattice.site``
    (a coordinate that is not an integer raises ``ValueError``), so the
    site and finiteness checks hold for the life of the state."""

    amplitudes: Mapping[Coords, complex]

    def __post_init__(self) -> None:
        amplitudes = {site(k): complex(v) for k, v in self.amplitudes.items()}
        if not all(map(cmath.isfinite, amplitudes.values())):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", MappingProxyType(amplitudes))

    def __reduce__(self):
        # a mapping proxy does not pickle; the plain mapping does
        return StateVector, (dict(self.amplitudes),)

    @classmethod
    def delta(cls, site: Coords) -> "StateVector":
        return cls({tuple(site): 1.0 + 0.0j})

    @property
    def support(self) -> tuple[Coords, ...]:
        return tuple(sorted(self.amplitudes))

    @property
    def support_radius(self) -> int:
        return max(sup_norm(p) for p in self.amplitudes) if self.amplitudes else 0

    def norm_sq(self) -> float:
        return sum(abs(v) ** 2 for v in self.amplitudes.values())

    def dense(self, sites: Sequence[Coords]) -> np.ndarray:
        """Amplitudes on ``sites``, in their order; every support site must
        be one of them."""
        out = np.zeros(len(sites), dtype=np.complex128)
        found = 0
        for i, p in enumerate(sites):
            v = self.amplitudes.get(p)
            if v is not None:
                out[i] = v
                found += 1
        if found < len(self.amplitudes):
            missing = sorted(set(self.amplitudes).difference(sites))
            raise ValueError(f"support sites {missing} are not among the sites")
        return out
