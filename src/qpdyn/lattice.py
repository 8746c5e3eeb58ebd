"""Lattice sites in Z^d and the geometry of finite regions of them.

Every module reads sites, offsets, frequencies and sources by the one
site reader (``site``), an array of sites such as the centers of a scan by
its array form (``site_array``), and measures them by the one sup norm, of
a site (``sup_norm``) or along an integer array (``sup_norms``): Python and
NumPy integers pass, and any other number raises ``ValueError`` rather
than being truncated, as do region sizes, half widths and cut offsets.
The regions, all measured in the sup norm, are cubes with an optional
sector cut (``ElementaryRegion``) and every such shape of one size
(``enumerate_shapes``), and rectangles with a rectangular notch
(``GeneralizedRegion``): descriptors whose point sets are only
materialised transiently by iterating ``points()``.  ``tile_disjoint``
lays disjoint cubes of one size on a grid in a host region and returns
their centers as a site array.

Everything here is an immutable value with pure methods, so the module is
safe to use from any number of concurrent workers.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Coords = tuple[int, ...]

LESS = "<"
GREATER = ">"
_MARKERS = (None, LESS, GREATER)


def _integer(value, what: str) -> int:
    """``value`` as an int: Python and NumPy integers pass, and anything
    else, a bool or a float of integral value too, is an error rather than
    read as a number."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None


def site(p: Sequence[int]) -> Coords:
    """The site (or kernel offset, or frequency) ``p`` as a tuple of ints;
    a coordinate that is not an integer raises ``ValueError``."""
    return tuple(_integer(c, "a site coordinate") for c in p)


def sup_norm(n: Sequence[int]) -> int:
    """|n| = max_i |n_i| of one site."""
    return max(map(abs, site(n)))


def _integer_array(sites) -> np.ndarray:
    """``sites`` as an array of an integer dtype; any other dtype, floats of
    integral value too, raises ``ValueError``."""
    sites = np.asarray(sites)
    if not np.issubdtype(sites.dtype, np.integer):
        raise ValueError(f"a site coordinate must be an integer, not {sites.dtype}")
    return sites


def site_array(points, d: int) -> np.ndarray:
    """The sites ``points`` of Z^d as one (m, d) integer array, read by the
    rule of ``sup_norms``: a coordinate that is not an integer, or a site
    with other than d coordinates, raises ``ValueError``."""
    points = points if isinstance(points, np.ndarray) else list(points)
    if len(points) == 0:
        return np.empty((0, d), np.int64)
    sites = _integer_array(points)
    if sites.ndim != 2 or sites.shape[1] != d:
        raise ValueError(f"a site must have {d} coordinates")
    return sites


def sup_norms(sites) -> np.ndarray:
    """|n| along the last axis of an integer array of sites or of site
    differences, as floats (exact); any other dtype raises ``ValueError``."""
    return np.abs(_integer_array(sites)).max(axis=-1).astype(float)


@dataclass(frozen=True)
class ElementaryRegion:
    """A translated cube ``center + [-N, N]^d`` with an optional sector removed.

    The sector is the set of relative points whose marked coordinates all
    satisfy the strict inequality given by the marker (``"<"`` or ``">"``).
    A valid sector marks at least two axes; an empty marker tuple (or all
    ``None``) means the full cube.  In one dimension the full interval is
    the only shape.
    """

    center: Coords
    size: int
    sector: tuple[str | None, ...] = ()

    def __post_init__(self) -> None:
        center = tuple(_integer(c, "a center coordinate") for c in self.center)
        object.__setattr__(self, "center", center)
        if not center:
            raise ValueError("dimension must be at least 1")
        size = _integer(self.size, "size")
        if size < 1:
            raise ValueError("size must be a positive integer")
        object.__setattr__(self, "size", size)
        sector = tuple(self.sector) if self.sector else (None,) * len(center)
        if len(sector) != len(center):
            raise ValueError("sector markers must match the dimension")
        if any(s not in _MARKERS for s in sector):
            raise ValueError(f"sector markers must be one of {_MARKERS}")
        marked = sum(s is not None for s in sector)
        if marked == 1:
            raise ValueError("a sector cut needs at least two marked axes")
        object.__setattr__(self, "sector", sector)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def _in_sector(self, rel: Coords) -> bool:
        """Whether a point relative to the center lies in the removed sector."""
        marked = [(r, s) for r, s in zip(rel, self.sector) if s is not None]
        return bool(marked) and all(r < 0 if s == LESS else r > 0 for r, s in marked)

    def contains(self, n: Sequence[int]) -> bool:
        rel = tuple(a - c for a, c in zip(site(n), self.center, strict=True))
        return all(abs(r) <= self.size for r in rel) and not self._in_sector(rel)

    def points(self) -> Iterator[Coords]:
        rng = range(-self.size, self.size + 1)
        for rel in itertools.product(rng, repeat=self.dimension):
            if not self._in_sector(rel):
                yield tuple(r + c for r, c in zip(rel, self.center))

    def translate(self, k: Sequence[int]) -> "ElementaryRegion":
        center = tuple(c + a for c, a in zip(self.center, k, strict=True))
        return ElementaryRegion(center, self.size, self.sector)


@dataclass(frozen=True)
class GeneralizedRegion:
    """A rectangle ``{n : |n_i - center_i| <= half_widths_i}`` minus an
    optional translate of itself (the translate offset is ``cut``)."""

    center: Coords
    half_widths: Coords
    cut: Coords | None = None

    def __post_init__(self) -> None:
        center = tuple(_integer(c, "a center coordinate") for c in self.center)
        widths = tuple(_integer(m, "a half width") for m in self.half_widths)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_widths", widths)
        if not center:
            raise ValueError("dimension must be at least 1")
        if len(widths) != len(center):
            raise ValueError("half_widths must match the dimension")
        if any(m < 0 for m in widths):
            raise ValueError("half widths must be non-negative")
        if self.cut is not None:
            cut = tuple(_integer(y, "a cut offset") for y in self.cut)
            if len(cut) != len(center):
                raise ValueError("cut offset must match the dimension")
            object.__setattr__(self, "cut", cut)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def _in_rectangle(self, n: Sequence[int], shift: Coords | None = None) -> bool:
        s = shift or (0,) * self.dimension
        return all(
            abs(a - c - y) <= m
            for a, c, y, m in zip(site(n), self.center, s, self.half_widths, strict=True)
        )

    def contains(self, n: Sequence[int]) -> bool:
        if not self._in_rectangle(n):
            return False
        if self.cut is None:
            return True
        return not self._in_rectangle(n, self.cut)

    def points(self) -> Iterator[Coords]:
        ranges = [
            range(c - m, c + m + 1) for c, m in zip(self.center, self.half_widths)
        ]
        for n in itertools.product(*ranges):
            if self.cut is None or not self._in_rectangle(n, self.cut):
                yield n


def enumerate_shapes(d: int, size: int) -> list[ElementaryRegion]:
    """Every distinct elementary-region shape of a given size centered at 0.

    For d == 1 this is the single interval; for d >= 2 the full cube plus
    every sector cut with at least two marked axes, 3^d - 2d shapes total.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if _integer(size, "size") < 1:
        raise ValueError("size must be a positive integer")
    origin = (0,) * d
    shapes = [ElementaryRegion(origin, size)]
    for sector in itertools.product(_MARKERS, repeat=d):
        if sum(s is not None for s in sector) >= 2:
            shapes.append(ElementaryRegion(origin, size, sector))
    return shapes


def tile_disjoint(host: ElementaryRegion, size: int) -> np.ndarray:
    """Centers of a maximal grid tiling of a host region by disjoint size-M
    cubes, as one (m, d) integer array in grid order.

    Cubes are placed on the regular grid anchored at the host's low corner
    with stride 2M + 1, so no two overlap; grid cubes that are not fully
    inside the host (a sector cut can clip them) are dropped.
    """
    if _integer(size, "tile size") < 1:
        raise ValueError("tile size must be a positive integer")
    if size > host.size:
        raise ValueError("tile size exceeds the host size")
    side = 2 * size + 1
    per_axis = (2 * host.size + 1) // side
    starts = [c - host.size + size for c in host.center]
    centers = []
    for steps in itertools.product(range(per_axis), repeat=host.dimension):
        center = tuple(s + side * k for s, k in zip(starts, steps))
        if all(map(host.contains, ElementaryRegion(center, size).points())):
            centers.append(center)
    return site_array(centers, host.dimension)
