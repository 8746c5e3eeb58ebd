"""Geometry of finite lattice regions in Z^d.

The module holds the sup norm (``sup_norm``), cubes with an optional sector
cut (``ElementaryRegion``) and every such shape of one size
(``enumerate_shapes``), rectangles with a rectangular notch
(``GeneralizedRegion``), and disjoint cubes of one size in a host region
(``RegionFamily``), laid on a grid by ``tile_disjoint``.  All distances are
sup-norm.  Regions are stored as descriptors (center, size, sector
markers); point sets are only ever materialised transiently by iterating
``points()``.

Everything here is an immutable value with pure methods, so the module is
safe to use from any number of concurrent workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

Coords = tuple[int, ...]

LESS = "<"
GREATER = ">"
_MARKERS = (None, LESS, GREATER)


def sup_norm(n: Sequence[int]) -> int:
    """|n| = max_i |n_i|."""
    return max(abs(int(c)) for c in n)


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
        center = tuple(int(c) for c in self.center)
        object.__setattr__(self, "center", center)
        if not center:
            raise ValueError("dimension must be at least 1")
        if self.size < 1:
            raise ValueError("size must be a positive integer")
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
        rel = tuple(int(a) - c for a, c in zip(n, self.center, strict=True))
        return all(abs(r) <= self.size for r in rel) and not self._in_sector(rel)

    def points(self) -> Iterator[Coords]:
        rng = range(-self.size, self.size + 1)
        for rel in itertools.product(rng, repeat=self.dimension):
            if not self._in_sector(rel):
                yield tuple(r + c for r, c in zip(rel, self.center))

    def translate(self, k: Sequence[int]) -> "ElementaryRegion":
        center = tuple(c + int(a) for c, a in zip(self.center, k, strict=True))
        return ElementaryRegion(center, self.size, self.sector)


@dataclass(frozen=True)
class GeneralizedRegion:
    """A rectangle ``{n : |n_i - center_i| <= half_widths_i}`` minus an
    optional translate of itself (the translate offset is ``cut``)."""

    center: Coords
    half_widths: Coords
    cut: Coords | None = None

    def __post_init__(self) -> None:
        center = tuple(int(c) for c in self.center)
        widths = tuple(int(m) for m in self.half_widths)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_widths", widths)
        if not center:
            raise ValueError("dimension must be at least 1")
        if len(widths) != len(center):
            raise ValueError("half_widths must match the dimension")
        if any(m < 0 for m in widths):
            raise ValueError("half widths must be non-negative")
        if self.cut is not None:
            cut = tuple(int(y) for y in self.cut)
            if len(cut) != len(center):
                raise ValueError("cut offset must match the dimension")
            object.__setattr__(self, "cut", cut)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def _in_rectangle(self, n: Sequence[int], shift: Coords | None = None) -> bool:
        s = shift or (0,) * self.dimension
        return all(
            abs(int(a) - c - y) <= m
            for a, c, y, m in zip(n, self.center, s, self.half_widths, strict=True)
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


@dataclass(frozen=True)
class RegionFamily:
    """Pairwise disjoint elementary regions of one size inside a host region.

    Disjointness and containment are verified point-wise on construction.
    """

    members: tuple[ElementaryRegion, ...]
    host: ElementaryRegion | GeneralizedRegion

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        sizes = {m.size for m in members}
        if len(sizes) > 1:
            raise ValueError("family members must share one size")
        seen: set[Coords] = set()
        for member in members:
            for p in member.points():
                if p in seen:
                    raise ValueError("family members overlap")
                if not self.host.contains(p):
                    raise ValueError("family member leaves the host region")
                seen.add(p)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[ElementaryRegion]:
        return iter(self.members)


def enumerate_shapes(d: int, size: int) -> list[ElementaryRegion]:
    """Every distinct elementary-region shape of a given size centered at 0.

    For d == 1 this is the single interval; for d >= 2 the full cube plus
    every sector cut with at least two marked axes, 3^d - 2d shapes total.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if size < 1:
        raise ValueError("size must be a positive integer")
    origin = (0,) * d
    shapes = [ElementaryRegion(origin, size)]
    for sector in itertools.product(_MARKERS, repeat=d):
        if sum(s is not None for s in sector) >= 2:
            shapes.append(ElementaryRegion(origin, size, sector))
    return shapes


def tile_disjoint(host: ElementaryRegion, size: int) -> RegionFamily:
    """Maximal grid tiling of a host region by disjoint size-M cubes.

    Cubes are placed on the regular grid anchored at the host's low corner
    with stride 2M + 1; grid cubes that are not fully inside the host (a
    sector cut can clip them) are dropped.
    """
    if size < 1:
        raise ValueError("tile size must be a positive integer")
    if size > host.size:
        raise ValueError("tile size exceeds the host size")
    side = 2 * size + 1
    per_axis = (2 * host.size + 1) // side
    starts = [c - host.size + size for c in host.center]
    members = []
    for steps in itertools.product(range(per_axis), repeat=host.dimension):
        center = tuple(s + side * k for s, k in zip(starts, steps))
        cube = ElementaryRegion(center, size)
        if all(host.contains(p) for p in cube.points()):
            members.append(cube)
    return RegionFamily(tuple(members), host)
