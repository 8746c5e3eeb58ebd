"""Independent brute-force oracles used to pin expected values.

These work on explicit point sets and follow the defining conditions
literally, with no pruning, so they stay independent of the library's
descriptor-based implementations.
"""

from __future__ import annotations

import itertools
import math


def sup_dist(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


def oracle_diameter(points):
    pts = list(points)
    return max(sup_dist(a, b) for a in pts for b in pts)


def oracle_boundary(points):
    pts = set(points)
    d = len(next(iter(pts)))
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=d) if any(o)]
    out = set()
    for n in pts:
        for o in offsets:
            if tuple(a + b for a, b in zip(n, o)) not in pts:
                out.add(n)
                break
    return out


def elementary_point_set(center, size, sector):
    """Point set of a cube with a sector cut, straight from the inequalities."""
    d = len(center)
    sector = sector or (None,) * d
    pts = set()
    for rel in itertools.product(range(-size, size + 1), repeat=d):
        marked = [(r, s) for r, s in zip(rel, sector) if s is not None]
        if marked and all(r < 0 if s == "<" else r > 0 for r, s in marked):
            continue
        pts.add(tuple(r + c for r, c in zip(rel, center)))
    return frozenset(pts)


def all_shape_point_sets(d, size):
    """Distinct shape point sets over every sector-marker vector with
    zero or at least two marked axes, deduplicated by point set."""
    shapes = {elementary_point_set((0,) * d, size, None)}
    for sector in itertools.product((None, "<", ">"), repeat=d):
        if sum(s is not None for s in sector) >= 2:
            shapes.add(elementary_point_set((0,) * d, size, sector))
    return shapes


def oracle_width(points):
    """Width by exhaustive search over sizes, centers, and shapes."""
    pts = set(points)
    d = len(next(iter(pts)))
    diam = oracle_diameter(pts)
    admissible = []
    for size in range(1, diam // 2 + 1):
        ok_all = True
        for n in pts:
            ok = False
            for center in itertools.product(
                *[range(c - size, c + size + 1) for c in n]
            ):
                for sector in itertools.chain(
                    [None],
                    (
                        s
                        for s in itertools.product((None, "<", ">"), repeat=d)
                        if sum(m is not None for m in s) >= 2
                    ),
                ):
                    cand = elementary_point_set(center, size, sector)
                    if n not in cand or not cand <= pts:
                        continue
                    excluded = pts - cand
                    dist = min(
                        (sup_dist(n, q) for q in excluded), default=math.inf
                    )
                    if 2 * dist >= size:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                ok_all = False
                break
        if ok_all:
            admissible.append(size)
    return max(admissible, default=0)


def oracle_assemble(spec, sites):
    """Volume matrix by the per-site loop over kernel offsets, accumulating
    each hop into a zero matrix before adding the potential diagonal."""
    import numpy as np

    from qpdyn.operators import potential_values

    sites = [tuple(int(c) for c in p) for p in sites]
    n = len(sites)
    index = {p: i for i, p in enumerate(sites)}
    H = np.zeros((n, n), dtype=np.float64 if spec.is_real else np.complex128)
    inv = 1.0 / spec.coupling
    for k, v in spec.kernel.coefficients:
        hop = v.real * inv if spec.is_real else v * inv
        if not any(k):
            H[np.diag_indices(n)] += hop
            continue
        for i, p in enumerate(sites):
            j = index.get(tuple(a - b for a, b in zip(p, k)))
            if j is not None:
                H[i, j] += hop
    H[np.diag_indices(n)] += potential_values(spec, sites)
    return H
