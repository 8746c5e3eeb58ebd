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


def oracle_time_average(spec, phi, T, sites):
    """a(., n, T) = (2/T) int_0^inf exp(-2t/T) |(exp(-itH) phi)_n|^2 dt on
    the given sites, by composite 24-point Gauss-Legendre panels on
    [0, 20T]; the weight beyond 20T carries at most e^{-40} of the mass.

    Panel lengths keep (spread of the spectrum x length) small, so the
    oscillatory factors exp(-i (w_m - w_l) t) are resolved to near machine
    precision.  The cost grows in proportion to T."""
    import numpy as np

    H = oracle_assemble(spec, sites)
    w, U = np.linalg.eigh(H)
    c = U.conj().T @ phi.dense(sites)
    horizon = 20.0 * T
    panel = min(T / 2.0, 12.0 / max(float(w.max() - w.min()), 1e-9), horizon)
    edges = np.linspace(0.0, horizon, max(1, math.ceil(horizon / panel)) + 1)
    x, wq = np.polynomial.legendre.leggauss(24)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * wq).ravel() * (2.0 / T) * np.exp(-2.0 * nodes / T)
    acc = np.zeros(len(sites))
    chunk = 2048
    for start in range(0, len(nodes), chunk):
        t = nodes[start : start + chunk]
        amps = U @ (np.exp(-1j * np.outer(w, t)) * c[:, None])
        acc += (np.abs(amps) ** 2) @ weights[start : start + chunk]
    return acc


def oracle_worst_pair(sites, G, min_dist, c2):
    """The worst decay pair of a volume's resolvent G, by a loop over every
    ordered pair of sites at sup-distance >= min_dist: the ``DecayWitness``
    of the largest log|G(m, m')| + c2 |m - m'|, the first among ties, or
    None when no pair is that far apart."""
    from qpdyn.greens import DecayWitness

    worst, largest = None, -math.inf
    for i, m in enumerate(sites):
        for j, mp in enumerate(sites):
            dist = sup_dist(m, mp)
            if dist < min_dist:
                continue
            value = float(abs(G[i, j]))
            margin = (math.log(value) if value > 0.0 else -math.inf) + c2 * dist
            if worst is None or margin > largest:
                worst = DecayWitness((tuple(m), tuple(mp)), value, math.exp(-c2 * dist))
                largest = margin
    return worst


def oracle_bad_centers(spec, size, sub_size, z, params):
    """Bad centers of the scan cube [-N, N]^d, one box at a time.

    A center n is bad when some shape of size N1 translated to n is not
    strongly good: some pair at sup-distance >= max(1, ceil(N1/10)) has
    |G(m, m')| > exp(-c2 |m - m'|), or ||G|| > exp(N1^sigma).  Each box takes
    one LU ``greens`` and one ``resolvent_norm``; the pairs are looped over
    explicitly."""
    from qpdyn.greens import greens, resolvent_norm

    d = spec.dimension
    min_dist = max(1, math.ceil(sub_size / 10.0))
    norm_bound = math.exp(sub_size**params.sigma)
    shapes = all_shape_point_sets(d, sub_size)
    bad = set()
    for center in itertools.product(range(-size, size + 1), repeat=d):
        for shape in shapes:
            sites = sorted(tuple(a + b for a, b in zip(p, center)) for p in shape)
            G = greens(spec, sites, z).matrix
            decays = all(
                abs(G[i, j]) <= math.exp(-params.c2 * sup_dist(m, mp))
                for i, m in enumerate(sites)
                for j, mp in enumerate(sites)
                if sup_dist(m, mp) >= min_dist
            )
            if not decays or resolvent_norm(spec, sites, z) > norm_bound:
                bad.add(center)
                break
    return bad
