"""Independent brute-force oracles used to pin expected values.

These work on explicit point sets and follow the defining conditions
literally, with no pruning, so they stay independent of the library's
descriptor-based implementations.  The dense resolvent checks behind the
resolvent-identity and Combes-Thomas acceptance criteria live here too.
"""

from __future__ import annotations

import itertools
import math


def sup_dist(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


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


def generalized_point_set(center, half_widths, cut):
    """Point set of a rectangle minus its translate by ``cut``, straight
    from the inequalities over a box one wider than the rectangle."""
    def in_rect(n, shift):
        return all(
            abs(a - c - y) <= m
            for a, c, y, m in zip(n, center, shift, half_widths)
        )

    box = itertools.product(
        *[range(c - m - 1, c + m + 2) for c, m in zip(center, half_widths)]
    )
    zero = (0,) * len(center)
    return frozenset(
        n for n in box
        if in_rect(n, zero) and (cut is None or not in_rect(n, cut))
    )


def all_shape_point_sets(d, size):
    """Distinct shape point sets over every sector-marker vector with
    zero or at least two marked axes, deduplicated by point set."""
    shapes = {elementary_point_set((0,) * d, size, None)}
    for sector in itertools.product((None, "<", ">"), repeat=d):
        if sum(s is not None for s in sector) >= 2:
            shapes.add(elementary_point_set((0,) * d, size, sector))
    return shapes


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
    None when no pair is that far apart.  An entry that is 0 in double
    precision is only known to lie below 2^-1074, the least subnormal, and
    enters at log(2^-1074) = -744.44; but when every entry off the diagonal
    is 0, G is the resolvent of a box with no hopping, its far entries are
    exact zeros, and every far pair enters at -inf, so the first one is
    named."""
    from qpdyn.greens import DecayWitness

    diagonal = all(G[i, j] == 0 for i in range(len(sites))
                   for j in range(len(sites)) if i != j)
    worst, largest = None, -math.inf
    for i, m in enumerate(sites):
        for j, mp in enumerate(sites):
            dist = sup_dist(m, mp)
            if dist < min_dist:
                continue
            value = float(abs(G[i, j]))
            if diagonal:
                margin = -math.inf
            else:
                margin = math.log(max(value, math.ulp(0.0))) + c2 * dist
            if worst is None or margin > largest:
                worst = DecayWitness((tuple(m), tuple(mp)), margin, c2 * dist)
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


def oracle_band_breaks(w, edge, width, merged=True):
    """The band's starting breaks as a sorted list: -edge, edge and every
    eigenvalue clipped to [-edge, edge], each value once.  ``merged`` drops,
    in one pass from the left, each interior break that lies less than
    ``width`` past the last break kept and less than ``width`` before the
    next break; the two edges always stay."""
    points = sorted({min(max(float(x), -edge), edge) for x in w} | {-edge, edge})
    if not merged:
        return points
    kept = [points[0]]
    for k in range(1, len(points) - 1):
        if points[k] - kept[-1] >= width or points[k + 1] - points[k] >= width:
            kept.append(points[k])
    return kept + [points[-1]]


def oracle_parseval_table(spec, source, T, radius, control_orders=(0.0, 2.0),
                          rel_tol=1e-9, max_panels=4000, merged=True):
    """(values, panels) of the energy route by its per-panel loop: every
    GL-15 / GL-31 panel on its own, each column G(E + i/T) e_j summed over
    the box eigenvectors of ``_box_eigh``.  The band starts from panels
    between the breaks of ``oracle_band_breaks`` at width 1/T, merged as
    the route merges them, or with ``merged=False`` one break at every
    eigenvalue, and bisects the panel of largest error; the tails double
    until the measured remainder, times 10, is below the tolerance.
    ``panels`` counts the band panels after refinement and the tail panels
    used."""
    import heapq

    import numpy as np

    from qpdyn.dynamics import _box_eigh

    sites, norms, w, U = _box_eigh(spec, radius)
    cj = U[sites.index(tuple(source)), :].conj()
    eps = 1.0 / T
    weight_rows = np.vstack([norms**q for q in control_orders])

    def panel(a, b):
        out = []
        for order in (15, 31):
            x, wq = np.polynomial.legendre.leggauss(order)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            denom = w[:, None] - (mid + half * x[None, :] + 1j * eps)
            cols = U.astype(np.complex128) @ (cj[:, None] / denom)
            out.append(half * ((np.abs(cols) ** 2) @ wq))
        func15, func31 = weight_rows @ out[0], weight_rows @ out[1]
        return out[1], func31, np.abs(func31 - func15)

    edge = spec.spectral_bound + 2.0
    breaks = oracle_band_breaks(w, edge, eps, merged)
    heap, counter = [], 0
    total_vec = np.zeros(len(sites))
    total_func = np.zeros(len(control_orders))
    total_err = np.zeros(len(control_orders))

    def push(a, b):
        nonlocal counter, total_vec, total_func, total_err
        vec, func, err = panel(a, b)
        heapq.heappush(heap, (-float(err.max()), counter, (a, b, vec, func, err)))
        total_vec, total_func, total_err = total_vec + vec, total_func + func, total_err + err
        counter += 1

    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            push(a, b)
    for _ in range(max_panels):
        if np.all(total_err <= rel_tol * np.maximum(np.abs(total_func), 1e-30)):
            break
        a, b, vec, func, err = heapq.heappop(heap)[2]
        total_vec, total_func, total_err = total_vec - vec, total_func - func, total_err - err
        push(a, 0.5 * (a + b))
        push(0.5 * (a + b), b)
    else:
        raise RuntimeError("oracle band quadrature did not converge")
    panels = len(heap)
    for sign in (1.0, -1.0):
        lo, prev_func = edge, None
        for _ in range(80):
            a, b = (lo, 2.0 * lo) if sign > 0 else (-2.0 * lo, -lo)
            vec, func, _ = panel(a, b)
            panels += 1
            total_vec, total_func = total_vec + vec, total_func + func
            if prev_func is not None:
                ratio = np.where(prev_func > 0.0, func / np.maximum(prev_func, 1e-300), 0.0)
                ratio = np.minimum(ratio, 0.9)
                remainder = func * ratio / (1.0 - ratio)
                if np.all(remainder * 10.0 <= rel_tol * np.maximum(np.abs(total_func), 1e-30)):
                    break
            prev_func, lo = func, 2.0 * lo
        else:
            raise RuntimeError("oracle tail quadrature did not converge")
    return total_vec / (T * math.pi), panels


def oracle_diophantine(alpha, kappa, k_max):
    """(worst k, margin) of min ||k . alpha|| |k|^kappa over the half-box
    0 < |k| <= k_max (sup norm) with first nonzero coordinate positive, by a
    loop over its vectors in lexicographic order; the first of ties wins.
    Each k . alpha is one ``np.dot``; the weights |k|^kappa are taken by
    numpy over all vectors at once."""
    import numpy as np

    vec = np.atleast_1d(np.asarray(alpha, dtype=float))
    ks, dots = [], []
    rng = range(-k_max, k_max + 1)
    for k in itertools.product(range(0, k_max + 1), *[rng] * (vec.size - 1)):
        if not any(k) or (k[0] == 0 and next(c for c in k if c) < 0):
            continue
        ks.append(k)
        dots.append(float(np.dot(k, vec)))
    frac = np.mod(dots, 1.0)
    sizes = np.array([max(abs(c) for c in k) for k in ks], dtype=float)
    margins = np.minimum(frac, 1.0 - frac) * sizes**kappa
    i = int(np.argmin(margins))
    return ks[i], float(margins[i])


def verify_resolvent_identity(spec, region1, region2, z):
    """Deviation of the exact two-block resolvent identity.

    For disjoint volumes with union L,
    G_L = (G_1 + G_2) - (G_1 + G_2)(H_L - H_1 - H_2) G_L
    holds exactly; returns the relative spectral-norm deviation.  Each G is
    a dense LU ``greens``."""
    import numpy as np

    from qpdyn.greens import _as_complex, greens
    from qpdyn.operators import assemble, site_list

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


def combes_thomas_probe(spec, radius, energy, epsilon=0.0, source=None):
    """Measured off-diagonal decay rate of G on a cube of the given radius.

    Requires the energy to sit at distance >= 1 from the spectrum of the
    truncation.  Fits log |G(source, n)| against |n| over the annulus
    R/4 <= |n| <= R/2, with the column from a dense solve; a diagonal
    resolvent reports an infinite rate.  The source is read by
    ``lattice.site``."""
    import numpy as np
    import scipy.linalg as sla

    from qpdyn.greens import _as_complex, resolvent_norm
    from qpdyn.lattice import ElementaryRegion, site, sup_norm, sup_norms
    from qpdyn.operators import assemble, site_list

    d = spec.dimension
    src = site(source) if source is not None else (0,) * d
    if len(src) != d or sup_norm(src) > radius:
        raise ValueError(
            f"source site {src} must have {d} coordinates and lie in the cube "
            f"of radius {radius}"
        )
    sites = site_list(ElementaryRegion((0,) * d, radius))
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
