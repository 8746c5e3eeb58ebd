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


def oracle_parseval_table(spec, source, T, radius, control_orders=(0.0, 2.0),
                          rel_tol=1e-9, max_panels=4000):
    """(values, panels) of the energy route by its per-panel loop: every
    GL-15 / GL-31 panel on its own, each column G(E + i/T) e_j summed over
    the box eigenvectors of ``_box_eigh``.  The band starts from panels
    broken at the eigenvalues and bisects the panel of largest error; the
    tails double until the measured remainder, times 10, is below the
    tolerance.  ``panels`` counts the band panels after refinement and the
    tail panels used."""
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
    breaks = np.unique(np.concatenate(([-edge, edge], np.clip(w, -edge, edge))))
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
