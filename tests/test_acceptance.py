"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
come.  Every tolerance is pinned here; nothing is calibrated after the fact.
"""

import math

import numpy as np
import pytest

from qpdyn.arithmetic import DiophantineParams, diophantine_check, discrepancy, orbit_points
from qpdyn.dynamics import (
    amplitude_table_direct,
    amplitude_table_parseval,
    evolve,
    fit_log_exponent,
    moment_series,
)
from qpdyn.greens import (
    ClassificationParams,
    bad_set,
    fit_sublinear_exponent,
    greens,
)
from qpdyn.harness.config import load_config
from qpdyn.harness.recipes import run_sweep
from qpdyn.lattice import ElementaryRegion, enumerate_shapes
from qpdyn.operators import (
    LINEAR_FORM,
    PotentialSpec,
    ShiftDynamics,
    StateVector,
    almost_mathieu,
    diagonal_model,
    free_laplacian,
)

from oracles import (
    all_shape_point_sets,
    combes_thomas_probe,
    oracle_bad_centers,
    verify_resolvent_identity,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
AMO3 = almost_mathieu(3.0, GOLDEN, 0.3)
FREE = free_laplacian(1)
DELTA0 = StateVector.delta((0,))


def record(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_route_equivalence():
    worst = 0.0
    details = []
    for spec, name in ((FREE, "free"), (AMO3, "amo3")):
        for T in (5.0, 20.0, 50.0):
            d = amplitude_table_direct(spec, DELTA0, T, 128).moment(2.0)
            p = amplitude_table_parseval(spec, (0,), T, 128).moment(2.0)
            rel = abs(d - p) / d
            worst = max(worst, rel)
            details.append(f"{name}/T={T:g}: {rel:.2e}")
    record(
        "route-equivalence",
        worst <= 1e-6,
        f"max |direct-parseval|/direct = {worst:.2e} ({'; '.join(details)})",
    )


def test_amplitude_normalization():
    devs = {}
    for spec, name in ((FREE, "free"), (AMO3, "amo3")):
        table = amplitude_table_parseval(spec, (0,), 20.0, 128)
        devs[name] = abs(table.total() - 1.0)
    record(
        "amplitude-normalization",
        all(v <= 1e-6 for v in devs.values()),
        f"|sum a - 1| = {devs}",
    )


def test_ballistic_control_case():
    times = tuple(np.linspace(1.0, 20.0, 20))
    ts, vals = moment_series(FREE, DELTA0, 2.0, times, 256)
    rels = [abs(v - 2.0 * t * t) / (2.0 * t * t) for t, v in zip(ts, vals)]
    ballistic_ok = max(rels) <= 0.01
    # the log-exponent fit must reject this growth as non-logarithmic
    wide = tuple(np.geomspace(1.05, 110.0, 25))
    fit = fit_log_exponent(moment_series(FREE, DELTA0, 2.0, wide, 256))
    record(
        "ballistic-control",
        ballistic_ok and fit.poor_fit,
        f"max rel dev from 2t^2 = {max(rels):.2e}; "
        f"fit gamma={fit.gamma:.1f} poor_fit={fit.poor_fit}",
    )


def test_localized_regime():
    times = tuple(np.geomspace(100.0, 10000.0, 25))
    run = evolve(AMO3, DELTA0, times, 2048)
    ts, vals = np.array(run.times), run.moments(2.0)
    # calibration window at the 10^2 scale: the envelope constant is the
    # largest observed level within [1e2, 3e2]
    window = ts <= 300.0
    C = float(np.max(vals[window] / np.log(ts[window]) ** 3))
    envelope_ok = bool(np.all(vals <= C * np.log(ts) ** 3 + 1e-12))
    ratio = float(vals.max() / vals[0])
    record(
        "localized-regime",
        envelope_ok and ratio <= 10.0,
        f"C={C:.4g}; max M={vals.max():.3f}; M(1e2)={vals[0]:.3f}; "
        f"max/M(1e2)={ratio:.2f}; leakage={run.leakage:.1e}",
    )


def test_sublinear_bad_set_scan():
    """The AMO bad-set scan at N in {50, 100, 200} against the per-box oracle.

    Whether the counts grow sublinearly is printed as a measured result, not
    asserted: nothing promises it at these scales.  With N1 = ceil(N^0.3) in
    {4, 4, 5} the decay clause starts at sup-distance 1 at every scale, and
    at N = 50 and 100 the boxes have one size, so their bad sets are windows
    of one set (README "Acceptance status" has the measurements)."""
    params = ClassificationParams.for_spec(AMO3)
    z = complex(0.0, 1.0 / 1000.0)  # E mid-spectrum, eps = 1/T at T = 1e3
    sizes = (50, 100, 200)
    reports = {}
    agree = {}
    oracle_counts = []
    for n in sizes:
        sub = math.ceil(n**0.3)
        report = bad_set(AMO3, n, sub, z, params)
        expected = oracle_bad_centers(AMO3, n, sub, z, params)
        reports[n] = report
        agree[n] = (
            report.total_centers == 2 * n + 1
            and len(set(report.bad_centers)) == report.count
            and set(report.bad_centers) == expected
        )
        oracle_counts.append(len(expected))
    # equal sub-box sizes: the N = 50 scan is the N = 100 scan on [-50, 50]
    nested = set(reports[50].bad_centers) == {
        c for c in reports[100].bad_centers if abs(c[0]) <= 50
    }
    counts = [(n, r.count) for n, r in reports.items()]
    fractions = [r.fraction for r in reports.values()]
    fit = fit_sublinear_exponent(counts)
    slope = np.polyfit(np.log(sizes), np.log(np.add(oracle_counts, 1.0)), 1)[0]
    fit_ok = abs(fit.delta - (1.0 - slope)) <= 1e-12
    non_increasing = all(
        a >= b - 1e-12 for a, b in zip(fractions, fractions[1:])
    )
    record(
        "sublinear-bad-set-scan",
        all(agree.values()) and nested and fit_ok,
        f"counts={counts}; fractions={[round(f, 3) for f in fractions]}; "
        f"delta={fit.delta:.3f}; residual={fit.residual_rms:.3f}; "
        f"sublinear={non_increasing and fit.delta > 0.0}; "
        f"oracle agrees={agree}; nested={nested}; fit agrees={fit_ok}",
    )


def test_resolvent_identity():
    rng = np.random.default_rng(2024)
    models = [FREE, AMO3, diagonal_model(
        PotentialSpec.cosine_series({(1,): 2.0}),
        ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.1,)),
    )]
    worst = 0.0
    for i in range(50):
        spec = models[i % len(models)]
        half = int(rng.integers(20, 200))
        pts = [(int(n),) for n in range(-half, half + 1)]
        mask = rng.random(len(pts)) < rng.uniform(0.2, 0.8)
        left = [p for p, m in zip(pts, mask) if m]
        right = [p for p, m in zip(pts, mask) if not m]
        if not left or not right:
            continue
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 0.8))
        worst = max(worst, verify_resolvent_identity(spec, left, right, z))
    record(
        "resolvent-identity",
        worst <= 1e-10,
        f"max relative deviation over 50 random splits = {worst:.2e}",
    )


def test_combes_thomas_probe():
    oracle = math.acosh(4.0 / 2.0)  # explicit free-resolvent decay at E = 4
    free_rate = combes_thomas_probe(FREE, 32, 4.0)
    amo_rate = combes_thomas_probe(AMO3, 32, AMO3.spectral_bound)
    record(
        "combes-thomas-probe",
        abs(free_rate - oracle) / oracle <= 0.05 and amo_rate > 0.0,
        f"free rate {free_rate:.4f} vs oracle {oracle:.4f}; "
        f"amo rate {amo_rate:.3f}",
    )


def test_resolvent_norm_bound():
    rng = np.random.default_rng(77)
    models = [FREE, AMO3, almost_mathieu(1.0, GOLDEN, 0.7)]
    violations = 0
    for i in range(100):
        spec = models[i % len(models)]
        radius = int(rng.integers(2, 30))
        center = int(rng.integers(-100, 100))
        eps = float(10.0 ** rng.uniform(-3.0, 0.0))
        energy = float(rng.uniform(-spec.spectral_bound, spec.spectral_bound))
        g = greens(spec, ElementaryRegion((center,), radius), complex(energy, eps))
        # SVD-measured norm; 1e-10 relative slack is floating-point equality
        if g.norm() > (1.0 / eps) * (1.0 + 1e-10):
            violations += 1
    record(
        "resolvent-norm-bound",
        violations == 0,
        f"{violations} violations of ||G|| <= 1/eps over 100 random volumes",
    )


def test_discrepancy_bound():
    dyn = ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.0,))
    envelopes = {}
    for n in (100, 1000, 10000):
        report = discrepancy(orbit_points(dyn, n))
        envelopes[n] = n * report.value / math.log(n) ** 2
    fixture = discrepancy(np.arange(64) / 64.0)
    record(
        "discrepancy-bound",
        all(v <= 3.0 for v in envelopes.values())
        and abs(fixture.value - 1.0 / 64.0) < 1e-12,
        f"N D_N/(log N)^2 = { {k: round(v, 3) for k, v in envelopes.items()} }; "
        f"equally spaced D_64 = {fixture.value!r}",
    )


def test_diophantine_certification():
    golden = diophantine_check(
        GOLDEN, DiophantineParams(kappa=1.01, tau=0.3, k_max=10**6)
    )
    half = diophantine_check(
        0.5, DiophantineParams(kappa=1.01, tau=0.3, k_max=10**3)
    )
    record(
        "diophantine-certification",
        golden.passed and not half.passed and half.worst_k == (2,),
        f"golden margin {golden.margin:.4f} (worst k={golden.worst_k}); "
        f"half fails at k={half.worst_k}",
    )


def test_geometry_combinatorics():
    counts_ok = len(enumerate_shapes(2, 1)) == 5 and len(enumerate_shapes(3, 1)) == 21
    mismatches = [
        (d, size)
        for d in (1, 2, 3)
        for size in (1, 2)
        if {frozenset(s.points()) for s in enumerate_shapes(d, size)}
        != all_shape_point_sets(d, size)
    ]
    record(
        "geometry-combinatorics",
        counts_ok and not mismatches,
        f"shape counts (5, 21) ok={counts_ok}; "
        f"shape point-set mismatches (d, size)={mismatches or 'none'}",
    )


SWEEP_CFG = f"""
experiment = lyapunov-map
seed = 123
model.preset = amo
model.lambda = 3.0
model.alpha = {GOLDEN!r}
model.phase = 0.0
lyapunov.energies = linspace:-1,1,3
lyapunov.length = 1500
lyapunov.phase_samples = 2
sweep.recipe = lyapunov-map
sweep.axes = model.lambda
sweep.values.model.lambda = 2.0,3.0,4.0
output.prefix = det
"""


def test_sweep_determinism(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG)
    bodies = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        run_sweep(load_config(cfg_path), out, workers=workers)
        bodies[workers] = (out / "det_lyapunov.csv").read_bytes()
    identical = bodies[1] == bodies[4] == bodies[8]
    record(
        "sweep-determinism",
        identical,
        f"csv bodies identical across workers 1/4/8 = {identical} "
        f"({len(bodies[1])} bytes)",
    )
