import dataclasses
import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    combes_thomas_probe,
    oracle_worst_pair,
    sup_dist as oracle_sup_dist,
    verify_resolvent_identity,
)
from qpdyn.greens import (
    BadSetReport,
    ClassificationParams,
    DecayWitness,
    bad_set,
    bad_sets,
    classify_box,
    fit_sublinear_exponent,
    greens,
    is_good,
    is_strongly_good,
    multiscale_decay_check,
    resolvent_norm,
    scan_boxes,
    scan_centers,
)
from qpdyn.lattice import ElementaryRegion, GeneralizedRegion, enumerate_shapes
from qpdyn.operators import (
    LINEAR_FORM,
    RANK_ONE,
    KernelSpec,
    OperatorSpec,
    PotentialSpec,
    ShiftDynamics,
    almost_mathieu,
    assemble,
    diagonal_model,
    free_laplacian,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
STILL = ShiftDynamics(LINEAR_FORM, (0.0,), (0.0,))
AMO3 = almost_mathieu(3.0, GOLDEN, 0.3)
SILVER = math.sqrt(2.0) - 1.0
# the module, not the function the package re-exports under its name
GREENS = importlib.import_module("qpdyn.greens")


def amo_2d(lam, phase):
    """Rank-one AMO-type model on Z^2 with potential 2 lam cos."""
    return OperatorSpec(
        KernelSpec.laplacian(2),
        PotentialSpec.cosine_series({(1,): 2.0 * lam}),
        ShiftDynamics(RANK_ONE, (GOLDEN, SILVER), (phase,)),
    )


def constant_diag(c):
    return diagonal_model(PotentialSpec.constant_value(c), STILL)


class TestGreens:
    def test_singleton_scalar_inverse(self):
        spec = constant_diag(2.0)
        g = greens(spec, GeneralizedRegion((5,), (0,)), 1j)
        v = spec.potential_at((5,))
        assert g.matrix[0, 0] == pytest.approx(1.0 / (v - 1j), abs=1e-15)

    def test_two_point_adjugate_formula(self):
        z = 0.5 + 0.25j
        g = greens(free_laplacian(1), [(0,), (1,)], z)
        a, b = -z, 1.0
        det = a * a - b * b
        expected = np.array([[a, -b], [-b, a]]) / det
        assert np.allclose(g.matrix, expected, atol=1e-14)

    def test_norm_bounded_by_inverse_epsilon(self):
        g = greens(AMO3, ElementaryRegion((0,), 40), 1.0 + 0.1j)
        assert g.norm() <= 10.0 * (1.0 + 1e-10)
        assert g.residual < 1e-12

    def test_resolvent_norm_matches_svd(self):
        region = ElementaryRegion((0,), 25)
        z = 0.3 + 0.05j
        g = greens(AMO3, region, z)
        assert resolvent_norm(AMO3, region, z) == pytest.approx(
            g.norm(), rel=1e-10
        )

    def test_resolvent_norm_reads_the_dense_cap(self):
        # 69^2 = 4761 points: the cap raises before any matrix is assembled
        region = ElementaryRegion((0, 0), 34)
        with pytest.raises(ValueError, match="4761 points; .* capped at 4500"):
            resolvent_norm(free_laplacian(2), region, 1j)

    def test_residual_is_the_frobenius_norm(self):
        # ||(H - z) G - I||_F bounds the spectral norm at every size
        region, z = ElementaryRegion((0,), 6), 0.3 + 0.05j
        g = greens(AMO3, region, z)
        A = assemble(AMO3, region).astype(np.complex128)
        A[np.diag_indices(len(g.sites))] -= z
        R = A @ g.matrix - np.eye(len(g.sites))
        assert g.residual == pytest.approx(np.linalg.norm(R, "fro"), rel=1e-12, abs=0)
        assert g.residual >= np.linalg.norm(R, 2)

    def test_singularity_is_reported(self):
        spec = constant_diag(1.0)
        with pytest.raises(np.linalg.LinAlgError):
            greens(spec, [(0,)], 1.0 + 0.0j)

    def test_entry_matches_site_order(self):
        region = ElementaryRegion((2, -1), 2, ("<", ">"))
        g = greens(amo_2d(3.0, 0.3), region, 0.5 + 0.1j)
        for n in g.sites[::5]:
            for m in g.sites[::3]:
                i, j = g.sites.index(n), g.sites.index(m)
                assert g.entry(n, m) == g.matrix[i, j]


class TestGoodness:
    @pytest.mark.parametrize("name,value", [
        ("c2", 0.0), ("c2", math.nan), ("sigma", 1.0), ("sigma", math.nan),
        ("xi", math.nan), ("varsigma", math.nan),
    ])
    def test_classification_params_are_validated(self, name, value):
        with pytest.raises(ValueError, match=name):
            ClassificationParams(**{name: value})

    @pytest.mark.parametrize("call,match", [
        (lambda r: is_good(AMO3, r, 1e-3j, math.nan), "c2"),
        (lambda r: is_good(AMO3, r, 1e-3j, -1.0), "c2"),
        (lambda r: is_strongly_good(AMO3, r, 1e-3j, math.nan, 0.5), "c2"),
        (lambda r: is_strongly_good(AMO3, r, 1e-3j, 0.8, math.nan), "sigma"),
        (lambda r: is_strongly_good(AMO3, r, 1e-3j, 0.8, 1.0), "sigma"),
    ], ids=["good-c2-nan", "good-c2-negative", "strong-c2-nan", "strong-sigma-nan",
            "strong-sigma-one"])
    def test_per_box_views_validate_their_parameters(self, call, match):
        # is_good(..., nan) gave (False, margin=nan), and c2 = -1 read good
        with pytest.raises(ValueError, match=match):
            call(ElementaryRegion((0,), 10))

    def test_diagonal_resolvent_good_for_any_rate(self):
        spec = constant_diag(0.0)
        for c2 in (0.1, 1.0, 5.0):
            ok, witness = is_good(spec, ElementaryRegion((0,), 12), 1j, c2)
            assert ok
            assert witness.value == 0.0

    def test_free_laplacian_off_spectrum(self):
        region = ElementaryRegion((0,), 20)
        # dist(5, [-2, 2]) = 3; measured decay rate is about arccosh(5/2)
        ok, _ = is_good(free_laplacian(1), region, 5.0 + 0.0j, 0.8)
        assert ok
        bad, witness = is_good(free_laplacian(1), region, 5.0 + 0.0j, 2.2)
        assert not bad
        assert witness.margin > 0

    def test_strongly_good_implies_good(self):
        params = ClassificationParams(c2=0.8, sigma=0.5)
        for n in range(-6, 7):
            region = ElementaryRegion((3 * n,), 4)
            v = classify_box(AMO3, region, 0.5 + 1e-2j, params)
            if v.strongly_good:
                assert v.good

    def test_gapped_diagonal_is_strongly_good(self):
        # |v - E| >= 1 keeps the diagonal resolvent entries at most 1
        spec = constant_diag(3.0)
        assert is_strongly_good(spec, ElementaryRegion((0,), 10), 2.0 + 0.0j, 0.8, 0.5)

    def test_norm_condition_automatic_when_eps_large(self):
        # eps >= e^{-N^sigma} makes the norm clause follow from ||G|| <= 1/eps
        region = ElementaryRegion((0,), 10)
        eps = math.exp(-(10**0.5)) * 1.01
        z = complex(0.0, eps)
        good, _ = is_good(AMO3, region, z, 0.8)
        assert is_strongly_good(AMO3, region, z, 0.8, 0.5) == good


class TestBadSet:
    def test_gapped_diagonal_empty(self):
        spec = constant_diag(3.0)
        report = bad_set(spec, 12, 3, 2.0 + 0.0j, ClassificationParams())
        assert report.count == 0
        assert report.total_centers == 25

    def test_free_laplacian_in_spectrum_all_bad(self):
        report = bad_set(
            free_laplacian(1), 12, 3, 0.0 + 1e-3j, ClassificationParams()
        )
        assert report.count == report.total_centers

    def test_monotone_in_c2(self):
        z = 0.0 + 1e-3j
        counts = []
        for c2 in (0.2, 0.8, 1.6):
            params = ClassificationParams(c2=c2, sigma=0.5)
            counts.append(bad_set(AMO3, 15, 4, z, params).count)
        assert counts == sorted(counts)

    def test_scan_boxes_consistent_with_bad_set(self):
        params = ClassificationParams(c2=0.8, sigma=0.5)
        z = 0.0 + 1e-2j
        report = bad_set(AMO3, 10, 3, z, params)
        scan = scan_boxes(AMO3, 10, 3, z, params)
        assert set(report.bad_centers) == scan_bad_centers(scan)

    def test_size_ordering_enforced(self):
        with pytest.raises(ValueError):
            bad_set(AMO3, 5, 5, 1j, ClassificationParams())

    def test_centers_must_match_dimension(self):
        with pytest.raises(ValueError):
            bad_set(amo_2d(3.0, 0.3), 5, 2, 1j, ClassificationParams(),
                    centers=[(0,), (1,)])

    def test_a_non_finite_energy_raises(self):
        # unchecked, a NaN energy counts every center as bad
        params, box = ClassificationParams(), ElementaryRegion((0,), 5)
        for z in (complex(math.nan, 1e-3), complex(0.0, math.inf)):
            for call in (lambda: bad_set(AMO3, 20, 5, z, params),
                         lambda: classify_box(AMO3, box, z, params),
                         lambda: greens(AMO3, box, z)):
                with pytest.raises(ValueError, match="not finite"):
                    call()


@pytest.mark.parametrize("c2", [0.8, 1.5])
def test_norm_bound_is_inf_where_exp_overflows(c2):
    # 1003^0.95 > log(DBL_MAX) ~ 709.78 > 1002^0.95: past it exp(N1^sigma)
    # is inf, every finite norm meets it, and strong goodness is decay alone
    assert GREENS.strong_norm_bound(1002, 0.95) == math.exp(1002**0.95)
    assert GREENS.strong_norm_bound(1003, 0.95) == math.inf
    params = ClassificationParams(c2=c2, sigma=0.95)
    z = complex(0.0, 1e-3)
    region = ElementaryRegion((0,), 1003)
    verdict = classify_box(AMO3, region, z, params)
    assert verdict.norm_bound == math.inf
    assert verdict.strongly_good == verdict.good
    assert is_strongly_good(AMO3, region, z, c2, 0.95) == verdict.good
    centers = [(-7,), (0,), (3,), (11,)]
    scan = scan_boxes(AMO3, 1004, 1003, z, params, centers)
    assert scan.norm_bound == math.inf
    assert (scan.strongly_good == scan.good).all()
    report = bad_set(AMO3, 1004, 1003, z, params, centers)
    # one shape in 1-d: box [0, c, 0] is the center's only box
    assert report.bad_centers == tuple(
        c for c, good in zip(centers, scan.good[0, :, 0]) if not good
    )


class TestSublinearFit:
    def test_all_zero_counts(self):
        fit = fit_sublinear_exponent([(10, 0), (100, 0), (1000, 0)])
        assert fit.delta == 1.0
        assert fit.no_bad_boxes

    def test_linear_counts(self):
        ns = [10**4, 10**5, 10**6]
        fit = fit_sublinear_exponent([(n, n) for n in ns])
        assert fit.delta == pytest.approx(0.0, abs=1e-3)

    def test_planted_sqrt_exponent(self):
        ns = [10**4, 10**5, 10**6]
        fit = fit_sublinear_exponent([(n, math.ceil(n**0.5)) for n in ns])
        assert fit.delta == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("exponent", [0.3, 0.7])
    def test_recovers_planted_exponents(self, exponent):
        ns = [10**4, 10**5, 10**6, 10**7]
        fit = fit_sublinear_exponent(
            [(n, math.ceil(n ** (1.0 - exponent))) for n in ns]
        )
        assert fit.delta == pytest.approx(exponent, abs=0.05)

    def test_needs_three_scales(self):
        with pytest.raises(ValueError):
            fit_sublinear_exponent([(10, 1), (100, 2)])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            fit_sublinear_exponent([(10, 1), (100, -2), (1000, 3)])


class TestResolventIdentity:
    def test_block_diagonal_exact_zero(self):
        spec = constant_diag(2.0)
        dev = verify_resolvent_identity(spec, [(-2,), (-1,)], [(0,), (1,)], 1j)
        assert dev == 0.0

    def test_laplacian_split(self):
        dev = verify_resolvent_identity(
            free_laplacian(1),
            [(-3,), (-2,), (-1,), (0,)],
            [(1,), (2,), (3,)],
            0.3 + 0.2j,
        )
        assert dev <= 1e-10

    def test_amo_halves(self):
        left = [(n,) for n in range(-20, 0)]
        right = [(n,) for n in range(0, 21)]
        dev = verify_resolvent_identity(AMO3, left, right, 0.5 + 0.1j)
        assert dev <= 1e-10

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            verify_resolvent_identity(
                free_laplacian(1), [(0,), (1,)], [(1,), (2,)], 1j
            )

    def test_randomized_splits(self):
        rng = np.random.default_rng(7)
        specs = [free_laplacian(1), AMO3, constant_diag(1.5)]
        for _ in range(10):
            spec = specs[rng.integers(len(specs))]
            pts = [(int(n),) for n in range(-30, 31)]
            mask = rng.random(len(pts)) < 0.5
            left = [p for p, m in zip(pts, mask) if m]
            right = [p for p, m in zip(pts, mask) if not m]
            if not left or not right:
                continue
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 0.5))
            assert verify_resolvent_identity(spec, left, right, z) <= 1e-10


class TestCombesThomas:
    def test_free_laplacian_matches_explicit_rate(self):
        # outside [-2, 2] the free resolvent decays exactly at arccosh(|E|/2)
        oracle = math.acosh(4.0 / 2.0)
        rate = combes_thomas_probe(free_laplacian(1), 32, 4.0)
        assert rate == pytest.approx(oracle, rel=0.05)

    def test_amo_outside_spectrum(self):
        rate = combes_thomas_probe(AMO3, 32, AMO3.spectral_bound)
        assert rate > 0.0

    def test_diagonal_reports_infinite_rate(self):
        assert combes_thomas_probe(constant_diag(0.0), 16, 3.0) == math.inf

    def test_rejects_energy_near_spectrum(self):
        with pytest.raises(ValueError, match="distance"):
            combes_thomas_probe(free_laplacian(1), 16, 2.5)
        for energy, epsilon in [(math.nan, 0.0), (4.0, math.inf)]:
            with pytest.raises(ValueError, match="not finite"):
                combes_thomas_probe(free_laplacian(1), 16, energy, epsilon)

    @pytest.mark.parametrize("source", [(20,), (0, 0)])
    def test_rejects_a_source_outside_the_cube(self, source):
        with pytest.raises(ValueError, match=re.escape(f"source site {source}")):
            combes_thomas_probe(almost_mathieu(3.0, 0.618), 10, 9.0, source=source)


class TestMultiscale:
    @pytest.mark.parametrize("slack", [0.8, 0.9, -0.1, math.nan])
    def test_slack_outside_zero_to_c2_raises(self, slack):
        # slack 0.9 at c2 = 0.8 asked for decay at rate -0.1, which held
        params = ClassificationParams(c2=0.8, sigma=0.5, xi=0.5)
        with pytest.raises(ValueError, match="slack"):
            multiscale_decay_check(
                AMO3, ElementaryRegion((0,), 100), 1e-3j, params, slack=slack
            )

    def test_gapped_diagonal_zero_bad_and_decay(self):
        spec = constant_diag(3.0)
        params = ClassificationParams(c2=0.8, sigma=0.5, xi=0.5)
        report = multiscale_decay_check(
            spec, ElementaryRegion((0,), 100), 2.0 + 0.0j, params
        )
        assert report.bad_sub_boxes == 0
        assert report.hypothesis_met
        assert report.decay_holds

    def test_free_laplacian_in_spectrum_hypothesis_fails(self):
        params = ClassificationParams(c2=0.8, sigma=0.5, xi=0.5)
        report = multiscale_decay_check(
            free_laplacian(1), ElementaryRegion((0,), 100), 0.0 + 1e-3j, params
        )
        assert report.bad_sub_boxes == report.sub_box_total
        assert not report.hypothesis_met
        assert report.decay_holds is None

    def test_amo_report_is_consistent(self):
        params = ClassificationParams(c2=0.8, sigma=0.5, xi=0.5)
        report = multiscale_decay_check(
            AMO3, ElementaryRegion((0,), 100), 0.0 + 1e-3j, params
        )
        assert report.sub_size == 10
        assert report.hypothesis_met == (report.bad_sub_boxes <= report.count_bound)
        assert (report.decay_holds is None) == (not report.hypothesis_met)

    @pytest.mark.parametrize("spec, z, recursion", [
        (free_laplacian(1), 3.0 + 0.0j, False),
        (AMO3, 9.0 + 1e-3j, True),
    ], ids=["engine-host", "recursion-host"])
    def test_witness_matches_is_good_and_lu_oracle(self, spec, z, recursion):
        # margins, not pairs: pairs may differ among ties
        region = ElementaryRegion((0,), 100)
        params = ClassificationParams(c2=0.8, sigma=0.5, xi=0.5)
        report = multiscale_decay_check(spec, region, z, params, slack=0.79)
        assert report.hypothesis_met
        rate = report.required_rate
        host = GREENS._resolver(spec, region, z, rate)
        assert isinstance(host, GREENS._TridiagonalResolver) == recursion
        ok, witness = is_good(spec, region, z, rate)
        _, oracle, good, _ = lu_verdict(
            spec, region, z, ClassificationParams(c2=rate, sigma=0.5)
        )
        assert report.decay_holds == ok == good
        for other in (witness, oracle):
            assert report.witness.margin == pytest.approx(other.margin, abs=1e-10)

    def test_sub_box_scale_of_an_exact_power(self):
        # 1000 ** (1/3) is 9.999999999999998 in floating point: the integer
        # root still reads M = 10
        params = ClassificationParams(c2=0.8, sigma=0.5, xi=1 / 3)
        report = multiscale_decay_check(
            constant_diag(3.0), ElementaryRegion((0,), 1000), 2.0 + 1e-3j, params
        )
        assert report.sub_size == 10
        assert report.sub_box_total == (2 * 1000 + 1) // 21
        assert report.bad_sub_boxes == 0 and report.decay_holds

    def test_scale_precondition(self):
        params = ClassificationParams(c2=0.8, sigma=0.5, xi=0.5)
        with pytest.raises(ValueError, match="at least 10"):
            multiscale_decay_check(
                AMO3, ElementaryRegion((0,), 50), 1j, params
            )


class TestNormBoundInvariant:
    def test_random_volumes(self):
        rng = np.random.default_rng(11)
        specs = [free_laplacian(1), AMO3, almost_mathieu(1.0, GOLDEN, 0.7)]
        for _ in range(20):
            spec = specs[rng.integers(len(specs))]
            radius = int(rng.integers(3, 25))
            center = int(rng.integers(-50, 50))
            eps = float(10.0 ** rng.uniform(-3, 0))
            energy = float(rng.uniform(-spec.spectral_bound, spec.spectral_bound))
            g = greens(
                spec, ElementaryRegion((center,), radius), complex(energy, eps)
            )
            assert g.norm() <= (1.0 / eps) * (1.0 + 1e-10)


def lu_verdict(spec, region, z, params):
    """The per-box oracle: LU resolvent, its worst decay pair by a loop over
    the pairs at sup-distance >= ceil(N/10), and the eigenvalue norm,
    classified by the definitions."""
    g = greens(spec, region, z)
    min_dist = max(1, math.ceil(region.size / 10))
    witness = oracle_worst_pair(g.sites, g.matrix, min_dist, params.c2)
    norm = resolvent_norm(spec, region, z)
    good = witness is None or witness.margin <= 0.0
    return norm, witness, good, good and norm <= math.exp(region.size**params.sigma)


def scanned_boxes(scan, spec, sub):
    """(index [energy, center, shape], region) of every box of a
    ``BoxScan``, in (energy, center, shape) order: the region is the shape
    of that index, translated to its center."""
    shapes = enumerate_shapes(spec.dimension, sub)
    for index in np.ndindex(scan.norm.shape):
        _, c, s = index
        yield index, shapes[s].translate(tuple(scan.centers[c].tolist()))


def scan_bad_centers(scan, k=0):
    """The centers of a ``BoxScan`` with a box that is not strongly good at
    its k-th energy."""
    bad = ~scan.strongly_good[k].all(axis=1)
    return {tuple(c) for c in scan.centers[bad].tolist()}


@st.composite
def amo_scans(draw):
    lam = draw(st.floats(0.5, 5.0))
    phase = draw(st.floats(0.0, 1.0, exclude_max=True))
    if draw(st.booleans()):
        # sizes up to 40 reach decay bounds near exp(-64): the batched LU
        # solve must keep such tiny far entries accurate to a relative error
        spec, sub = almost_mathieu(lam, GOLDEN, phase), draw(st.integers(1, 40))
    else:
        spec, sub = amo_2d(lam, phase), draw(st.integers(1, 3))
    coord = st.integers(-50, 50)
    centers = draw(st.lists(st.tuples(*[coord] * spec.dimension),
                            min_size=1, max_size=3))
    # the spectrum lies in [-K + 1, K - 1]: energies inside it and off it
    K = spec.spectral_bound + 2.0
    z = complex(draw(st.floats(-K, K)), 10.0 ** draw(st.floats(-3.0, 0.0)))
    params = ClassificationParams(c2=draw(st.floats(0.01, 1.0)), sigma=0.5)
    return spec, sub, centers, z, params


@given(amo_scans())
@settings(max_examples=60, deadline=None)
def test_batched_engine_matches_lu_oracle(scan):
    spec, sub, centers, z, params = scan
    boxes = scan_boxes(spec, sub + 1, sub, z, params, centers=centers)
    for index, region in scanned_boxes(boxes, spec, sub):
        norm, witness, good, strongly_good = lu_verdict(spec, region, z, params)
        v_norm, v_margin = boxes.norm[index], boxes.margin[index]
        assert (boxes.good[index], boxes.strongly_good[index]) == (good, strongly_good), (
            f"verdict flip on {region}: LU margin {witness.margin!r}, "
            f"engine margin {v_margin!r}, LU norm {norm!r}, engine "
            f"norm {v_norm!r}, bound {boxes.norm_bound!r}"
        )
        assert v_norm == pytest.approx(norm, rel=1e-9)
        # a margin is log(|G| / bound): abs 1e-9 is |G| within 1e-9 relative
        assert v_margin == pytest.approx(witness.margin, rel=1e-9, abs=1e-9)
        assert boxes.residual[index] < 1e-10


@pytest.mark.parametrize("z", [5.0 + 0.0j, 3.0 + 1e-3j, 0.5 + 1e-3j])
def test_engine_keeps_tiny_far_entries_of_large_boxes(z):
    # off the spectrum |G(n, n')| falls to about exp(-125) at distance 80;
    # the margin of such a tiny entry holds only if G is accurate to a
    # relative error entry by entry, as an LU solve of a banded matrix keeps it
    spec, region = free_laplacian(1), ElementaryRegion((0,), 40)
    params = ClassificationParams(c2=0.8, sigma=0.5)
    norm, witness, good, strongly_good = lu_verdict(spec, region, z, params)
    verdict = classify_box(spec, region, z, params)
    assert (verdict.good, verdict.strongly_good) == (good, strongly_good)
    assert verdict.witness.margin == pytest.approx(witness.margin, rel=1e-9)
    ok, worst = is_good(spec, region, z, 0.8)
    assert ok == good
    assert worst.margin == pytest.approx(witness.margin, rel=1e-9)
    if z.imag == 0.0:
        assert good


def test_engine_batches_do_not_change_verdicts(monkeypatch):
    spec = amo_2d(3.0, 0.3)
    params = ClassificationParams(c2=0.8, sigma=0.5)
    centers = list(scan_centers(3, 2))
    z = 0.2 + 1e-3j

    def run():
        # the scan, and the worst pair (i, j) of each box as resolve gives it
        pairs = [GREENS._resolver(spec, shape, z, params.c2).resolve(centers)[3:]
                 for shape in enumerate_shapes(2, 2)]
        return scan_boxes(spec, 4, 2, z, params, centers=centers), pairs

    whole, whole_pairs = run()
    # 25 entries hold one 5 x 5 cube: every box is its own batch
    monkeypatch.setattr(GREENS, "BATCH_ENTRIES", 25)
    single, single_pairs = run()
    assert np.array_equal(whole.centers, single.centers)
    assert whole.norm.shape == single.norm.shape
    for (i, j), (i1, j1) in zip(whole_pairs, single_pairs, strict=True):
        assert np.array_equal(i, i1) and np.array_equal(j, j1)
    assert np.array_equal(whole.margin, single.margin)
    assert whole.norm == pytest.approx(single.norm, rel=1e-12)


def test_engine_takes_one_spectrum_per_box_for_every_energy(monkeypatch):
    # H does not depend on z: a scan at k energies calls eigvalsh once per
    # (shape, batch), as a one-energy scan does, and gives the verdicts of
    # k one-energy scans bit for bit
    spec = amo_2d(3.0, 0.3)
    params = ClassificationParams(c2=0.8, sigma=0.5)
    centers = list(scan_centers(3, 2))
    zs = [0.2 + 1e-3j, -1.5 + 1e-3j, 4.0 + 1e-3j]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    scan = scan_boxes(spec, 4, 2, zs, params, centers=centers)
    shapes = enumerate_shapes(2, 2)
    batches = [max(1, GREENS.BATCH_ENTRIES // len(list(s.points())) ** 2)
               for s in shapes]
    assert len(calls) == sum(math.ceil(len(centers) / b) for b in batches)
    assert sum(calls) == scan.box_spectra == len(shapes) * len(centers)
    assert scan.boxes == len(zs) * scan.box_spectra
    multi = len(calls)
    singles = [scan_boxes(spec, 4, 2, z, params, centers=centers) for z in zs]
    assert len(calls) == (1 + len(zs)) * multi
    assert scan.energies == tuple(zs) and scan.norm_bound == singles[0].norm_bound
    for single in singles:
        assert np.array_equal(single.centers, scan.centers)
    for field in ("norm", "margin", "residual"):
        assert np.array_equal(getattr(scan, field),
                              np.concatenate([getattr(s, field) for s in singles]))
    # and the worst pairs, as resolve gives them at all energies and at one
    for shape in shapes:
        i, j = GREENS._resolver(spec, shape, zs, params.c2).resolve(centers)[3:]
        for k, z in enumerate(zs):
            i1, j1 = GREENS._resolver(spec, shape, z, params.c2).resolve(centers)[3:]
            assert np.array_equal(i[k], i1[0]) and np.array_equal(j[k], j1[0])


@pytest.mark.parametrize("zs", [[], [0.2 + 1e-3j, 0.5 + 0.0j]], ids=["none", "two-eps"])
def test_scan_energies_must_share_one_im_z(zs):
    # Im z picks each shape's resolver, once for all the energies of a scan
    with pytest.raises(ValueError, match="energ"):
        scan_boxes(AMO3, 4, 2, zs, ClassificationParams())


def test_engine_reports_singular_box():
    # z equal to an eigenvalue of the box, as greens() reports it
    with pytest.raises(np.linalg.LinAlgError):
        classify_box(constant_diag(1.0), ElementaryRegion((0,), 3), 1.0 + 0.0j,
                     ClassificationParams())


def amo_type_1d(kernel, coupling=1.0):
    """A 1-d model with the given kernel and coupling and the potential of
    AMO3."""
    return OperatorSpec(
        kernel,
        PotentialSpec.cosine_series({(1,): 6.0}),
        ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.3,)),
        coupling,
    )


# a tridiagonal box with an on-site kernel term S(0) and coupling != 1
ONSITE3 = amo_type_1d(KernelSpec.toeplitz({(0,): 0.7, (1,): 0.9}, math.e, 1.0), 3.0)
# the same with negative hopping, b = -0.3: the sign of b enters h / b, the
# column's -1/b and the residual's b g
NEGATIVE_HOP3 = amo_type_1d(
    KernelSpec.toeplitz({(0,): 0.7, (1,): -0.9}, math.e, 1.0), 3.0
)


@pytest.mark.parametrize("spec, z, tridiagonal, recursion", [
    (AMO3, 0.5 + 1e-3j, True, True),
    (constant_diag(1.0), 0.5 + 1e-3j, True, True),
    (AMO3, 0.5 + 0.0j, True, False),
    (amo_type_1d(KernelSpec.toeplitz({(1,): 0.3 + 0.6j}, math.e, 1.0)),
     0.5 + 1e-3j, False, False),
    (amo_type_1d(KernelSpec.toeplitz({(1,): 1.0, (2,): 0.3}, math.e, 1.0)),
     0.5 + 1e-3j, False, False),
    (amo_2d(3.0, 0.3), 0.5 + 1e-3j, False, False),
    (ONSITE3, 0.5 + 1e-3j, True, True),
    (NEGATIVE_HOP3, 0.5 + 1e-3j, True, True),
], ids=["amo", "zero-kernel", "eps-0", "complex-hopping", "range-2", "2d",
        "onsite-coupling-3", "negative-hopping"])
def test_resolver_routing(spec, z, tridiagonal, recursion):
    # the recursion takes tridiagonal boxes off the real axis; the batched
    # engine takes every other box
    assert (spec.tridiagonal is not None) == tridiagonal
    for shape in enumerate_shapes(spec.dimension, 3):
        resolver = GREENS._resolver(spec, shape, z, 0.8)
        assert isinstance(resolver, GREENS._TridiagonalResolver) == recursion
        assert isinstance(resolver, GREENS._TranslateEngine) != recursion


def norms_agree(norm, oracle, spread):
    """||G|| = 1/dist(z, spectrum) within 1e-12 relative, or distances
    within ``spread``: the eigenvalues of a dense backward-stable solver are
    only accurate to about n eps ||H||, which moves a distance eps' = |w - E|
    near eps by up to the same amount."""
    return abs(norm - oracle) <= 1e-12 * oracle or abs(1 / norm - 1 / oracle) <= spread


@st.composite
def recursion_scans(draw):
    lam = draw(st.floats(0.5, 5.0))
    amo = almost_mathieu(lam, GOLDEN, draw(st.floats(0.0, 1.0, exclude_max=True)))
    spec = draw(st.sampled_from((amo, ONSITE3, NEGATIVE_HOP3)))
    sub = draw(st.integers(1, 40))
    centers = draw(st.lists(st.integers(-50, 50).map(lambda c: (c,)),
                            min_size=1, max_size=4, unique=True))
    eps = 10.0 ** draw(st.floats(-4.0, -1.0))
    w = np.linalg.eigvalsh(assemble(spec, ElementaryRegion(centers[0], sub)))
    zs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # next to an eigenvalue of a box, where the norm clause is decided
            offset = draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.floats(-5.0, -1.0))
            energy = float(draw(st.sampled_from(w.tolist()))) + offset
        else:
            # the spectrum lies in [-K + 1, K - 1]: energies inside it and off it
            K = spec.spectral_bound + 2.0
            energy = draw(st.floats(-K, K))
        zs.append(complex(energy, eps))
    params = ClassificationParams(c2=draw(st.floats(0.01, 1.0)), sigma=0.5)
    return spec, sub, centers, zs, params


@given(recursion_scans())
@settings(max_examples=80, deadline=None)
def test_recursion_matches_engine_and_lu_oracle(scan):
    # 1 to 3 energies sharing eps, stacked into one sweep of the recursion
    spec, sub, centers, zs, params = scan
    n = 2 * sub + 1
    spread = n * np.finfo(float).eps * spec.spectral_bound
    engine = GREENS._TranslateEngine(spec, ElementaryRegion((0,), sub), zs, params.c2)
    scan = scan_boxes(spec, sub + 1, sub, zs, params, centers=centers)
    reports = bad_sets(spec, sub + 1, sub, zs, params, centers=centers)
    for k, (z, report) in enumerate(zip(zs, reports)):
        assert report.max_residual == scan.residual[k].max()
        # a one-energy pass sweeps fewer columns, and numpy's complex loops
        # may round a lone column differently: its residual, a rounding-level
        # figure, agrees within the recursion's residual bound
        single = bad_set(spec, sub + 1, sub, z, params, centers=centers)
        assert dataclasses.replace(report, max_residual=single.max_residual) == single
        assert abs(report.max_residual - single.max_residual) <= spread * scan.norm[k].max()
    # one shape in 1-d: box [k, c, 0] is the engine's box [k, c]
    engine_norm, engine_margin = engine.resolve(centers)[:2]
    for (k, c, s), region in scanned_boxes(scan, spec, sub):
        v_norm, v_margin = scan.norm[k, c, s], scan.margin[k, c, s]
        norm, witness, good, strongly_good = lu_verdict(spec, region, zs[k], params)
        for other_norm, other_margin in ((engine_norm[k, c], engine_margin[k, c]),
                                         (norm, witness.margin)):
            assert v_margin == pytest.approx(other_margin, abs=1e-10)
            assert norms_agree(v_norm, other_norm, spread), (v_norm, other_norm)
        # the column residual of a backward-stable recursion
        assert scan.residual[k, c, s] <= spread * v_norm
        if abs(witness.margin) > 1e-9:
            assert scan.good[k, c, s] == good
            if abs(math.log(norm / scan.norm_bound)) > 1e-9:
                assert scan.strongly_good[k, c, s] == strongly_good
                assert (region.center in reports[k].bad_centers) != strongly_good


def test_recursion_batches_do_not_change_verdicts(monkeypatch):
    params = ClassificationParams(c2=0.8, sigma=0.5)
    z = 0.2 + 1e-3j
    whole = scan_boxes(AMO3, 30, 12, z, params)
    whole_bad = bad_set(AMO3, 30, 12, z, params)
    # 25 entries hold one interval of 25 sites: every box is its own batch
    monkeypatch.setattr(GREENS, "RECURSION_ENTRIES", 25)
    single = scan_boxes(AMO3, 30, 12, z, params)
    assert np.array_equal(whole.centers, single.centers)
    for field in ("good", "strongly_good"):
        assert np.array_equal(getattr(whole, field), getattr(single, field))
    for field in ("margin", "norm", "residual"):
        assert getattr(whole, field) == pytest.approx(getattr(single, field), rel=1e-12)
    assert bad_set(AMO3, 30, 12, z, params).bad_centers == whole_bad.bad_centers


MULTI_ENERGY_SCANS = {
    # one shape: the pass resolves every center at every energy
    "1d-recursion": (AMO3, 30, 12, None),
    # 25 entries hold one interval of 25 sites: every column is its own sweep
    "1d-recursion-entries-25": (AMO3, 30, 12, 25),
    # five shapes: a center leaves the pass at an energy where a shape fails
    "2d-engine": (amo_2d(3.0, 0.3), 4, 2, None),
}


@pytest.mark.parametrize("case", MULTI_ENERGY_SCANS.values(), ids=MULTI_ENERGY_SCANS.keys())
def test_bad_sets_are_the_one_energy_bad_sets(monkeypatch, case):
    spec, size, sub, entries = case
    params = ClassificationParams(c2=0.8, sigma=0.5)
    zs = [0.2 + 1e-3j, -1.5 + 1e-3j, 4.0 + 1e-3j, 9.0 + 1e-3j]
    if entries is not None:
        monkeypatch.setattr(GREENS, "RECURSION_ENTRIES", entries)
    singles = [bad_set(spec, size, sub, z, params) for z in zs]
    sweeps, solved = [], []
    fractions, inv, sytrf = GREENS.continued_fractions, np.linalg.inv, sla.lapack.zsytrf

    def recorded_fractions(work, numerators):
        sweeps.append(work.shape[0] * work.shape[2])
        return fractions(work, numerators)

    # the engine's factorisations: an LU of each box of a stack, or one LDL^T
    def counted_inv(a):
        solved.append(len(a))
        return inv(a)

    def counted_sytrf(a, **options):
        solved.append(1)
        return sytrf(a, **options)

    monkeypatch.setattr(GREENS, "continued_fractions", recorded_fractions)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(sla.lapack, "zsytrf", counted_sytrf)
    reports = bad_sets(spec, size, sub, zs, params)
    for report, single in zip(reports, singles):
        assert report.z == single.z
        assert report.bad_centers == single.bad_centers
        assert (report.count, report.total_centers) == (single.count, single.total_centers)
        assert report.max_residual == single.max_residual
        assert report.boxes == single.boxes
    assert len({r.box_spectra for r in reports}) == 1
    assert 0 < sum(r.count for r in reports) < sum(r.total_centers for r in reports)
    if spec.dimension == 1:
        # one sweep for every energy, none over RECURSION_ENTRIES entries
        centers = singles[0].total_centers
        assert len(sweeps) == (1 if entries is None else len(zs) * centers)
        assert max(sweeps) <= GREENS.RECURSION_ENTRIES
        assert reports[0].box_spectra == 0 and not solved
    else:
        # each energy solves only the boxes of its own early exits, and a
        # box still strongly good at any energy takes one spectrum for all
        assert sum(solved) == sum(r.boxes for r in reports)
        assert len({r.boxes for r in reports}) > 1
        assert max(r.boxes for r in reports) <= reports[0].box_spectra
        assert reports[0].box_spectra < sum(s.box_spectra for s in singles)


def test_a_many_energy_pass_stays_within_the_sweep_budget():
    # 37 energies at N1 = 63 (127 sites) over one chunk of 64 centers: the
    # translate batch shrinks 37-fold, so one sweep holds at most
    # RECURSION_ENTRIES entries, its working arrays about a hundred bytes
    # an entry, plus 1 MiB for the rest; the 37 x 64 boxes in one sweep
    # would not fit
    zs = [complex(e, 1e-3) for e in np.linspace(-9.0, 9.0, 37)]
    centers = [(c,) for c in range(64)]
    params = ClassificationParams(c2=0.8, sigma=0.5)
    bad_sets(AMO3, 64, 63, zs[:1], params, centers)  # warm the caches
    tracemalloc.start()
    try:
        reports = bad_sets(AMO3, 64, 63, zs, params, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = 128 * GREENS.RECURSION_ENTRIES + (1 << 20)
    assert peak <= budget
    assert 128 * len(zs) * len(centers) * 127 > budget
    assert len(reports) == len(zs)


@pytest.mark.parametrize("energy, strongly_good", [(1.0, False), (3.0, True)])
def test_zero_kernel_margin_is_minus_infinity(energy, strongly_good):
    # b = 0: G is diagonal, so every far pair has |G| = 0 exactly
    spec, z = constant_diag(1.0), complex(energy, 1e-3)
    params = ClassificationParams(c2=0.8, sigma=0.5)
    v = classify_box(spec, ElementaryRegion((0,), 6), z, params)
    assert v.witness.margin == -math.inf
    # the first far pair, as the engine and the oracle name it
    assert v.witness.pair == ((-6,), (-5,))
    assert v.norm == pytest.approx(1.0 / abs(1.0 - z), rel=1e-12)
    assert 0.0 <= v.residual < 1e-15
    assert (v.good, v.strongly_good) == (True, strongly_good)
    report = bad_set(spec, 8, 6, z, params)
    assert report.count == (0 if strongly_good else report.total_centers)
    assert 0.0 <= report.max_residual < 1e-15


# a free range-2 kernel: its boxes take the batched engine
FREE_RANGE2 = OperatorSpec(KernelSpec.toeplitz({(1,): 1.0, (2,): 0.3}, math.e, 1.0),
                           PotentialSpec.constant_value(0.0), STILL)


@pytest.mark.parametrize("spec, sub, recursion", [
    (free_laplacian(1), 460, True),
    (free_laplacian(1), 500, True),
    (FREE_RANGE2, 500, False),
], ids=["recursion-460", "recursion-500", "engine-500"])
def test_margins_stay_exact_where_decay_bounds_underflow(spec, sub, recursion):
    # the farthest pair has c2 |n - n'| = 0.8 (2 N1): its bound exp(-736) is
    # subnormal at N1 = 460, and exp(-800) is 0 at N1 = 500
    z, params = 0.5 + 1e-3j, ClassificationParams(c2=0.8, sigma=0.5)
    region = ElementaryRegion((0,), sub)
    resolver = GREENS._resolver(spec, region, z, params.c2)
    assert isinstance(resolver, GREENS._TridiagonalResolver) == recursion
    verdict = classify_box(spec, region, z, params)
    ok, witness = is_good(spec, region, z, params.c2)
    assert (ok, witness) == (verdict.good, verdict.witness)
    (n,), (m,) = witness.pair
    oracle = math.log(abs(greens(spec, region, z).entry((n,), (m,)))) + 0.8 * abs(n - m)
    assert verdict.witness.margin == pytest.approx(oracle, abs=1e-9)
    assert witness.bound == math.exp(-witness.exponent)
    assert witness.value == math.exp(witness.margin - witness.exponent)
    # past an exponent of about 745 both derived numbers read 0
    far = DecayWitness(witness.pair, margin=-1.0, exponent=800.0)
    assert (far.value, far.bound, far.margin) == (0.0, 0.0, -1.0)
    centers = [(0,), (7,)]
    scan = scan_boxes(spec, sub + 1, sub, z, params, centers=centers)
    report = bad_set(spec, sub + 1, sub, z, params, centers=centers)
    assert scan_bad_centers(scan) == set(report.bad_centers)


@pytest.mark.parametrize("entry", ["classify_box", "scan_boxes", "bad_set"])
def test_tridiagonal_box_on_an_eigenvalue_raises(entry):
    # eps = 0 leaves the recursion; the engine reports the singular box
    spec, z, params = constant_diag(1.0), 1.0 + 0.0j, ClassificationParams()
    run = {
        "classify_box": lambda: classify_box(spec, ElementaryRegion((0,), 3), z, params),
        "scan_boxes": lambda: scan_boxes(spec, 4, 3, z, params),
        "bad_set": lambda: bad_set(spec, 4, 3, z, params),
    }[entry]
    with pytest.raises(np.linalg.LinAlgError):
        run()


@pytest.mark.parametrize("spec, sub, energy, c2, pair", [
    (free_laplacian(1), 200, 6.8, 2.0, None),
    (free_laplacian(1), 500, 2.64, 0.8, None),
    (constant_diag(1.0), 20, 0.5, 0.8, ((-20,), (-18,))),
], ids=["laplacian-200", "laplacian-500", "zero-kernel"])
def test_engine_ranks_far_pairs_by_the_margin_it_reports(spec, sub, energy, c2, pair):
    # eps = 0 takes the engine.  Off the spectrum the Laplacian's far entries
    # underflow to 0 before they fall below exp(-c2 |n - n'|); a 0 enters at
    # log(2^-1074), in the engine as in the oracle.  A box with no hopping
    # has an exactly diagonal G, whose far entries are exact zeros: it names
    # its first far pair at -inf
    region, z = ElementaryRegion((0,), sub), complex(energy, 0.0)
    params = ClassificationParams(c2=c2, sigma=0.5)
    norm, witness, good, strongly_good = lu_verdict(spec, region, z, params)
    verdict = classify_box(spec, region, z, params)
    ok, worst = is_good(spec, region, z, c2)
    assert (verdict.good, verdict.strongly_good, ok) == (good, strongly_good, good)
    for margin in (verdict.witness.margin, worst.margin):
        assert margin == pytest.approx(witness.margin, abs=1e-9)
    assert verdict.witness.pair == worst.pair == witness.pair
    report = bad_set(spec, sub + 1, sub, z, params, centers=[(0,)])
    assert report.count == (0 if strongly_good else 1)
    if pair is None:
        # off the real axis the recursion, with no floor, agrees
        assert not good
        assert not classify_box(spec, region, complex(energy, 1e-12), params).good
    else:
        assert witness.pair == pair
        assert (good, witness.margin) == (True, -math.inf)


def cos6(kernel):
    """``kernel`` with the potential 6 cos(2 pi theta) along a golden orbit."""
    return OperatorSpec(kernel, PotentialSpec.cosine_series({(1,): 6.0}),
                        ShiftDynamics(RANK_ONE, (GOLDEN,), (0.3,)))


ENGINE_PATHS = {
    # complex hopping: H - z is not symmetric, so the engine keeps its LU
    # solve at every order
    "complex-1d": (cos6(KernelSpec.toeplitz({(1,): 0.3 + 0.6j}, math.e, 1.0)), 6, False),
    "complex-range-2": (cos6(KernelSpec.toeplitz(
        {(1,): 0.3 + 0.6j, (2,): 0.1 - 0.2j}, math.e, 1.0)), 8, False),
    # real hopping on either side of both ends of GREENS.LDL_ORDERS
    "real-order-9": (cos6(FREE_RANGE2.kernel), 4, False),
    "real-order-11": (cos6(FREE_RANGE2.kernel), 5, True),
    "real-2d-orders-40-49": (amo_2d(3.0, 0.3), 3, True),
    "real-order-599": (cos6(FREE_RANGE2.kernel), 299, True),
    "real-order-601": (cos6(FREE_RANGE2.kernel), 300, False),
}


@pytest.mark.parametrize("spec, sub, ldl", ENGINE_PATHS.values(), ids=ENGINE_PATHS.keys())
def test_engine_matches_lu_oracle_on_either_factorisation(spec, sub, ldl):
    # the engine inverts a box of real hopping by LDL^T inside LDL_ORDERS and
    # by LU elsewhere; both give the oracle's norm and margin, a residual at
    # rounding level, and a pair whose margin in the oracle's G is the
    # oracle's worst.  Pairs are not compared as such: where |G(i, j)| =
    # |G(j, i)| the oracle picks either order by rounding, and LDL^T names
    # the one with i < j
    params = ClassificationParams(c2=0.8, sigma=0.5)
    zs = (0.0 + 1e-3j, 1.0 + 1e-3j)
    center = (7,) * spec.dimension
    for shape in enumerate_shapes(spec.dimension, sub):
        engine = GREENS._resolver(spec, shape, zs, params.c2)
        assert isinstance(engine, GREENS._TranslateEngine)
        assert engine.ldl == ldl
        region = shape.translate(center)
        for z, norm, margin, residual, i, j in zip(zs, *engine.resolve([center])):
            oracle_norm, oracle, _, _ = lu_verdict(spec, region, z, params)
            assert norm[0] == pytest.approx(oracle_norm, rel=1e-9)
            assert margin[0] == pytest.approx(oracle.margin, rel=1e-9, abs=1e-9)
            assert residual[0] < 1e-10
            pair = [tuple(np.add(p, center).tolist())
                    for p in engine.witness(i[0], j[0], margin[0]).pair]
            value = abs(greens(spec, region, z).entry(*pair))
            at_pair = math.log(value) + params.c2 * oracle_sup_dist(*pair)
            assert at_pair == pytest.approx(oracle.margin, rel=1e-9, abs=1e-9)
            assert i[0] < j[0] or not ldl


RESIDUAL_PATHS = {k: ENGINE_PATHS[k] for k in (
    "real-2d-orders-40-49", "real-order-9", "real-order-601", "complex-1d")}


def engine_box(spec, sub, z):
    """The engine of the full cube of size ``sub`` at ``z``, the cube's H
    centered at 7 as the engine builds it, and A = H - z."""
    cube = ElementaryRegion((0,) * spec.dimension, sub)
    engine = GREENS._resolver(spec, cube, z, 0.8)
    H = assemble(spec, cube.translate((7,) * spec.dimension))
    A = H.astype(np.complex128)
    A[np.diag_indices(len(H))] -= z
    return engine, H, A


@pytest.mark.parametrize("spec, sub, ldl", RESIDUAL_PATHS.values(),
                         ids=RESIDUAL_PATHS.keys())
def test_engine_residual_is_the_complex_product_residual(spec, sub, ldl):
    # the engine takes ||(H - z) G - I||_F as H G - z G - I, a real H in one
    # real product; it must read the complex product's residual, at rounding
    # level for the engine's own G and to 1e-9 relative for a G that is off
    # by 1e-6 in one entry.  The LDL^T path inverts the stack it is given
    z = 0.5 + 1e-3j
    engine, H, A = engine_box(spec, sub, z)
    assert engine.ldl == ldl
    stack = A[None].copy()
    G = engine._invert(stack, z)
    assert np.shares_memory(G, stack) == ldl

    def complex_product(G):
        return np.linalg.norm(A @ G[0] - np.eye(len(A)), "fro")

    assert GREENS._residual_norm(H[None], G, z)[0] < 1e-12
    assert complex_product(G) < 1e-12
    G[0, 2, 5] += 1e-6
    assert (GREENS._residual_norm(H[None], G, z)[0]
            == pytest.approx(complex_product(G), rel=1e-9))


def test_an_underflowed_far_entry_does_not_certify_decay():
    # at z = 6.8 the free Laplacian's G decays at rate acosh(3.4) = 1.8946,
    # just below c2, so its margin grows with |n - n'| and turns positive
    # only past the |n - n'| of about 390 where G underflows to 0.  A 0
    # enters at log(2^-1074), so the box reads not good, as the recursion,
    # which has no floor, reads it
    spec, region = free_laplacian(1), ElementaryRegion((0,), 500)
    params = ClassificationParams(c2=1.897, sigma=0.5)
    engine = classify_box(spec, region, 6.8 + 0.0j, params)
    recursion = classify_box(spec, region, 6.8 + 1e-12j, params)
    assert not engine.good and not recursion.good
    assert engine.witness.pair == ((-500,), (500,))
    assert engine.witness.margin == math.log(math.ulp(0.0)) + 1.897 * 1000


def test_an_exactly_diagonal_engine_box_names_its_first_far_pair():
    # with no hopping G is diagonal, so its far entries are exact zeros and
    # not underflow: the engine (order 1001, the LU path) names the first
    # far pair at -inf, as the recursion does off the real axis
    spec, region = constant_diag(1.0), ElementaryRegion((0,), 500)
    params = ClassificationParams(c2=0.8, sigma=0.5)
    engine = classify_box(spec, region, 0.5 + 0.0j, params)
    recursion = classify_box(spec, region, 0.5 + 1e-3j, params)
    for verdict in (engine, recursion):
        assert verdict.good
        assert verdict.witness.pair == ((-500,), (-450,))
        assert verdict.witness.margin == -math.inf
    assert is_good(spec, region, 0.5 + 0.0j, params.c2) == (True, engine.witness)


@pytest.mark.parametrize("spec, sub, ldl", RESIDUAL_PATHS.values(),
                         ids=RESIDUAL_PATHS.keys())
def test_an_engine_box_with_no_zero_far_entry_keeps_its_margin(spec, sub, ldl):
    # where no far entry of G is 0 the floor changes nothing: the margin is
    # the largest log|G(i, j)| + c2 |i - j| over the far pairs, bit for bit
    z = 0.5 + 1e-3j
    engine, _, A = engine_box(spec, sub, z)
    G = engine._invert(A[None].copy(), z)[0].reshape(-1)[engine.far]
    assert np.all(G != 0.0)
    margin = (np.log(np.abs(G)) + engine.decay).max()
    assert engine.resolve([(7,) * spec.dimension])[1][0, 0] == margin


@pytest.mark.parametrize("spec, z, sub", [
    (AMO3, 0.5 + 1e-3j, 9),
    (AMO3, 0.5 + 0.0j, 9),
    (FREE_RANGE2, 0.5 + 1e-3j, 7),
    (amo_2d(3.0, 0.3), 0.5 + 1e-3j, 3),
], ids=["recursion", "engine-eps-0", "engine-range-2", "engine-2d"])
def test_witness_exponent_is_c2_times_the_pair_distance(spec, z, sub):
    c2 = 0.37
    centers = [(0,) * spec.dimension, (5,) * spec.dimension, (-3,) * spec.dimension]
    for shape in enumerate_shapes(spec.dimension, sub):
        resolver = GREENS._resolver(spec, shape, z, c2)
        _, margin, _, i, j = resolver.resolve(centers)
        assert margin.shape == i.shape == j.shape == (1, len(centers))
        for box in zip(i[0].tolist(), j[0].tolist(), margin[0].tolist()):
            witness = resolver.witness(*box)
            assert witness.exponent == c2 * oracle_sup_dist(*witness.pair)
