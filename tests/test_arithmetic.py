import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_diophantine
from qpdyn.arithmetic import (
    ContinuedFraction,
    DiophantineParams,
    DiophantineReport,
    continued_fraction,
    diophantine_check,
    discrepancy,
    orbit_points,
)
from qpdyn.operators import LINEAR_FORM, PRODUCT, ShiftDynamics

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def brute_force_1d(x):
    """Deviation over all candidate intervals, endpoints nudged both ways.

    Shrinking intervals [v, v + eps] around each value are included; they
    carry the supremum when points coincide."""
    x = sorted(x)
    n = len(x)
    eps = 1e-9
    cands = [0.0] + x + [1.0 - eps]
    best = 0.0
    for a in cands:
        for b in cands + [a + eps]:
            for aa in (a, a + eps):
                for bb in (b, b - eps):
                    if bb <= aa or bb >= 1.0:
                        continue
                    cnt = sum(1 for v in x if aa <= v <= bb)
                    best = max(best, abs(cnt / n - (bb - aa)))
    return best


class TestDiscrepancy1d:
    @pytest.mark.parametrize("n", [1, 4, 10, 100])
    def test_equally_spaced_is_exactly_one_over_n(self, n):
        report = discrepancy(np.arange(n) / n)
        assert report.value == pytest.approx(1.0 / n, abs=1e-12)
        assert report.method == "exact-1d"

    def test_constant_orbit_sup_is_one_not_attained(self):
        report = discrepancy(np.full(9, 0.3))
        assert report.value == 1.0
        assert not report.attained
        assert report.witness_low == report.witness_high == (0.3,)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            x = rng.random(int(rng.integers(2, 15)))
            got = discrepancy(x).value
            want = brute_force_1d(list(x))
            assert got == pytest.approx(want, abs=1e-8)

    def test_golden_orbit_envelope(self):
        dyn = ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.0,))
        for n in (100, 1000, 10000):
            pts = orbit_points(dyn, n)
            report = discrepancy(pts)
            assert n * report.value / math.log(n) ** 2 <= 3.0

    def test_rotation_band(self):
        # the box family does not wrap, so a common rotation moves the
        # value by at most a factor of two (both sides bound the wrapped sup)
        dyn = ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.0,))
        pts = orbit_points(dyn, 200)[:, 0]
        vals = [discrepancy((pts + c) % 1.0).value for c in (0.0, 0.2, 0.55, 0.9)]
        assert max(vals) <= 2.0 * min(vals) + 1e-12

    def test_rejects_points_outside_torus(self):
        with pytest.raises(ValueError):
            discrepancy([0.5, 1.0])

    @pytest.mark.parametrize("points", [[], [[]]], ids=["flat", "nested"])
    def test_no_points_raises(self, points):
        # atleast_2d read both as one point of no coordinates: IndexError
        with pytest.raises(ValueError, match="need at least one point"):
            discrepancy(points)

    @pytest.mark.parametrize("points", [[0.5, math.nan], [[0.1, math.nan], [0.2, 0.3]]],
                             ids=["1d", "2d"])
    def test_a_nan_coordinate_raises(self, points):
        # a NaN passed the [0, 1) check: the value read nan in 1-d, 0.8 in 2-d
        with pytest.raises(ValueError, match=r"\[0, 1\)\^b"):
            discrepancy(points)


class TestDiscrepancyNd:
    def test_matches_brute_force_2d(self):
        def oracle(pts):
            n = len(pts)
            eps = 1e-9
            cx = [0.0] + sorted({p[0] for p in pts}) + [1.0 - eps]
            cy = [0.0] + sorted({p[1] for p in pts}) + [1.0 - eps]
            best = 0.0
            for a in cx:
                for b in cx:
                    for c in cy:
                        for d in cy:
                            for aa in (a, a + eps):
                                for bb in (b, b - eps):
                                    for cc in (c, c + eps):
                                        for dd in (d, d - eps):
                                            if bb <= aa or dd <= cc:
                                                continue
                                            cnt = sum(
                                                1
                                                for p in pts
                                                if aa <= p[0] <= bb
                                                and cc <= p[1] <= dd
                                            )
                                            dev = abs(
                                                cnt / n - (bb - aa) * (dd - cc)
                                            )
                                            best = max(best, dev)
            return best

        rng = np.random.default_rng(5)
        for _ in range(5):
            pts = rng.random((int(rng.integers(2, 8)), 2))
            got = discrepancy(pts, grid_resolution=None)
            assert got.method == "grid-bd"
            assert got.value == pytest.approx(oracle([tuple(p) for p in pts]), abs=1e-6)

    def test_thinned_grid_is_lower_bound(self):
        rng = np.random.default_rng(11)
        pts = rng.random((120, 2))
        full = discrepancy(pts, grid_resolution=None).value
        thin = discrepancy(pts, grid_resolution=16).value
        assert thin <= full + 1e-12

    def test_linear_form_orbit_in_two_torus_dims(self):
        dyn = ShiftDynamics(LINEAR_FORM, (GOLDEN, math.sqrt(2) - 1.0), (0.1, 0.7))
        pts = orbit_points(dyn, 60)
        assert pts.shape == (60, 2)
        report = discrepancy(pts)
        assert 0.0 < report.value <= 1.0


class TestOrbitPoints:
    def test_linear_form_sequence(self):
        dyn = ShiftDynamics(LINEAR_FORM, (0.25,), (0.1,))
        pts = orbit_points(dyn, 4)[:, 0]
        assert pts == pytest.approx([0.35, 0.6, 0.85, 0.1])

    def test_rejects_multi_index_dynamics(self):
        dyn = ShiftDynamics(PRODUCT, (0.3, 0.4), (0.0, 0.0))
        with pytest.raises(ValueError):
            orbit_points(dyn, 5)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, True])
    def test_a_count_that_is_not_an_integer_raises(self, n_points):
        # 2.5 gave 3 points, and True one
        dyn = ShiftDynamics(LINEAR_FORM, (0.25,), (0.1,))
        with pytest.raises(ValueError, match="must be an integer"):
            orbit_points(dyn, n_points)
        assert orbit_points(dyn, np.int64(3)).shape == (3, 1)

    @pytest.mark.parametrize("n_points", [-3, 0])
    def test_a_count_below_one_raises(self, n_points):
        # -3 gave an empty (0, 1) array
        dyn = ShiftDynamics(LINEAR_FORM, (0.25,), (0.1,))
        with pytest.raises(ValueError, match="at least 1"):
            orbit_points(dyn, n_points)


class TestDiophantine:
    def test_golden_mean_passes(self):
        report = diophantine_check(
            GOLDEN, DiophantineParams(kappa=1.01, tau=0.3, k_max=10**6)
        )
        assert report.passed
        assert report.margin >= 0.3

    def test_one_half_fails_at_k_two(self):
        report = diophantine_check(
            0.5, DiophantineParams(kappa=2.0, tau=1e-12, k_max=10)
        )
        assert not report.passed
        assert report.worst_k == (2,)
        assert report.margin == 0.0

    def test_liouville_like_number_fails_at_denominator(self):
        # [0; 1, 1, 1, 50000, ...] has a huge quotient, so its convergent
        # denominator q = 3 witnesses a near-resonance
        alpha = 1.0 / (1.0 + 1.0 / (1.0 + 1.0 / (1.0 + 1.0 / 50000.0)))
        report = diophantine_check(
            alpha, DiophantineParams(kappa=1.2, tau=0.05, k_max=100)
        )
        assert not report.passed
        assert report.worst_k == (3,)

    def test_symmetry_alpha_vs_one_minus_alpha(self):
        params = DiophantineParams(kappa=1.3, tau=0.2, k_max=2000)
        a = diophantine_check(GOLDEN, params)
        b = diophantine_check(1.0 - GOLDEN, params)
        assert a.margin == pytest.approx(b.margin, rel=1e-12)
        assert a.worst_k == b.worst_k

    def test_two_dimensional_vector(self):
        report = diophantine_check(
            (0.5, 0.5), DiophantineParams(kappa=1.5, tau=1e-9, k_max=4)
        )
        assert not report.passed
        assert np.dot(report.worst_k, (0.5, 0.5)) % 1.0 == 0.0

    def test_two_frequency_certificate(self):
        # the frequency vector of the 2-d benchmark model
        report = diophantine_check(
            (GOLDEN, math.sqrt(2.0) - 1.0),
            DiophantineParams(kappa=2.5, tau=0.01, k_max=1000),
        )
        assert report.passed
        assert report.worst_k == (1, 1)

    @pytest.mark.parametrize("k_max", [2.5, True, "3"])
    def test_a_cutoff_that_is_not_an_integer_raises(self, k_max):
        # 2.5 raised TypeError inside range, and True ran at a cutoff of 1
        with pytest.raises(ValueError, match="k_max must be an integer"):
            DiophantineParams(k_max=k_max)
        assert type(DiophantineParams(k_max=np.int64(3)).k_max) is int

    @pytest.mark.parametrize("field", ["kappa", "tau"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_non_finite_exponent_or_constant_raises(self, field, value):
        # kappa = inf passed with margin inf at k = (0,), outside the
        # half-box, and tau = inf failed every frequency
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            DiophantineParams(**{field: value})

    def test_default_cutoff_is_one_dimensional(self):
        # None means 10^6 at b = 1, and the report names the cutoff it used
        assert DiophantineParams().k_max is None
        report = diophantine_check(GOLDEN)
        assert report.params == DiophantineParams(k_max=10**6)
        assert report == diophantine_check(GOLDEN, DiophantineParams(k_max=10**6))
        # at b = 2 the same default would mean about 2e12 vectors
        with pytest.raises(ValueError, match="k_max"):
            diophantine_check((GOLDEN, math.sqrt(2.0) - 1.0))

    def test_rejects_an_empty_frequency_vector(self):
        with pytest.raises(ValueError, match="alpha"):
            diophantine_check([])

    @pytest.mark.parametrize("alpha", [[math.nan], (GOLDEN, math.inf)])
    def test_rejects_a_frequency_that_is_not_finite(self, alpha):
        # every distance ||k.alpha|| of a NaN frequency is NaN, which no
        # margin comparison catches
        with pytest.raises(ValueError, match="finite frequencies"):
            diophantine_check(alpha, DiophantineParams(k_max=100))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiophantineParams(kappa=0.5)
        with pytest.raises(ValueError):
            DiophantineParams(tau=-1.0)
        # NaN fails every bound, rather than passing it
        for name in ("kappa", "tau", "k_max"):
            with pytest.raises(ValueError, match=name):
                DiophantineParams(**{name: math.nan})


class TestContinuedFraction:
    def test_golden_mean_all_ones(self):
        cf = continued_fraction(GOLDEN, 20)
        assert cf.quotients == (1,) * 20
        assert not cf.rational

    def test_silver_mean_all_twos(self):
        cf = continued_fraction(math.sqrt(2.0) - 1.0, 12)
        assert cf.quotients == (2,) * 12

    def test_one_third_flagged_rational(self):
        cf = continued_fraction(1.0 / 3.0, 10)
        assert cf.quotients == (3,)
        assert cf.rational
        assert cf.convergents == ((1, 3),)

    def test_convergent_quality(self):
        for alpha in (GOLDEN, math.sqrt(2.0) - 1.0, math.pi - 3.0):
            cf = continued_fraction(alpha, 15)
            for p, q in cf.convergents:
                assert abs(alpha - p / q) < 1.0 / q**2

    def test_convergent_denominators_are_near_resonances(self):
        # cross-check against the Diophantine scan: ||q alpha|| < 1/q
        cf = continued_fraction(GOLDEN, 15)
        for _, q in cf.convergents:
            frac = (q * GOLDEN) % 1.0
            assert min(frac, 1.0 - frac) < 1.0 / q

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            continued_fraction(1.5)
        with pytest.raises(ValueError):
            continued_fraction(GOLDEN, depth=0)

    @pytest.mark.parametrize("depth", [True, 2.5, 3.0])
    def test_a_depth_that_is_not_an_integer_raises(self, depth):
        # True ran at depth 1, and 2.5 raised TypeError inside range
        with pytest.raises(ValueError, match="must be an integer"):
            continued_fraction(GOLDEN, depth=depth)
        assert continued_fraction(GOLDEN, depth=np.int64(3)).quotients == (1, 1, 1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12, 1.0])
    def test_a_rational_tolerance_outside_the_unit_interval_raises(self, tol):
        # nan (and 0) ended in ZeroDivisionError on the exact rational 0.5
        with pytest.raises(ValueError, match="rational_tol"):
            continued_fraction(0.5, rational_tol=tol)
        cf = continued_fraction(0.5)
        assert (cf.quotients, cf.rational) == ((2,), True)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_discrepancy_matches_brute_force_property(xs):
    got = discrepancy(np.asarray(xs)).value
    assert got == pytest.approx(brute_force_1d(xs), abs=1e-8)
    assert 0.0 <= got <= 1.0


@st.composite
def diophantine_cases(draw):
    b = draw(st.sampled_from((1, 2, 3)))
    if b == 1:
        alpha = (draw(st.floats(-1.0, 1.0)),)
    else:
        # generic components: no rational relation makes two vectors tie
        # within the rounding of k . alpha
        seed = draw(st.integers(0, 2**32 - 1))
        alpha = tuple(np.random.default_rng(seed).random(b).tolist())
    k_max = draw(st.integers(1, {1: 300, 2: 12, 3: 4}[b]))
    params = DiophantineParams(
        kappa=draw(st.floats(1.0, 3.0)), tau=draw(st.floats(1e-6, 1.0)), k_max=k_max
    )
    return alpha, params


@given(diophantine_cases())
@settings(max_examples=100, deadline=None)
def test_diophantine_scan_matches_per_vector_oracle(case):
    alpha, params = case
    worst, margin = oracle_diophantine(alpha, params.kappa, params.k_max)
    report = diophantine_check(alpha, params)
    assert report.worst_k == worst
    assert report.passed == (margin >= params.tau)
    if len(alpha) == 1:
        assert report.margin == margin
    else:
        # k . alpha is summed in another order than np.dot's: its rounding,
        # times the weight |k|^kappa, bounds the difference
        eps = np.finfo(float).eps
        dot = sum(abs(k * a) for k, a in zip(worst, alpha))
        weight = max(abs(k) for k in worst) ** params.kappa
        assert abs(report.margin - margin) <= 8 * eps * (weight * dot + margin)
