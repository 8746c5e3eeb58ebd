import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_assemble
from qpdyn.dynamics import evolve
from qpdyn.lattice import ElementaryRegion, GeneralizedRegion, site
from qpdyn.operators import (
    LINEAR_FORM,
    PRODUCT,
    RANK_ONE,
    KernelSpec,
    OperatorSpec,
    PotentialSpec,
    ShiftDynamics,
    StateVector,
    almost_mathieu,
    assemble,
    diagonal_model,
    free_laplacian,
    hopping_block,
    potential_values,
    site_list,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def still_dynamics(b=1):
    return ShiftDynamics(LINEAR_FORM, (0.0,) * b, (0.0,) * b)


def assert_rejects_site(dynamics, site):
    """A site of a dimension the mode does not take raises on every path."""
    d = 1 if dynamics.mode == LINEAR_FORM else len(dynamics.alpha)
    spec = OperatorSpec(
        KernelSpec.laplacian(d), PotentialSpec.constant_value(1.0, dynamics.torus_dim),
        dynamics,
    )
    for read in (lambda: dynamics.orbit(site),
                 lambda: dynamics.orbit_array([site]),
                 lambda: potential_values(spec, [site]),
                 lambda: spec.potential_at(site)):
        with pytest.raises(ValueError, match=f"no site of dimension {len(site)}"):
            read()


class TestKernel:
    def test_zero(self):
        k = KernelSpec.zero(2)
        assert k.row_sum() == 0.0
        assert k.value((1, 0)) == 0.0

    def test_laplacian_row_sum(self):
        assert KernelSpec.laplacian(1).row_sum() == 2.0
        assert KernelSpec.laplacian(2).row_sum() == 4.0

    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            KernelSpec(1, (((1,), 1.0 + 0.5j), ((-1,), 1.0 + 0.5j)))
        # the decay envelope skips k = 0, and NaN is never Hermitian: both
        # are caught as non-finite first
        for value in (math.inf, math.nan, complex(0.0, math.nan)):
            with pytest.raises(ValueError, match="not finite"):
                KernelSpec(1, (((0,), value),))

    def test_decay_enforced(self):
        with pytest.raises(ValueError, match="decay"):
            KernelSpec.toeplitz({(3,): 1.0}, decay_amplitude=1.0, decay_rate=1.0)

    @pytest.mark.parametrize("amplitude,rate", [
        (0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
    ])
    def test_decay_constants_must_be_positive(self, amplitude, rate):
        with pytest.raises(ValueError, match="decay constants"):
            KernelSpec(1, (), decay_amplitude=amplitude, decay_rate=rate)

    @pytest.mark.parametrize("coupling", [0.0, -1.0, math.nan])
    def test_coupling_must_be_positive(self, coupling):
        amo = almost_mathieu(3.0, GOLDEN)
        with pytest.raises(ValueError, match="coupling"):
            OperatorSpec(amo.kernel, amo.potential, amo.dynamics, coupling)

    def test_toeplitz_autofills_conjugate(self):
        k = KernelSpec.toeplitz({(2,): 0.1 - 0.05j}, 2.0, 0.5)
        assert k.value((-2,)) == (0.1 + 0.05j)


class TestPotential:
    def test_scalar_and_vector_paths_agree(self):
        v = PotentialSpec(
            1, constant=0.5, cosine=(((1,), 2.0), ((2,), -0.3)), sine=(((1,), 0.7),)
        )
        thetas = np.linspace(0.0, 1.0, 13)[:, None]
        vec = v.values(thetas)
        for t, val in zip(thetas[:, 0], vec):
            expected = (
                0.5 + 2.0 * math.cos(2 * math.pi * t)
                - 0.3 * math.cos(4 * math.pi * t) + 0.7 * math.sin(2 * math.pi * t)
            )
            assert val == pytest.approx(expected, abs=1e-14)
            assert v((t,)) == val

    def test_sup_bound(self):
        v = PotentialSpec.cosine_series({(1,): 6.0})
        assert v.sup_bound() == 6.0

    def test_sine_term_by_hand(self):
        # theta = n / 8: v = 1/2 + 2 cos(2 pi theta) + (3/4) sin(4 pi theta)
        v = PotentialSpec(
            1, constant=0.5, cosine=(((1,), 2.0),), sine=(((2,), 0.75),)
        )
        spec = diagonal_model(v, ShiftDynamics(LINEAR_FORM, (0.125,), (0.0,)))
        got = potential_values(spec, [(1,), (2,), (3,)])
        expected = [0.5 + math.sqrt(2.0) + 0.75, 0.5, 0.5 - math.sqrt(2.0) - 0.75]
        assert got == pytest.approx(expected, abs=1e-14)
        assert v((0.125,)) == pytest.approx(expected[0], abs=1e-14)

    @pytest.mark.parametrize("kwargs", [
        {"constant": math.nan}, {"constant": math.inf},
        {"cosine": (((1,), math.nan),)}, {"sine": (((1,), -math.inf),)},
    ], ids=["constant-nan", "constant-inf", "cosine-nan", "sine-inf"])
    def test_coefficients_must_be_finite(self, kwargs):
        with pytest.raises(ValueError, match="not finite"):
            PotentialSpec(1, **kwargs)

    @pytest.mark.parametrize("v", [
        PotentialSpec(2, constant=1.0),
        PotentialSpec(2, cosine=(((1, 0), 1.0),)),
    ], ids=["constant-only", "with-terms"])
    def test_points_must_match_the_torus_dimension(self, v):
        with pytest.raises(ValueError, match="torus_dim 2"):
            v.values([[0.1]])


class TestShiftDynamics:
    def test_cocycle_exact_on_dyadic_rationals(self):
        d = ShiftDynamics(LINEAR_FORM, (3 / 8,), (1 / 4,))
        for m in range(-6, 7):
            for n in range(-6, 7):
                lhs = d.orbit((m + n,))
                rhs = ShiftDynamics(LINEAR_FORM, d.alpha, d.orbit((n,))).orbit((m,))
                assert lhs == rhs

    def test_linear_form_example(self):
        d = ShiftDynamics(LINEAR_FORM, (0.25,), (0.0,))
        v = PotentialSpec.cosine_series({(1,): 1.0})
        spec = diagonal_model(v, d)
        assert spec.potential_at((1,)) == pytest.approx(0.0, abs=1e-15)
        # x + n alpha, not x - n alpha: the sine and the orbit tell them apart
        assert d.orbit((1,)) == (0.25,)
        assert d.orbit_array([(3,), (-1,)]).tolist() == [[0.75], [0.75]]
        sine = diagonal_model(PotentialSpec(1, sine=(((1,), 1.0),)), d)
        assert sine.potential_at((1,)) == pytest.approx(1.0, abs=1e-15)
        # one index drives every torus axis
        d2 = ShiftDynamics(LINEAR_FORM, (0.25, 0.125), (0.0, 0.5))
        assert d2.orbit((3,)) == (0.75, 0.875)
        assert_rejects_site(d, (1, 5))
        assert_rejects_site(d2, (1, 5))

    def test_rank_one_mode(self):
        d = ShiftDynamics(RANK_ONE, (0.3, 0.4), (0.1,))
        assert d.orbit((1, 1))[0] == pytest.approx((0.1 + 0.3 + 0.4) % 1.0)
        # an asymmetric site with dyadic alpha and x, so the orbit is exact
        d = ShiftDynamics(RANK_ONE, (0.25, 0.375), (0.125,))
        assert d.orbit((2, -1)) == (0.25,)
        assert d.orbit_array([(2, -1), (-1, 2)]).tolist() == [[0.25], [0.625]]
        assert_rejects_site(d, (2,))
        assert_rejects_site(d, (2, -1, 0))

    def test_product_mode(self):
        d = ShiftDynamics(PRODUCT, (0.3, 0.4), (0.1, 0.2))
        assert d.orbit((2, 0)) == pytest.approx(((0.1 + 0.6) % 1.0, 0.2))
        d = ShiftDynamics(PRODUCT, (0.25, 0.375), (0.125, 0.5))
        assert d.orbit((2, -1)) == (0.625, 0.125)
        assert d.orbit_array([(2, -1), (-1, 2)]).tolist() == [
            [0.625, 0.125], [0.875, 0.25],
        ]
        assert_rejects_site(d, (2,))
        assert_rejects_site(d, (2, -1, 0))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ShiftDynamics("skew", (0.1,), (0.0,))
        with pytest.raises(ValueError):
            ShiftDynamics(RANK_ONE, (0.1, 0.2), (0.0, 0.0))
        for alpha, phase in [((math.nan,), (0.0,)), ((0.25,), (math.inf,))]:
            with pytest.raises(ValueError, match="finite"):
                ShiftDynamics(LINEAR_FORM, alpha, phase)


class TestAssemble:
    def test_constant_diagonal(self):
        spec = diagonal_model(PotentialSpec.constant_value(2.5), still_dynamics())
        H = assemble(spec, ElementaryRegion((0,), 3))
        assert np.array_equal(H, 2.5 * np.eye(7))

    def test_free_laplacian_tridiagonal(self):
        H = assemble(free_laplacian(1), ElementaryRegion((0,), 1))
        assert np.array_equal(
            H, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        )

    def test_amo_diagonal_entries(self):
        spec = almost_mathieu(3.0, GOLDEN, 0.0)
        H = assemble(spec, ElementaryRegion((0,), 2))
        for i, n in enumerate(range(-2, 3)):
            assert H[i, i] == pytest.approx(
                6.0 * math.cos(2.0 * math.pi * n * GOLDEN), abs=1e-12
            )

    def test_exact_hermiticity_bit_level(self):
        k = KernelSpec.toeplitz(
            {(1,): 0.4 + 0.3j, (2,): -0.1j}, decay_amplitude=2.0, decay_rate=0.4
        )
        spec = OperatorSpec(
            k,
            PotentialSpec.cosine_series({(1,): 1.0}),
            ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.2,)),
        )
        H = assemble(spec, ElementaryRegion((0,), 8))
        assert (H == H.conj().T).all()

    def test_covariance_under_translation(self):
        spec = almost_mathieu(2.0, 3 / 8, 1 / 4)
        for k in [(1,), (-4,), (7,)]:
            shifted = spec.with_phase(spec.dynamics.orbit(k))
            A = assemble(shifted, ElementaryRegion((0,), 3))
            B = assemble(spec, ElementaryRegion(k, 3))
            assert np.array_equal(A, B)

    def test_accepts_point_lists_and_generalized_regions(self):
        spec = free_laplacian(1)
        pts = [(0,), (2,), (1,)]
        H = assemble(spec, pts)
        assert H.shape == (3, 3)
        g = GeneralizedRegion((0, 0), (1, 1), cut=(1, 1))
        H2 = assemble(free_laplacian(2), g)
        assert H2.shape[0] == len(site_list(g))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble(free_laplacian(1), [])

    def test_hopping_block_reads_sites_by_the_integer_rule(self):
        # a float site array is not truncated into neighbouring sites
        with pytest.raises(ValueError, match="must be an integer"):
            hopping_block(free_laplacian(1), np.array([[0.5], [1.5]]))
        H = hopping_block(free_laplacian(1), np.array([[0], [1]]))
        assert np.array_equal(H, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "spec, region",
        [
            (almost_mathieu(3.0, GOLDEN, 0.3), ElementaryRegion((7,), 12)),
            (free_laplacian(2), ElementaryRegion((1, -2), 3, ("<", ">"))),
            (free_laplacian(3), ElementaryRegion((0, 0, 0), 3, ("<", "<", None))),
            (free_laplacian(2), GeneralizedRegion((0, 0), (2, 3), cut=(1, 1))),
            (free_laplacian(1), [(0,), (3,), (1,), (10**12,)]),
            (
                OperatorSpec(
                    KernelSpec.toeplitz(
                        {(0,): 0.5, (1,): 0.4 + 0.3j, (3,): -0.1j},
                        decay_amplitude=2.0, decay_rate=0.4,
                    ),
                    PotentialSpec.cosine_series({(1,): 1.0}),
                    ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.2,)),
                    coupling=3.0,
                ),
                ElementaryRegion((-4,), 9),
            ),
            (
                OperatorSpec(
                    KernelSpec.toeplitz(
                        {(0,): 0.5, (1,): 0.4 + 0.3j, (3,): -0.1j},
                        decay_amplitude=2.0, decay_rate=0.4,
                    ),
                    PotentialSpec.cosine_series({(1,): 1.0}),
                    ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.2,)),
                    coupling=3.0,
                ),
                ElementaryRegion((0,), 64),
            ),
        ],
    )
    def test_matches_per_site_loop_bit_for_bit(self, spec, region):
        H = assemble(spec, region)
        ref = oracle_assemble(spec, site_list(region))
        assert H.dtype == ref.dtype
        assert H.tobytes() == ref.tobytes()


class TestSpectralBound:
    def test_zero_operator(self):
        spec = diagonal_model(PotentialSpec.constant_value(0.0), still_dynamics())
        assert spec.spectral_bound == 1.0

    def test_free_laplacian(self):
        assert free_laplacian(1).spectral_bound == 3.0

    def test_amo(self):
        assert almost_mathieu(3.0, GOLDEN).spectral_bound == 9.0

    @pytest.mark.parametrize(
        "spec,n",
        [
            (almost_mathieu(3.0, GOLDEN, 0.3), 400),
            (free_laplacian(1), 500),
            (free_laplacian(2), 12),
        ],
    )
    def test_eigenvalues_inside_bound(self, spec, n):
        H = assemble(spec, ElementaryRegion((0,) * spec.dimension, n))
        assert H.shape[0] <= 2000
        w = np.linalg.eigvalsh(H)
        K = spec.spectral_bound
        assert w.min() >= -K + 1 and w.max() <= K - 1


def amo_with_kernel(kernel, coupling=1.0):
    return OperatorSpec(
        kernel, PotentialSpec.cosine_series({(1,): 6.0}), still_dynamics(), coupling
    )


@pytest.mark.parametrize("spec, expected", [
    (almost_mathieu(3.0, GOLDEN, 0.3), True),
    (free_laplacian(1), True),
    (amo_with_kernel(KernelSpec.toeplitz({(1,): 1.0}, 8.0, 1.0)), True),
    (amo_with_kernel(KernelSpec.laplacian(1), coupling=2.0), False),
    (amo_with_kernel(KernelSpec.toeplitz({(2,): 1.0}, 8.0, 1.0)), False),
    (amo_with_kernel(KernelSpec.toeplitz({(1,): -1.0}, 8.0, 1.0)), False),
    (free_laplacian(2), False),
    # every box is v + the Laplacian: S(+-1) / coupling = 2 / 2
    (amo_with_kernel(KernelSpec.toeplitz({(1,): 2.0}, 8.0, 1.0), coupling=2.0),
     True),
], ids=["amo", "free", "toeplitz-envelope", "coupling-2", "offset-2",
        "hopping-minus-1", "2d", "hopping-2-coupling-2"])
def test_is_schrodinger_1d_reads_the_hopping_not_the_envelope(spec, expected):
    # H = v + the 1-d Laplacian is the band (S(0), S(1)) / coupling = (0, 1)
    assert (spec.tridiagonal == (0.0, 1.0)) == expected


class TestStateVector:
    def test_delta(self):
        phi = StateVector.delta((3,))
        assert phi.norm_sq() == 1.0
        assert phi.support_radius == 3

    def test_dense(self):
        phi = StateVector({(0,): 1.0, (2,): -2.0j})
        v = phi.dense([(-1,), (0,), (2,)])
        assert np.array_equal(v, np.array([0.0, 1.0, -2.0j]))
        assert phi.norm_sq() == pytest.approx(5.0)

    @pytest.mark.parametrize("sites", [
        [(-1,), (0,), (1,)],  # (2,) lies outside
        [(0, 0), (2, 0)],  # sites of another dimension
    ])
    def test_dense_rejects_support_outside_sites(self, sites):
        phi = StateVector({(0,): 1.0, (2,): -2.0j})
        with pytest.raises(ValueError, match="not among the sites"):
            phi.dense(sites)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_amplitudes_must_be_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            StateVector({(0,): 1.0, (1,): value})

    def test_amplitudes_cannot_be_changed_after_the_check(self):
        phi = StateVector.delta((0,))
        with pytest.raises(TypeError):
            phi.amplitudes[(1,)] = math.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            phi.amplitudes = {(1,): math.nan}
        res = evolve(almost_mathieu(3.0, 0.618), phi, [1.0], 8)
        assert math.isfinite(res.leakage) and math.isfinite(res.norm_drift)
        assert pickle.loads(pickle.dumps(phi)) == phi


@given(
    hop=st.complex_numbers(
        max_magnitude=0.9, allow_nan=False, allow_infinity=False
    ),
    amp=st.floats(min_value=-3.0, max_value=3.0),
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=30, deadline=None)
def test_assembled_volumes_are_hermitian(hop, amp, alpha):
    kernel = KernelSpec.toeplitz({(1,): hop}, decay_amplitude=2.5, decay_rate=1.0)
    spec = OperatorSpec(
        kernel,
        PotentialSpec.cosine_series({(1,): amp}),
        ShiftDynamics(LINEAR_FORM, (alpha,), (0.1,)),
    )
    H = assemble(spec, ElementaryRegion((0,), 5))
    assert (H == H.conj().T).all()
    w = np.linalg.eigvalsh(H)
    K = spec.spectral_bound
    assert w.min() >= -K + 1 - 1e-12 and w.max() <= K - 1 + 1e-12


@st.composite
def regions(draw):
    """An elementary region or a rectangle in d = 1..3, full or cut, at a
    center off the origin."""
    d = draw(st.integers(1, 3))
    center = tuple(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)))
    if draw(st.booleans()):
        sector = ()
        if d >= 2 and draw(st.booleans()):
            sector = tuple(draw(st.lists(st.sampled_from(["<", ">", None]),
                                         min_size=d, max_size=d)))
            if sum(s is not None for s in sector) < 2:
                sector = ("<", ">") + sector[2:]
        return ElementaryRegion(center, draw(st.integers(1, 3)), sector)
    widths = tuple(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    cut = None
    if draw(st.booleans()):
        cut = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    return GeneralizedRegion(center, widths, cut)


@given(regions())
@settings(max_examples=60, deadline=None)
def test_a_region_lists_its_points_as_sorted_sites(region):
    # a region's points are integer tuples in lexicographic order already,
    # so site_list takes them as they come
    sites = site_list(region)
    assert sites == tuple(sorted(map(site, region.points())))
    assert all(type(c) is int for p in sites for c in p)
    assert site_list(reversed(sites)) == sites
