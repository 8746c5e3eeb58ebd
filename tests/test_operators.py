import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_assemble
from qpdyn.lattice import ElementaryRegion, GeneralizedRegion
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
    site_list,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def still_dynamics(b=1):
    return ShiftDynamics(LINEAR_FORM, (0.0,) * b, (0.0,) * b)


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
            assert val == pytest.approx(v((t,)), abs=1e-14)

    def test_sup_bound(self):
        v = PotentialSpec.cosine_series({(1,): 6.0})
        assert v.sup_bound() == 6.0


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

    def test_rank_one_mode(self):
        d = ShiftDynamics(RANK_ONE, (0.3, 0.4), (0.1,))
        assert d.orbit((1, 1))[0] == pytest.approx((0.1 + 0.3 + 0.4) % 1.0)

    def test_product_mode(self):
        d = ShiftDynamics(PRODUCT, (0.3, 0.4), (0.1, 0.2))
        assert d.orbit((2, 0)) == pytest.approx(((0.1 + 0.6) % 1.0, 0.2))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ShiftDynamics("skew", (0.1,), (0.0,))
        with pytest.raises(ValueError):
            ShiftDynamics(RANK_ONE, (0.1, 0.2), (0.0, 0.0))


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
