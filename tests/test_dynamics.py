import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import jv

from qpdyn import dynamics
from qpdyn.dynamics import (
    AmplitudeTable,
    LyapunovEstimate,
    QuadratureError,
    amplitude_table_direct,
    amplitude_table_parseval,
    double_while_flagged,
    evolve,
    fit_log_exponent,
    lyapunov_estimate,
    moment_series,
    _apply,
    _box_eigh,
    _leggauss,
)
from qpdyn.lattice import sup_norm
from oracles import (
    oracle_assemble,
    oracle_band_breaks,
    oracle_parseval_table,
    oracle_time_average,
)
from qpdyn.greens import RECURSION_ENTRIES
from qpdyn.operators import (
    LINEAR_FORM,
    RANK_ONE,
    KernelSpec,
    OperatorSpec,
    PotentialSpec,
    ShiftDynamics,
    StateVector,
    almost_mathieu,
    diagonal_model,
    free_laplacian,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
STILL = ShiftDynamics(LINEAR_FORM, (0.0,), (0.0,))
AMO3 = almost_mathieu(3.0, GOLDEN, 0.3)
DELTA0 = StateVector.delta((0,))


@pytest.fixture
def decompositions(monkeypatch):
    """The arguments of every box decomposition started during a test."""
    started = []
    for name in ("_box_eigh", "_source_column"):
        real = getattr(dynamics, name)
        monkeypatch.setattr(
            dynamics, name,
            lambda *args, real=real: started.append(args) or real(*args))
    return started


class TestEvolve:
    def test_time_zero_identity(self):
        res = evolve(free_laplacian(1), DELTA0, [0.0], 16)
        (nonzero,) = np.flatnonzero(res.amplitudes[0])
        assert res.sites[nonzero] == (0,)
        assert res.amplitudes[0, nonzero] == 1.0 + 0.0j

    def test_diagonal_evolution_is_phase_rotation(self):
        spec = diagonal_model(PotentialSpec.constant_value(2.0), STILL)
        phi = StateVector({(1,): 0.6, (-2,): 0.8j})
        res = evolve(spec, phi, [3.0], 16)
        for site, amp in phi.amplitudes.items():
            got = res.amplitudes[0, res.sites.index(site)]
            assert got == pytest.approx(amp * np.exp(-6.0j), abs=1e-12)

    def test_free_laplacian_matches_bessel_oracle(self):
        res = evolve(free_laplacian(1), DELTA0, [2.0, 5.0], 64)
        for row, t in zip(res.amplitudes, (2.0, 5.0)):
            for n in range(-8, 9):
                got = abs(row[res.sites.index((n,))])
                assert got == pytest.approx(abs(jv(n, 2.0 * t)), abs=1e-12)

    def test_unitarity_and_leakage(self):
        res = evolve(AMO3, DELTA0, [1.0, 10.0, 50.0], 64)
        assert res.norm_drift < 1e-10
        assert res.leakage < 1e-12
        assert not res.flagged

    def test_leakage_flagging(self):
        # ballistic front hits the shell of a tiny box almost immediately
        res = evolve(free_laplacian(1), DELTA0, [30.0], 16, leakage_tol=1e-8)
        assert res.flagged

    def test_preconditions(self):
        with pytest.raises(ValueError, match="sorted"):
            evolve(free_laplacian(1), DELTA0, [2.0, 1.0], 16)
        with pytest.raises(ValueError, match="supported"):
            evolve(free_laplacian(1), StateVector.delta((10,)), [1.0], 16)

    @pytest.mark.parametrize("call,match", [
        (lambda spec: evolve(spec, DELTA0, [1.0], 8), "not among the sites"),
        (lambda spec: moment_series(spec, DELTA0, 2.0, [1.0], 8),
         "not among the sites"),
        (lambda spec: amplitude_table_direct(spec, DELTA0, 5.0, 8),
         "not among the sites"),
        (lambda spec: amplitude_table_parseval(spec, (0,), 5.0, 8),
         "not among the sites"),
    ], ids=["evolve", "moment_series", "direct", "parseval"])
    def test_state_of_wrong_dimension_raises(self, call, match, decompositions):
        # a 1-d site on a 2-d box used to give silent zeros, and the check
        # needs no dense eigh of the box
        with pytest.raises(ValueError, match=match):
            call(free_laplacian(2))
        assert decompositions == []

    @pytest.mark.parametrize("call,match", [
        (lambda: evolve(AMO3, DELTA0, [1.0, math.inf], 8), "finite"),
        (lambda: evolve(AMO3, DELTA0, [math.nan], 8), "finite"),
        (lambda: moment_series(AMO3, DELTA0, math.nan, [1.0], 8),
         "p must be positive"),
        (lambda: amplitude_table_direct(AMO3, DELTA0, math.nan, 8), "horizon"),
        (lambda: amplitude_table_direct(AMO3, DELTA0, math.inf, 8), "horizon"),
        (lambda: amplitude_table_parseval(AMO3, (0,), math.nan, 8), "horizon"),
        (lambda: amplitude_table_parseval(AMO3, (0,), math.inf, 8), "horizon"),
        (lambda: amplitude_table_parseval(AMO3, (0,), 5.0, 8, band_edge=math.nan),
         "band edge"),
        (lambda: amplitude_table_parseval(AMO3, (0,), 5.0, 8, band_edge=-1.0),
         "band edge"),
        (lambda: evolve(AMO3, DELTA0, [1.0], 8, leakage_tol=math.nan),
         "leakage_tol"),
        (lambda: evolve(AMO3, DELTA0, [1.0], 8, leakage_tol=-1e-8),
         "leakage_tol"),
        (lambda: amplitude_table_direct(AMO3, DELTA0, 5.0, 8, leakage_tol=math.nan),
         "leakage_tol"),
        (lambda: amplitude_table_direct(AMO3, DELTA0, 5.0, 8, leakage_tol=math.inf),
         "leakage_tol"),
        (lambda: amplitude_table_parseval(AMO3, (0,), 5.0, 8, leakage_tol=math.nan),
         "leakage_tol"),
        (lambda: amplitude_table_parseval(AMO3, (0,), 5.0, 8, rel_tol=math.nan),
         "rel_tol"),
        (lambda: amplitude_table_parseval(AMO3, (0,), 5.0, 8, rel_tol=0.0),
         "rel_tol"),
        (lambda: amplitude_table_parseval(
            AMO3, (0,), 5.0, 8, control_orders=(0.0, math.nan)), "control orders"),
        (lambda: amplitude_table_parseval(
            AMO3, (0,), 5.0, 8, control_orders=(0.0, -1.0)), "control orders"),
        (lambda: amplitude_table_parseval(AMO3, (0,), 5.0, 8, control_orders=()),
         "control orders"),
    ], ids=["evolve-t-inf", "evolve-t-nan", "series-p", "direct-T-nan",
            "direct-T-inf", "parseval-T-nan", "parseval-T-inf",
            "parseval-edge-nan", "parseval-edge-negative", "evolve-leakage-tol-nan",
            "evolve-leakage-tol-negative", "direct-leakage-tol-nan",
            "direct-leakage-tol-inf", "parseval-leakage-tol-nan",
            "parseval-rel-tol-nan", "parseval-rel-tol-zero", "parseval-order-nan",
            "parseval-order-negative", "parseval-orders-empty"])
    def test_a_non_finite_input_raises_before_any_decomposition(
        self, call, match, decompositions
    ):
        # unchecked, t = inf gives leakage NaN, which no tolerance flags,
        # T = nan spins the band bisections for seconds, and band edge -1
        # gives a table of total mass -0.69; a NaN leakage_tol never flags,
        # rel_tol NaN or 0 and a NaN order run all MAX_PANELS bisections
        # before a QuadratureError, a negative order divides by zero at the
        # origin, and no order at all fails inside np.vstack
        with pytest.raises(ValueError, match=match):
            call()
        assert decompositions == []

    def test_site_norms_match_per_site_loop(self):
        spec = free_laplacian(2)
        sites, norms, _, _ = _box_eigh(spec, 6)
        loop = np.array([float(sup_norm(n)) for n in sites])
        assert norms.tobytes() == loop.tobytes()
        res = evolve(spec, StateVector.delta((0, 0)), [1.0], 6)
        assert res.norms.tobytes() == loop.tobytes()
        table = amplitude_table_direct(spec, StateVector.delta((0, 0)), 2.0, 6)
        assert table.moment(1.5) == float((loop**1.5) @ table.values)

    def test_adaptive_radius_doubles_until_safe(self):
        def run(times):
            return lambda r: evolve(free_laplacian(1), DELTA0, times, r)

        res = double_while_flagged(run([10.0]), 16, max_doublings=3)
        assert res.radius == 64
        assert not res.flagged
        capped = double_while_flagged(run([200.0]), 16, max_doublings=1)
        assert capped.radius == 32
        assert capped.flagged

    @pytest.mark.parametrize("clean_from,max_doublings,radii", [
        (None, 2, [8, 16, 32]),  # capped: max_doublings + 1 attempts
        (16, 3, [8, 16]),
        (8, 3, [8]),
        (None, 0, [8]),
    ])
    def test_doubling_policy_attempts(self, clean_from, max_doublings, radii):
        tried = []

        def run(r):
            tried.append(r)
            flagged = clean_from is None or r < clean_from
            return SimpleNamespace(radius=r, flagged=flagged)

        result = double_while_flagged(run, 8, max_doublings)
        assert tried == radii
        assert result.radius == radii[-1]
        assert result.flagged == (clean_from is None)


def _amo_type(kernel, coupling=1.0):
    return OperatorSpec(
        kernel,
        PotentialSpec.cosine_series({(1,): 6.0}),
        ShiftDynamics(LINEAR_FORM, (GOLDEN,), (0.3,)),
        coupling,
    )


# a tridiagonal box with an on-site kernel term S(0) and coupling != 1
ONSITE3 = _amo_type(KernelSpec.toeplitz({(0,): 0.7, (1,): 0.9}, math.e, 1.0), 3.0)
# the same with negative hopping, b = -0.3
NEGATIVE_HOP3 = _amo_type(
    KernelSpec.toeplitz({(0,): 0.7, (1,): -0.9}, math.e, 1.0), 3.0
)


class TestBoxEigensolver:
    """Both paths of ``_box_eigh`` against a dense ``eigh`` of the oracle
    matrix: the tridiagonal path for real nearest-neighbour 1-d boxes, the
    dense path for every other box."""

    @staticmethod
    def _decompose(monkeypatch, spec, radius):
        """An uncached ``_box_eigh``, and whether it took the tridiagonal
        path."""
        calls = []
        solver = dynamics.eigh_tridiagonal

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return solver(*args, **kwargs)

        monkeypatch.setattr(dynamics, "eigh_tridiagonal", counted)
        sites, _, w, U = _box_eigh.__wrapped__(spec, radius)
        return sites, w, U, calls == [len(sites)]

    @staticmethod
    def _check_against_oracle(sites, w, U, spec):
        H = oracle_assemble(spec, sites)
        scale = np.linalg.norm(H, 2)
        assert np.abs(w - np.linalg.eigh(H)[0]).max() <= 1e-13 * scale
        assert np.linalg.norm(H @ U - U * w) < 1e-12
        assert np.linalg.norm(U.conj().T @ U - np.eye(len(w))) < 1e-12

    @pytest.mark.parametrize("radius", [64, 512])
    @pytest.mark.parametrize("spec", [AMO3, free_laplacian(1), ONSITE3],
                             ids=["amo3", "free-1d", "onsite-coupling-3"])
    def test_tridiagonal_path_matches_dense_oracle(self, monkeypatch, spec,
                                                   radius):
        sites, w, U, tridiagonal = self._decompose(monkeypatch, spec, radius)
        assert tridiagonal
        assert not np.iscomplexobj(U)
        self._check_against_oracle(sites, w, U, spec)

    @pytest.mark.parametrize("spec,radius", [
        (free_laplacian(2), 6),
        (_amo_type(KernelSpec.toeplitz({(1,): 1.0, (2,): 0.3}, math.e, 1.0)),
         64),
        (_amo_type(KernelSpec.toeplitz({(1,): 0.3 + 0.6j}, math.e, 1.0)), 64),
    ], ids=["free-2d", "range-2", "complex-hopping"])
    def test_other_boxes_stay_dense(self, monkeypatch, spec, radius):
        sites, w, U, tridiagonal = self._decompose(monkeypatch, spec, radius)
        assert not tridiagonal
        self._check_against_oracle(sites, w, U, spec)

    @staticmethod
    def _dense_eigh(spec, radius):
        sites, norms, _, _ = _box_eigh(spec, radius)
        w, U = np.linalg.eigh(oracle_assemble(spec, sites))
        return sites, norms, w, U

    @pytest.mark.parametrize("radius", [64, 512])
    @pytest.mark.parametrize("spec", [AMO3, free_laplacian(1)],
                             ids=["amo3", "free-1d"])
    def test_dynamics_match_dense_oracle(self, spec, radius):
        # every product below casts the dense U to complex, as the library
        # did before it applied a real U in two real products
        times, T = [0.5, 5.0, 50.0], 20.0
        sites, norms, w, U = self._dense_eigh(spec, radius)
        Uc = U.astype(np.complex128)
        c = Uc.conj().T @ DELTA0.dense(sites)
        amps = (Uc @ (np.exp(-1j * np.outer(w, times)) * c[:, None])).T
        res = evolve(spec, DELTA0, times, radius)
        assert np.abs(res.amplitudes - amps).max() <= 1e-12 * np.abs(amps).max()
        moments = (np.abs(amps) ** 2) @ norms**2
        _, series = moment_series(spec, DELTA0, 2.0, times, radius)
        assert np.abs(series - moments).max() <= 1e-12 * moments.max()
        M = np.outer(c, c.conj()) / (1.0 + 0.5j * T * np.subtract.outer(w, w))
        table = np.einsum("nl,nl->n", Uc @ M, Uc.conj()).real
        direct = amplitude_table_direct(spec, DELTA0, T, radius)
        assert np.abs(direct.values - table).max() <= 1e-12 * table.max()

    @pytest.mark.parametrize("spec,radius", [
        (AMO3, 64),
        (free_laplacian(2), 6),
        (_amo_type(KernelSpec.toeplitz({(1,): 0.3 + 0.6j}, math.e, 1.0)), 64),
    ], ids=["amo3", "free-2d", "complex-hopping"])
    def test_direct_table_of_complex_state_matches_dense_oracle(self, spec, radius):
        # a complex state makes Im(c_l conj c_m) nonzero, which a delta
        # source on a real U never does
        e = (1,) + (0,) * (spec.dimension - 1)
        phi = StateVector({(0,) * spec.dimension: 1.0, e: 0.5j,
                           tuple(-2 * x for x in e): -0.3 + 0.2j})
        T = 20.0
        sites, _, w, U = self._dense_eigh(spec, radius)
        Uc = U.astype(np.complex128)
        c = Uc.conj().T @ phi.dense(sites)
        M = np.outer(c, c.conj()) / (1.0 + 0.5j * T * np.subtract.outer(w, w))
        table = np.einsum("nl,nl->n", Uc @ M, Uc.conj()).real
        direct = amplitude_table_direct(spec, phi, T, radius)
        assert np.abs(direct.values - table).max() <= 1e-12 * table.max()

    @pytest.mark.parametrize("spec", [AMO3, free_laplacian(1)],
                             ids=["amo3", "free-1d"])
    def test_parseval_table_matches_dense_oracle(self, monkeypatch, spec):
        # a 1-d energy route forms no eigenvectors: the dense oracle checks
        # the tridiagonal eigenvalues that set its first panel breaks
        table = amplitude_table_parseval(spec, (0,), 20.0, 64)
        sites, _, _, _ = self._dense_eigh(spec, 64)
        dense = np.linalg.eigvalsh(oracle_assemble(spec, sites))
        monkeypatch.setattr(dynamics, "eigvalsh_tridiagonal",
                            lambda *args, **kwargs: dense)
        oracle = amplitude_table_parseval(spec, (0,), 20.0, 64)
        scale = oracle.values.max()
        assert np.abs(table.values - oracle.values).max() <= 1e-12 * scale
        assert table.panels == oracle.panels

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 7)])
    def test_real_product_matches_complex_cast(self, order, shape):
        rng = np.random.default_rng(len(shape) + ord(order))
        U = np.asarray(rng.standard_normal((5, 7)), order=order)
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cast = U.astype(np.complex128) @ X
        got = _apply(U, X)
        assert got.dtype == np.complex128 and got.shape == cast.shape
        assert np.abs(got - cast).max() <= 1e-14 * np.abs(cast).max()
        Ut = np.asarray(rng.standard_normal((7, 5)), order=order).T
        assert np.abs(_apply(Ut, X) - Ut.astype(np.complex128) @ X).max() <= 1e-13
        Uc = U + 1j * rng.standard_normal(U.shape)
        assert np.array_equal(_apply(Uc, X), Uc @ X)


class TestMoment:
    def test_free_laplacian_ballistic_law(self):
        times, values = moment_series(free_laplacian(1), DELTA0, 2.0,
                                      [1.0, 4.0, 16.0], 256)
        assert times.tolist() == [1.0, 4.0, 16.0]
        for t, v in zip(times, values):
            assert v == pytest.approx(2.0 * t * t, rel=1e-6)

    @pytest.mark.parametrize("spec, phi, radius", [
        (AMO3, DELTA0, 64), (free_laplacian(2), StateVector.delta((0, 0)), 12),
    ], ids=["stevd", "dense"])
    def test_series_is_a_view_of_one_evolution(self, spec, phi, radius):
        times, p = [0.0, 0.5, 3.0, 20.0], 1.5
        got_times, values = moment_series(spec, phi, p, times, radius)
        run = evolve(spec, phi, times, radius)
        assert got_times.dtype == np.float64 and got_times.tolist() == times
        assert np.array_equal(values, run.moments(p))

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_every_moment_reader_rejects_nonpositive_p(self, p):
        # unchecked, p = -1 gives inf with a RuntimeWarning and p = 0 the mass
        run = evolve(AMO3, DELTA0, [1.0], 8)
        table = amplitude_table_direct(AMO3, DELTA0, 2.0, 8)
        for read in (lambda: moment_series(AMO3, DELTA0, p, [1.0], 8),
                     lambda: run.moments(p),
                     lambda: table.moment(p)):
            with pytest.raises(ValueError, match="p must be positive"):
                read()

    def test_series_carries_leakage_flag(self):
        # a series is read from one evolution, whose result carries the flag
        leaky = evolve(free_laplacian(1), DELTA0, [30.0], 16)
        assert leaky.flagged and leaky.leakage > 1e-8
        clean = evolve(free_laplacian(1), DELTA0, [1.0], 64)
        assert not clean.flagged


class TestDirectAverage:
    def test_zero_kernel_delta_origin(self):
        spec = diagonal_model(PotentialSpec.constant_value(1.0), STILL)
        for T in (1.0, 10.0):
            table = amplitude_table_direct(spec, DELTA0, T, 8)
            assert table.moment(2.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_kernel_delta_offsite(self):
        spec = diagonal_model(PotentialSpec.constant_value(1.0), STILL)
        phi = StateVector.delta((3,))
        table = amplitude_table_direct(spec, phi, 5.0, 16)
        assert table.moment(2.0) == pytest.approx(9.0, rel=1e-12)

    def test_flag_propagates(self):
        assert amplitude_table_direct(free_laplacian(1), DELTA0, 50.0, 32).flagged

    def test_leakage_is_shell_mass_of_the_averaged_table(self):
        # a(0, ., 2) of the free Laplacian stays far inside r = 64: the
        # exp(-2t/T) weight is tiny by the time the wave front (speed 2)
        # reaches the shell
        direct = amplitude_table_direct(free_laplacian(1), DELTA0, 2.0, 64)
        parseval = amplitude_table_parseval(free_laplacian(1), (0,), 2.0, 64)
        assert not direct.flagged
        assert direct.leakage == pytest.approx(parseval.leakage, abs=1e-12)
        shell = sum(direct.value_at((n,)) for n in range(-64, 65) if abs(n) > 57.6)
        assert 0.0 < shell < 1e-12
        assert abs(direct.leakage - shell) <= 1e-12 * shell


    @pytest.mark.parametrize("T", [1.0, 20.0, 200.0])
    @pytest.mark.parametrize("spec,phi,radius", [
        (free_laplacian(1), DELTA0, 64),
        (AMO3, DELTA0, 64),
        (free_laplacian(2), StateVector.delta((0, 0)), 6),
    ], ids=["free-1d", "amo3", "free-2d"])
    def test_matches_time_quadrature_oracle(self, spec, phi, radius, T):
        table = amplitude_table_direct(spec, phi, T, radius)
        oracle = oracle_time_average(spec, phi, T, table.sites)
        scale = np.abs(oracle).max()
        assert np.abs(table.values - oracle).max() <= 1e-13 * scale
        assert table.tail_bound == 0.0

    @pytest.mark.parametrize("spec", [free_laplacian(1), AMO3])
    def test_large_horizon_is_infinite_time_average(self, spec):
        # non-degenerate spectrum: the T -> inf limit keeps only l = m terms
        sites, _, w, U = _box_eigh(spec, 64)
        assert np.diff(w).min() > 1e-3
        c = U.conj().T @ DELTA0.dense(sites)
        limit = (np.abs(U) ** 2) @ (np.abs(c) ** 2)
        table = amplitude_table_direct(spec, DELTA0, 1e12, 64)
        assert np.abs(table.values - limit).max() <= 1e-12


class TestParseval:
    def test_zero_kernel_is_kronecker(self):
        # Lorentzian integral: (1/(T pi)) int dE / ((E - v)^2 + 1/T^2) = 1
        spec = diagonal_model(PotentialSpec.constant_value(1.3), STILL)
        table = amplitude_table_parseval(spec, (0,), 20.0, 8)
        assert table.value_at((0,)) == pytest.approx(1.0, abs=1e-8)
        off = [table.value_at((n,)) for n in range(-4, 5) if n != 0]
        assert max(off) < 1e-12

    @pytest.mark.parametrize("spec", [free_laplacian(1), AMO3])
    def test_normalization(self, spec):
        table = amplitude_table_parseval(spec, (0,), 20.0, 64)
        assert table.total() == pytest.approx(1.0, abs=1e-6)

    def test_cross_route_per_entry(self):
        direct = amplitude_table_direct(free_laplacian(1), DELTA0, 10.0, 64)
        parseval = amplitude_table_parseval(free_laplacian(1), (0,), 10.0, 64)
        assert np.abs(direct.values - parseval.values).max() < 1e-6

    @pytest.mark.parametrize("spec", [free_laplacian(1), AMO3])
    def test_route_equivalence_moments(self, spec):
        d = amplitude_table_direct(spec, DELTA0, 10.0, 64).moment(2.0)
        p = amplitude_table_parseval(spec, (0,), 10.0, 64).moment(2.0)
        assert abs(d - p) / d < 1e-6

    def test_band_edge_insensitivity(self):
        # growing the band only reshuffles panels; values stay put
        base = amplitude_table_parseval(AMO3, (0,), 20.0, 32)
        wide = amplitude_table_parseval(
            AMO3, (0,), 20.0, 32, band_edge=AMO3.spectral_bound + 3.0
        )
        assert np.abs(base.values - wide.values).max() < 1e-8

    def test_localized_moment_bounded_in_horizon(self):
        values = []
        for T in (10.0, 100.0, 1000.0, 10000.0):
            values.append(amplitude_table_parseval(AMO3, (0,), T, 64).moment(2.0))
        assert max(values) < 10.0 * values[0] + 1.0

    def test_source_must_sit_inside(self):
        with pytest.raises(ValueError, match="supported"):
            amplitude_table_parseval(free_laplacian(1), (20,), 5.0, 16)

    def test_leakage_is_shell_mass_of_the_table(self):
        # ballistic spreading puts about 9% of a(0, ., 20) on |n| > 14.4
        table = amplitude_table_parseval(free_laplacian(1), (0,), 20.0, 16)
        shell = sum(table.value_at((n,)) for n in range(-16, 17) if abs(n) > 14.4)
        assert table.leakage == pytest.approx(shell, rel=1e-12)
        assert 0.09 < table.leakage < 0.095
        assert table.flagged
        loose = amplitude_table_parseval(
            free_laplacian(1), (0,), 20.0, 16, leakage_tol=0.1
        )
        assert not loose.flagged
        localized = amplitude_table_parseval(AMO3, (0,), 20.0, 32)
        assert localized.leakage < 1e-20
        assert not localized.flagged

    def test_moment_flag_propagates(self):
        assert amplitude_table_parseval(free_laplacian(1), (0,), 20.0, 16).flagged
        assert not amplitude_table_parseval(AMO3, (0,), 20.0, 32).flagged

    def test_ten_horizons_take_the_box_eigenvalues_once(self, monkeypatch):
        # every horizon at one radius reads the box's cached sterf
        # eigenvalues; the tables are those of runs that take them afresh
        horizons = np.geomspace(2.0, 2000.0, 10)
        radius = 48

        def fresh():
            dynamics._box_eigenvalues.cache_clear()
            dynamics._box_diagonals.cache_clear()

        want = []
        for T in horizons:
            fresh()
            want.append(amplitude_table_parseval(AMO3, (0,), T, radius))
        calls = []
        sterf = dynamics.eigvalsh_tridiagonal
        monkeypatch.setattr(
            dynamics, "eigvalsh_tridiagonal",
            lambda *args, **kwargs: calls.append(args) or sterf(*args, **kwargs))
        fresh()
        got = [amplitude_table_parseval(AMO3, (0,), T, radius) for T in horizons]
        assert len(calls) == 1
        assert not dynamics._box_eigenvalues(AMO3, radius).flags.writeable
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)
            assert ((g.leakage, g.tail_bound, g.panels, g.energies)
                    == (w.leakage, w.tail_bound, w.panels, w.energies))


COMPLEX_HOPPING = _amo_type(KernelSpec.toeplitz({(1,): 0.3 + 0.6j}, math.e, 1.0))
# (spec, radius) of the boxes whose energy route sums over eigenvectors
EIGEN_SUM_BOXES = {
    "free-2d": (free_laplacian(2), 6),
    "complex-hopping": (COMPLEX_HOPPING, 64),
    # a gauge transform makes complex nearest-neighbour hopping real, so
    # |G|^2 cannot see a conjugation slip in U; range 2 carries flux
    "complex-range-2": (_amo_type(KernelSpec.toeplitz(
        {(1,): 0.3 + 0.6j, (2,): 0.2}, math.e, 1.0)), 32),
}
# (spec, radius, T) of every route's table checked against the oracle that
# breaks the band at every eigenvalue
MERGED_TABLES = {
    **{f"{name}-{T:g}": (spec, 64, T)
       for name, spec in (("amo3", AMO3), ("free-1d", free_laplacian(1)))
       for T in (2.0, 20.0, 200.0)},
    "amo1-r256-3": (almost_mathieu(1.0, GOLDEN, 0.3), 256, 3.0),
    **{name: (spec, radius, 20.0) for name, (spec, radius) in EIGEN_SUM_BOXES.items()},
}


class TestEnergyRouteEngine:
    """The energy route's column and its chunked panel driver against the
    dense solve and the per-panel loop of ``tests/oracles.py``."""

    @staticmethod
    def _refined_solve(H, z, j):
        """(H - z)^-1 e_j by LU, refined once with a residual in extended
        precision: near an eigenvalue at eps = 1e-4 the plain solve is the
        less accurate side."""
        A = H - z * np.eye(len(H))
        e = np.zeros(len(H))
        e[j] = 1.0
        g = np.linalg.solve(A, e)
        wide = H.astype(np.clongdouble) - np.clongdouble(z) * np.eye(len(H))
        residual = e - wide @ g.astype(np.clongdouble)
        return g + np.linalg.solve(A, residual.astype(np.complex128))

    @pytest.mark.parametrize("eps", [1e-4, 1.0])
    @pytest.mark.parametrize("source", [0, 16, -16])
    @pytest.mark.parametrize("spec",
                             [AMO3, free_laplacian(1), ONSITE3, NEGATIVE_HOP3],
                             ids=["amo3", "free-1d", "onsite-coupling-3",
                                  "negative-hopping"])
    def test_recursion_column_matches_dense_solve(self, spec, source, eps):
        # sources at +-R/2 leave one side 16 sites longer: the padded rows
        # must not couple
        sites, _, a, hop = dynamics._box_diagonals(spec, 32)
        H = oracle_assemble(spec, sites)
        w = np.linalg.eigvalsh(H)
        energies = np.concatenate([w, 0.5 * (w[1:] + w[:-1]), [-1e12, 1e12]])
        j = sites.index((source,))
        column = dynamics._RecursionColumn(a, hop, j)
        got = column(energies + 1j * eps)[column.rows]
        for k, E in enumerate(energies):
            want = self._refined_solve(H, E + 1j * eps, j)
            # the column is |G|^2: ||g|^2 - |w|^2| <= |g - w| (|g| + |w|), so a
            # relative 1e-12 on G is 2e-12 ||w|| max|w| on the squares
            assert (np.linalg.norm(got[:, k] - np.abs(want) ** 2)
                    <= 2e-12 * np.linalg.norm(want) * np.abs(want).max())

    @pytest.mark.parametrize("eps", [1e-4, 1.0])
    @pytest.mark.parametrize("source", [0, 512, -512])
    @pytest.mark.parametrize("spec", [AMO3, NEGATIVE_HOP3],
                             ids=["amo3", "negative-hopping"])
    def test_recursion_column_rescales_at_large_radius(self, spec, source, eps):
        # at r = 1024 the growth of the regular solutions in the band passes
        # the double range (an unscaled recurrence over the box overflows),
        # so the rescales fire at band energies and not only at +-1e12
        radius = 1024
        sites, _, w, U = _box_eigh(spec, radius)
        _, _, a, hop = dynamics._box_diagonals(spec, radius)
        gap = np.argmax(np.diff(w))
        mid = len(w) // 2
        energies = np.array([
            0.5 * (w[mid] + w[mid + 1]),  # in the band
            0.5 * (w[gap] + w[gap + 1]),  # in the widest gap
            w[mid], w[mid] + 1e-9,  # at and next to a box eigenvalue
            -1e12, 1e12])
        with np.errstate(over="ignore", invalid="ignore"):
            prev, phi = 0.0, 1.0
            for ak in a:
                prev, phi = phi, (energies[0] + 1j * eps - ak) / hop * phi - prev
        assert not np.isfinite(phi)
        j = sites.index((source,))
        column = dynamics._RecursionColumn(a, hop, j)
        z = energies + 1j * eps
        got = column(z)[column.rows]
        want = dynamics._EigenColumn(w, U, j)(z)
        assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=0))

    @pytest.mark.parametrize("T", [2.0, 20.0, 200.0])
    @pytest.mark.parametrize("spec", [AMO3, free_laplacian(1)],
                             ids=["amo3", "free-1d"])
    def test_recursion_route_matches_per_panel_oracle(self, spec, T):
        table = amplitude_table_parseval(spec, (0,), T, 64)
        values, panels = oracle_parseval_table(spec, (0,), T, 64)
        assert table.panels == panels
        assert np.abs(table.values - values).max() <= 1e-12 * values.max()

    @pytest.mark.parametrize("spec,radius", EIGEN_SUM_BOXES.values(),
                             ids=EIGEN_SUM_BOXES.keys())
    def test_eigen_sum_route_matches_per_panel_oracle(self, spec, radius):
        source = (0,) * spec.dimension
        table = amplitude_table_parseval(spec, source, 20.0, radius)
        values, panels = oracle_parseval_table(spec, source, 20.0, radius)
        assert table.panels == panels
        assert np.abs(table.values - values).max() <= 1e-12 * values.max()

    @pytest.mark.parametrize("spec,radius,T", MERGED_TABLES.values(),
                             ids=MERGED_TABLES.keys())
    def test_merged_breaks_match_the_per_eigenvalue_oracle(self, spec, radius, T):
        # the merged band starts from fewer panels than one between every
        # two eigenvalues and ends with fewer, and its table stays within
        # 1e-12 of the largest entry of the oracle that breaks at every
        # eigenvalue
        source = (0,) * spec.dimension
        table = amplitude_table_parseval(spec, source, T, radius)
        values, panels = oracle_parseval_table(spec, source, T, radius, merged=False)
        assert np.abs(table.values - values).max() <= 1e-12 * values.max()
        assert table.panels < panels

    @pytest.mark.parametrize("spec,radius", [
        (AMO3, 128), (free_laplacian(1), 64),
        (almost_mathieu(1.0, GOLDEN, 0.3), 256),
    ], ids=["amo3", "free-1d", "amo1"])
    def test_band_breaks_merge_clusters_closer_than_one_over_T(self, spec, radius):
        w = _box_eigh(spec, radius)[2]
        edge = spec.spectral_bound + 2.0
        every = oracle_band_breaks(w, edge, 0.0, merged=False)
        for T in (2.0, 20.0, 200.0):
            breaks = dynamics._band_breaks(w, edge, 1.0 / T).tolist()
            assert breaks == oracle_band_breaks(w, edge, 1.0 / T)
            assert breaks[0] == -edge and breaks[-1] == edge
            assert set(breaks) <= set(every)
            # a panel that holds a merged eigenvalue is shorter than 2/T
            kept = np.array(breaks)
            inside = np.unique(np.searchsorted(kept, np.setdiff1d(every, kept)))
            assert len(inside) and np.all(kept[inside] - kept[inside - 1] < 2.0 / T)
            # an eigenvalue next to a gap of at least 1/T stays a break
            gaps = np.diff(every)
            lonely = [x for i, x in enumerate(every[1:-1], 1)
                      if gaps[i - 1] >= 1.0 / T or gaps[i] >= 1.0 / T]
            assert set(lonely) <= set(breaks)
        # at T = 1e12 every eigenvalue is a break: no two lie that close
        assert np.diff(every).min() > 1e-12
        assert dynamics._band_breaks(w, edge, 1e-12).tolist() == every

    def test_band_breaks_by_hand(self):
        # 0.3 lies within 0.5 of 0 and of 0.6; 0.9 and 2.05 end clusters
        w = np.array([2.05, 0.0, 0.3, 0.6, 0.9, 2.0, 5.0, 0.3])
        assert dynamics._band_breaks(w, 10.0, 0.5).tolist() == [
            -10.0, 0.0, 0.6, 0.9, 2.0, 2.05, 5.0, 10.0]
        # an eigenvalue past the edge is clipped onto it
        assert dynamics._band_breaks(np.array([-0.1, 0.0, 12.0]), 1.0, 0.5).tolist() == [
            -1.0, -0.1, 0.0, 1.0]

    @pytest.mark.parametrize("spec,radius", [(AMO3, 64), (free_laplacian(2), 6)],
                             ids=["recursion", "eigen-sum"])
    def test_table_counts_the_energies_its_column_saw(self, spec, radius,
                                                      monkeypatch):
        seen = []
        for cls in (dynamics._RecursionColumn, dynamics._EigenColumn):
            monkeypatch.setattr(cls, "__call__",
                                lambda self, z, call=cls.__call__:
                                seen.append(len(z)) or call(self, z))
        table = amplitude_table_parseval(spec, (0,) * spec.dimension, 200.0, radius)
        # 45 distinct nodes a panel; bisections evaluate a panel again with
        # its halves, so the count passes 45 per panel kept
        assert table.energies == sum(seen) > 45 * table.panels
        assert all(k % 45 == 0 for k in seen)
        assert amplitude_table_direct(spec, StateVector.delta((0,) * spec.dimension),
                                      200.0, radius).energies == 0

    def test_band_cap_counts_bisections_not_breaks(self, monkeypatch):
        # r = 64 starts from 129 panels between merged breaks at T = 200 and
        # needs 37 bisections: a cap of 100 is reached by the breaks alone
        # when it counts panels
        free = amplitude_table_parseval(AMO3, (0,), 200.0, 64)
        monkeypatch.setattr(dynamics, "MAX_PANELS", 100)
        capped = amplitude_table_parseval(AMO3, (0,), 200.0, 64)
        assert np.array_equal(capped.values, free.values)
        assert capped.panels == free.panels
        monkeypatch.setattr(dynamics, "MAX_PANELS", 36)
        with pytest.raises(QuadratureError, match="in 36 bisections"):
            amplitude_table_parseval(AMO3, (0,), 200.0, 64)

    def test_direct_tables_have_no_panels(self):
        assert amplitude_table_direct(AMO3, DELTA0, 20.0, 32).panels == 0
        assert amplitude_table_parseval(AMO3, (0,), 20.0, 32).panels > 66

    def test_memory_stays_within_the_chunk_budget(self):
        # peak of one table with the box cache warm: the complex work array
        # and the real squares of one chunk of RECURSION_ENTRIES entries,
        # a few n-vectors and 1 MiB for the rest; one n-vector per panel
        # (7.7 MB here at 935 panels, the per-panel loop's heap) or the
        # whole band in one evaluation would not fit.  At T = 200 the merged
        # breaks still leave about one panel per eigenvalue
        radius = 512
        sites, _, _, _ = dynamics._box_diagonals(AMO3, radius)
        tracemalloc.start()
        try:
            table = amplitude_table_parseval(AMO3, (0,), 200.0, radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = 32 * RECURSION_ENTRIES + 64 * len(sites) + (1 << 20)
        assert peak <= budget
        assert 8 * len(sites) * table.panels > budget


class TestEigenSupport:
    """Eigenbasis sums run over the eigenvectors the source overlaps; the
    overlaps they skip are exact zeros of U^H phi, and a source that
    overlaps more than half the eigenvectors reads U itself."""

    def test_localized_box_matches_the_full_product(self):
        radius, times, T = 1024, [0.0, 1.0, 10.0, 100.0, 1000.0], 50.0
        sites, norms, w, U = _box_eigh(AMO3, radius)
        c = U[sites.index((0,))]  # U^H delta_0 of a real U
        support = np.count_nonzero(c)
        assert 2 * support < len(w)  # stevd deflates most overlaps to 0.0
        amps = (U @ (np.exp(-1j * np.outer(w, times)) * c[:, None])).T
        moments = (np.abs(amps) ** 2) @ norms**2
        x = 0.5 * T * np.subtract.outer(w, w)
        table = np.einsum("nl,nl->n", U @ (np.outer(c, c) / (1.0 + x * x)), U)
        res = evolve(AMO3, DELTA0, times, radius)
        direct = amplitude_table_direct(AMO3, DELTA0, T, radius)
        assert res.eigen_support == direct.eigen_support == support
        assert np.abs(res.amplitudes - amps).max() <= 1e-13 * np.abs(amps).max()
        assert np.abs(res.moments(2.0) - moments).max() <= 1e-13 * moments.max()
        assert abs(direct.moment(2.0) - table @ norms**2) <= 1e-13 * (table @ norms**2)
        assert np.abs(direct.values - table).max() <= 1e-13 * table.max()

    def test_full_support_reads_u_itself_bit_for_bit(self, monkeypatch):
        spec, radius, times, T = free_laplacian(1), 256, [0.0, 3.0, 30.0], 20.0
        sites, _, w, U = _box_eigh(spec, radius)
        assert np.count_nonzero(U[sites.index((0,))]) == len(w)
        dense = DELTA0.dense(sites)
        c = _apply(U.conj().T, dense)
        amps = _apply(U, (np.exp(-1j * np.outer(times, w)) * c[None, :]).T).T
        amps[0] = dense
        table = np.einsum("nl,nl->n", U @ dynamics._real_weights(c, w, T), U)
        read = []  # every n x n matrix a product of the library reads
        apply, einsum = dynamics._apply, np.einsum
        monkeypatch.setattr(dynamics, "_apply",
                            lambda A, X: read.append(A) or apply(A, X))
        monkeypatch.setattr(np, "einsum",
                            lambda subs, *ops: read.append(ops[-1]) or einsum(subs, *ops))
        res = evolve(spec, DELTA0, times, radius)
        direct = amplitude_table_direct(spec, DELTA0, T, radius)
        assert res.eigen_support == direct.eigen_support == len(w)
        assert np.array_equal(res.amplitudes, amps)
        assert np.array_equal(direct.values, table)
        products = [A for A in read if A.shape == U.shape]
        assert len(products) == 2
        assert all(np.shares_memory(A, U) for A in products)

    @pytest.mark.parametrize("spec,radius,restricted", [
        (AMO3, 1024, True), (COMPLEX_HOPPING, 64, False)],
        ids=["amo3", "complex-hopping"])
    def test_overlaps_of_a_two_site_complex_state(self, spec, radius, restricted):
        sites, _, _, U = _box_eigh(spec, radius)
        phi = StateVector({(0,): 1.0 - 0.5j, (3,): 0.25 + 2.0j})
        dense = phi.dense(sites)
        keep, c = dynamics._eigen_support(U, dense)
        full = U.conj().T.astype(np.complex128) @ dense
        assert isinstance(keep, np.ndarray) == restricted
        assert np.abs(c - full[keep]).max() <= 1e-15 * np.abs(full).max()
        skipped = np.ones(len(full), dtype=bool)
        skipped[keep] = False
        assert np.all(full[skipped] == 0.0)
        assert len(c) == (np.count_nonzero(full) if restricted else len(full))

    @pytest.mark.parametrize("spec,radius,restricted", [
        (free_laplacian(2), 6, False),
        (_amo_type(KernelSpec.toeplitz({(1,): 1.0, (2,): 0.3}, math.e, 1.0)),
         256, False),
        # the eigenvectors of a tridiagonal box, read by the eigenvector sum
        (AMO3, 256, True),
        # a 2-d box with no kernel: e_0 overlaps one eigenvector
        (diagonal_model(PotentialSpec.cosine_series({(1,): 6.0}),
                        ShiftDynamics(RANK_ONE, (GOLDEN, math.sqrt(2.0) - 1.0),
                                      (0.3,)), 2), 6, True),
    ], ids=["free-2d", "range-2", "amo3-stevd", "diagonal-2d"])
    def test_eigen_column_matches_the_unrestricted_sum(self, spec, radius,
                                                       restricted):
        sites, _, w, U = _box_eigh(spec, radius)
        j = sites.index((0,) * spec.dimension)
        column = dynamics._EigenColumn(w, U, j)
        nonzero = np.count_nonzero(U[j])
        assert (2 * nonzero < len(w)) == restricted
        assert column.eigen_support == (nonzero if restricted else len(w))
        energies = np.append(w[:: max(1, len(w) // 16)], 0.123)
        z = np.concatenate([energies + 1e-3j, energies + 1j])
        full = np.abs(_apply(U, U[j].conj()[:, None] / np.subtract.outer(w, z)))
        got = column(z)[column.rows]
        # the column is |G|^2: a relative 1e-13 on G is 2e-13 max|G|^2 here
        if restricted:
            assert np.abs(got - full**2).max() <= 2e-13 * full.max() ** 2
        else:
            assert np.array_equal(got, full**2)


class TestAmplitudeInequality:
    # instantaneous amplitudes against the energy integral at eps = 1/t:
    # |(e^{-itH} phi, delta_n)|^2 <= e^{-c|n|} + (1/t) int_{-K}^{K} |G(0,n)|^2 dE
    def _energy_integral(self, spec, radius, t, ns):
        sites, _, w, U = _box_eigh(spec, radius)
        c0 = U[sites.index((0,)), :].conj()
        K = spec.spectral_bound
        x, wq = _leggauss(16)
        edges = np.linspace(-K, K, 600 + 1)
        idx = [sites.index((n,)) for n in ns]
        total = np.zeros(len(ns))
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            denom = w[:, None] - (mid + half * x)[None, :] - 1j / t
            cols = U @ (c0[:, None] / denom)
            total += half * (np.abs(cols[idx, :]) ** 2 @ wq)
        return total / t

    @pytest.mark.parametrize(
        "spec,t,ns",
        [
            (free_laplacian(1), 5.0, range(12, 26)),
            (AMO3, 20.0, range(8, 21)),
        ],
    )
    def test_holds_at_large_sites(self, spec, t, ns):
        ns = list(ns)
        res = evolve(spec, DELTA0, [t], 64)
        lhs = np.abs(res.amplitudes[0, [res.sites.index((n,)) for n in ns]]) ** 2
        rhs = np.exp(-0.8 * np.asarray(ns, float)) + self._energy_integral(
            spec, 64, t, ns
        )
        assert np.all(lhs <= rhs)


class TestLogFit:
    def test_cubic_log_fixture(self):
        t = np.logspace(0.4, 3.0, 30)
        fit = fit_log_exponent((t, np.log(t) ** 3))
        assert fit.gamma == pytest.approx(3.0, abs=0.05)
        assert not fit.poor_fit

    def test_ballistic_flagged(self):
        t = np.logspace(0.4, 3.0, 30)
        fit = fit_log_exponent((t, t**2))
        assert fit.gamma > 4.0
        assert fit.poor_fit

    def test_constant_series(self):
        t = np.logspace(0.4, 3.0, 30)
        fit = fit_log_exponent((t, np.full_like(t, 2.5)))
        assert fit.gamma == pytest.approx(0.0, abs=0.05)

    def test_preconditions(self):
        t = np.logspace(0.4, 3.0, 30)
        with pytest.raises(ValueError, match="10 samples"):
            fit_log_exponent((t[:5], t[:5]))
        with pytest.raises(ValueError, match="two decades"):
            fit_log_exponent((np.linspace(2, 30, 15), np.ones(15)))
        with pytest.raises(ValueError, match="positive"):
            vals = np.ones(30)
            vals[3] = 0.0
            fit_log_exponent((t, vals))
        with pytest.raises(ValueError, match="t > 1"):
            fit_log_exponent((np.logspace(0.0, 3.0, 30), np.ones(30)))
        # unchecked, a NaN sample fits with poor_fit False, as logarithmic growth
        for bad in (np.nan, np.inf):
            vals, times = np.log(t) ** 3, t.copy()
            vals[3] = times[3] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_log_exponent((t, vals))
            with pytest.raises(ValueError, match="finite"):
                fit_log_exponent((times, np.log(t) ** 3))


def transfer_product_oracle(potential_values, energy, renorm=16):
    """Plain per-step product of [[v - E, -1], [1, 0]] with scale tracking."""
    b11, b12, b21, b22 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for i, v in enumerate(potential_values):
        a = v - energy
        b11, b12, b21, b22 = a * b11 - b21, a * b12 - b22, b11, b12
        if (i + 1) % renorm == 0:
            s = math.sqrt(b11 * b11 + b12 * b12 + b21 * b21 + b22 * b22)
            b11, b12, b21, b22 = b11 / s, b12 / s, b21 / s, b22 / s
            log_scale += math.log(s)
    norm = math.sqrt(b11 * b11 + b12 * b12 + b21 * b21 + b22 * b22)
    return (log_scale + math.log(norm)) / len(potential_values)


class TestLyapunov:
    def test_free_cocycle_vanishes(self):
        est = lyapunov_estimate(free_laplacian(1), 0.0, 20000, [0.0, 0.3])
        assert est.value == pytest.approx(0.0, abs=0.01)

    def test_constant_matrix_eigenvalue_oracle(self):
        # for v = 0, E = 10 the top eigenvalue of [[-10, -1], [1, 0]] rules
        top = max(abs(np.linalg.eigvals(np.array([[-10.0, -1.0], [1.0, 0.0]]))))
        est = lyapunov_estimate(free_laplacian(1), 10.0, 20000, [0.2])
        assert est.value == pytest.approx(math.log(top), abs=1e-3)

    def test_amo_against_long_product_oracle(self):
        length = 30000
        phases = [0.11, 0.37]
        refs = []
        for x in phases:
            vals = [
                6.0 * math.cos(2.0 * math.pi * ((x + n * GOLDEN) % 1.0))
                for n in range(1, length + 1)
            ]
            refs.append(transfer_product_oracle(vals, 0.0))
        oracle = sum(refs) / len(refs)
        est = lyapunov_estimate(AMO3, 0.0, length, phases)
        assert est.value == pytest.approx(oracle, abs=0.05)
        # the oracle itself sits at the coupling's logarithm
        assert oracle == pytest.approx(math.log(3.0), abs=0.05)

    def test_complex_energy_accepted(self):
        est = lyapunov_estimate(AMO3, 0.5 + 0.01j, 5000, [0.1])
        assert est.value > 0.0

    def test_band_not_kernel_decides(self):
        # S(+-1) = 2 at coupling 2 has band (0, 1): every box is that of the
        # AMO, and so is every transfer matrix
        spec = _amo_type(KernelSpec.toeplitz({(1,): 2.0}, 8.0, 1.0), 2.0)
        assert spec.tridiagonal == (0.0, 1.0)
        args = (0.5 + 0.01j, 2000, [0.1, 0.7])
        assert lyapunov_estimate(spec, *args) == lyapunov_estimate(AMO3, *args)

    def test_non_schroedinger_rejected(self):
        spec = diagonal_model(PotentialSpec.constant_value(0.0), STILL)
        with pytest.raises(ValueError, match="nearest-neighbour"):
            lyapunov_estimate(spec, 0.0, 100, [0.0])

    @pytest.mark.parametrize("energy", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_a_non_finite_energy_raises(self, energy):
        # unchecked, a NaN energy gives a NaN exponent
        with pytest.raises(ValueError, match="not finite"):
            lyapunov_estimate(AMO3, energy, 100, [0.1])

    @pytest.mark.parametrize("length,phases,match", [
        (0, [0.1], "length"), (-5, [0.1], "length"), (2.5, [0.1], "length"),
        (True, [0.1], "length"), (100, [], "phase"),
    ], ids=["length-zero", "length-negative", "length-fraction", "length-bool",
            "no-phases"])
    def test_a_bad_length_or_no_phase_raises(self, length, phases, match):
        # unchecked, length 0 divides by zero, length -5 gives a finite
        # exponent, length 2.5 raises TypeError from range, length True
        # runs at length 1, and no phases give NaN with two RuntimeWarnings
        with pytest.raises(ValueError, match=match):
            lyapunov_estimate(AMO3, 0.0, length, phases)


class TestDenseCap:
    def test_the_cap_is_the_scans_dense_cap(self):
        # (2r + 1)^2 is 4489 at r = 33 and 4761 at r = 34; MAX_DENSE_POINTS
        # is 4500
        dynamics.check_box_order(free_laplacian(2), 33)
        with pytest.raises(ValueError, match="4761 points; dense solves are "
                           "capped at 4500"):
            dynamics.check_box_order(free_laplacian(2), 34)
        dynamics.check_box_order(AMO3, 10**6)  # tridiagonal: no cap

    @pytest.mark.parametrize("call", [
        lambda spec, phi: evolve(spec, phi, [1.0], 34),
        lambda spec, phi: amplitude_table_direct(spec, phi, 2.0, 34),
        lambda spec, phi: amplitude_table_parseval(spec, (0, 0), 2.0, 34),
    ], ids=["evolve", "direct", "parseval"])
    def test_every_dense_box_is_capped_before_it_is_assembled(
        self, monkeypatch, call
    ):
        def sentinel(*args):
            raise AssertionError("the box was assembled")

        monkeypatch.setattr(dynamics, "assemble", sentinel)
        with pytest.raises(ValueError, match="capped"):
            call(free_laplacian(2), StateVector.delta((0, 0)))
