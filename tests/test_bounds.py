"""Unit tests for the posterior Cramer-Rao bound recursion.

For a scalar linear-Gaussian model the recursion must reproduce the exact
Kalman filtering variance, which the independent oracle recursion supplies.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neurosmc.bounds import (
    DEFAULT_J0_DIAG,
    PcrbSeries,
    jacobian2_reduced,
    pcrb_series,
    pcrb_step,
)
from neurosmc.model import MorrisLecarParams, NoiseConfig, jacobian2

from oracles import kalman_variance_recursion

P = MorrisLecarParams()
NC_1PCT = NoiseConfig(sigma_i_app=1.1, sigma_g_l=0.02, sigma_n=1e-3, sigma_y=1.0)
NC_10PCT = NoiseConfig(sigma_i_app=11.0, sigma_g_l=0.2, sigma_n=1e-3, sigma_y=1.0)


class TestPcrbStep:
    def test_identity_jacobian_hand_case(self):
        # D11 = I, D12 = -I, D22 = diag(2, 1), J1 = D22 - (2 I)^-1
        j1 = pcrb_step(np.eye(2), np.eye(2), np.array([1.0, 1.0]), 1.0)
        assert_allclose(j1, np.diag([1.5, 0.5]), rtol=0, atol=0)

    def test_matches_kalman_variance_for_scalar_linear_model(self):
        a, q, r, p0 = 0.9, 0.3, 0.5, 1.0
        ref = kalman_variance_recursion(a, q, r, p0, 50)
        j = np.array([[1.0 / p0]])
        got = np.empty(50)
        for k in range(50):
            j = pcrb_step(j, np.array([[a]]), np.array([q]), r)
            got[k] = 1.0 / j[0, 0]
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_huge_prior_information_leaves_single_step_floor(self):
        # with J0 -> inf the middle term vanishes and the voltage variance
        # is the one-observation floor sv2 * sy2 / (sv2 + sy2)
        jac = jacobian2(np.array([-30.0, 0.2]), P, 0.25)
        j1 = pcrb_step(1e10 * np.eye(2), jac, np.array([0.25, 1e-6]), 1.0)
        cov = np.linalg.inv(j1)
        assert_allclose(cov[0, 0], 0.2, rtol=1e-6)

    def test_batch_of_jacobians_is_averaged(self):
        jacs = np.stack([np.eye(2), 3.0 * np.eye(2)])
        mean = pcrb_step(np.eye(2), 2.0 * np.eye(2), np.array([1.0, 1.0]), 1.0)
        # D12 uses the mean Jacobian but D11 averages F^T F, so feeding the
        # pair must differ from feeding the mean
        batch = pcrb_step(np.eye(2), jacs, np.array([1.0, 1.0]), 1.0)
        assert not np.allclose(batch, mean)
        # batch: D11 = 5 I, D12 = -2 I so J1[1,1] = 1 - 4/6;
        # mean-fed: D11 = 4 I gives 1 - 4/5
        assert_allclose(batch[1, 1], 1.0 - 4.0 / 6.0, rtol=1e-12)
        assert_allclose(mean[1, 1], 1.0 - 4.0 / 5.0, rtol=1e-12)

    def test_output_symmetric_positive_definite(self):
        rng = np.random.default_rng(0)
        j = np.diag(DEFAULT_J0_DIAG)
        for _ in range(50):
            x = np.array([rng.uniform(-60, 20), rng.uniform(0.05, 0.95)])
            jac = jacobian2(x, P, 0.25)
            j = pcrb_step(j, jac, np.array([0.01, 1e-6]), 1.0)
            assert_allclose(j, j.T, atol=1e-12)
            assert (np.linalg.eigvalsh(j) > 0).all()


class TestReducedJacobian:
    def test_only_voltage_self_coupling_differs(self):
        x = np.array([-20.0, 0.3])
        full = jacobian2(x, P, 0.25)
        red = jacobian2_reduced(x, P, 0.25)
        assert red[0, 1] == full[0, 1]
        assert red[1, 0] == full[1, 0]
        assert red[1, 1] == full[1, 1]
        assert red[0, 0] != full[0, 0]

    def test_frozen_value(self):
        red = jacobian2_reduced(np.array([-20.0, 0.3]), P, 0.25)
        assert_allclose(red[0, 0], 0.9509228705062347, rtol=1e-14)

    def test_difference_is_calcium_slope_term(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            v = rng.uniform(-70, 30)
            x = np.array([v, rng.uniform(0, 1)])
            full = jacobian2(x, P, 0.25)
            red = jacobian2_reduced(x, P, 0.25)
            u1 = (v - P.v1) / P.v2
            dm_dv = 1.0 / (2.0 * P.v2 * np.cosh(u1) ** 2)
            expect = -(0.25 / P.c_m) * P.g_ca * dm_dv * P.e_ca
            assert_allclose(red[0, 0] - full[0, 0], expect, rtol=1e-12)

    def test_batch_shape(self):
        x = np.zeros((7, 2))
        x[:, 0] = np.linspace(-60, 20, 7)
        x[:, 1] = 0.3
        out = jacobian2_reduced(x, P, 0.25)
        assert out.shape == (7, 2, 2)
        single = jacobian2_reduced(x[2], P, 0.25)
        assert_allclose(out[2], single, rtol=0, atol=0)


class TestPcrbSeries:
    def test_regression_small_run(self):
        series = pcrb_series(P, NC_1PCT, 400, n_trajectories=50, seed=0)
        assert series.bounds.shape == (400, 2)
        assert series.info.shape == (400, 2, 2)
        assert_allclose(series.bounds[-1, 0], 0.24227599674626657, rtol=1e-12)
        assert_allclose(series.bounds[-1, 1], 0.003491746547736716, rtol=1e-12)

    def test_regression_small_run_strong_noise(self):
        series = pcrb_series(P, NC_10PCT, 400, n_trajectories=50, seed=0)
        assert_allclose(series.bounds[-1, 0], 0.4333042322048797, rtol=1e-12)
        assert_allclose(series.bounds[-1, 1], 0.004534780914827769, rtol=1e-12)

    def test_full_sensitivity_tightens_voltage_bound(self):
        red = pcrb_series(P, NC_1PCT, 400, n_trajectories=50, seed=0)
        full = pcrb_series(P, NC_1PCT, 400, n_trajectories=50, seed=0,
                           sensitivity="full")
        assert full.bounds[-1, 0] < red.bounds[-1, 0]

    def test_stronger_noise_weakens_bound(self):
        weak = pcrb_series(P, NC_1PCT, 300, n_trajectories=40, seed=2)
        strong = pcrb_series(P, NC_10PCT, 300, n_trajectories=40, seed=2)
        assert strong.bounds[-1, 0] > weak.bounds[-1, 0]

    def test_noisier_observations_weaken_bound(self):
        sharp = pcrb_series(P, NC_1PCT, 300, n_trajectories=40, seed=3)
        blurry = pcrb_series(P, NC_1PCT.replace(sigma_y=3.0), 300,
                             n_trajectories=40, seed=3)
        assert blurry.bounds[-1, 0] > sharp.bounds[-1, 0]
        assert blurry.bounds[-1, 1] > sharp.bounds[-1, 1]

    def test_bounds_match_info_inverse(self):
        series = pcrb_series(P, NC_1PCT, 50, n_trajectories=20, seed=1)
        for k in (0, 24, 49):
            cov = np.linalg.inv(series.info[k])
            assert_allclose(series.bounds[k], np.sqrt(np.diag(cov)), rtol=1e-12)

    def test_seed_reproducibility(self):
        a = pcrb_series(P, NC_1PCT, 60, n_trajectories=10, seed=9)
        b = pcrb_series(P, NC_1PCT, 60, n_trajectories=10, seed=9)
        assert_allclose(a.bounds, b.bounds, rtol=0, atol=0)
        c = pcrb_series(P, NC_1PCT, 60, n_trajectories=10, seed=10)
        assert not np.allclose(a.bounds, c.bounds)

    def test_same_seed_sequence_object_reused(self):
        ss = np.random.SeedSequence(9)
        a = pcrb_series(P, NC_1PCT, 60, n_trajectories=10, seed=ss)
        b = pcrb_series(P, NC_1PCT, 60, n_trajectories=10, seed=ss)
        assert_allclose(a.bounds, b.bounds, rtol=0, atol=0)
        c = pcrb_series(P, NC_1PCT, 60, n_trajectories=10, seed=9)
        assert_allclose(a.bounds, c.bounds, rtol=0, atol=0)

    def test_times_and_step_count(self):
        series = pcrb_series(P, NC_1PCT, 8, n_trajectories=5, seed=0)
        assert isinstance(series, PcrbSeries)
        assert series.n_steps == 8
        assert_allclose(series.times_ms, 0.25 * np.arange(1, 9))

    def test_rejects_unknown_sensitivity(self):
        with pytest.raises(ValueError, match="sensitivity"):
            pcrb_series(P, NC_1PCT, 10, n_trajectories=5, sensitivity="typo")

    def test_rejects_empty_trajectory_budget(self):
        with pytest.raises(ValueError, match="n_trajectories"):
            pcrb_series(P, NC_1PCT, 10, n_trajectories=0)

    def test_rejects_zero_process_noise(self):
        quiet = NoiseConfig(sigma_i_app=0.0, sigma_g_l=0.0, sigma_n=1e-3,
                            sigma_y=1.0)
        with pytest.raises(ValueError, match="process noise"):
            pcrb_series(P, quiet, 10, n_trajectories=5)
