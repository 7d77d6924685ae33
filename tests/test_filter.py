"""Unit tests for the particle filter.

The linear-Gaussian checks compare against the independent Kalman filter in
``oracles.py``; closed-form proposal and weight numbers are hand
computations frozen as literals.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neurosmc.filtering import (
    FilterDivergence,
    FilterOutput,
    ParticleCloud,
    effective_sample_size,
    make_transition,
    mmse_estimate,
    optimal_proposal_moments,
    pf_step,
    predictive_likelihood,
    resample,
    run_filter,
)
from neurosmc.bounds import pcrb_step
from neurosmc.model import MorrisLecarParams, NoiseConfig, ml_transition2
from neurosmc.seeding import derive_seed
from neurosmc.simulate import Trace, observe, simulate_truth

from oracles import kalman_scalar

P = MorrisLecarParams()
NC_1PCT = NoiseConfig(sigma_i_app=1.1, sigma_g_l=0.02, sigma_n=1e-3, sigma_y=1.0)


def linear_gaussian_record(a, q, r, m0, p0, n_steps, seed):
    """Simulate the scalar model x' = a x + w, y = x + e."""
    rng = np.random.default_rng(seed)
    x = m0 + math.sqrt(p0) * rng.standard_normal()
    ys = np.empty(n_steps)
    xs = np.empty(n_steps)
    for k in range(n_steps):
        x = a * x + math.sqrt(q) * rng.standard_normal()
        ys[k] = x + math.sqrt(r) * rng.standard_normal()
        xs[k] = x
    return xs, ys


def linear_gaussian_log_ml(ys, a, q, r, m0, p0, n_particles, seed):
    """Particle-filter log marginal likelihood of a scalar record."""
    rng = np.random.default_rng(seed)
    states = m0 + math.sqrt(p0) * rng.standard_normal((n_particles, 1))
    cloud = ParticleCloud(states, np.full(n_particles, 1.0 / n_particles))
    transition = lambda x: a * x
    total = 0.0
    for yk in ys:
        cloud, lp, _ = pf_step(cloud, yk, np.array([q]), r, transition, rng)
        total += lp
    return total


class TestOptimalProposalMoments:
    def test_hand_case(self):
        # var 1*1/(1+1) = 0.5, mean 0.5*(0/1 + 2/1) = 1
        means, cov = optimal_proposal_moments(
            np.array([0.0, 0.0]), 2.0, np.array([1.0, 1.0]), 1.0)
        assert_allclose(means, [1.0, 0.0], rtol=0, atol=0)
        assert_allclose(cov, np.diag([0.5, 1.0]), rtol=0, atol=0)

    def test_weak_observation_recovers_prior(self):
        f = np.array([3.0, 0.2])
        means, cov = optimal_proposal_moments(f, -50.0, np.array([1.0, 4.0]), 1e12)
        assert_allclose(means, f, atol=1e-9)
        assert_allclose(cov, np.diag([1.0, 4.0]), rtol=1e-9)

    def test_sharp_observation_pins_voltage(self):
        f = np.array([3.0, 0.2])
        means, cov = optimal_proposal_moments(f, -50.0, np.array([1.0, 4.0]), 1e-12)
        assert_allclose(means[0], -50.0, atol=1e-9)
        assert cov[0, 0] < 1e-11

    def test_unobserved_coordinates_follow_transition(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((6, 4))
        sigma_x = np.array([0.3, 0.01, 0.2, 0.5])
        means, cov = optimal_proposal_moments(f, 1.5, sigma_x, 2.0)
        assert means.shape == (6, 4)
        assert_allclose(means[:, 1:], f[:, 1:], rtol=0, atol=0)
        assert_allclose(np.diag(cov)[1:], sigma_x[1:], rtol=0, atol=0)

    def test_rejects_nonpositive_observation_variance(self):
        with pytest.raises(ValueError, match="sigma_y2"):
            optimal_proposal_moments(np.zeros(2), 0.0, np.ones(2), 0.0)

    def test_rejects_singular_process_covariance(self):
        with pytest.raises(ValueError, match="invertible"):
            optimal_proposal_moments(np.zeros(2), 0.0, np.array([0.0, 1.0]), 1.0)


# every process and initial covariance is diagonal and passed as its diagonal;
# a matrix, even a diagonal one, is refused rather than silently reinterpreted
_FLAT_CLOUD = ParticleCloud(np.zeros((3, 2)), np.full(3, 1.0 / 3.0))
_OBSERVED = Trace(t_s=0.25, states=np.zeros((3, 2)), applied_current=np.zeros(3),
                  observations=np.full(3, -60.0), sigma_y=1.0)


@pytest.mark.parametrize("call", [
    lambda cov: optimal_proposal_moments(np.zeros(2), 0.3, cov, 0.9),
    lambda cov: predictive_likelihood(np.zeros(2), 0.3, cov, 0.9),
    lambda cov: pf_step(_FLAT_CLOUD, 0.3, cov, 0.9, lambda x: x, seed=0),
    lambda cov: pcrb_step(np.eye(2), np.eye(2), cov, 0.9),
    lambda cov: run_filter(_OBSERVED, P, NC_1PCT, n_particles=10,
                           x0_mean=[-60.0, 0.1], x0_cov=cov),
], ids=["optimal_proposal_moments", "predictive_likelihood", "pf_step",
        "pcrb_step", "run_filter_x0_cov"])
def test_matrix_covariance_is_rejected(call):
    with pytest.raises(ValueError, match="diagonal"):
        call(np.diag([0.7, 0.02]))


class TestPredictiveLikelihood:
    def test_centered_unit_case(self):
        # N(0; 0, 1 + 1) evaluated at its mean: 1 / sqrt(4 pi)
        val = predictive_likelihood(np.array([0.0, 0.0]), 0.0, np.ones(2), 1.0)
        assert_allclose(val, 0.28209479177387814, rtol=1e-14)

    def test_log_value_frozen(self):
        val = predictive_likelihood(np.array([1.0, 0.3]), 3.0, np.ones(2), 1.0)
        assert_allclose(np.log(val), -2.2655121234846453, rtol=1e-13)

    def test_depends_only_on_voltage_coordinate(self):
        f1 = np.array([[-20.0, 0.1], [-20.0, 0.9]])
        vals = predictive_likelihood(f1, -19.0, np.array([0.5, 0.3]), 1.0)
        assert vals[0] == vals[1]

    def test_integrates_to_one_over_observation(self):
        f = np.array([1.4, 0.2])
        sigma_x = np.array([0.9, 0.1])
        ys = np.linspace(-40.0, 40.0, 16001)
        dens = np.array([predictive_likelihood(f, yk, sigma_x, 1.3) for yk in ys])
        assert_allclose(np.trapezoid(dens, ys), 1.0, atol=1e-6)

    def test_vectorizes_over_particles(self):
        f = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.1]])
        vals = predictive_likelihood(f, 0.0, np.ones(2), 1.0)
        assert vals.shape == (3,)
        assert vals[0] > vals[1] > vals[2]


class TestResample:
    def test_uniform_cloud_reproduced_exactly(self):
        rng = np.random.default_rng(11)
        states = rng.standard_normal((40, 2))
        cloud = ParticleCloud(states, np.full(40, 1.0 / 40))
        out = resample(cloud, seed=5)
        assert_allclose(out.states, states, rtol=0, atol=0)
        assert_allclose(out.weights, cloud.weights, rtol=0, atol=0)

    def test_degenerate_weight_copies_single_particle(self):
        states = np.arange(10.0).reshape(5, 2)
        weights = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        out = resample(ParticleCloud(states, weights), seed=0)
        assert_allclose(out.states, np.tile(states[2], (5, 1)), rtol=0, atol=0)
        assert_allclose(out.weights, np.full(5, 0.2), rtol=0, atol=0)

    def test_copy_frequencies_match_weights(self):
        # the cloud size stays fixed, so spread three labels over 1e5
        # particles carrying total weights 0.5 / 0.3 / 0.2
        n = 100_000
        rng = np.random.default_rng(123)
        labels = rng.integers(0, 3, n)
        counts = np.bincount(labels, minlength=3)
        totals = np.array([0.5, 0.3, 0.2])
        weights = totals[labels] / counts[labels]
        cloud = ParticleCloud(labels[:, None].astype(float), weights)
        out = resample(cloud, seed=7)
        for label, target in enumerate(totals):
            freq = np.mean(out.states[:, 0] == label)
            assert abs(freq - target) < 0.01

    def test_output_rows_come_from_input(self):
        rng = np.random.default_rng(2)
        states = rng.standard_normal((30, 2))
        weights = rng.random(30)
        weights /= weights.sum()
        out = resample(ParticleCloud(states, weights), seed=9)
        rows = {tuple(r) for r in states}
        assert all(tuple(r) in rows for r in out.states)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(4)
        weights = rng.random(50)
        weights /= weights.sum()
        cloud = ParticleCloud(rng.standard_normal((50, 2)), weights)
        a = resample(cloud, seed=7)
        b = resample(cloud, seed=7)
        assert_allclose(a.states, b.states, rtol=0, atol=0)


class TestCloudSummaries:
    def test_mmse_hand_case(self):
        cloud = ParticleCloud(np.array([[0.0, 0.0], [2.0, 1.0]]),
                              np.array([0.25, 0.75]))
        assert_allclose(mmse_estimate(cloud), [1.5, 0.75], rtol=0, atol=0)

    def test_mmse_uniform_weights_is_mean(self):
        rng = np.random.default_rng(8)
        states = rng.standard_normal((64, 4))
        cloud = ParticleCloud(states, np.full(64, 1.0 / 64))
        assert_allclose(mmse_estimate(cloud), states.mean(axis=0), rtol=1e-12)

    def test_ess_uniform_equals_n(self):
        assert_allclose(effective_sample_size(np.full(250, 1.0 / 250)), 250.0,
                        rtol=1e-12)

    def test_ess_degenerate_equals_one(self):
        w = np.zeros(100)
        w[17] = 1.0
        assert effective_sample_size(w) == 1.0

    def test_ess_bounds_on_random_weights(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            w = rng.random(n)
            w /= w.sum()
            ess = effective_sample_size(w)
            assert 1.0 <= ess <= n + 1e-9

    def test_cloud_validation(self):
        with pytest.raises(ValueError, match="one weight per particle"):
            ParticleCloud(np.zeros((3, 2)), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            ParticleCloud(np.zeros((2, 2)), np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="sum to 1"):
            ParticleCloud(np.zeros((2, 2)), np.array([1.5, -0.5]))


class TestPfStep:
    def test_single_particle_estimate_is_proposed_state(self):
        cloud = ParticleCloud(np.array([[-30.0, 0.2]]), np.array([1.0]))
        transition = make_transition(P, NC_1PCT)
        out, lp, est = pf_step(cloud, -29.0, np.array([0.05, 1e-6]), 1.0,
                               transition, seed=3)
        assert_allclose(est, out.states[0], rtol=0, atol=0)
        assert np.isfinite(lp)

    def test_tiny_noise_collapses_to_transition(self):
        x = np.array([[-25.0, 0.3]])
        cloud = ParticleCloud(x, np.array([1.0]))
        f = ml_transition2(x[0], NC_1PCT.i_o, P, NC_1PCT.t_s)
        sigma_x = np.array([1e-16, 1e-16])
        out, _, est = pf_step(cloud, float(f[0]), sigma_x, 1e-16,
                              lambda z: ml_transition2(z, NC_1PCT.i_o, P, NC_1PCT.t_s),
                              seed=0)
        assert_allclose(est, f, atol=1e-6)

    def test_incremental_weights_follow_predictive_identity(self):
        rng = np.random.default_rng(21)
        states = np.column_stack([rng.uniform(-40, 0, 50), rng.uniform(0.1, 0.6, 50)])
        weights = rng.random(50)
        weights /= weights.sum()
        cloud = ParticleCloud(states, weights)
        transition = make_transition(P, NC_1PCT)
        sigma_x = np.array([0.3, 1e-5])
        y = -20.0
        zeta = predictive_likelihood(transition(states), y, sigma_x, 1.0)
        expect = weights * zeta
        expect /= expect.sum()
        out, lp, _ = pf_step(cloud, y, sigma_x, 1.0, transition, seed=5,
                             resample_now=False)
        assert_allclose(out.weights, expect, rtol=1e-12)
        assert_allclose(lp, np.log(np.sum(weights * zeta)), rtol=1e-12)

    def test_weights_normalized_and_ess_in_range(self):
        rng = np.random.default_rng(13)
        states = np.column_stack([rng.uniform(-60, 20, 300), rng.uniform(0, 1, 300)])
        cloud = ParticleCloud(states, np.full(300, 1.0 / 300))
        transition = make_transition(P, NC_1PCT)
        out, _, _ = pf_step(cloud, -10.0, np.array([0.2, 1e-5]), 1.0,
                            transition, seed=2, resample_now=False)
        assert_allclose(out.weights.sum(), 1.0, rtol=1e-12)
        ess = effective_sample_size(out.weights)
        assert 1.0 <= ess <= 300.0

    def test_permutation_leaves_log_predictive_unchanged(self):
        rng = np.random.default_rng(31)
        states = np.column_stack([rng.uniform(-40, 0, 80), rng.uniform(0.1, 0.9, 80)])
        weights = rng.random(80)
        weights /= weights.sum()
        transition = make_transition(P, NC_1PCT)
        sigma_x = np.array([0.4, 1e-5])
        perm = rng.permutation(80)
        _, lp1, _ = pf_step(ParticleCloud(states, weights), -15.0, sigma_x, 1.0,
                            transition, seed=1, resample_now=False)
        _, lp2, _ = pf_step(ParticleCloud(states[perm], weights[perm]), -15.0,
                            sigma_x, 1.0, transition, seed=1, resample_now=False)
        assert_allclose(lp1, lp2, rtol=1e-12)

    def test_permutation_leaves_estimate_unchanged_at_tiny_noise(self):
        # with negligible proposal spread the estimate is a weighted sum of
        # per-particle means, which cannot depend on particle order
        rng = np.random.default_rng(32)
        states = np.column_stack([rng.uniform(-40, 0, 60), rng.uniform(0.1, 0.9, 60)])
        weights = rng.random(60)
        weights /= weights.sum()
        transition = make_transition(P, NC_1PCT)
        sigma_x = np.array([1e-18, 1e-18])
        perm = rng.permutation(60)
        _, _, e1 = pf_step(ParticleCloud(states, weights), -15.0, sigma_x, 1.0,
                           transition, seed=1, resample_now=False)
        _, _, e2 = pf_step(ParticleCloud(states[perm], weights[perm]), -15.0,
                           sigma_x, 1.0, transition, seed=1, resample_now=False)
        assert_allclose(e1, e2, atol=1e-8)

    def test_one_step_matches_kalman_update(self):
        a, q, r, m0, p0 = 0.9, 0.3, 0.5, 0.2, 1.0
        y0 = 1.1
        means, _, _ = kalman_scalar(np.array([y0]), a, q, r, m0, p0)
        reps = []
        for rep in range(20):
            rng = np.random.default_rng(derive_seed(100, rep))
            states = m0 + math.sqrt(p0) * rng.standard_normal((10_000, 1))
            cloud = ParticleCloud(states, np.full(10_000, 1e-4))
            _, _, est = pf_step(cloud, y0, np.array([q]), r, lambda x: a * x, rng)
            reps.append(est[0])
        reps = np.array(reps)
        se = reps.std(ddof=1) / math.sqrt(len(reps))
        assert abs(reps.mean() - means[0]) <= 3.0 * se

    def test_divergence_when_all_weights_underflow(self):
        cloud = ParticleCloud(np.array([[0.0, 0.2], [1.0, 0.3]]),
                              np.array([0.5, 0.5]))
        with pytest.raises(FilterDivergence):
            pf_step(cloud, 1e200, np.array([1e-6, 1e-6]), 1e-6,
                    lambda x: x, seed=0)


class TestLinearGaussianMarginalLikelihood:
    def test_log_ml_matches_kalman_within_monte_carlo_error(self):
        a, q, r, m0, p0 = 0.9, 0.3, 0.5, 0.2, 1.0
        _, ys = linear_gaussian_record(a, q, r, m0, p0, 50, derive_seed(42, 0))
        _, _, exact = kalman_scalar(ys, a, q, r, m0, p0)
        reps = np.array([
            linear_gaussian_log_ml(ys, a, q, r, m0, p0, 2000, derive_seed(43, i))
            for i in range(8)
        ])
        se = reps.std(ddof=1) / math.sqrt(len(reps))
        assert abs(reps.mean() - exact) <= 3.0 * se


class TestRunFilter:
    def make_trace(self, n_steps=300, seed=0, sigma_y=1.0):
        truth = simulate_truth(P, NC_1PCT, n_steps, seed=derive_seed(seed, 0))
        return truth, observe(truth, sigma_y, seed=derive_seed(seed, 1))

    def test_output_shapes_and_ranges(self):
        _, obs = self.make_trace()
        out = run_filter(obs, P, NC_1PCT, n_particles=100, seed=4)
        assert isinstance(out, FilterOutput)
        assert out.estimates.shape == (300, 2)
        assert out.log_predictive.shape == (300,)
        assert out.n_steps == 300
        assert np.all(out.ess >= 1.0) and np.all(out.ess <= 100.0)
        assert np.all(out.estimates[:, 1] >= 0.0)
        assert np.all(out.estimates[:, 1] <= 1.0)
        assert_allclose(out.log_likelihood, out.log_predictive.sum(), rtol=1e-12)
        assert_allclose(out.times_ms[0], obs.t_s)

    def test_same_seed_reproduces(self):
        _, obs = self.make_trace()
        a = run_filter(obs, P, NC_1PCT, n_particles=80, seed=6)
        b = run_filter(obs, P, NC_1PCT, n_particles=80, seed=6)
        assert_allclose(a.estimates, b.estimates, rtol=0, atol=0)
        assert_allclose(a.log_predictive, b.log_predictive, rtol=0, atol=0)

    def test_different_seeds_differ(self):
        _, obs = self.make_trace()
        a = run_filter(obs, P, NC_1PCT, n_particles=80, seed=6)
        b = run_filter(obs, P, NC_1PCT, n_particles=80, seed=7)
        assert not np.allclose(a.estimates, b.estimates)

    def test_tracks_voltage_below_observation_noise(self):
        # near-deterministic dynamics: the filter should average out most of
        # the observation noise
        nc_clean = NoiseConfig(sigma_i_app=0.0, sigma_g_l=0.0, sigma_n=0.0,
                               sigma_y=1.0)
        truth = simulate_truth(P, nc_clean, 400, seed=1)
        obs = observe(truth, 1.0, seed=2)
        nc_filter = NoiseConfig(sigma_i_app=0.0, sigma_g_l=0.0, sigma_n=1e-4,
                                sigma_y=1.0)
        out = run_filter(obs, P, nc_filter, n_particles=400, seed=3,
                         sigma_v=0.02)
        rmse = math.sqrt(np.mean((out.estimates[:, 0] - truth.states[:, 0]) ** 2))
        assert rmse < 1.0

    def test_more_particles_do_not_hurt(self):
        truth, obs = self.make_trace(n_steps=1000, seed=3)
        errs = {}
        for n in (50, 1000):
            out = run_filter(obs, P, NC_1PCT, n_particles=n, seed=11)
            errs[n] = math.sqrt(np.mean((out.estimates[:, 0]
                                         - truth.states[:, 0]) ** 2))
        assert errs[1000] < errs[50]

    def test_ess_policy_resamples_less_often(self):
        _, obs = self.make_trace()
        always = run_filter(obs, P, NC_1PCT, n_particles=100, seed=4,
                            resample_policy="always")
        lazy = run_filter(obs, P, NC_1PCT, n_particles=100, seed=4,
                          resample_policy="ess", ess_threshold=0.5)
        assert np.isfinite(lazy.log_likelihood)
        assert not np.allclose(always.estimates, lazy.estimates)

    def test_divergence_reports_step(self):
        truth, obs = self.make_trace(n_steps=20)
        y = obs.observations.copy()
        y[4] = 1e200
        broken = Trace(t_s=obs.t_s, states=obs.states,
                       applied_current=obs.applied_current, x0=obs.x0,
                       observations=y, sigma_y=obs.sigma_y)
        with pytest.raises(FilterDivergence) as err:
            run_filter(broken, P, NC_1PCT, n_particles=50, seed=0)
        assert err.value.step == 5

    def test_requires_observations(self):
        truth = simulate_truth(P, NC_1PCT, 10, seed=0)
        with pytest.raises(ValueError, match="observe"):
            run_filter(truth, P, NC_1PCT)

    def test_requires_two_particles(self):
        _, obs = self.make_trace(n_steps=10)
        with pytest.raises(ValueError, match="n_particles"):
            run_filter(obs, P, NC_1PCT, n_particles=1)

    def test_rejects_unknown_resample_policy(self):
        _, obs = self.make_trace(n_steps=10)
        with pytest.raises(ValueError, match="resample_policy"):
            run_filter(obs, P, NC_1PCT, resample_policy="sometimes")

    def test_rejects_zero_observation_noise(self):
        _, obs = self.make_trace(n_steps=10)
        with pytest.raises(ValueError, match="sigma_y"):
            run_filter(obs, P, NC_1PCT.replace(sigma_y=0.0))

    def test_rejects_zero_process_noise_without_override(self):
        _, obs = self.make_trace(n_steps=10)
        quiet = NC_1PCT.replace(sigma_i_app=0.0, sigma_g_l=0.0)
        with pytest.raises(ValueError, match="sigma_v"):
            run_filter(obs, P, quiet)
        out = run_filter(obs, P, quiet, sigma_v=0.05, n_particles=50)
        assert np.isfinite(out.log_likelihood)

    def test_rejects_negative_sigma_v(self):
        _, obs = self.make_trace(n_steps=10)
        with pytest.raises(ValueError, match="sigma_v"):
            run_filter(obs, P, NC_1PCT, sigma_v=-0.1)

    def test_x0_mean_shape_checked(self):
        _, obs = self.make_trace(n_steps=10)
        with pytest.raises(ValueError, match="x0_mean"):
            run_filter(obs, P, NC_1PCT, x0_mean=np.zeros(3))
