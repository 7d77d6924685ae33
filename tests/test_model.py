"""Unit tests for the neuron model primitives.

Frozen reference numbers were produced by independent straight-line scripts
(plain ``math``/``mpmath``, no package imports) and pasted here verbatim.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neurosmc.model import (
    REFERENCE_AREA_UM2,
    MorrisLecarParams,
    NoiseConfig,
    SynapticParams,
    clamp_state,
    jacobian2,
    m_inf,
    ml_transition2,
    ml_transition4,
    n_inf,
    ns_to_ms_per_cm2,
    process_noise_cov2,
    process_noise_cov4,
    resting_state,
    tau_n,
)
from neurosmc.simulate import simulate_batch

from oracles import finite_difference_jacobian

P = MorrisLecarParams()

SYN = SynapticParams(
    tau_e=2.73, g_e0=0.034934749971128304, sigma_e=0.034646033029218155,
    tau_i=10.49, g_i0=0.16543480771451669, sigma_i=0.07622127266427994)


class TestGatingFunctions:
    def test_m_inf_midpoint(self):
        assert m_inf(P.v1, P) == 0.5

    def test_m_inf_saturation(self):
        assert m_inf(1e6, P) == pytest.approx(1.0, abs=1e-12)
        assert m_inf(-1e6, P) == pytest.approx(0.0, abs=1e-12)

    def test_m_inf_one_slope_up(self):
        # v1 + v2 puts the tanh argument at exactly 1
        assert_allclose(m_inf(16.8, P), 0.8807970779778824, rtol=1e-15)

    def test_n_inf_midpoint(self):
        assert n_inf(P.v3, P) == 0.5

    def test_n_inf_one_slope_up(self):
        assert_allclose(n_inf(32.0, P), 0.8807970779778824, rtol=1e-15)

    def test_n_inf_limit_down(self):
        assert n_inf(-1e6, P) == pytest.approx(0.0, abs=1e-12)

    def test_tau_n_peak_at_v3(self):
        assert tau_n(P.v3, P) == 1.0

    def test_tau_n_value(self):
        # v3 + 2 v4 puts the cosh argument at exactly 1
        assert_allclose(tau_n(62.0, P), 0.6480542736638855, rtol=1e-14)
        assert_allclose(tau_n(30.0, P), 0.9001877075227968, rtol=1e-14)

    def test_tau_n_even_symmetry(self):
        rng = np.random.default_rng(11)
        for d in rng.uniform(0.0, 80.0, size=25):
            assert_allclose(tau_n(P.v3 + d, P), tau_n(P.v3 - d, P), rtol=1e-15)

    def test_sigmoids_strictly_increasing(self):
        v = np.linspace(-120.0, 120.0, 601)
        assert (np.diff(m_inf(v, P)) > 0).all()
        assert (np.diff(n_inf(v, P)) > 0).all()


class TestTransition2:
    def test_zero_step_is_identity(self):
        x = np.array([-33.0, 0.42])
        assert_allclose(ml_transition2(x, 110.0, P, 0.0), x, rtol=0)

    def test_single_step_reference_value(self):
        got = ml_transition2(np.array([-60.855, 0.0149]), 110.0, P, 0.25)
        assert_allclose(got, [-59.47997482126361, 0.014900246508125041],
                        rtol=1e-14)

    def test_rest_point_is_fixed(self):
        x = resting_state(P, i_app=0.0)
        assert_allclose(ml_transition2(x, 0.0, P, 0.25), x, atol=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = np.column_stack([rng.uniform(-80, 40, 40), rng.uniform(0, 1, 40)])
        batch = ml_transition2(xs, 110.0, P, 0.25)
        for x, b in zip(xs, batch):
            assert_allclose(ml_transition2(x, 110.0, P, 0.25), b, rtol=1e-15)

    def test_small_step_approaches_vector_field(self):
        # (f(x) - x)/t_s converges to the continuous-time derivative
        rng = np.random.default_rng(17)
        t_s = 1e-4
        for _ in range(10):
            x = np.array([rng.uniform(-80, 40), rng.uniform(0.05, 0.95)])
            rate = (ml_transition2(x, 110.0, P, t_s) - x) / t_s
            i_ion = (P.g_l * (x[0] - P.e_l)
                     + P.g_ca * m_inf(x[0], P) * (x[0] - P.e_ca)
                     + P.g_k * x[1] * (x[0] - P.e_k))
            dv = (110.0 - i_ion) / P.c_m
            dn = P.phi * (n_inf(x[0], P) - x[1]) / tau_n(x[0], P)
            assert_allclose(rate, [dv, dn], rtol=1e-3)


class TestTransition4:
    def test_zero_conductances_reduce_to_two_state(self):
        x4 = np.array([-40.0, 0.2, 0.0, 0.0])
        got = ml_transition4(x4, 110.0, P, SYN, 0.25)
        want = ml_transition2(x4[:2], 110.0, P, 0.25)
        assert_allclose(got[:2], want, rtol=1e-15)

    def test_reversal_potential_kills_synaptic_term(self):
        # v pinned at e_e with g_i = 0: the synaptic current vanishes
        x4 = np.array([SYN.e_e, 0.2, 0.7, 0.0])
        got = ml_transition4(x4, 110.0, P, SYN, 0.25)
        want = ml_transition2(x4[:2], 110.0, P, 0.25)
        assert_allclose(got[:2], want, rtol=1e-15)

    def test_single_step_reference_value(self):
        got = ml_transition4(np.array([-25.0, 0.3, 0.04, 0.12]), 110.0, P,
                             SYN, 0.25)
        want = [-25.811000307147907, 0.29825566442396345,
                0.03953614926475534, 0.1210828123859513]
        assert_allclose(got, want, rtol=1e-14)

    def test_conductance_drift_matches_ou_step(self):
        # the deterministic part of the Euler OU step g - (t_s/tau)(g - g0)
        x4 = np.array([-25.0, 0.3, 0.04, 0.12])
        got = ml_transition4(x4, 110.0, P, SYN, 0.25)
        assert_allclose(got[2], 0.04 - (0.25 / SYN.tau_e) * (0.04 - SYN.g_e0),
                        rtol=1e-15)
        assert_allclose(got[3], 0.12 - (0.25 / SYN.tau_i) * (0.12 - SYN.g_i0),
                        rtol=1e-15)


class TestOuStep:
    """The OU conductance step: the drift of ``ml_transition4`` plus an
    increment with the standard deviation read off ``process_noise_cov4``,
    as the simulator composes them."""

    @staticmethod
    def ou_step(g_e, g_i, xi_e=0.0, xi_i=0.0):
        x = ml_transition4(np.array([-25.0, 0.3, g_e, g_i]), 110.0, P, SYN, 0.25)
        sd = np.sqrt(process_noise_cov4(-25.0, NoiseConfig(), P, SYN)[2:])
        return x[2:] + sd * np.array([xi_e, xi_i])

    def test_mean_is_fixed_point(self):
        assert (self.ou_step(SYN.g_e0, SYN.g_i0) == [SYN.g_e0, SYN.g_i0]).all()

    def test_geometric_decay_to_mean(self):
        g = 0.5
        factor = 1.0 - 0.25 / SYN.tau_i
        for k in range(1, 40):
            g = self.ou_step(SYN.g_e0, g)[1]
            want = SYN.g_i0 + (0.5 - SYN.g_i0) * factor**k
            assert_allclose(g, want, rtol=1e-12)

    def test_single_noisy_step_reference_value(self):
        got = self.ou_step(0.05, SYN.g_i0, xi_e=1.0)[0]
        assert_allclose(got, 0.06344753170773798, rtol=1e-14)

    def test_stationary_std_euler_bias(self):
        # the Euler chain equilibrates at sigma/sqrt(1 - t_s/(2 tau)); the
        # means sit 13 sigma above zero, so the clamp at 0 never acts
        syn = SYN.replace(g_e0=1.0, g_i0=1.0)
        states, _, _ = simulate_batch(P, NoiseConfig(), 4000, list(range(250)), s=syn)
        g = states[:, 1000:, 3]
        assert g.min() > 0.0
        inflation = 1.0060118372518219
        assert_allclose(g.std(), SYN.sigma_i * inflation, rtol=0.02)


class TestJacobian:
    def test_zero_step_is_identity(self):
        got = jacobian2(np.array([-20.0, 0.3]), P, 0.0)
        assert_allclose(got, np.eye(2), rtol=0, atol=0)

    def test_reference_entries(self):
        got = jacobian2(np.array([-20.0, 0.3]), P, 0.25)
        want = [[1.0228199760686383, -6.4],
                [0.00011547747488823263, 0.9893202125662911]]
        assert_allclose(got, want, rtol=1e-13)

    def test_gating_self_coupling_closed_form(self):
        for v in (-70.0, -20.0, 15.0, 40.0):
            got = jacobian2(np.array([v, 0.3]), P, 0.25)
            assert_allclose(got[1, 1], 1.0 - 0.25 * P.phi / tau_n(v, P),
                            rtol=1e-14)

    def test_matches_finite_differences_at_reference_point(self):
        x = np.array([-20.0, 0.3])
        fd = finite_difference_jacobian(
            lambda z: ml_transition2(z, 110.0, P, 0.25), x, step=1e-5)
        assert_allclose(jacobian2(x, P, 0.25), fd, rtol=1e-6)

    def test_matches_finite_differences_on_grid(self):
        for v in np.linspace(-80.0, 60.0, 15):
            for n in np.linspace(0.05, 0.95, 7):
                x = np.array([v, n])
                fd = finite_difference_jacobian(
                    lambda z: ml_transition2(z, 110.0, P, 0.25), x, step=1e-5)
                assert_allclose(jacobian2(x, P, 0.25), fd, rtol=1e-6)

    def test_batch_shape(self):
        xs = np.zeros((6, 2))
        assert jacobian2(xs, P, 0.25).shape == (6, 2, 2)


class TestProcessNoise:
    def test_zero_noise(self):
        nc = NoiseConfig(sigma_n=1e-3)
        assert process_noise_cov2(-20.0, nc, P)[0] == 0.0

    def test_leak_term_vanishes_at_e_l(self):
        nc = NoiseConfig(sigma_i_app=1.1, sigma_g_l=0.02, sigma_n=1e-3)
        got = process_noise_cov2(P.e_l, nc, P)
        assert_allclose(got[0], 0.00018906250000000008, rtol=1e-15)

    def test_reference_value(self):
        nc = NoiseConfig(sigma_i_app=1.1, sigma_g_l=0.02, sigma_n=1e-3)
        got = process_noise_cov2(-20.0, nc, P)
        assert_allclose(got, [0.0002890625000000001, 1e-6], rtol=1e-15)

    def test_grows_with_leak_displacement(self):
        nc = NoiseConfig(sigma_i_app=1.1, sigma_g_l=0.02, sigma_n=1e-3)
        vs = np.linspace(P.e_l, 40.0, 50)
        vals = [process_noise_cov2(v, nc, P)[0] for v in vs]
        assert (np.diff(vals) > 0).all()

    def test_cov4_appends_ou_diffusion(self):
        nc = NoiseConfig(sigma_i_app=1.1, sigma_g_l=0.02, sigma_n=1e-3)
        got = process_noise_cov4(-20.0, nc, P, SYN)
        assert_allclose(got[:2], process_noise_cov2(-20.0, nc, P), rtol=0)
        assert_allclose(got[2:], [0.0002198438836376695,
                                  0.00027691527200011956], rtol=1e-15)

    def test_diagonals_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            nc = NoiseConfig(sigma_i_app=rng.uniform(0, 12),
                             sigma_g_l=rng.uniform(0, 0.3),
                             sigma_n=rng.uniform(0, 0.01))
            v = rng.uniform(-90, 40)
            assert (process_noise_cov2(v, nc, P) >= 0).all()
            assert (process_noise_cov4(v, nc, P, SYN) >= 0).all()


class TestStateHelpers:
    def test_clamp_gating_and_conductances(self):
        x = np.array([[-200.0, -0.2, -1.0, 5.0], [40.0, 1.7, 0.3, -0.4]])
        clamp_state(x)
        assert_allclose(x[:, 1], [0.0, 1.0])
        assert (x[:, 2:] >= 0).all()
        # voltage is never clipped
        assert x[0, 0] == -200.0

    def test_resting_state_reference_value(self):
        x = resting_state(P, i_app=0.0)
        assert_allclose(x, [-60.855382232309491, 0.014915024953999358],
                        rtol=1e-9)

    def test_resting_state_solves_balance(self):
        v, n = resting_state(P, i_app=0.0)
        i_ion = (P.g_l * (v - P.e_l) + P.g_ca * m_inf(v, P) * (v - P.e_ca)
                 + P.g_k * n * (v - P.e_k))
        assert abs(i_ion) < 1e-8
        assert_allclose(n, n_inf(v, P), rtol=1e-12)


class TestValidation:
    def test_rejects_bad_capacitance(self):
        with pytest.raises(ValueError, match="c_m"):
            MorrisLecarParams(c_m=0.0)

    def test_rejects_zero_slope(self):
        with pytest.raises(ValueError, match="v2"):
            MorrisLecarParams(v2=0.0)

    def test_rejects_negative_conductance(self):
        with pytest.raises(ValueError, match="g_l"):
            MorrisLecarParams(g_l=-1.0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="tau_e"):
            SynapticParams(tau_e=0.0, g_e0=0.03, sigma_e=0.03,
                           tau_i=10.0, g_i0=0.16, sigma_i=0.07)

    def test_rejects_bad_sampling_period(self):
        with pytest.raises(ValueError, match="t_s"):
            NoiseConfig(t_s=0.0)

    def test_replace_roundtrip(self):
        q = P.replace(g_l=3.5)
        assert q.g_l == 3.5 and P.g_l == 2.0

    def test_unit_conversion(self):
        assert_allclose(ns_to_ms_per_cm2(12.1), 0.034934749971128304,
                        rtol=1e-15)
        assert ns_to_ms_per_cm2(0.0) == 0.0
        assert REFERENCE_AREA_UM2 == 34636.0
