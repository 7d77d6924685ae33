"""Tests for ground-truth simulation and the observation model."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neurosmc.model import (
    MorrisLecarParams,
    NoiseConfig,
    NumericalDivergence,
    SynapticParams,
    ml_transition2,
    resting_state,
)
from neurosmc.simulate import Trace, observe, simulate_batch, simulate_truth, snr_db

P = MorrisLecarParams()
NC_CLEAN = NoiseConfig()
NC_1PCT = NoiseConfig(sigma_i_app=1.1, sigma_g_l=0.02, sigma_n=1e-3)

SYN = SynapticParams(
    tau_e=2.73, g_e0=0.034934749971128304, sigma_e=0.034646033029218155,
    tau_i=10.49, g_i0=0.16543480771451669, sigma_i=0.07622127266427994)


def spike_count(v, threshold=0.0):
    v = np.asarray(v)
    return int(((v[:-1] < threshold) & (v[1:] >= threshold)).sum())


class TestSimulateTruth:
    def test_noise_free_fixed_point_is_constant(self):
        nc = NoiseConfig(i_o=0.0)
        x0 = resting_state(P, i_app=0.0)
        tr = simulate_truth(P, nc, 200, x0=x0, seed=0)
        assert_allclose(tr.states, np.tile(x0, (200, 1)), atol=1e-9)

    def test_noise_free_equals_pure_map(self):
        tr = simulate_truth(P, NC_CLEAN, 50, seed=0)
        x = np.asarray(tr.x0, dtype=float)
        for k in range(50):
            x = ml_transition2(x, NC_CLEAN.i_o, P, NC_CLEAN.t_s)
            assert_allclose(tr.states[k], x, rtol=1e-15)
        assert_allclose(tr.applied_current, NC_CLEAN.i_o, rtol=0)

    def test_same_seed_reproduces(self):
        a = simulate_truth(P, NC_1PCT, 300, seed=42)
        b = simulate_truth(P, NC_1PCT, 300, seed=42)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.applied_current, b.applied_current)

    def test_different_seeds_differ(self):
        a = simulate_truth(P, NC_1PCT, 300, seed=1)
        b = simulate_truth(P, NC_1PCT, 300, seed=2)
        assert not np.array_equal(a.states, b.states)

    def test_reference_trace_spiking_regression(self):
        # repetitive firing under the nominal drive; values pinned from the
        # first verified run of this configuration
        tr = simulate_truth(P, NoiseConfig(sigma_n=0.0), 2000, seed=0)
        assert spike_count(tr.states[:, 0]) == 7
        assert_allclose(tr.states[-1], [13.85062245242898, 0.5030227888109746],
                        rtol=1e-12)

    def test_realized_current_std_matches_config(self):
        nc = NoiseConfig(sigma_i_app=11.0, sigma_g_l=0.2, sigma_n=1e-3)
        tr = simulate_truth(P, nc, 10_000, seed=1)
        assert abs(tr.applied_current.std() - 11.0) / 11.0 < 0.05

    def test_gating_stays_in_unit_interval(self):
        nc = NoiseConfig(sigma_i_app=11.0, sigma_g_l=0.2, sigma_n=0.05)
        tr = simulate_truth(P, nc, 3000, seed=3)
        assert (tr.states[:, 1] >= 0.0).all()
        assert (tr.states[:, 1] <= 1.0).all()

    def test_four_state_shape_and_clamping(self):
        tr = simulate_truth(P, NC_1PCT, 2000, s=SYN, seed=4)
        assert tr.states.shape == (2000, 4)
        assert (tr.states[:, 2:] >= 0.0).all()
        assert spike_count(tr.states[:, 0]) >= 1

    def test_divergence_reports_step(self):
        nc = NoiseConfig(t_s=1e6)
        with pytest.raises(NumericalDivergence) as err:
            simulate_truth(P, nc, 100, seed=0)
        assert err.value.step is not None

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            simulate_truth(P, NC_CLEAN, 0, seed=0)


class TestSimulateBatch:
    @pytest.mark.parametrize("syn", [None, SYN], ids=["two_state", "four_state"])
    def test_rows_equal_lone_runs(self, syn):
        seeds = [0, 1, 2, np.random.SeedSequence(9)]
        states, current, x0 = simulate_batch(P, NC_1PCT, 500, seeds, s=syn)
        assert states.shape == (4, 500, 2 if syn is None else 4)
        for b, seed in enumerate(seeds):
            lone = simulate_truth(P, NC_1PCT, 500, s=syn, seed=seed)
            assert np.array_equal(states[b], lone.states)
            assert np.array_equal(current[b], lone.applied_current)
            assert np.array_equal(x0, lone.x0)

    def test_divergence_names_trajectory_and_step(self):
        # at this step size seed 0 diverges on its own and seeds 1-3 do not
        nc = NoiseConfig(t_s=6.0, sigma_i_app=200.0, sigma_g_l=0.5, sigma_n=0.01)
        with pytest.raises(NumericalDivergence) as lone:
            simulate_truth(P, nc, 200, seed=0)
        for seed in (1, 2, 3):
            simulate_truth(P, nc, 200, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalDivergence) as batch:
                simulate_batch(P, nc, 200, [1, 2, 0, 3])
        assert batch.value.step == lone.value.step
        assert f"trajectory 2: state became non-finite at step {lone.value.step}" \
            in str(batch.value)

    def test_same_seed_sequence_object_reused(self):
        ss = np.random.SeedSequence(5)
        a = simulate_truth(P, NC_1PCT, 200, seed=ss)
        b = simulate_truth(P, NC_1PCT, 200, seed=ss)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.states, simulate_truth(P, NC_1PCT, 200, seed=5).states)


class TestObserve:
    def test_zero_noise_copies_voltage(self):
        tr = simulate_truth(P, NC_CLEAN, 100, seed=0)
        ob = observe(tr, sigma_y=0.0, seed=0)
        assert np.array_equal(ob.observations, tr.states[:, 0])

    def test_original_trace_untouched(self):
        tr = simulate_truth(P, NC_CLEAN, 100, seed=0)
        assert tr.observations is None
        ob = observe(tr, sigma_y=1.0, seed=0)
        assert tr.observations is None and ob.observations is not None
        assert ob.sigma_y == 1.0

    def test_noise_is_centered(self):
        # CLT bound on the sample mean of the added noise
        tr = simulate_truth(P, NC_CLEAN, 100_000, seed=5)
        ob = observe(tr, sigma_y=1.0, seed=5)
        resid = ob.observations - tr.states[:, 0]
        assert abs(resid.mean()) < 3.0 / np.sqrt(100_000)
        assert abs(resid.std() - 1.0) < 0.02

    def test_same_seed_reproduces(self):
        tr = simulate_truth(P, NC_1PCT, 200, seed=6)
        a = observe(tr, sigma_y=1.0, seed=7)
        b = observe(tr, sigma_y=1.0, seed=7)
        assert np.array_equal(a.observations, b.observations)


class TestSnr:
    def test_constant_signal(self):
        tr = Trace(t_s=0.25, states=np.full((100, 2), [10.0, 0.5]),
                   applied_current=np.zeros(100))
        ob = dataclasses.replace(tr, observations=tr.states[:, 0].copy(),
                                 sigma_y=1.0)
        assert_allclose(snr_db(ob), 20.0, rtol=1e-12)

    def test_equal_powers_give_zero_db(self):
        tr = Trace(t_s=0.25, states=np.full((100, 2), [3.0, 0.5]),
                   applied_current=np.zeros(100))
        ob = dataclasses.replace(tr, observations=tr.states[:, 0].copy(),
                                 sigma_y=3.0)
        assert_allclose(snr_db(ob), 0.0, atol=1e-12)

    def test_reference_trace_snr_regression(self):
        # unit observation noise on the nominal-drive trace; value pinned
        # from the first verified run (signal power ~1032 mV^2)
        tr = simulate_truth(P, NC_1PCT, 2000, seed=0)
        ob = observe(tr, sigma_y=1.0, seed=0)
        assert_allclose(snr_db(ob), 30.135465341085922, rtol=1e-12)
        assert 28.0 < snr_db(ob) < 33.0

    def test_infinite_snr_when_noise_free(self):
        tr = simulate_truth(P, NC_CLEAN, 50, seed=0)
        ob = observe(tr, sigma_y=0.0, seed=0)
        assert snr_db(ob) == np.inf

    def test_requires_observations(self):
        tr = simulate_truth(P, NC_CLEAN, 50, seed=0)
        with pytest.raises(ValueError):
            snr_db(tr)


class TestTraceContainer:
    def test_times_and_lengths(self):
        tr = simulate_truth(P, NC_1PCT, 64, seed=0)
        assert tr.n_steps == 64 and tr.dim == 2
        assert_allclose(tr.times_ms, 0.25 * np.arange(1, 65), rtol=0)
        assert len(tr.applied_current) == 64

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(t_s=0.25, states=np.zeros((10, 2)),
                  applied_current=np.zeros(9))
