"""Self-tests of the benchmark: the oracle, and that every check can fail.

    python3 -m pytest nsbench -q

The oracle is tested against closed forms; each check is shown to pass on
the package as it is and to fail on a package, or an output, that is wrong on
purpose.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
from tracing import SegmentClock, SpanStore, SpanTable, Tracer  # noqa: E402
from neurosmc import bounds, filtering, pmcmc  # noqa: E402

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"


# -- oracle against closed forms --------------------------------------------

@pytest.mark.parametrize("a,q,r", [(0.975, 1.89e-4, 1.0), (0.96875, 0.0189, 1.0),
                                   (0.5, 2.0, 0.3)])
def test_variance_recursion_reaches_riccati_steady_state(a, q, r):
    track = oracle.posterior_variance(a, q, r, 5.0, 20000)
    assert track[-1] == pytest.approx(oracle.steady_state_variance(a, q, r), rel=1e-10)


def test_kalman_matches_the_joint_gaussian_of_the_record():
    a, b, q, r, m0, p0, n = 0.9, 0.3, 0.2, 0.5, 1.0, 2.0, 30
    _, y = oracle.simulate(np.random.default_rng(0), a, b, q, r, m0, p0, n)
    means, variances, loglik = oracle.kalman(y, a, b, q, r, m0, p0)
    # v = A v0 + L (b + w) with A_k = a^k, L_kj = a^(k-j) for j <= k
    k = np.arange(1, n + 1)
    powers = np.tril(a ** (k[:, None] - k[None, :]).astype(float))
    mean_v = a ** k * m0 + powers @ np.full(n, b)
    cov_v = p0 * np.outer(a ** k, a ** k) + q * powers @ powers.T
    cov_y = cov_v + r * np.eye(n)
    resid = y - mean_v
    _, logdet = np.linalg.slogdet(cov_y)
    expected = -0.5 * (n * math.log(2 * math.pi) + logdet + resid @ np.linalg.solve(cov_y, resid))
    assert loglik == pytest.approx(expected, rel=1e-10)
    gain = cov_v[-1] @ np.linalg.inv(cov_y)
    assert means[-1] == pytest.approx(mean_v[-1] + gain @ resid, rel=1e-10)
    assert variances[-1] == pytest.approx(cov_v[-1, -1] - gain @ cov_v[-1], rel=1e-8)
    assert np.allclose(variances, oracle.posterior_variance(a, q, r, p0, n), rtol=1e-12)


# -- oracle side checks: pass on the package, fail on a wrong one -----------

SIDE = {
    "mc_weak": checks.side_check_mc_weak,
    "syn_large_n": checks.side_check_syn,
    "pmmh_leak": checks.side_check_pmmh,
}


def _side(workload, seed=0):
    rep = checks.Report()
    SIDE[workload](rep, str(CONFIGS / f"{workload}.ini"), seed)
    return rep


@pytest.mark.parametrize("workload", sorted(SIDE))
def test_side_check_passes_on_the_package(workload):
    rep = _side(workload, seed=3)
    assert rep.ok, rep.failures


def _leak_off_by_10_percent(fn, p_index=1):
    def wrong(*args, **kwargs):
        args = list(args)
        args[p_index] = args[p_index].replace(g_l=1.1 * args[p_index].g_l)
        return fn(*args, **kwargs)
    return wrong


@pytest.mark.parametrize("workload", ["mc_weak", "syn_large_n"])
def test_filter_check_fails_on_a_wrong_leak(workload, monkeypatch):
    monkeypatch.setattr(filtering, "run_filter", _leak_off_by_10_percent(filtering.run_filter))
    failed = _side(workload).failures
    assert any("loglik_abs_diff" in f for f in failed)
    assert any("mean_v_rms_z" in f for f in failed)


def test_bound_check_fails_on_a_wrong_leak(monkeypatch):
    monkeypatch.setattr(bounds, "pcrb_series", _leak_off_by_10_percent(bounds.pcrb_series, 0))
    failed = _side("mc_weak").failures
    assert [f for f in failed if "bound_v_rel_diff" in f] and len(failed) == 1


def test_energy_check_fails_on_a_wrong_leak(monkeypatch):
    monkeypatch.setattr(pmcmc, "run_filter", _leak_off_by_10_percent(pmcmc.run_filter))
    assert any("energy_abs_diff" in f for f in _side("pmmh_leak").failures)


def test_energy_check_fails_when_theta_is_not_overlaid(monkeypatch):
    monkeypatch.setattr(pmcmc, "apply_parameters",
                        lambda space, theta, p, nc, s=None: (p, nc, s, None))
    assert any("energy_abs_diff" in f for f in _side("pmmh_leak").failures)


# -- every-seed properties: each defect is caught ---------------------------

def _good_chain():
    return dict(samples=np.array([[3.0, -55.0], [2.5, -58.0], [2.5, -58.0]]),
                energies=np.array([10.0, 8.0, 8.0]),
                accepted=np.array([False, True, False]),
                theta0=np.array([3.0, -55.0]), energy0=10.0,
                factor=np.array([[0.2, 0.0], [0.5, 3.0]]),
                lower=np.array([0.5, -90.0]), upper=np.array([6.0, -30.0]))


def _chain_failures(**changes):
    rep = checks.Report()
    checks.check_chain(rep, "chain", **dict(_good_chain(), **changes))
    return rep.failures


def test_chain_check_passes_on_a_valid_chain():
    assert _chain_failures() == []


@pytest.mark.parametrize("changes,name", [
    (dict(samples=np.array([[3.0, -55.0], [6.5, -58.0], [6.5, -58.0]])), "in_prior_box"),
    (dict(energies=np.array([10.0, 8.0, 7.5])), "rejection_repeats"),
    (dict(samples=np.array([[3.1, -55.0], [2.5, -58.0], [2.5, -58.0]])), "rejection_repeats"),
    (dict(factor=np.array([[0.2, 0.1], [0.5, 3.0]])), "factor_cholesky"),
    (dict(factor=np.array([[-0.2, 0.0], [0.5, 3.0]])), "factor_cholesky"),
    (dict(energy0=math.inf), "finite"),
])
def test_chain_check_catches(changes, name):
    failed = _chain_failures(**changes)
    assert any(f.startswith(f"chain.{name}") for f in failed)


def test_bound_check_catches_indefinite_and_nonpositive():
    info = np.array([[[4.0, 1.0], [1.0, 3.0]]] * 3)
    bound = np.full((3, 2), 0.5)
    rep = checks.Report()
    checks.check_bound(rep, "b", bound, info)
    assert rep.ok
    rep = checks.Report()
    checks.check_bound(rep, "b", -bound, info)
    assert [f for f in rep.failures if "bound_positive" in f]
    rep = checks.Report()
    checks.check_bound(rep, "b", bound, np.array([[[1.0, 2.0], [2.0, 1.0]]] * 3))
    assert [f for f in rep.failures if "info_pd" in f]
    rep = checks.Report()
    checks.check_bound(rep, "b", bound, np.array([[[4.0, 1.0], [1.1, 3.0]]] * 3))
    assert [f for f in rep.failures if "info_asymmetry" in f]


def test_rmse_check_catches_a_filter_worse_than_the_observation():
    header = ["k", "t_ms", "rmse_v", "rmse_n"]
    rows = [["1", "0.25", "0.3", "0.01"], ["2", "0.5", "0.4", "0.01"]]
    rep = checks.Report()
    checks.check_rmse(rep, "r", header, rows, 2, 1.0)
    assert rep.ok
    rep = checks.Report()
    checks.check_rmse(rep, "r", header, rows, 2, 0.3)
    assert [f for f in rep.failures if "rmse_v_over_sigma_y" in f]
    rep = checks.Report()
    checks.check_rmse(rep, "r", header, rows + [["3", "0.75", "nan", "0.01"]], 3, 1.0)
    assert [f for f in rep.failures if "finite" in f]


def _summary_dir(path, summary_rows):
    (path / "rmse_n10.csv").write_text("# t_s=0.25\nk,t_ms,rmse_v,rmse_n\n"
                                       "1,0.25,0.3,0.01\n2,0.5,0.5,0.03\n")
    (path / "pcrb.csv").write_text("# t_s=0.25\nk,t_ms,bound_v,bound_n\n"
                                   "1,0.25,0.5,0.02\n2,0.5,0.3,0.02\n")
    (path / "summary.txt").write_text(
        "scenario: s\n  N  rmse_v  rmse_n  pcrb_v  pcrb_n  eta_v  eta_n\n" + summary_rows)
    return path


def test_summary_check_catches_a_table_that_disagrees_with_the_csvs(tmp_path):
    rep = checks.Report()
    checks.check_summary(rep, "s", _summary_dir(tmp_path, "10 0.4 0.02 0.4 0.02 1 1\n"), [10])
    assert rep.ok
    for rows in ("10 0.4 0.02 0.4 0.02 1 1.01\n", "10 0.4 0.02 0.4 0.02 1\n", ""):
        rep = checks.Report()
        checks.check_summary(rep, "s", _summary_dir(tmp_path, rows), [10])
        assert [f for f in rep.failures if "summary_rel_diff" in f], rows


# -- the tracer ---------------------------------------------------------------

def test_tracer_keeps_nested_spans_across_store_growth():
    tracer = Tracer(spans_on=True)
    tracer.spans = SpanStore(cap=2)
    leaf = tracer.span("leaf", lambda x: x + 1)
    outer = tracer.span("outer", lambda k: sum(leaf(i) for i in range(k)))
    assert [outer(5) for _ in range(3)] == [15, 15, 15]
    table = SpanTable(tracer)
    assert tracer.spans.cap >= 18 and table.count("leaf") == 15 and table.count("outer") == 3
    outer_spans = table.mask("outer")
    assert (table.parent[table.mask("leaf")] >= 0).all() and (table.parent[outer_spans] == -1).all()
    assert (table.end >= table.start).all() and (table.self_time >= -1e-12).all()
    assert table.total("outer") == pytest.approx(table.dur[outer_spans].sum())


# -- the command's contract -------------------------------------------------

def test_result_is_the_last_stdout_line(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "syn_large_n",
                           "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "particle_steps_per_s", "peak_rss_mb"}


def test_fails_without_a_result_where_there_is_no_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "mc_weak", "--seed", "0", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_segment_clock_keeps_each_segments_fastest_time():
    clock = SegmentClock()
    tick = clock.ticking(lambda d: time.sleep(d))
    per_round = [[0.001] * 64 + [0.01] * 64, [0.01] * 64 + [0.001] * 64]
    for delays in per_round:
        clock.start()
        for d in delays:
            tick(d)
        clock.stop()
        clock.keep()
    # two segments of 64 ticks and an empty tail; each round was slow in one
    # segment (0.64 s) and fast in the other (0.064 s)
    assert clock.n_segments == 3 and clock.consistent
    assert 0.12 < clock.wall_s() < 0.4

    clock.start()
    tick(0.0)  # a round with a different tick count
    clock.stop()
    clock.keep()
    assert not clock.consistent and math.isnan(clock.wall_s())
