"""The three workloads, the timed loop and the per-layer metrics.

Each workload is one ``neurosmc`` CLI command on a cut-down config in
``configs/``, run in-process as ``cli.main(argv)`` so that config parsing,
dispatch and CSV writing are on the timed path.  A run repeats that command
in whole rounds until ``seconds`` have passed and checks the outputs of every
round.  Every round repeats the same work, so time a round spends above the
fastest reading of the same work measures interference from outside the
process: the end-to-end time is the sum of each segment's fastest time (see
``tracing.SegmentClock``).
"""

import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bootstrap
import checks
from tracing import SegmentClock, SpanTable, Tracer
from neurosmc import bench, bounds, cli, filtering, pmcmc

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE / "out"
# metric names, units and directions are declared once, here
SPEC_PATH = HERE.parent / "BENCHMARK.json"

# name -> (CLI subcommand, oracle side check)
WORKLOADS = {
    "mc_weak": ("bench", checks.side_check_mc_weak),
    "pmmh_leak": ("pmcmc", checks.side_check_pmmh),
    "syn_large_n": ("bench", checks.side_check_syn),
}


def config_path(workload):
    return HERE / "configs" / f"{workload}.ini"


@dataclass
class Counters:
    """What the hooks see, summed over a run."""

    particle_steps: int = 0
    bytes_written: int = 0
    sim_steps: int = 0
    filter_spans: list = field(default_factory=list)  # (span index, N, T)
    last_filter_call: tuple = None
    report: object = None  # the last bench report, for the output checks
    chains: list = field(default_factory=list)


# the per-step functions whose returns tick the untraced run's clock
TICKING = ((filtering, "pf_step"), (bounds, "pcrb_step"),
           (cli, "simulate_truth"), (bench, "simulate_truth"), (bounds, "simulate_truth"))


def install(tracer: Tracer, counters: Counters, clock: SegmentClock = None):
    """Wrap every layer boundary at the name its caller looks up.

    Untraced, only the hooks on ``run_filter`` (particle-step count) and on
    the two experiment entry points (their results feed the output checks) are
    installed, and the ``TICKING`` functions tick ``clock``.
    """
    if clock is not None:
        for module, attr in TICKING:
            tracer.replace(module, attr, clock.ticking)

    def on_filter(idx, args, kwargs, out):
        counters.particle_steps += out.n_particles * out.n_steps
        if idx >= 0:
            counters.filter_spans.append((idx, out.n_particles, out.n_steps))
            counters.last_filter_call = (args, kwargs)

    def on_report(idx, args, kwargs, report):
        counters.report = report

    def on_chain(idx, args, kwargs, result):
        counters.chains.append(result[0])

    def on_write(idx, args, kwargs, result):
        counters.bytes_written += os.path.getsize(args[0])

    def on_simulate(idx, args, kwargs, trace):
        counters.sim_steps += trace.n_steps

    for module in (bench, pmcmc, cli):
        tracer.patch(module, "run_filter", "filtering.run_filter", on_filter, always=True)
    tracer.patch(cli, "run_experiment", "bench.run_experiment", on_report, always=True)
    tracer.patch(cli, "run_pmcmc", "pmcmc.run_pmcmc", on_chain, always=True)

    tracer.patch(cli, "parse_config", "config.parse")
    tracer.patch(cli, "dispatch", "cli.dispatch")
    for attr in ("write_trace_csv", "write_filter_csv", "write_chain_csv",
                 "write_pcrb_csv", "write_manifest", "_write_rmse_csv"):
        tracer.patch(cli, attr, "io.write", on_write)
    for module in (cli, bench, bounds):
        tracer.patch(module, "simulate_truth", "simulate.simulate_truth", on_simulate)
    tracer.patch(bench, "_run_trial", "bench.trial")
    tracer.patch(bench, "pcrb_series", "bounds.pcrb_series")
    tracer.patch(bounds, "pcrb_step", "bounds.pcrb_step")
    tracer.patch(bounds, "jacobian2", "model.jacobian")
    tracer.patch(bounds, "jacobian2_reduced", "model.jacobian")
    for attr, name in (("pf_step", "filtering.pf_step"),
                       ("process_noise_cov2", "filtering.noise_cov"),
                       ("process_noise_cov4", "filtering.noise_cov"),
                       ("ParticleCloud", "filtering.cloud_build"),
                       ("ml_transition2", "model.transition"),
                       ("ml_transition4", "model.transition"),
                       ("optimal_proposal_moments", "filtering.proposal"),
                       ("_log_predictive", "filtering.proposal"),
                       ("resample", "filtering.resample")):
        tracer.patch(filtering, attr, name)
    tracer.patch(pmcmc, "energy", "pmcmc.energy")
    tracer.patch(pmcmc, "ram_step", "pmcmc.ram_step")


def check_round(rep, workload, out_dir, counters):
    ini = checks.read_ini(config_path(workload))
    if WORKLOADS[workload][0] == "bench":
        checks.check_bench_outputs(rep, workload, ini, out_dir, counters.report)
    else:
        checks.check_pmcmc_outputs(rep, workload, ini, out_dir)


def _guarded(rep, name, fn, *args):
    """Run a check; an exception from the package counts as a failed check."""
    try:
        fn(rep, *args)
    except Exception:  # noqa: BLE001 - any fault of the program fails the check
        traceback.print_exc(file=sys.stderr)
        rep.holds(name, False, "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])


def step_cost_fit(table, counters):
    """Intercept (s per step) and slope (s per particle-step) of run_filter time.

    Fitted over the particle counts the run used; a workload with a single
    count adds one filter run at a tenth of it, on the same trace and model.
    """
    points = [(n, table.dur[idx] / t) for idx, n, t in counters.filter_spans]
    if not points:
        return math.nan, math.nan
    if len({n for n, _ in points}) < 2:
        args, kwargs = counters.last_filter_call
        n_small = max(2, points[0][0] // 10)
        start = time.perf_counter()
        out = filtering.run_filter(*args, **dict(kwargs, n_particles=n_small))
        points.append((n_small, (time.perf_counter() - start) / out.n_steps))
    n, per_step = np.array(points, dtype=float).T
    slope, intercept = np.polyfit(n, per_step, 1)
    return intercept, slope


def layer_metrics(tracer, counters, rounds):
    """Per-layer figures of a traced run, per round (one CLI call) unless noted."""
    t = SpanTable(tracer)
    chains = counters.chains
    iters = sum(c.n_iters for c in chains)
    accepted = sum(int(c.accepted.sum()) for c in chains)
    fixed, slope = step_cost_fit(t, counters)
    per = {
        "cli.dispatch.self_s": t.self_total("cli.dispatch"),
        "io.write_s": t.total("io.write"),
        "io.bytes_written": counters.bytes_written,
        "simulate.simulate_truth_s": t.total("simulate.simulate_truth"),
        "simulate.steps": counters.sim_steps,
        "bounds.pcrb_series.self_s": t.self_total("bounds.pcrb_series"),
        "bounds.pcrb_step_s": t.total("bounds.pcrb_step"),
        "model.jacobian_s": t.total("model.jacobian"),
        "filtering.run_filter.self_s": t.self_total("filtering.run_filter"),
        "filtering.pf_step.self_s": t.self_total("filtering.pf_step"),
        "filtering.noise_cov_s": t.total("filtering.noise_cov"),
        "filtering.cloud_build_s": t.total("filtering.cloud_build"),
        "model.transition_s": t.total("model.transition"),
        "model.transition_calls": t.count("model.transition"),
        "filtering.proposal_s": t.total("filtering.proposal"),
        "filtering.resample_s": t.total("filtering.resample"),
        "filtering.particle_steps": counters.particle_steps,
        "pmcmc.energy_s": t.total("pmcmc.energy"),
        "pmcmc.energy_calls": t.count("pmcmc.energy"),
        "pmcmc.filter_evals": t.count_under("filtering.run_filter", "pmcmc.energy"),
        "pmcmc.accepted": accepted,
        "pmcmc.ram_step.self_s": t.self_total("pmcmc.ram_step"),
        "bench.run_experiment.self_s": t.self_total("bench.run_experiment"),
        "bench.trials": t.count("bench.trial"),
    }
    metrics = {name: value / rounds for name, value in per.items()}
    # one cold parse in set-up plus one per round: report the mean call
    metrics["config.parse_s"] = t.total("config.parse") / max(t.count("config.parse"), 1)
    metrics["pmcmc.accept_ratio"] = accepted / iters if iters else 0.0
    metrics["filtering.step_fixed_us"] = fixed * 1e6
    metrics["filtering.particle_step_ns"] = slope * 1e9
    return metrics


def run(workload, seed, seconds, trace, out_root=OUT_ROOT):
    """One benchmark run; returns ``(result, report)``.

    ``result`` is the object the entry point prints and ``report`` holds
    every check's margin.  Set-up time is the process's age when the first
    timed call starts.
    """
    subcommand, side = WORKLOADS[workload]
    spec = json.loads(SPEC_PATH.read_text())
    ini_path = str(config_path(workload))
    out_dir = Path(out_root) / f"{workload}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    round_dir = out_dir / "round"
    argv = [subcommand, "--config", ini_path, "--out", str(round_dir),
            "--seed", str(seed), "--workers", "1"]

    tracer = Tracer(spans_on=trace)
    clock = SegmentClock()
    counters = Counters()
    install(tracer, counters, None if trace else clock)
    rep = checks.Report()
    walls, steps = [], []
    attempted = failed = 0
    try:
        cli.parse_config(ini_path)  # cold parse, part of set-up
        main = tracer.span("op", cli.main)
        setup_s = bootstrap.process_age_s()
        begin = time.perf_counter()
        while attempted == 0 or time.perf_counter() - begin < seconds:
            attempted += 1
            steps_before = counters.particle_steps
            clock.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            except Exception:  # noqa: BLE001 - a crash is a failed operation
                traceback.print_exc(file=sys.stderr)
                code = None
            wall = clock.stop()
            if code != 0:
                failed += 1
                continue
            clock.keep()
            walls.append(wall)
            steps.append(counters.particle_steps - steps_before)
            _guarded(rep, f"{workload}.outputs", check_round, workload, round_dir, counters)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            values = layer_metrics(tracer, counters, attempted)
    finally:
        tracer.restore()
    if trace:
        tracer.write(out_dir / "spans.npz")
    else:
        wall_s = clock.wall_s()
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "particle_steps_per_s": (float(np.median(steps)) / wall_s) if steps else math.nan,
            "peak_rss_mb": peak_rss_mb,
        }
        rep.holds(f"{workload}.rounds_alike", clock.consistent and len(set(steps)) <= 1,
                  f"rounds differ: {clock.n_segments} segments, particle-steps {sorted(set(steps))}")
    _guarded(rep, f"{workload}.oracle", side, ini_path, seed)
    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} rounds, walls "
          f"{' '.join(f'{w:.3f}' for w in walls)} s, "
          f"{clock.n_segments} segments, {len(rep.failures)} failed checks", file=sys.stderr)
    for message in rep.failures:
        print(f"  check failed: {message}", file=sys.stderr)
    return {
        "correct": rep.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
    }, rep

