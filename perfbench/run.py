"""Layered benchmark for fvqsd.

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Workloads: fanout, stationary, influence, exact (see
workloads.py and NOTES.md).  A run sets up once, then repeats checked
rounds of the workload at ``--threads 1``:

* ``--trace 0`` repeats untraced rounds for ``--seconds`` and reports the
  end-to-end metrics: median round wall time, median set-up time (one
  fresh interpreter after each round), both scaled to the baseline host's
  speed by references timed next to them (calibrate.py), peak RSS, and the
  share of checks passed.
* ``--trace 1`` repeats untraced rounds for half of ``--seconds``, runs one
  untraced round at ``--threads 2``, one traced round, the traced layer
  probe and the per-event cost probe, and reports per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A report with the environment,
every output digest, failed checks and (traced) all spans is written to
``.bench_out/``.  Without ``src/fvqsd`` in the checkout it exits 1 before
printing a result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import (  # noqa: E402
    REFERENCE_S, START_REFERENCE_ARGS, START_REFERENCE_S, reference_seconds)
from tracing import LAYERS, SpanSummary, Tracer  # noqa: E402

MIN_ROUNDS = 3
MIN_TRACED_PASS_ROUNDS = 2
# Stop adding rounds past this, whatever --seconds says, so a run always
# ends well inside its time limit.
MAX_ROUNDS_S = 120.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (times set-up)")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**62:
        p.error("--seed must be in [0, 2**62)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_fvqsd():
    src = ROOT / "src"
    if not (src / "fvqsd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fvqsd sources under {src}")
    sys.path.insert(0, str(src))
    fvqsd = importlib.import_module("fvqsd")
    importlib.import_module("fvqsd.cli")
    if Path(fvqsd.__file__).resolve().parent != (src / "fvqsd").resolve():
        raise SystemExit(f"perfbench: imported fvqsd from {fvqsd.__file__}")
    return fvqsd


def setup(args, workdir: Path):
    """Import the package and generate and validate the workload inputs."""
    fvqsd = import_fvqsd()
    round_ = workloads.build(args.workload, fvqsd, args.seed, workdir / "cfg")
    probe = workloads.build_probe(fvqsd, args.seed, workdir / "cfg")
    return fvqsd, round_, probe


def time_setup(args) -> float:
    """Wall time from interpreter start until set-up is done, in a fresh
    interpreter; interpreter shutdown is not included."""
    return time_child([str(Path(__file__).resolve()), "--workload",
                       args.workload, "--seed", str(args.seed), "--seconds",
                       "1", "--setup-only"])


def time_child(child_args) -> float:
    """Wall time from starting a fresh interpreter with `child_args` until
    it prints 'ready'; the child's shutdown is not included."""
    cmd = [sys.executable, *child_args]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("perfbench: child did not exit") from None
    if code != 0 or line != "ready":
        raise SystemExit(f"perfbench: child {child_args[0]} failed "
                         f"(exit {code})")
    return elapsed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(fvqsd, args) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fvqsd": fvqsd.__version__,
        "using_jit": bool(fvqsd.USING_JIT),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": workloads.THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def run_rounds(recorder, round_, seconds: float, min_rounds: int,
               between=None):
    """Repeat the round for at least `seconds` and `min_rounds` rounds;
    returns per-round wall and CPU seconds.  `between` runs after each
    round, outside the round's timing, so that samples it takes are spread
    over the same stretch of time as the rounds."""
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(walls) >= min_rounds and elapsed >= seconds:
            break
        if walls and elapsed >= MAX_ROUNDS_S:
            break
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        round_(recorder)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - cpu0)
        if between is not None:
            between()
    return walls, cpus


def timed_rounds(recorder, round_, args):
    """Untraced rounds, each followed by one fresh-interpreter set-up, with
    the host-speed references of calibrate.py: a slice on either side of
    every round and set-up, and a reference interpreter start right before
    every set-up.  Returns the raw round times, set-up times, slices and
    starts, and the round and set-up times scaled to the baseline host's
    speed: a round by its two slices, a set-up by its reference start plus
    the mean of its two slices."""
    refs, starts, setups = [reference_seconds()], [], []

    def between():
        refs.append(reference_seconds())
        starts.append(time_child(START_REFERENCE_ARGS))
        setups.append(time_setup(args))
        refs.append(reference_seconds())

    walls, _ = run_rounds(recorder, round_, args.seconds, MIN_ROUNDS, between)
    # refs[2i] and refs[2i + 1] bracket round i; starts[i] comes right
    # before set-up i, and refs[2i + 1] and refs[2i + 2] bracket the two.
    scaled_walls = [t * 2.0 * REFERENCE_S / (refs[2 * i] + refs[2 * i + 1])
                    for i, t in enumerate(walls)]
    scaled_setups = [
        t * (START_REFERENCE_S + REFERENCE_S)
        / (starts[i] + (refs[2 * i + 1] + refs[2 * i + 2]) / 2.0)
        for i, t in enumerate(setups)]
    return walls, setups, refs, starts, scaled_walls, scaled_setups


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: SpanSummary, event_costs, speedup: float,
                  overhead: float, cpu: float) -> dict:
    T, S, C = spans.total, spans.self_time, spans.calls
    qsd_counts = spans.counts.get("semigroup.qsd", [])
    busy = sum(t for name, t in T.items() if name.endswith(".replica"))
    m = {
        "kernels.run_events_s": metric(T["kernels.run_events"], "s"),
        "kernels.events": metric(spans.count_sum("kernels.run_events"), "count"),
        "kernels.run_recorded_s": metric(T["kernels.run_recorded"], "s"),
        "kernels.us_per_particle_time": metric(_per(
            T["kernels.run_recorded"],
            spans.count_sum("kernels.run_recorded"), 1e6), "us"),
        "kernels.apply_marks_s": metric(T["kernels.apply_marks"], "s"),
        "kernels.influence_scan_s": metric(
            T["kernels.influence_matrix_kernel"], "s"),
        "seeding.generator_calls": metric(C["seeding.generator"], "count"),
        "seeding.generator_us": metric(_per(
            T["seeding.generator"], C["seeding.generator"], 1e6), "us"),
        "simulator.simulate_calls": metric(C["simulator.simulate"], "count"),
        "simulator.simulate_self_s": metric(S["simulator.simulate"], "s"),
        "simulator.trajectory_s": metric(T["simulator.simulate_trajectory"], "s"),
        "measures.empirical_measure_calls": metric(
            C["measures.empirical_measure"], "count"),
        "measures.empirical_measure_s": metric(
            T["measures.empirical_measure"], "s"),
        "parallel.map_replicas_s": metric(T["parallel.map_replicas"], "s"),
        "parallel.worker_busy_s": metric(busy, "s"),
        "parallel.efficiency": metric(_per(busy, spans.lanes_time), "ratio"),
        "parallel.speedup_1to2": metric(speedup, "ratio"),
        "graphical.sample_marks_s": metric(T["graphical.sample_marks"], "s"),
        "graphical.mark_events": metric(
            spans.count_sum("graphical.sample_marks"), "count"),
        "graphical.us_per_mark_event": metric(_per(
            T["graphical.sample_marks"],
            spans.count_sum("graphical.sample_marks"), 1e6), "us"),
        "graphical.influence_matrix_s": metric(
            T["graphical.influence_matrix"], "s"),
        "graphical.influence_experiment_s": metric(
            T["graphical.influence_experiment"], "s"),
        "graphical.evolve_s": metric(T["graphical.evolve"], "s"),
        "semigroup.qsd_s": metric(T["semigroup.qsd"], "s"),
        "semigroup.qsd_iterations": metric(
            sum(it for it, _ in qsd_counts), "count"),
        "semigroup.qsd_unconverged": metric(
            sum(1 for _, ok in qsd_counts if not ok), "count"),
        "semigroup.conditioned_law_s": metric(
            T["semigroup.conditioned_law"], "s"),
        "semigroup.decay_fit_s": metric(
            T["semigroup.decay_rate_estimate"], "s"),
        "semigroup.forward_ode_s": metric(T["semigroup.forward_ode"], "s"),
        "chain.validate_s": metric(T["chain.validate_chain"], "s"),
        "chain.transient_vector_s": metric(T["chain.transient_vector"], "s"),
        "cli.parse_s": metric(S["cli.main"] + T["cli.load_config"], "s"),
        "cli.write_s": metric(S["cli.run"], "s"),
        "svgplot.line_plot_s": metric(T["svgplot.line_plot"], "s"),
        "proc.cpu_s": metric(cpu, "s"),
        "trace.overhead_s": metric(overhead, "s"),
        "trace.spans": metric(sum(C.values()), "count"),
    }
    for n, (seconds, events) in event_costs.items():
        m[f"kernels.us_per_event.N{n}"] = metric(_per(seconds, events, 1e6), "us")
    for experiment in ("convergence", "correlation", "qsd_profile",
                       "product_moment"):
        m[f"estimators.{experiment}_s"] = metric(
            T[f"estimators.{experiment}_experiment"], "s")
    for kind in ("qsd", "semigroup", "simulate", "correlation", "convergence",
                 "qsd_profile", "overlap", "product_moment"):
        m[f"cli.{kind}_s"] = metric(T[f"cli.{kind}"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(spans.layer_self(layer), "s")
    return m


def workload_shares(spans: SpanSummary, wall: float) -> dict:
    """Self time per layer and the heaviest spans, as shares of the traced
    round's wall time (thread time, so shares can sum past 1 with fan-out)."""
    layers = {m: spans.layer_self(m) / wall for m in LAYERS}
    heaviest = sorted(spans.total.items(), key=lambda kv: -kv[1])[:12]
    return {
        "layer_self_share": {k: round(v, 4) for k, v in layers.items()},
        "span_total_share": {k: round(v / wall, 4) for k, v in heaviest},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    out_root = ROOT / ".bench_out"
    workdir = out_root / f"{args.workload}-{os.getpid()}"
    try:
        fvqsd, round_, probe = setup(args, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        env = environment(fvqsd, args)
        print("perfbench env: " + json.dumps(env), file=sys.stderr)
        recorder = workloads.Recorder(fvqsd, workdir)
        report = {"environment": env}
        if args.trace == 0:
            (walls, setups, refs, starts, scaled_walls,
             scaled_setups) = timed_rounds(recorder, round_, args)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            passed = recorder.checks - recorder.checks_failed
            metrics = {
                "setup_s": metric(statistics.median(scaled_setups), "s"),
                "wall_s": metric(statistics.median(scaled_walls), "s"),
                "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
                "pass_ratio": metric(_per(passed, recorder.checks), "ratio"),
            }
            raw = {"raw_wall_s": statistics.median(walls),
                   "raw_setup_s": statistics.median(setups),
                   "reference_s": statistics.median(refs),
                   "start_reference_s": statistics.median(starts),
                   "rounds": len(walls)}
            print("perfbench raw medians: " + json.dumps(raw), file=sys.stderr)
            report.update(setup_s=setups, round_walls=walls,
                          reference_slices=refs, reference_starts=starts,
                          **raw)
        else:
            walls, cpus = run_rounds(recorder, round_, args.seconds / 2,
                                     MIN_TRACED_PASS_ROUNDS)
            recorder.threads = workloads.PARALLEL_THREADS
            wall_2, _ = run_rounds(recorder, round_, 0.0, 1)
            recorder.threads = workloads.THREADS
            tracer = Tracer()
            with tracer.installed(fvqsd):
                t0 = time.perf_counter()
                round_(recorder)
                traced_wall = time.perf_counter() - t0
                n_round_spans = len(tracer.spans)
                probe(recorder)
            event_costs = workloads.event_cost_probe(fvqsd, args.seed)
            untraced = statistics.median(walls)
            metrics = layer_metrics(
                SpanSummary(tracer.spans), event_costs,
                speedup=untraced / wall_2[0],
                overhead=traced_wall - untraced,
                cpu=statistics.median(cpus),
            )
            shares = workload_shares(
                SpanSummary(tracer.spans[:n_round_spans]), traced_wall)
            print("perfbench traced round: " + json.dumps(shares),
                  file=sys.stderr)
            report.update(round_walls=walls, threads2_wall=wall_2[0],
                          traced_wall=traced_wall, shares=shares,
                          spans=[list(s) for s in tracer.spans])
        unexpected = recorder.unexpected_failures()
        report.update(metrics=metrics, digests=recorder.digests,
                      failed_checks=recorder.failed_checks,
                      checks=recorder.checks, operations=recorder.operations)
        report_path = out_root / (
            f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
        report_path.write_text(json.dumps(report), encoding="utf-8")
        for name, detail in recorder.failed_checks.items():
            print(f"perfbench check failed: {name}: {detail}", file=sys.stderr)
        print(json.dumps({
            "correct": not unexpected and recorder.operations_failed == 0,
            "attempted": recorder.operations,
            "failed": recorder.operations_failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
