"""Benchmark of the Tagwatch simulator's host time, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lab-turntable --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time from fresh
processes, then untraced runs of the workload until ``--seconds`` have
passed.  ``--trace 1`` measures the per-layer metrics: untraced and traced
runs alternate, the traced ones with spans around every layer's public
functions (see ``perfbench/layers.py``).  Either way every run's outputs
are checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is non-zero
when any check failed.  ``perfbench/NOTES.md`` says why each workload
exists and what each layer wraps.
"""

import time

#: Set-up probes time imports from here, as a user's process would pay them.
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"

#: Environment switches that pick another engine or path than the default
#: one; a run under any of them would measure a different program.  The
#: kernel build directory is refused too, because it may point outside the
#: checkout.
REFUSED_ENV = (
    "REPRO_INVENTORY_ENGINE",
    "REPRO_FUSION_ENGINE",
    "REPRO_SITE_CULL",
    "REPRO_CALENDAR_CKERNEL",
    "REPRO_KERNEL_BUILD_DIR",
)
#: Published values the modelled results are printed beside (Fig 18
#: median gain for mobile tags at 5 % mobile).
PAPER = {"model.target_irr_gain": 3.2}
#: Units of the raw host-time figures printed beside the ``*_ref`` metrics.
SECONDS_UNITS = {"wall_s": "s", "ref_s": "s", "slots_per_wall_s": "1/s",
                 "cycle_ms_p50": "ms", "cycle_ms_p90": "ms"}
SETUP_PROBES = 5
#: Fewest timed runs per measurement, so that medians mean something.
MIN_RUNS = 3
#: Additions in the pure-Python reference loop (~13 ms on a quiet 2 GHz core).
REFERENCE_LOOP = 300_000
#: Hard stop for the timed loop, well inside the 180 s a run may take.
MAX_LOOP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit():
    """The checkout's commit, or None when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


class Checks:
    """Output checks; every one counts toward ``attempted``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def outcome(self, outcome, reference) -> None:
        self.add("output digest equals the first run's",
                 outcome.digest == reference.digest)
        for name, ok in outcome.checks:
            self.add(name, ok)


def measured_setup_s(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=str(ROOT),
        )
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise RuntimeError("set-up probe failed")
        times.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def setup_probe(workload) -> int:
    from repro.gen2 import _ckernel

    _ckernel.load_kernel()
    inputs = workload.build()
    elapsed = time.perf_counter() - _START
    workload.discard(inputs)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def reference_s() -> float:
    """Host seconds of the reference loop now: the fastest of three tries.

    The ``*_ref`` metrics count host time in these units, timed next to
    each run, so that they follow the program rather than the host's
    current speed (see NOTES.md, "Host speed").
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def timed_run(workload, workers, recorder=None, probes=()):
    """One untimed build, one timed run; returns (outcome, wall, restored)."""
    from perfbench.spans import restored, traced

    inputs = workload.build()
    try:
        if recorder is None:
            start = time.perf_counter()
            outcome = workload.run(inputs, workers)
            return outcome, time.perf_counter() - start, True
        with traced(probes, recorder) as originals:
            start = time.perf_counter()
            outcome = workload.run(inputs, workers)
            wall = time.perf_counter() - start
        return outcome, wall, restored(originals)
    finally:
        workload.discard(inputs)


def end_to_end(workload, args, checks, workers):
    from perfbench.layers import round_counts
    from perfbench.spans import Probe, SpanRecorder
    from repro.gen2.inventory import InventoryEngine

    setup_s = measured_setup_s(workload.name, args.seed)
    # Untimed first run: lets lazy set-up finish, fixes the reference
    # outputs and counts the slots, which every later run repeats.
    counter = SpanRecorder()
    reference, _, restored = timed_run(
        workload, 1, counter,
        [Probe(InventoryEngine, "run_round", "gen2", round_counts)],
    )
    slots = counter.counters["gen2.slots"]
    checks.add("slot counter restored after the first run", restored)
    for name, ok in reference.checks:
        checks.add(name, ok)
    walls, refs, cycles, cycle_refs = [], [], [], []
    started = time.perf_counter()
    while True:
        before = reference_s()
        outcome, wall, _ = timed_run(workload, workers)
        ref = (before + reference_s()) / 2
        checks.outcome(outcome, reference)
        walls.append(wall)
        refs.append(ref)
        cycles.extend(outcome.cycle_s)
        cycle_refs.extend(cycle / ref for cycle in outcome.cycle_s)
        elapsed = time.perf_counter() - started
        enough = (
            elapsed >= args.seconds
            and len(walls) >= MIN_RUNS
            and len(cycles) >= workload.min_cycles
        )
        if enough or elapsed >= MAX_LOOP_S:
            break
    wall_ref = statistics.median(wall / ref for wall, ref in zip(walls, refs))
    wall_s = statistics.median(walls)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "runs": len(walls),
        "cycles": len(cycles),
        "model": reference.model,
        "seconds": {
            "wall_s": wall_s,
            "ref_s": statistics.median(refs),
            "slots_per_wall_s": slots / wall_s,
            "cycle_ms_p50": percentile(cycles, 50) * 1e3,
            "cycle_ms_p90": percentile(cycles, 90) * 1e3,
        },
        "walls": [round(wall, 6) for wall in walls],
        "refs": [round(ref, 6) for ref in refs],
        "cycle_s": [round(cycle, 6) for cycle in cycles],
    }
    metrics = {
        "wall_ref": wall_ref,
        "setup_s": setup_s,
        "slots_per_ref": slots / wall_ref,
        "cycle_ref_p50": percentile(cycle_refs, 50),
        "cycle_ref_p90": percentile(cycle_refs, 90),
        "peak_rss_mb": usage / 1024.0,
    }
    return metrics, report


def parallel_run(workload, workers):
    """Untimed-build, untraced site run at ``workers``; pool cost from outside."""
    from perfbench.spans import Probe, patched
    from repro.site import site

    measured = {}

    def timed(probe, parallel_map):
        def parallel_map_timed(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            try:
                return parallel_map(*args, **kwargs)
            finally:
                measured["wall_s"] = time.perf_counter() - start
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                measured["child_cpu_s"] = (
                    after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime
                )
        return parallel_map_timed

    config = workload.build()
    try:
        with patched([Probe(site, "parallel_map", "parallel")], timed):
            outcome = workload.run(config, workers)
    finally:
        workload.discard(config)
    wall = measured["wall_s"]
    return outcome, {
        "experiments.parallel.wall_s": wall,
        "experiments.parallel.child_cpu_s": measured["child_cpu_s"],
        "experiments.parallel.efficiency": (
            measured["child_cpu_s"] / (wall * workers)
        ),
    }


def per_layer(workload, args, checks, workers):
    from perfbench import layers
    from perfbench.spans import LayerTimes, SpanRecorder, summarize
    from repro.obs.tracer import get_tracer

    probes = layers.probes()
    reference, _, _ = timed_run(workload, 1)
    for name, ok in reference.checks:
        checks.add(name, ok)
    untraced, traced_walls, unattributed = [], [], []
    spans_by_layer, counters = {}, {}
    started = time.perf_counter()
    while True:
        outcome, wall, _ = timed_run(workload, 1)
        checks.outcome(outcome, reference)
        untraced.append(wall)

        recorder = SpanRecorder(guard=lambda: not get_tracer().enabled)
        checks.add("program tracer disabled before the traced run",
                   not get_tracer().enabled)
        outcome, wall, restored = timed_run(workload, 1, recorder, probes)
        checks.outcome(outcome, reference)
        checks.add("program tracer disabled throughout the traced run",
                   recorder.guard_failures == 0 and not get_tracer().enabled)
        checks.add("wrappers restored after the traced run", restored)
        traced_walls.append(wall)
        times, outside = summarize(recorder.spans, wall)
        unattributed.append(outside)
        for layer, entry in times.items():
            total = spans_by_layer.setdefault(layer, LayerTimes())
            total.calls += entry.calls
            total.self_s += entry.self_s
            total.durations += entry.durations
        for name, amount in recorder.counters.items():
            counters[name] = counters.get(name, 0.0) + amount
        if time.perf_counter() - started >= min(args.seconds, MAX_LOOP_S):
            break
    runs = len(traced_walls)
    metrics = layers.layer_metrics(spans_by_layer, counters, runs)
    parallel = {
        "experiments.parallel.wall_s": 0.0,
        "experiments.parallel.child_cpu_s": 0.0,
        "experiments.parallel.efficiency": 0.0,
    }
    if workload.pooled:
        # The repo's cross-worker guarantee: pooled and in-process shards
        # produce the same canonical bytes as the traced in-process run.
        outcome, parallel = parallel_run(workload, workers)
        checks.outcome(outcome, reference)
    metrics.update(parallel)
    traced_wall = statistics.median(traced_walls)
    metrics["unattributed_s"] = statistics.median(unattributed)
    metrics["unattributed_share"] = metrics["unattributed_s"] / traced_wall
    metrics["trace_overhead"] = traced_wall / statistics.median(untraced) - 1
    for name in ("target_irr_gain", "motion_f1", "missed_rate",
                 "unhealthy_cycle_rate"):
        metrics["model." + name] = reference.model.get(name, 0.0)
    report = {"runs": runs, "traced_wall_s": traced_wall,
              "untraced_wall_s": statistics.median(untraced),
              "model": reference.model}
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: the "
              "benchmark measures the default program", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    workload = workloads.make(args.workload, args.seed, SCRATCH)
    if args.setup_probe:
        return setup_probe(workload)

    import numpy
    from repro.gen2 import _ckernel
    from repro.obs import logging as repro_logging

    # Program log lines go to stderr; stdout carries only the report.
    repro_logging.configure(stream=sys.stderr)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workers = min(2, nproc())
    checks = Checks()
    identity = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_compiled": _ckernel.load_kernel() is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "workers": workers,
        "git_commit": git_commit(),
    }
    try:
        if args.trace:
            metrics, report = per_layer(workload, args, checks, workers)
            section = "per_layer"
        else:
            metrics, report = end_to_end(workload, args, checks, workers)
            section = "end_to_end"
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    print(json.dumps({"identity": identity, "report": report}, sort_keys=True))
    lines = {name: (value, units[name]) for name, value in metrics.items()}
    for name, value in report.get("seconds", {}).items():
        lines[name] = (value, SECONDS_UNITS[name])
    for name, value in report["model"].items():
        lines.setdefault("model." + name, (value, "ratio"))
    for name, (value, unit) in sorted(lines.items()):
        paper = PAPER.get(name)
        if name.removeprefix("model.") not in report["model"]:
            paper = None
        print(f"{name:36s} {value:>16.6g} {unit}"
              + (f" (paper: {paper})" if paper else ""))
    print(f"{'error_rate':36s} "
          f"{len(checks.failures) / checks.attempted:>16.6g} ratio")
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(metrics)
        },
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
