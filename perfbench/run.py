"""Repository benchmark: paper figure sweeps and a sim/serve trace replay.

Run from the repository root::

    python3 perfbench/run.py --workload fig-exp --seed 1 --seconds 20 --trace 0

Workloads are ``fig-exp``, ``fig-h2`` and ``replay-h2`` (see
``perfbench/README.md``).  The run sets up the workload, then repeats
passes -- each producing and checking every result of the workload --
until ``--seconds`` have been measured.  Every line before the last is a
human-readable log; the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split, timed by
wrappers from ``perfbench/layers.py`` around each layer's entry points.
A failed check exits with status 1 after printing the result; a missing
program exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread everywhere: set before numpy/scipy load their BLAS.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5  # fresh processes timed for setup_s; the median is reported
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("fig-exp", "fig-h2", "replay-h2"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_child(args) -> int:
    """Time imports plus the workload's cold set-up in this fresh process."""
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, None).setup()
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


def time_setup(args) -> float:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--setup-child",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
        ],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"set-up of {args.workload} failed (status {out.returncode})")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(args) -> dict:
    import numpy
    import scipy
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deterministic_inputs": args.workload != "replay-h2",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "sweep_workers": workloads.SWEEP_WORKERS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setup_repeats": SETUP_REPEATS,
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile (``numpy.percentile`` default)."""
    import numpy

    return float(numpy.percentile(values, 100 * q)) if values else 0.0


def end_to_end(setup_s, passes) -> dict:
    """The run's end-to-end metrics.

    Pass times are taken from the fastest pass: every pass does the same
    work, and on a shared machine a slower pass measures other tenants'
    load, which comes in bursts longer than a pass (as ``timeit`` reasons
    for its minimum).  Set-up is the median of the fresh-process samples.
    """
    fastest = min(passes, key=lambda p: p["wall_s"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (fastest["wall_s"], "s"),
        "items_per_s": (fastest["items"] / fastest["wall_s"], "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(wl, setup_tracer, passes, tracers) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    n_traced = len(traced)
    traced_wall = sum(p["wall_s"] for p in traced)
    everything = [setup_tracer] + tracers

    def calls(name):
        return sum(t.calls(name) for t in tracers)

    def total(name):
        return sum(t.total_s(name) for t in tracers)

    def self_s(layer):
        return sum(t.layer_self_s(layer) for t in tracers)

    def per_pass(x):
        return x / n_traced

    def share(layer):
        return self_s(layer) / traced_wall

    def ms_each(seconds, n):
        return 1000.0 * seconds / n if n else 0.0

    def counter(name):
        return sum(t.counters.get(name, 0) for t in tracers)

    m = {}
    m["structure.builds"] = (sum(t.calls("structure") for t in everything), "count")
    m["structure.build_s"] = (sum(t.layer_self_s("structure") for t in everything), "s/run")
    for name in ("structure.states", "structure.nnz"):
        m[name] = (sum(t.counters.get(name, 0) for t in everything), "count")

    inits = calls("refill.init")
    m["refill.calls"] = (per_pass(inits), "count")
    m["refill.ms_per_point"] = (ms_each(self_s("refill"), inits), "ms/point")
    m["refill.share"] = (share("refill"), "ratio")

    solves = getattr(getattr(wl, "probe", None), "solves", [])
    n_passes = len(passes)
    m["steady.calls"] = (per_pass(calls("steady")), "count")
    m["steady.ms_per_point"] = (ms_each(total("steady"), calls("steady")), "ms/point")
    m["steady.share"] = (share("steady"), "ratio")
    m["steady.fallbacks"] = (sum(f for _, f, _ in solves), "count")
    for method in ("gth", "direct", "power", "gauss_seidel", "gmres"):
        n = sum(1 for used, _, _ in solves if used == method)
        m[f"steady.method.{method}"] = (n / n_passes, "count")
    m["steady.max_residual"] = (max((r for _, _, r in solves), default=0.0), "1")

    m["metrics.calls"] = (per_pass(calls("metrics")), "count")
    m["metrics.ms_per_point"] = (ms_each(self_s("metrics"), calls("metrics")), "ms/point")
    m["metrics.share"] = (share("metrics"), "ratio")

    hits, misses = counter("sweep.cache_hits"), counter("sweep.cache_misses")
    point_ms = [1000.0 * s for p in untraced for s in p["point_s"]]
    m["sweep.cache_hits"] = (per_pass(hits), "count")
    m["sweep.cache_misses"] = (per_pass(misses), "count")
    m["sweep.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["sweep.key_ms_per_point"] = (ms_each(total("sweep.key"), calls("sweep.key")), "ms/point")
    m["sweep.self_s"] = (per_pass(self_s("sweep")), "s/pass")
    m["sweep.share"] = (share("sweep"), "ratio")
    m["sweep.point_ms_p50"] = (quantile(point_ms, 0.5), "ms/point")
    m["sweep.point_ms_p90"] = (quantile(point_ms, 0.9), "ms/point")
    m["sweep.points"] = (len(point_ms), "count")

    engine_s = [p["engine_s"] for p in untraced if p["engine_s"]]
    sim_s = min((s for s, _ in engine_s), default=0.0)
    serve_s = min((s for _, s in engine_s), default=0.0)

    def count_of(name):
        return per_pass(sum(p["counts"].get(name, 0) for p in traced))

    def run_self_s(name):
        return per_pass(sum(t.agg[name][2] for t in tracers if name in t.agg))

    jobs = count_of("sim.jobs")
    m["sim.run_s"] = (per_pass(total("sim.run")), "s/pass")
    m["sim.jobs"] = (jobs, "count")
    m["sim.kills"] = (count_of("sim.kills"), "count")
    m["sim.policy_calls"] = (per_pass(calls("sim.policy")), "count")
    m["sim.policy_s"] = (per_pass(total("sim.policy")), "s/pass")
    m["sim.timeout_draws"] = (per_pass(calls("sim.draw")), "count")
    m["sim.timeout_draw_s"] = (per_pass(total("sim.draw")), "s/pass")
    m["sim.self_s"] = (run_self_s("sim.run"), "s/pass")
    m["sim.jobs_per_s"] = (jobs / sim_s if sim_s else 0.0, "1/s")
    m["serve.run_s"] = (per_pass(total("serve.run")), "s/pass")
    m["serve.kills"] = (count_of("serve.kills"), "count")
    m["serve.forwards"] = (count_of("serve.forwards"), "count")
    m["serve.policy_s"] = (per_pass(total("serve.policy")), "s/pass")
    m["serve.timeout_draw_s"] = (per_pass(total("serve.draw")), "s/pass")
    m["serve.self_s"] = (run_self_s("serve.run"), "s/pass")
    m["serve.jobs_per_s"] = (jobs / serve_s if serve_s else 0.0, "1/s")
    m["serve.sim_ratio"] = (serve_s / sim_s if sim_s else 0.0, "ratio")

    m["check.share"] = (share("check"), "ratio")
    m["trace.overhead_ratio"] = (
        min(p["wall_s"] for p in traced) / min(p["wall_s"] for p in untraced),
        "ratio",
    )
    top = sum(t.top_level_s for t in tracers)
    m["unattributed.share"] = ((traced_wall - top) / traced_wall, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)

    import layers
    import workloads

    prov = provenance(args)
    print(json.dumps({"provenance": prov}))
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    checks = workloads.Checks()
    probe_patches = layers.Patches()
    probe = getattr(wl, "probe", None)
    if probe is not None:
        probe.install(probe_patches)
    try:
        setup_tracer = layers.Tracer("setup")
        setup_patches = layers.Patches()
        if args.trace:
            layers.install_layer_timers(setup_tracer, setup_patches)
        try:
            wl.setup()
        finally:
            setup_patches.undo()

        # setup_s samples are taken between passes rather than all at once,
        # so one burst of load on the machine cannot cover all of them
        setup_s: list = []
        passes, tracers = [], []
        measured = 0.0
        while True:
            if not args.trace and len(setup_s) < SETUP_REPEATS:
                setup_s.append(time_setup(args))
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = layers.Tracer(f"pass{len(passes)}") if traced else None
            patches = layers.Patches()
            if traced:
                layers.install_layer_timers(tracer, patches)
                tracers.append(tracer)
            first_point = len(probe.point_s) if probe is not None else 0
            gc.collect()  # no garbage from the previous pass is collected inside this one
            try:
                t0 = perf_counter()
                items = wl.run_pass(checks, tracer)
                wall = perf_counter() - t0
            finally:
                patches.undo()
            passes.append(
                {
                    "traced": traced,
                    "wall_s": wall,
                    "items": items,
                    "point_s": probe.point_s[first_point:] if probe is not None else [],
                    "engine_s": getattr(wl, "engine_s", [None])[-1],
                    "counts": dict(getattr(wl, "counts", {})),
                }
            )
            print(
                f"pass {len(passes) - 1}: {'traced' if traced else 'untraced'} "
                f"wall {wall:.3f} s, {items} {wl.kind}"
            )
            measured += wall
            if measured >= args.seconds and (not args.trace or tracers):
                break
        while not args.trace and len(setup_s) < SETUP_REPEATS:
            setup_s.append(time_setup(args))
    finally:
        probe_patches.undo()

    if args.trace:
        metrics = per_layer(wl, setup_tracer, passes, tracers)
    else:
        metrics = end_to_end(setup_s, passes)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                "provenance": prov,
                "setup_s": setup_s,
                "passes": passes,
                "metrics": metrics,
                "tracers": [t.dump() for t in [setup_tracer] + tracers] if args.trace else [],
            }
        )
    )
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
