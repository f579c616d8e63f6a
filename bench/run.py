"""kwl benchmark: one seeded workload per run, end to end or traced.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload weights_large --seed 1 --seconds 15 --trace 0

``--trace 0`` times rounds of the workload until ``--seconds`` have passed
(at least one round) with tracing off, and reports the end-to-end metrics
``BENCHMARK.json`` lists.  ``wall_s`` is a guest time: a round's wall time
minus the CPU time the hypervisor took for other guests during it,
averaged over the machine's CPUs; raw wall times are printed too.  ``--trace 1`` runs three rounds -- untraced,
traced, and untraced on one thread -- and reports the per-layer metrics
plus the tracing overhead and the thread speed-up.  Every round starts
from cold caches, as a fresh process would.

The program under test is ``src/kwl`` of the same checkout; the run exits
with code 2 and prints no result when it is missing.  Human-readable
lines come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: set-up probes per untraced run; setup_s is their median
SETUP_PROBES = 3
#: traces are written here, relative to the checkout root
TRACE_DIR = ROOT / "bench-out"


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _metric_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    return json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                       "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}})


def _setup_seconds(workload: str, seed: int) -> list:
    """Times from process start to inputs ready, one per probe process."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                                 workload, str(seed)],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return times


def _machine(threads: int) -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)), "threads": threads,
            "KWL_THREADS": os.environ.get("KWL_THREADS")}


def _threads() -> int:
    """kwl's default pool size, which must not exceed the usable cores."""
    from kwl import weights
    nproc = len(os.sched_getaffinity(0))
    threads = weights.default_threads()
    if threads > nproc:
        raise RuntimeError(f"kwl's default thread count {threads} exceeds nproc {nproc}; "
                           f"set KWL_THREADS to at most {nproc}")
    return threads


def end_to_end(workload: str, seed: int, seconds: int) -> int:
    setup = _setup_seconds(workload, seed)
    import workloads
    threads = _threads()
    inp = workloads.make_inputs(workload, seed)

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workloads.run_round(inp, threads))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0].outputs
    same_rounds = all(r.outputs == first for r in rounds)
    counts_ok = all(len(r.outputs) == inp.expected_ops for r in rounds)
    checks = {"rounds bit-identical": same_rounds, "operation counts": counts_ok}
    if workload == "weights_large":
        index = seed % inp.expected_ops
        checks["threads=1 recompute bit-identical"] = (
            workloads.recompute_weight(inp, index) == first[index])

    op_ms = [1e3 * t for r in rounds for t in r.op_s]
    values = {
        "wall_s": statistics.median(r.guest_s for r in rounds),
        "setup_s": statistics.median(setup),
        "op_ms.p50": float(np.percentile(op_ms, 50)),
        "op_ms.p90": float(np.percentile(op_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
        **_accuracy(rounds),
    }
    print(f"workload {workload}  seed {seed}  rounds {len(rounds)}  op samples {len(op_ms)}")
    print("machine " + json.dumps(_machine(threads)))
    print("round wall / stolen / guest s: " + ", ".join(
        f"{r.wall_s:.4f} / {r.stolen_s:.4f} / {r.guest_s:.4f}" for r in rounds))
    print("setup_s probes " + " ".join(f"{t:.4f}" for t in setup))
    _report("end_to_end", rounds, values, checks)
    return 0


def _accuracy(rounds) -> dict:
    """Output-quality figures; identical for every round at a given seed."""
    ops = sum(len(r.op_s) for r in rounds)
    verdicts = sum(r.verdicts for r in rounds)
    return {
        "stderr_max": max(r.stderr_max for r in rounds),
        "failed_frac": sum(r.failed for r in rounds) / ops,
        "verdict_fail_frac": (sum(r.verdict_fails for r in rounds) / verdicts
                              if verdicts else 0.0),
    }


def _report(section: str, rounds, values: dict, checks: dict) -> None:
    """Print every value with its unit, the checks, and the JSON result line
    holding the metrics BENCHMARK.json lists under ``section``."""
    units = _metric_units(section)
    known = {**_metric_units("end_to_end"), **_metric_units("per_layer")}
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {known.get(name, 'ratio')}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    attempted = sum(len(r.op_s) for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0 and all(checks.values())
    print(_result(correct, attempted, failed, values, units))


def _layer_metrics(spans, main: int, threads: int, walls: dict):
    """Per-layer metrics of the traced round (units in BENCHMARK.json) and
    the per-name statistics they come from."""
    from tracer import NameStats, summarize
    stats = summarize(spans, main)

    def get(name: str) -> NameStats:
        return stats.get(name, NameStats())

    notes = [s.note for s in spans if s.name == "weights.integrand_batch" and s.note]
    rows = sum(n["rows"] for n in notes)
    batch = get("weights.integrand_batch")
    cw = get("weights.compute_weight")
    cached = get("weights.cached_weight")
    m = {
        "weights.integrand_batch.calls": batch.calls,
        "weights.integrand_batch.rows": rows,
        "weights.integrand_batch.busy_s": batch.busy_s,
        "weights.sobol.busy_s": get("weights.sobol").busy_s,
        "weights.det.busy_s": get("weights.det").busy_s,
        "weights.batch_mb": max((n["tensor_bytes"] for n in notes), default=0) / 1e6,
        "weights.parallel_eff": (get("weights.pool_task").busy_s / (cw.wall_s * threads)
                                 if cw.wall_s else 0.0),
        "weights.compute_weight.calls": cw.calls,
        "weights.compute_weight.self_s": cw.self_s,
        "weights.cached_weight.calls": cached.calls,
        "weights.cache_hit_ratio": 1.0 - cw.calls / cached.calls if cached.calls else 0.0,
        "weights.rejected_frac": sum(n["rejected"] for n in notes) / rows if rows else 0.0,
        "weights.thread_speedup": walls["threads=1"] / walls["untraced"],
        "trace.overhead_s": walls["traced"] - walls["untraced"],
    }
    for name in ("graphs.contract", "graphs.canonical_key", "stokes.boundary_strata",
                 "stokes.orientation_sign", "stokes.verify_identity", "operators.d_gamma",
                 "operators.MultiDiffOperator.apply", "operators.check_associativity"):
        m[f"{name}.calls"] = get(name).calls
    for name in ("graphs.contract", "graphs.canonical_key", "graphs.enumerate_graphs",
                 "stokes.boundary_strata", "stokes.orientation_sign",
                 "stokes.verify_identity", "operators.d_gamma", "operators.u_n",
                 "operators.MultiDiffOperator.apply", "operators.star_product",
                 "operators.check_associativity"):
        m[f"{name}.self_s"] = get(name).self_s
    return m, stats


def _print_shares(stats, wall: float, threads: int) -> None:
    """Which layer carries the traced round: self time per module on the
    main thread, and the kernel's share of the pool's busy time."""
    by_module = {}
    for name, st in stats.items():
        if name != "weights.pool_task":
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + st.self_s
    untraced = wall - sum(by_module.values())
    print("main-thread self time share of the traced round:")
    for module, t in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {module:10s} {t:10.4f} s  {t / wall:7.2%}")
    print(f"  {'(other)':10s} {untraced:10.4f} s  {untraced / wall:7.2%}")
    pool = stats.get("weights.pool_task")
    if pool and pool.busy_s:
        kernel = sum(stats[n].busy_s for n in ("weights.integrand_batch", "weights.sobol")
                     if n in stats)
        print(f"pool tasks busy {pool.busy_s:.4f} s over {threads} threads; "
              f"integrand_batch + sobol {kernel / pool.busy_s:.2%} of it")
    batch, det = stats.get("weights.integrand_batch"), stats.get("weights.det")
    if batch and det and batch.busy_s:
        sobol = stats["weights.sobol"].busy_s if "weights.sobol" in stats else 0.0
        kernel = batch.busy_s + sobol
        print(f"kernel split: det {det.busy_s / kernel:.2%}, "
              f"rest of integrand_batch {(batch.busy_s - det.busy_s) / kernel:.2%}, "
              f"sobol {sobol / kernel:.2%}")


def traced(workload: str, seed: int) -> int:
    import workloads
    from tracer import Tracer, install_kwl
    threads = _threads()
    inp = workloads.make_inputs(workload, seed)

    plain = workloads.run_round(inp, threads)
    tracer = Tracer()
    install_kwl(tracer)
    try:
        with_trace = workloads.run_round(inp, threads)
    finally:
        tracer.uninstall()
    one = workloads.run_round(inp, 1)
    walls = {"untraced": plain.guest_s, "traced": with_trace.guest_s, "threads=1": one.guest_s}

    main = threading.get_ident()
    metrics, stats = _layer_metrics(tracer.spans, main, threads, walls)
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{workload}-{seed}.jsonl"
    with open(trace_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")

    checks = {
        "traced and threads=1 outputs bit-identical to untraced":
            plain.outputs == with_trace.outputs == one.outputs,
        "operation counts": all(len(r.outputs) == inp.expected_ops
                                for r in (plain, with_trace, one)),
    }
    print(f"workload {workload}  seed {seed}  traced spans {len(tracer.spans)} -> "
          f"{trace_path.relative_to(ROOT)}")
    print("machine " + json.dumps(_machine(threads)))
    print("round guest s: " + ", ".join(f"{k} {v:.4f}" for k, v in walls.items()))
    _print_shares(stats, with_trace.wall_s, threads)
    metrics.update(_accuracy([plain]))
    _report("per_layer", (plain, with_trace, one), metrics, checks)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kwl" / "__init__.py").is_file():
        return _fail(f"no kwl sources under {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no BENCHMARK.json in {ROOT}")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    if args.trace:
        return traced(args.workload, args.seed)
    return end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
