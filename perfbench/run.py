"""Benchmark runner for dissimjl.

    python3 perfbench/run.py --workload {sketch,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload runs in fresh child
processes (perfbench/workload.py) that import dissimjl from the checkout's
``src/`` with the BLAS/OpenMP thread count pinned: to the CPUs this process
may use on ``sketch``, to one on ``cli``.  Set-up is timed three times, in
three children, and reported as the median; the last child then runs the
timed loop.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see NOTES.md for the metric-to-layer map).  The
human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, holding
the metrics that BENCHMARK.json names for the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from scipy.special import betainc

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sketch", "cli")
SETUP_REPEATS = 3
TIMEOUT_S = 170  # for all children together; a run must end within 180 s
COVERAGE_MIN = 0.90  # traced sketch ops: share of op wall time inside spans
STARTUP_REPEATS = 3
ROUTES = ("jl", "jl-pq", "jl-power")
CMDS = ("project", "validate", "kmeans")
SPAN_METRICS = (
    "core.validate_matrix", "core.center_gram", "core.decompose", "core.squared_distances",
    "pqspace.embed_pq", "pqspace.interval_matrices",
    "power.euclideanize", "power.recover_centers",
    "projection.project", "projection.gaussian_map", "projection.reconstruct",
    "evaluate.validate_pq_bound", "evaluate.validate_power_residual",
    "evaluate.relative_error_stats", "evaluate.kmeans_projected",
    "pipeline.run_projection",
    "cli.read_matrix", "cli.write_matrix", "cli.cmd_project", "cli.cmd_validate",
    "cli.cmd_kmeans",
)
OP_LAYERS = ("core", "pqspace", "power", "projection", "evaluate", "pipeline", "cli")
DATAGEN = ("datagen.gen_simplex", "datagen.gen_balls")
PEAK_ALLOC = ("core.decompose", "evaluate.validate_pq_bound", "projection.reconstruct",
              "evaluate.relative_error_stats")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # write nothing outside the checkout
    return env


def run_child(argv, env, setup_only: bool, deadline: float):
    """Run one workload child; return (set-up seconds, parsed result or None).

    The child is killed if it is still running at ``deadline``
    (a ``time.monotonic`` value).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                break
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready is None or code != 0:
        raise RuntimeError(f"workload child exited {code} (ready: {ready is not None})")
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of the order
    statistics.  It leans on the values around the middle rather than on the
    one or two in it, so it jumps less from run to run than the sample median,
    most of all on a mix of op kinds whose middle falls between two kinds."""
    xs = sorted(values)
    n = len(xs)
    half = (n + 1) / 2
    edges = [float(betainc(half, half, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs))


def end_to_end(workload, records, result, setups):
    """Every end-to-end metric of one untraced run, as name -> (value, unit)."""
    ok = [r for r in records if not r["errors"]]
    loop_s = sum(r["latency"] for r in records)
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (hd_median(r["latency"] for r in records), "s"),
        "pairs_per_s": (sum(r["n"] * (r["n"] - 1) / 2 for r in ok) / loop_s, "pairs/s"),
        "failed_frac": ((len(records) - len(ok)) / len(records), "ratio"),
    }
    rels = [r["median_rel"] for r in records if "median_rel" in r]
    if rels:
        m["median_rel"] = (statistics.fmean(rels), "ratio")
    if workload == "cli":
        m["peak_rss_mb"] = (max(r["rss_mb"] for r in records), "MB")
    else:
        m["peak_rss_mb"] = (result["self_rss_mb"], "MB")
    for route in ROUTES:
        m[f"route.{route}.p50_s"] = (
            hd_median(r["latency"] for r in records if r["route"] == route), "s")
    if workload == "cli":
        for cmd in CMDS:
            m[f"cmd.{cmd}.p50_s"] = (
                hd_median(r["latency"] for r in records if r["cmd"] == cmd), "s")
    return m


def per_layer(records, result, startup):
    """Every per-layer metric of one traced run, as name -> (value, unit)."""
    traced = [r for r in records if "spans" in r]
    ops = len(traced)
    if {r["route"] for r in traced} != set(ROUTES):
        raise RuntimeError("no traced op succeeded on some route")
    totals = {}
    for r in traced:
        for name, (self_s, calls, nbytes, peak, _) in r["spans"].items():
            t = totals.setdefault(name, [0.0, 0, 0, 0])
            t[0] += self_s
            t[1] += calls
            t[2] += nbytes
            t[3] = max(t[3], peak)

    def self_total(name):
        if name == "projection.project":
            return sum(totals.get(f"projection.project_{v}", [0.0])[0]
                       for v in ("classical", "pq", "power"))
        return totals.get(name, [0.0])[0]

    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.self_s"] = (self_total(name) / ops, "s")
        m[f"{name}.self_s_run"] = (self_total(name), "s")
    for layer in OP_LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t[0] for k, t in totals.items() if k.split(".")[0] == layer) / ops, "s")
    setup = result["setup_spans"]
    for name in DATAGEN:
        m[f"{name}.self_s"] = (setup.get(name, [0.0])[0], "s")
    m["datagen.self_s"] = (sum(v[0] for k, v in setup.items() if k.startswith("datagen.")), "s")
    for name in ("core.decompose", "core.squared_distances", "evaluate.kmeans_projected"):
        m[f"{name}.calls"] = (totals.get(name, [0, 0])[1] / ops, "count")
    for route in ROUTES:
        of_route = [r for r in traced if r["route"] == route]
        calls = sum(r["spans"].get("core.decompose", [0, 0])[1] for r in of_route)
        m[f"core.decompose.calls.{route}"] = (calls / len(of_route), "count")
    for name in ("cli.read_matrix", "cli.write_matrix"):
        m[f"{name}.bytes"] = (totals.get(name, [0, 0, 0])[2] / ops, "bytes")
    for name in PEAK_ALLOC:
        m[f"{name}.peak_alloc_mb"] = (totals.get(name, [0, 0, 0, 0])[3] / 2**20, "MB")
    m["cli.startup_s"] = (startup, "s")
    plain = statistics.median(r["latency"] for r in traced)
    m["trace.overhead_s"] = (statistics.median(r["traced_latency"] for r in traced) - plain, "s")
    span_s = sum(t[0] for t in totals.values())
    m["trace.coverage"] = (span_s / sum(r["traced_latency"] for r in traced), "ratio")
    m["trace.ops"] = (ops, "count")
    return m


def cli_startup(env, deadline: float) -> float:
    """Median wall time of a process that only imports dissimjl.cli."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dissimjl.cli"], env=env, cwd=ROOT,
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def roadmap_lines(records):
    """Traced simplex sketch ops set beside the ROADMAP n=2000 baseline row."""
    simplex = [r for r in records if r["kind"] == "simplex" and "spans" in r]
    lines = []
    for route, ref in (("jl", 1.62), ("jl-pq", 2.07), ("jl-power", 3.54)):
        t = statistics.fmean(r["latency"] for r in simplex if r["route"] == route)
        lines.append(f"roadmap {route} op: {t:.3f} s vs {ref} s, ratio {t / ref:.2f}")
    # inclusive time per call, beside the stage times the ROADMAP row gives
    for name, route, ref in (("core.decompose", "jl", 1.34),
                             ("evaluate.validate_pq_bound", "jl-pq", 0.55),
                             ("projection.reconstruct", "jl", 0.23),
                             ("projection.reconstruct", "jl-pq", 0.23)):
        t = statistics.fmean(r["spans"][name][4] / r["spans"][name][1]
                             for r in simplex if r["route"] == route)
        lines.append(f"roadmap {name} on {route}: {t:.3f} s vs {ref} s, ratio {t / ref:.2f}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "dissimjl" / "__init__.py").is_file():
        print(f"no dissimjl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = os.cpu_count() or 1
    # a CLI op is mostly single-threaded Python; one BLAS thread keeps a second
    # thread from spinning after each BLAS call on the core the op shares
    threads = 1 if args.workload == "cli" else max(1, min(nproc, len(os.sched_getaffinity(0))))
    env = child_env(threads)
    outdir = ROOT / ".perfbench_out"
    workdir = outdir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_child(base + ["--setup-only"], env, True, deadline)[0])
        spans_out = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        ready, result = run_child(
            base + (["--spans-out", str(spans_out)] if args.trace else []), env, False,
            deadline)
        setups.append(ready)
        startup = cli_startup(env, deadline) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = sum(1 for r in records if r["errors"])
    correct = failed == 0
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": nproc, "blas_threads": threads,
             **result["versions"], **source_stamp()}
    print("stamp " + json.dumps(stamp))
    for r in records:
        for err in r["errors"]:
            print(f"FAILED op {r.get('cmd', '')} {r['kind']} n={r['n']} {r['route']}: {err}")
    if args.trace:
        metrics = per_layer(records, result, startup)
        if args.workload == "sketch":
            if metrics["trace.coverage"][0] < COVERAGE_MIN:
                print(f"FAILED trace coverage {metrics['trace.coverage'][0]:.3f} "
                      f"< {COVERAGE_MIN}")
                correct = False
            for line in roadmap_lines(records):
                print(line)
    else:
        metrics = end_to_end(args.workload, records, result, setups)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics or metrics[name][1] != entry["unit"]:
            print(f"metric {name} ({entry['unit']}) not measured", file=sys.stderr)
            return 2
        out[name] = {"value": metrics[name][0], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
