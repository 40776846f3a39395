"""One benchmark workload, run in a fresh process started by run.py.

The process imports dissimjl from the checkout's ``src/`` (run.py sets
PYTHONPATH and pins the BLAS thread count), generates its inputs from the
seed, runs one untimed warm-up op and prints ``READY``; run.py times
set-up up to that line.  With ``--setup-only`` it stops there.  Otherwise
it runs whole cycles of its op schedule in a closed loop (one caller, the
next op starts when the previous one has finished and been checked) and
prints one JSON line with a record per op.  Output checks run outside the
timed region and mark the op failed instead of raising.

With ``--trace 1`` every op runs twice with the same inputs, first plain
and then under the tracer; the two results must be bit-identical, and the
traced one contributes its spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import dissimjl as dj

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
ROUTES = ("jl", "jl-pq", "jl-power")
EPSILON = 0.5  # ProjectionConfig defaults, restated so checks do not call the program
DIM_CONSTANT = 2.0
EXACT_REL = 1e-6  # acceptance criteria 1-2
EXACT_PAIRS = 200
PQ_MAX_VIOLATION = 0.20
POWER_MIN_WITHIN = 0.95
CLI_N = 800
CLI_SAMPLE = 2000
CLI_K = 8
CLI_TIMEOUT_S = 150
# nominal time of one op cycle on the reference box (2 cores, OpenBLAS 0.3.31);
# a run measures round(seconds / cycle) whole cycles, half as many when
# traced (every op then runs twice), so the parent and a change run the same
# ops however fast they are
CYCLE_S = {"sketch": 15.0, "cli": 21.0}
OVERRUN = 2.0  # but stop after OVERRUN * seconds, to end in time if ops get slow
LAUNCH_CLI = "import sys; from dissimjl.cli import run; sys.argv[0] = 'dissimjl'; run()"


def expected_dim(n: int) -> int:
    return max(1, math.ceil(DIM_CONSTANT * math.log2(n) / EPSILON**2))


# ---------------------------------------------------------------- inputs


def sketch_inputs(rng):
    n = 2000
    mats = [
        ("simplex", dj.gen_simplex(dj.SimplexSpec(n, seed=int(rng.integers(2**31))))),
        ("balls", dj.gen_balls(dj.BallSpec(n, seed=int(rng.integers(2**31))))),
    ]
    return [(kind, D.entries, route) for kind, D in mats for route in ROUTES]


def cli_inputs(rng, workdir: Path):
    """Write the two CSV inputs with the program's own writer."""
    from dissimjl import cli

    paths = {}
    for kind, D in (
        ("simplex", dj.gen_simplex(dj.SimplexSpec(CLI_N, seed=int(rng.integers(2**31))))),
        ("balls", dj.gen_balls(dj.BallSpec(CLI_N, seed=int(rng.integers(2**31))))),
    ):
        paths[kind] = workdir / f"{kind}.csv"
        cli.write_matrix(str(paths[kind]), D)
    # every command meets every route; the input alternates between the two
    schedule = []
    for r, route in enumerate(ROUTES):
        for c, cmd in enumerate(("project", "validate", "kmeans")):
            kind = ("simplex", "balls")[(r + c) % 2]
            schedule.append((kind, paths[kind], route, cmd))
    return schedule


# ---------------------------------------------------------------- checks


def check_library(D: np.ndarray, res, route: str, seed: int) -> list[str]:
    """Output checks for one run_projection result; returns the failures."""
    bad = []
    n = D.shape[0]
    Dhat = res.reconstructed
    if Dhat.shape != (n, n):
        return [f"Dhat shape {Dhat.shape}"]
    if not np.all(np.isfinite(Dhat)):
        bad.append("Dhat not finite")
    if not np.array_equal(Dhat, Dhat.T):
        bad.append("Dhat not symmetric")
    if np.any(np.diag(Dhat) != 0.0):
        bad.append("Dhat not hollow")
    m = expected_dim(n)
    if res.out_dim != m:
        bad.append(f"out_dim {res.out_dim} != {m}")
    dec = res.decomposition
    if dec.p + dec.q + dec.zero_rank != n:
        bad.append(f"p+q+zero_rank = {dec.p + dec.q + dec.zero_rank} != {n}")
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, EXACT_PAIRS)
    j = rng.integers(0, n, EXACT_PAIRS)
    i, j = i[i != j], j[i != j]
    if route == "jl-power":
        c, r = res.representation.centers, res.representation.radius
        exact = np.sum((c[i] - c[j]) ** 2, axis=1) - 4.0 * r * r
        width = res.projected.centers.shape[1]
    else:
        e = res.embedding
        exact = np.sum((e.pos_coords[i] - e.pos_coords[j]) ** 2, axis=1) - np.sum(
            (e.neg_coords[i] - e.neg_coords[j]) ** 2, axis=1
        )
        if route == "jl":
            width = res.projected.shape[1]
        else:
            width = max(res.projected.pos_coords.shape[1], res.projected.neg_coords.shape[1])
    if width != m:
        bad.append(f"projected width {width} != {m}")
    d = D[i, j]
    nz = d != 0.0
    if nz.any():
        worst = float(np.max(np.abs(exact[nz] - d[nz]) / np.abs(d[nz])))
        if not worst <= EXACT_REL:
            bad.append(f"unprojected representation off by {worst:.3g}")
    if route == "jl-pq" and not res.pq_check.violation_rate <= PQ_MAX_VIOLATION:
        bad.append(f"violation rate {res.pq_check.violation_rate}")
    if route == "jl-power" and not res.power_check.fraction_within >= POWER_MIN_WITHIN:
        bad.append(f"fraction within {res.power_check.fraction_within}")
    if not math.isfinite(res.stats.median_rel):
        bad.append("median_rel not finite")
    return bad


def check_cli(cmd, route, n, outputs, schema) -> list[str]:
    import jsonschema

    report = json.loads(outputs["report"].read_text())
    bad = []
    if cmd == "kmeans":
        for key in ("original_cost", "projected_cost"):
            if not isinstance(report.get(key), float) or not math.isfinite(report[key]):
                bad.append(f"{key} = {report.get(key)!r}")
        if (report.get("n"), report.get("k"), report.get("method")) != (n, CLI_K, route):
            bad.append("kmeans report does not echo n, k and method")
        return bad
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        bad.append(f"report schema: {exc.message}")
    if report.get("m") != expected_dim(n):
        bad.append(f"m = {report.get('m')} != {expected_dim(n)}")
    bounds = report.get("bounds", {})
    if route == "jl-pq" and not bounds.get("pq_violation_rate", 1.0) <= PQ_MAX_VIOLATION:
        bad.append(f"violation rate {bounds.get('pq_violation_rate')}")
    if route == "jl-power" and not bounds.get("fraction_within", 0.0) >= POWER_MIN_WITHIN:
        bad.append(f"fraction within {bounds.get('fraction_within')}")
    if cmd == "project":
        Dhat = np.loadtxt(outputs["matrix"], delimiter=",", ndmin=2)
        if Dhat.shape != (n, n):
            bad.append(f"output matrix shape {Dhat.shape}")
        elif not (np.all(np.isfinite(Dhat)) and np.array_equal(Dhat, Dhat.T)
                  and not np.any(np.diag(Dhat))):
            bad.append("output matrix not finite, symmetric and hollow")
    else:
        with open(outputs["pairs"]) as fh:
            lines = sum(1 for _ in fh)
        if lines != CLI_SAMPLE + 1:
            bad.append(f"pair CSV has {lines} lines, expected {CLI_SAMPLE + 1}")
    return bad


# ---------------------------------------------------------------- ops


def library_result_digest(res) -> str:
    h = hashlib.sha256(res.reconstructed.tobytes())
    h.update(json.dumps(dj.report_dict(res), sort_keys=True).encode())
    return h.hexdigest()


def run_library_op(D, route: str, seed: int):
    """Return (latency, result or the exception it raised)."""
    config = dj.ProjectionConfig(seed=seed)
    start = time.perf_counter()
    try:
        res = dj.run_projection(D, route, config)
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        res = exc
    return time.perf_counter() - start, res


def run_cli_process(argv: list[str], workdir: Path):
    """Start one CLI process; return (latency, exit code, maxrss MB, stderr)."""
    err_path = workdir / "stderr.txt"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - start
    # reaped by wait4 (for the child's own rusage), so tell Popen it is done
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text()[-500:]


def cli_argv(cmd, route, path, seed, outputs) -> list[str]:
    common = ["--method", route, "--seed", str(seed), "--out-report", str(outputs["report"])]
    if cmd == "project":
        return ["project", str(path), *common, "--out-matrix", str(outputs["matrix"])]
    if cmd == "validate":
        return ["validate", str(path), *common, "--sample", str(CLI_SAMPLE),
                "--out-csv", str(outputs["pairs"])]
    return ["kmeans", str(path), "--k", str(CLI_K), *common]


def cli_digest(outputs) -> str:
    """Digest of a CLI op's outputs, ignoring the report's own duration."""
    h = hashlib.sha256()
    for key in ("report", "matrix", "pairs"):
        path = outputs[key]
        if not path.exists():
            continue
        if key == "report":
            report = json.loads(path.read_text())
            report["manifest"].pop("duration_s", None)
            h.update(json.dumps(report, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def summarize_spans(spans) -> dict:
    """Per-name totals for one op: [self_s, calls, bytes, peak_alloc, inclusive_s]."""
    out = {}
    for s in spans:
        row = out.setdefault(s["name"], [0.0, 0, 0, 0, 0.0])
        row[0] += s["self"]
        row[1] += 1
        row[2] += s.get("bytes", 0)
        row[3] = max(row[3], s.get("peak_alloc", 0))
        row[4] += s["end"] - s["start"]
    return out


class LibraryOps:
    """Ops of the sketch workload: one run_projection call each."""

    def warm_up(self, item, seed) -> str | None:
        kind, D, route = item
        _, res = run_library_op(D, route, seed)
        return repr(res) if isinstance(res, Exception) else None

    def run(self, item, seed, op_index, tracer):
        """Run one op, and again under the tracer if given; return (record, spans)."""
        kind, D, route = item
        rec = {"kind": kind, "route": route, "n": D.shape[0]}
        rec["latency"], res = run_library_op(D, route, seed)
        if isinstance(res, Exception):
            rec["errors"] = [f"raised {res!r}"]
            return rec, None
        rec["errors"] = check_library(D, res, route, seed)
        rec["median_rel"] = res.stats.median_rel
        if tracer is None:
            return rec, None
        plain = library_result_digest(res)
        del res
        tracer.install()
        tracer.op = op_index
        try:
            rec["traced_latency"], res = run_library_op(D, route, seed)
        finally:
            tracer.uninstall()
        if isinstance(res, Exception) or library_result_digest(res) != plain:
            rec["errors"].append("traced result differs from untraced result")
        return rec, tracer.take()


class CliOps:
    """Ops of the cli workload: one dissimjl process each."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.outputs = {key: workdir / name for key, name in
                        (("report", "report.json"), ("matrix", "out.csv"),
                         ("pairs", "pairs.csv"))}
        self.spans_path = workdir / "spans.json"
        self.schema = json.loads((ROOT / "docs" / "report-schema.json").read_text())

    def _launch(self, item, seed, traced):
        kind, path, route, cmd = item
        for p in self.outputs.values():
            p.unlink(missing_ok=True)
        head = ([sys.executable, str(Path(__file__).with_name("tracer.py")),
                 str(self.spans_path)] if traced else [sys.executable, "-c", LAUNCH_CLI])
        return run_cli_process(head + cli_argv(cmd, route, path, seed, self.outputs),
                               self.workdir)

    def warm_up(self, item, seed) -> str | None:
        _, code, _, err = self._launch(item, seed, False)
        return f"exit {code}: {err}" if code != 0 else None

    def run(self, item, seed, op_index, tracer):
        kind, path, route, cmd = item
        rec = {"kind": kind, "route": route, "cmd": cmd, "n": CLI_N}
        rec["latency"], code, rec["rss_mb"], err = self._launch(item, seed, False)
        if code != 0:
            rec["errors"] = [f"exit {code}: {err}"]
            return rec, None
        try:
            rec["errors"] = check_cli(cmd, route, CLI_N, self.outputs, self.schema)
            if cmd != "kmeans":
                report = json.loads(self.outputs["report"].read_text())
                rec["median_rel"] = report["stats"]["median_rel"]
        except (OSError, ValueError, KeyError) as exc:
            rec["errors"] = [f"unreadable output: {exc!r}"]
        if tracer is None or rec["errors"]:
            return rec, None
        plain = cli_digest(self.outputs)
        rec["traced_latency"], code, _, err = self._launch(item, seed, True)
        if code != 0:
            rec["errors"].append(f"traced exit {code}: {err}")
            return rec, None
        if cli_digest(self.outputs) != plain:
            rec["errors"].append("traced outputs differ from untraced outputs")
        spans = json.loads(self.spans_path.read_text())
        for span in spans:
            span["op"] = op_index
        return rec, spans


# ---------------------------------------------------------------- main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(CYCLE_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if Path(dj.__file__).resolve().parent.parent != src:
        print(f"dissimjl imported from {dj.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    rng = np.random.default_rng(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()  # set-up spans cover input generation only
    if args.workload == "cli":
        schedule, ops = cli_inputs(rng, workdir), CliOps(workdir)
    else:
        schedule, ops = sketch_inputs(rng), LibraryOps()
    setup_spans = tracer.take() if tracer else []
    if tracer:
        tracer.uninstall()
    seed_base = int(rng.integers(2**30))
    # untimed warm-up: the first op of the schedule, with a seed no timed op uses
    failure = ops.warm_up(schedule[0], seed_base - 1)
    if failure:
        print(f"warm-up op failed: {failure}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records = []
    span_dump = [{"op": "setup", "spans": setup_spans}] if tracer else []
    cycles = max(1, round(args.seconds / CYCLE_S[args.workload] / (2 if tracer else 1)))
    elapsed = 0.0
    for _ in range(cycles):
        if elapsed > OVERRUN * args.seconds:
            break
        for item in schedule:
            op_index = len(records)
            rec, spans = ops.run(item, seed_base + op_index, op_index, tracer)
            elapsed += rec["latency"] + rec.get("traced_latency", 0.0)
            if spans is not None:
                rec["spans"] = summarize_spans(spans)
                span_dump.append({"op": op_index, "kind": rec["kind"], "route": rec["route"],
                                  "cmd": rec.get("cmd"), "spans": spans})
            records.append(rec)

    if args.spans_out and tracer:
        with open(args.spans_out, "w") as fh:
            for entry in span_dump:
                fh.write(json.dumps(entry) + "\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    print(json.dumps({
        "records": records,
        "setup_spans": summarize_spans(setup_spans),
        "self_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
