"""Benchmark of the simplest-fields CLI, end to end and per library layer.

    python3 perfbench/run.py --workload {scan8,agree,tables} --seed N --seconds S --trace {0,1}

One client drives the public entry point ``simplestfields.cli.main(argv)``
in a closed loop: each request starts when the previous one has returned.
Every repetition of a workload runs in a fresh interpreter (perfbench/worker.py)
with the pure-Python kernels pinned (SIMPLESTFIELDS_PURE=1), so the library's
caches start cold as they do for a CLI user.  Repetitions continue while
another one fits in --seconds; at least one always runs.

With --trace 0 the last stdout line reports the end-to-end metrics, every
time in seconds at reference host speed.  The benchmark shares its host,
whose speed swings by up to 2x over minutes (10 runs of agree ranged 12.4 to
18.9 s), so the worker times a fixed probe loop around and, untraced, every
0.25 s during the operations, and each time measured in a repetition is
scaled by PROBE_REF_S over that repetition's mean probe time.  The measured
times and probe means are kept in the record and in the context line.
wall_s is the median over repetitions of the time from the first CLI call to
the last verified output.  Each operation's latency is its median over the
repetitions, and request_ms_p90 is the 90th percentile of those; the median
request latency is only printed in the context line, because on agree the
latencies split into two equal modes (t mod 4 decides whether 2-adic
saturation is needed) and the median falls into the gap between them.
setup_s is the median over all interpreters of the run.

With --trace 1 every traced function is wrapped from outside the library
(perfbench/tracer.py) and the line reports per-layer metrics instead, in
measured seconds. In both modes the line before the last carries the run's
context (backend, Python, CPUs, git SHA, input properties, error rate), and
the full record is written to perfbench/results/.

Workloads (why each exists):
  scan8   period-scan --n 8 --modulus 432 over |t| <= 500 shifted by
          (seed mod 16) * 432: the baseline period scan, 54% of fields
          repeat a residue class; radical saturation and the kernels.
  agree   integral-basis --n 6 --strategy both for the 166 gate-passing t
          nearest (seed mod 16) * 36 (|t| <= 130 at seed 0): interactive
          per-field requests, no repeats, dominated by char_poly.  One
          degree only, so p90 does not sit between degree groups.
  tables  verify-tables --scope delta --samples 5: the symbolic dual
          denominators, a null workload for kernel and saturation work.
          It has no seed-dependent input.

Every operation must exit 0 with status "ok" and pass its workload's check;
at seed 0 its digest (sha256 of the document without timing_ms) must also
equal the one in perfbench/reference.json.  ``--record`` rewrites that
file's entry for the workload from one seed-0 repetition.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"

WORKLOADS = ("scan8", "agree", "tables")
WINDOW_CYCLE = 16  # seeds map to 16 windows, so parameter sizes stay comparable
AGREE_REQUESTS = 166
SETUP_PROBES = 15
# The probe loop's time (perfbench/worker.py) on an idle core of the host the
# benchmark was defined on: Intel Xeon, 2 vCPUs, Python 3.11.
PROBE_REF_S = 1.9e-3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def load_gate():
    """The library's parameter gate, from this checkout's src/ only."""
    os.environ["SIMPLESTFIELDS_PURE"] = "1"
    sys.path.insert(0, str(SRC))
    try:
        from simplestfields import orders
    except ImportError as exc:
        raise BenchError(f"cannot import simplestfields from {SRC}: {exc}") from exc
    if not Path(orders.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"simplestfields loaded from {orders.__file__}, not from {SRC}")
    return orders.parameter_gate


def make_inputs(workload: str, seed: int):
    """(argv list, check name, input properties) for one workload and seed."""
    gate = load_gate()
    k = seed % WINDOW_CYCLE
    if workload == "scan8":
        n, modulus = 8, 432
        lo, hi = -500 + k * modulus, 500 + k * modulus
        passed = [t for t in range(lo, hi + 1) if gate(n, t)[0]]
        classes = len({t % modulus for t in passed})
        ops = [["period-scan", "--n", str(n), "--modulus", str(modulus), "--t-min", str(lo), "--t-max", str(hi)]]
        props = {"degree": n, "fields_attempted": hi - lo + 1, "fields_gated_out": hi - lo + 1 - len(passed),
                 "fields": len(passed), "classes": classes}
        return ops, "scan", props
    if workload == "agree":
        n, centre = 6, k * 36
        passed, tried, dist = [], 0, 0
        while len(passed) < AGREE_REQUESTS:
            for t in sorted({centre - dist, centre + dist}):
                tried += 1
                if gate(n, t)[0] and len(passed) < AGREE_REQUESTS:
                    passed.append(t)
            dist += 1
        ops = [["integral-basis", "--n", str(n), "--t", str(t), "--strategy", "both"] for t in sorted(passed)]
        # each request is a separate CLI call, so no result can be reused
        props = {"degree": n, "fields_attempted": tried, "fields_gated_out": tried - len(passed),
                 "fields": len(passed), "classes": len(passed)}
        return ops, "agree", props
    samples, tried = 5, 0
    for n in range(2, 13):  # the sampling rule of check_dual_denominator_table
        found = t = 0
        while found < samples:
            t += 1
            tried += 1
            found += gate(n, t)[0]
    ops = [["verify-tables", "--scope", "delta", "--samples", str(samples)]]
    props = {"degree": "2-12", "fields_attempted": tried, "fields_gated_out": tried - 11 * samples,
             "fields": 11 * samples, "classes": 11 * samples}
    return ops, "tables", props


def run_child(spec: dict) -> dict:
    env = dict(os.environ, SIMPLESTFIELDS_PURE="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["backend"] != "python":
        raise BenchError(f"kernel backend {out['backend']!r} is not the pinned pure-Python backend")
    return out


def percentile(values, q):
    """Percentile by linear interpolation between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> dict:
    ops, check, props = make_inputs(args.workload, args.seed)
    props["class_repeat_share"] = (props["fields"] - props["classes"]) / props["fields"]
    reference = None
    if args.seed == 0 and not args.record:
        try:
            reference = json.loads(REFERENCE.read_text())[args.workload]
        except (OSError, KeyError, ValueError) as exc:
            raise BenchError(f"no reference digests for {args.workload}: {exc!r}") from exc

    spec = {"ops": ops, "check": check, "trace": bool(args.trace)}
    setup_only = {"ops": [], "check": check, "trace": False}
    run_child(setup_only)  # compiles the bytecode caches; not measured
    reps, longest = [], 0.0
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(run_child(spec))
        longest = max(longest, time.perf_counter() - t0)
        if args.record or time.perf_counter() - started + longest > args.seconds:
            break
    setup_children = reps + [run_child(setup_only) for _ in range(SETUP_PROBES)]
    setups = [c["setup_s"] * PROBE_REF_S / c["setup_probe_s"] for c in setup_children]

    attempted = failed = 0
    failures = []
    for rep in reps:
        for argv, op in zip(ops, rep["ops"]):
            attempted += 1
            key = " ".join(argv)
            error = op["error"]
            if error is None and reference is not None and reference.get(key) != op["digest"]:
                error = "digest differs from reference"
            if error is not None:
                failed += 1
                failures.append({"op": key, "error": error})

    if args.record:
        if failed:
            raise BenchError(f"refusing to record failing outputs: {failures[:3]}")
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table[args.workload] = {" ".join(argv): op["digest"] for argv, op in zip(ops, reps[0]["ops"])}
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    rep_latencies_s = [[op["latency_s"] for op in rep["ops"]] for rep in reps]
    scale = [PROBE_REF_S / rep["probe_s"] for rep in reps]
    walls = [rep["wall_s"] * k for rep, k in zip(reps, scale)]
    latencies_ms = [statistics.median(s * k * 1000 for s, k in zip(samples, scale)) for samples in zip(*rep_latencies_s)]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "request_ms_p90": (percentile(latencies_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    per_layer = None
    if args.trace:
        from tracer import layer_metrics, metric_names

        per_rep = [layer_metrics(r["trace"], r["cache_hits"], props["class_repeat_share"]) for r in reps]
        per_layer = {name: (statistics.median(v[name] for v in per_rep), unit) for name, unit in metric_names()}

    metrics = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": reps[0]["backend"],
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "inputs": props,
        "repetitions": len(reps),
        "requests": len(latencies_ms),
        "request_ms_p50": percentile(latencies_ms, 50),
        "setup_samples_s": setups,
        "measured": {
            "setup_s": statistics.median(c["setup_s"] for c in setup_children),
            "rep_wall_s": [r["wall_s"] for r in reps],
            "rep_probe_ms": [r["probe_s"] * 1000 for r in reps],
            "rep_probes": [r["probes"] for r in reps],
        },
        "error_rate": failed / attempted,
        "failures": failures[:10],
        "rep_digests": [[op["digest"] for op in r["ops"]] for r in reps],
        "rep_latencies_s": rep_latencies_s,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "per_layer": None if per_layer is None else {k: v[0] for k, v in per_layer.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = dict(context, result=result, traces=[r["trace"] for r in reps] if args.trace else None)
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(json.dumps(record))
    print(json.dumps({k: v for k, v in context.items() if k not in ("rep_digests", "rep_latencies_s", "per_layer")}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference digests (seed 0 only)")
    args = parser.parse_args(argv)
    if args.record and args.seed != 0:
        parser.error("--record needs --seed 0")
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
