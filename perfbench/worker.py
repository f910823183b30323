"""One repetition of a benchmark workload, in a fresh interpreter.

Reads a JSON spec on stdin: {"ops": [argv, ...], "check": name, "trace": bool}.
Times the import of ``simplestfields.cli`` plus building its parser (the
set-up every CLI command pays), then runs each argv through ``cli.main`` in
this process, verifies its JSON document, and prints one JSON line with the
timings, per-operation digests and, when traced, the per-request call trees.
The library is loaded from ``src/`` of the checkout this file sits in.

Next to every timing it reports how long a fixed pure-Python probe loop took
in this process around that timing: the host is shared, and its speed swings
by up to 2x over minutes, so run.py rescales each timing by the probe to the
speed of an idle host.  Untraced, a timer also runs the probe every
PROBE_PERIOD_S during the operations (the longest take 20 s); the probe's own
time is taken out of the operation it interrupted.  Traced runs probe only
before and after the operations, so no span contains probe time.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_PERIOD_S = 0.25

# Per-check predicate on the CLI document, on top of exit 0 and status "ok".
CHECKS = {
    "scan": lambda doc: doc["result"]["consistent"] is True,
    "agree": lambda doc: doc["result"]["strategies_agree"] is True,
    "tables": lambda doc: doc["result"]["dual_denominator_table"]["ok"] is True,
}


def digest(doc: dict) -> str:
    """sha256 of the CLI document without its timing_ms field."""
    body = {k: v for k, v in doc.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def probe() -> float:
    """Seconds a fixed loop of integer and Fraction arithmetic takes now.

    Fractions allocate and take gcds as the library's rational linear algebra
    does, so the probe slows down with the workloads when the host is busy.
    """
    started = time.perf_counter()
    x = 1
    for i in range(5_000):
        x = (x * 6364136223846793005 + i) % 340282366920938463463374607431768211507
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, 7) * Fraction(i, 7)
    return time.perf_counter() - started


class HostSpeed:
    """Probe samples, each as (start, duration) on the perf_counter clock."""

    def __init__(self):
        self.samples = []

    def sample(self, *_signal_args):
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def start_timer(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_time(self, start: float, end: float) -> float:
        """Probe time spent between start and end."""
        return sum(d for s, d in self.samples if start <= s < end)

    def mean(self) -> float:
        return sum(d for _, d in self.samples) / len(self.samples)


def run_op(cli, argv, check, host):
    buf = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        failure = None
    except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
        failure = repr(exc)
    ended = time.perf_counter()
    latency = ended - started - host.probe_time(started, ended)
    if failure is not None:
        return {"latency_s": latency, "ok": False, "digest": None, "error": failure}
    try:
        doc = json.loads(buf.getvalue())
        ok = code == 0 and doc["status"] == "ok" and CHECKS[check](doc)
        error = None if ok else f"exit {code}, status {doc.get('status')!r}"
        return {"latency_s": latency, "ok": ok, "digest": digest(doc), "error": error}
    except (ValueError, KeyError, TypeError) as exc:
        return {"latency_s": latency, "ok": False, "digest": None, "error": f"bad document: {exc!r}"}


def main() -> int:
    spec = json.load(sys.stdin)
    setup_host = HostSpeed()
    for _ in range(3):
        setup_host.sample()
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from simplestfields import cli

    cli.build_parser()
    setup_s = time.perf_counter() - started
    for _ in range(3):
        setup_host.sample()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"simplestfields loaded from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import simplestfields

    out = {
        "setup_s": setup_s,
        "setup_probe_s": setup_host.mean(),
        # Without the backend switch only the pure-Python kernels exist.
        "backend": getattr(simplestfields, "KERNEL_BACKEND", "python"),
        "ops": [],
    }
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    host = HostSpeed()
    host.sample()
    if tracer is None:
        host.start_timer()
    first = time.perf_counter()
    try:
        for argv in spec["ops"]:
            if tracer is not None:
                tracer.begin_request()
            out["ops"].append(run_op(cli, argv, spec["check"], host))
        last = time.perf_counter()
    finally:
        host.stop_timer()
    host.sample()
    out["wall_s"] = last - first - host.probe_time(first, last)
    out["probe_s"] = host.mean()
    out["probes"] = len(host.samples)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.to_json()
        out["cache_hits"] = tracer.originals["numberfield.number_field"].cache_info().hits
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
