"""Summarize benchmark records written by perfbench/run.py.

    python3 perfbench/summarize.py perfbench/results/*.json

Groups records by git SHA, workload and trace mode, and prints per group the
median, quartiles and spread (quartile distance over median) of every
end-to-end metric and whether repeated traced runs gave identical counts.
Then prints whether all runs of one seed gave identical result digests, and
the tracing overhead: traced minus untraced median wall_s, over seeds run in
both modes.  Refuses records from different kernel backends or Python
versions: their numbers do not compare.
"""

import json
import statistics
import sys
from collections import defaultdict

COUNT_STATS = (".calls", ".index_exp")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(paths) -> int:
    records = [json.loads(open(p).read()) for p in paths]
    if not records:
        print("no records", file=sys.stderr)
        return 2
    envs = {(r["backend"], r["python"]) for r in records}
    if len(envs) > 1:
        print(f"refusing to compare records from different backends or Pythons: {sorted(envs)}", file=sys.stderr)
        return 2
    groups = defaultdict(list)
    for r in records:
        groups[(r["git_sha"], r["workload"], r["trace"])].append(r)
    walls = defaultdict(list)
    for (sha, workload, trace), rs in sorted(groups.items()):
        print(f"{sha[:10]} {workload} trace={trace}: {len(rs)} runs, seeds {sorted(r['seed'] for r in rs)}, "
              f"{sum(r['result']['failed'] for r in rs)} failed of {sum(r['result']['attempted'] for r in rs)}")
        for name in rs[0]["end_to_end"]:
            values = [r["end_to_end"][name] for r in rs]
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            print(f"  {name:<16} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {(q3 - q1) / med:.3f}")
        for r in rs:
            walls[(sha, workload, trace, r["seed"])].append(r["end_to_end"]["wall_s"])
        if trace:
            counts = [{k: v for k, v in r["per_layer"].items() if k.endswith(COUNT_STATS)} for r in rs]
            print(f"  traced counts identical across runs: {all(c == counts[0] for c in counts)}")
    by_seed = defaultdict(set)
    for r in records:
        for rep in r["rep_digests"]:
            by_seed[(r["git_sha"], r["workload"], r["seed"])].add(json.dumps(rep))
    differing = sorted(k for k, v in by_seed.items() if len(v) > 1)
    print(f"result digests identical across runs of each seed (traced and untraced): {not differing}")
    overhead = defaultdict(list)
    for (sha, workload, trace, seed), traced in sorted(walls.items()):
        untraced = walls.get((sha, workload, 0, seed))
        if trace and untraced:
            overhead[(sha, workload)].append(statistics.median(traced) - statistics.median(untraced))
    for (sha, workload), diffs in sorted(overhead.items()):
        print(f"{sha[:10]} {workload}: tracing overhead {statistics.median(diffs):+.3f} s (same-seed medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
