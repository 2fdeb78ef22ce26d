#!/usr/bin/env python3
"""Collect and compare result sets of the vericlick benchmark.

    python3 perfbench/stats.py sweep OUT.jsonl [--seeds 1-10] [--trace 0|1]
    python3 perfbench/stats.py compare BASE.jsonl NEW.jsonl

`sweep` runs `run.py` once per workload and seed, for BENCHMARK.json's
`run_seconds`, appends one record per run (workload, seed, provenance,
result) to OUT.jsonl, and prints each end-to-end metric's median,
quartiles and spread (interquartile range over median) per workload.
`compare` refuses two sets whose runs differ in length, tracing or
`nproc`. It prints, per workload, both sides' attempted and failed
operations, and per metric both sides' median and quartiles and the change
of the median, classified against the bounds in BENCHMARK.json:

* invalid: a side has a run whose outputs were wrong, or the new side
  fails a larger share of its operations than the base side;
* worse: the median got worse by more than the bound;
* improved: the new side wins at least 9 in 10 same-seed pairs and its
  median is better by more than the base side's spread;
* unresolved: a side's spread exceeds the bound, and not every new run
  beats every base run;
* unchanged: otherwise.
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def load(path):
    return [json.loads(line) for line in pathlib.Path(path).read_text().splitlines() if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(records, trace):
    """{workload: {metric: [values in seed order]}}"""
    out = {}
    for r in records:
        if bool(r["provenance"].get("trace")) != trace:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append((r["seed"], m["value"]))
    return out


def sweep(argv):
    out, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    unknown = set(opts) - {"--seeds", "--trace"}
    if unknown:
        sys.exit(f"stats.py sweep: unknown option {sorted(unknown)[0]}\n{__doc__}")
    cfg = bench()
    seconds = str(cfg["run_seconds"])
    trace = opts.get("--trace", "0")
    with open(out, "a") as sink:
        for workload in (w["name"] for w in cfg["workloads"]):
            for seed in seeds(opts.get("--seeds", "1-10")):
                cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", seconds, "--trace", trace]
                run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = run.stdout.strip().splitlines()
                if run.returncode or len(lines) < 2:
                    print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                    continue
                record = {"workload": workload, "seed": seed,
                          "provenance": json.loads(lines[-2])["provenance"],
                          "result": json.loads(lines[-1])}
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                res = record["result"]
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    report(load(out), trace == "1")


def report(records, trace=False):
    for workload, metrics in summary(records, trace).items():
        print(f"\n{workload}")
        for name, pairs in metrics.items():
            values = [v for _, v in pairs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} n={len(values):2d} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")


def classify(base, new, better, bound):
    bq1, bmed, bq3 = quartiles([v for _, v in base])
    nq1, nmed, nq3 = quartiles([v for _, v in new])
    sign = -1 if better == "lower" else 1
    gain = sign * (nmed - bmed) / bmed
    base_spread, new_spread = (bq3 - bq1) / bmed, (nq3 - nq1) / nmed
    paired = dict(base)
    wins = [sign * (v - paired[s]) > 0 for s, v in new if s in paired]
    all_better = min(sign * v for _, v in new) > max(sign * v for _, v in base)
    if max(base_spread, new_spread) > bound and not all_better:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "worse"
    elif wins and sum(wins) >= 0.9 * len(wins) and gain > base_spread:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return (bq1, bmed, bq3), (nq1, nmed, nq3), gain, verdict


def provenance(records):
    """The settings every run of a set must share, or exit."""
    keys = ("seconds", "trace", "nproc")
    seen = {tuple(r["provenance"].get(k) for k in keys) for r in records}
    if len(seen) != 1:
        sys.exit(f"stats.py compare: runs of one set differ in {keys}: {sorted(seen)}")
    return dict(zip(keys, seen.pop()))


def operations(records):
    """{workload: (attempted, failed, every output correct)} over a set."""
    out = {}
    for r in records:
        res = r["result"]
        attempted, failed, correct = out.get(r["workload"], (0, 0, True))
        out[r["workload"]] = (attempted + res["attempted"], failed + res["failed"],
                              correct and res["correct"])
    return out


def compare(argv):
    base_runs, new_runs = load(argv[0]), load(argv[1])
    base_prov, new_prov = provenance(base_runs), provenance(new_runs)
    if base_prov != new_prov:
        sys.exit(f"stats.py compare: the sets were run differently: {base_prov} vs {new_prov}")
    if base_prov["trace"]:
        sys.exit("stats.py compare: compares untraced sets (--trace 0) only")
    base, new = summary(base_runs, False), summary(new_runs, False)
    base_ops, new_ops = operations(base_runs), operations(new_runs)
    invalid = set()
    for workload in sorted(set(base) & set(new)):
        (ba, bf, bc), (na, nf, nc) = base_ops[workload], new_ops[workload]
        if not (bc and nc) or nf / na > bf / ba:
            invalid.add(workload)
        print(f"{workload:12s} base attempted {ba} failed {bf}{'' if bc else ' (wrong outputs)'}  "
              f"new attempted {na} failed {nf}{'' if nc else ' (wrong outputs)'}")
    for metric in bench()["end_to_end"]:
        for workload in sorted(set(base) & set(new)):
            b, n = base[workload].get(metric["name"]), new[workload].get(metric["name"])
            if not b or not n:
                continue
            (bq1, bmed, bq3), (nq1, nmed, nq3), gain, verdict = classify(
                b, n, metric["better"], metric["bound"])
            if workload in invalid:
                verdict = "invalid"
            print(f"{workload:12s} {metric['name']:15s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}]  "
                  f"delta {100 * (nmed - bmed) / bmed:+.1f}% (bound {100 * metric['bound']:.0f}%)  {verdict}")


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("sweep", "compare"):
        sys.exit(__doc__)
    {"sweep": sweep, "compare": compare}[sys.argv[1]](sys.argv[2:])
