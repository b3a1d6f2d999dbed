"""Repeat the benchmark over seeds and summarise the run-to-run spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline/NAME.json

Runs every workload once per seed for the ``run_seconds`` of BENCHMARK.json,
one run after another, then one traced run per workload with the first seed.
For every end-to-end metric it reports the median and the quartile spread
(q3 - q1) / median over the runs, as ``statistics.quantiles(values, n=4)``
gives the quartiles, and flags gated metrics whose spread is not below a
third of their bound in BENCHMARK.json.  ``--out`` writes the summary, the
per-run values and the traced per-layer split as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOAD_NAMES  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = HERE / "_work" / f"record-{workload}-{seed}-{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
            stdout=subprocess.PIPE, text=True, check=True)
        record = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed result line: {sorted(result)}")
    return record


def spread(values: list[float]) -> dict:
    """Median and quartiles; the spread is undefined for a zero median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = seed_list(args.seeds)
    result = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in WORKLOAD_NAMES:
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        result.setdefault("environment", runs[0]["environment"])
        entry = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failures": sorted({f for r in runs for f in r["failures"]}),
            "passes": [len(r["passes"]) for r in runs],
            "values": {}, "summary": {},
        }
        print(f"{workload}: correct {all(entry['correct'])}, "
              f"failed {sum(entry['failed'])} of {sum(entry['attempted'])} operations",
              flush=True)
        for name in runs[0]["end_to_end"]:
            values = [r["end_to_end"][name] for r in runs]
            entry["values"][name] = values
            summ = spread(values) if len(values) >= 2 else {"median": values[0], "spread": None}
            entry["summary"][name] = summ
            bound = bounds.get(name)
            flag = ""
            if bound is not None and summ["spread"] is not None:
                ok = summ["spread"] < bound / 3
                steady = steady and ok
                flag = f"bound {bound}, {'ok' if ok else 'NOT below bound/3'}"
            shown = "n/a" if summ["spread"] is None else f"{summ['spread']:.4f}"
            print(f"  {name:<20} median {summ['median']:<12.6g} spread {shown:<8} {flag}",
                  flush=True)
        if not args.no_trace:
            traced = one_run(workload, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                               "per_layer": traced["per_layer"]}
            print(f"  traced run: overhead {traced['per_layer']['trace.overhead_s']:.4g} s")
        result["workloads"][workload] = entry
    result["steady"] = steady
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"steady: {steady}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
