"""abclab benchmark: closed-loop workloads with a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectral-pencil --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

One client runs a workload's operations one after another (a pass) and
repeats the pass, in a fresh interpreter with BLAS pinned to one thread,
until ``--seconds`` would be exceeded, with at least two passes so that
repeated operations can be compared byte for byte.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer split and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import KINDS, build_ops, direct_box_counts, is_known_defect, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spectral-pencil", "evolution", "interval-sweep")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 21
MIN_PASSES = 2

# Fresh interpreter to ready: numpy and abclab imported, scenarios parsed.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
import abclab, abclab.cli
from pathlib import Path
for path in sorted(Path(sys.argv[2]).glob("*.json")):
    abclab.load_config(path)
"""

UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "ratio",
         "cert_headroom_dec": "dec"}
UNITS.update({f"{k.replace('-', '_')}_s": "s" for k in KINDS})


def pinned_env() -> dict:
    """BLAS pinned, and no bytecode caches written outside the benchmark."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _without_paths(obj):
    """numpy's build configuration minus the file paths of the machine that built it."""
    if isinstance(obj, dict):
        return {k: _without_paths(v) for k, v in obj.items()
                if not (k == "path" or k.endswith("directory"))}
    return obj


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": _without_paths(np.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def percentile(values, p: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> str:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = [pm for pm in (500, 900, 990, 999) if n * (1000 - pm) >= 10000]  # per mille
    if not best:
        return f"n={n}, no percentile has 10 samples beyond it"
    p = best[-1] / 10
    return f"n={n}, p{p:g}={percentile(values, p):.6g}"


def setup_launcher(pycache: Path):
    """A function that times one fresh-interpreter launch, reading a private cache.

    One untimed launch first compiles numpy and abclab into ``pycache``, so
    the timed launches neither compile nor depend on whatever ``__pycache__``
    directories earlier runs or test suites left behind.
    """
    env = pinned_env()
    env.pop("PYTHONDONTWRITEBYTECODE")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE / "scenarios")]
    subprocess.run(argv, env=env, check=True)
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    def launch() -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        return time.perf_counter() - t0

    return launch


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Closed loop of passes; returns the full record of the run."""
    launch = None if trace else setup_launcher(workdir / "pycache")
    setup: list[float] = []
    # import before the first pass, so that no pass pays for it
    import abclab  # noqa: F401
    import abclab.cli  # noqa: F401

    ops = build_ops(workload, seed, workdir)
    expected = {op.key: direct_box_counts(op.scenario) for op in ops if op.kind == "winding"}
    first_digest: dict[str, str] = {}
    passes, results, layers = [], [], []
    t_start = time.perf_counter()
    while True:
        if launch:
            # Set-up launches are spread over the run, so that their median
            # sees the same host speed as the passes and not a 3 s window of it.
            due = 1 + int((SETUP_REPEATS - 1) * (time.perf_counter() - t_start) / seconds)
            while len(setup) < min(due, SETUP_REPEATS):
                setup.append(launch())
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer()
        t0 = time.perf_counter()
        pass_results = []
        with tracer if traced else contextlib.nullcontext():
            for op in ops:
                pass_results.append(run_op(op, expected.get(op.key)))
        pass_s = time.perf_counter() - t0
        for r in pass_results:
            ref = first_digest.setdefault(r.op.key, r.digest)
            if r.failure is None and ref != r.digest:
                r.failure = "output bytes differ from the first pass"
        passes.append({"pass_s": pass_s, "traced": traced,
                       "ops": {r.op.key: r.seconds for r in pass_results}})
        results.extend(pass_results)
        if traced:
            if tracer.missing:
                raise RuntimeError(f"traced functions not found: {tracer.missing}")
            layers.append(layer_metrics(tracer, sum(r.out_bytes for r in pass_results)))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["pass_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    while launch and len(setup) < SETUP_REPEATS:
        setup.append(launch())

    failures = [r for r in results if r.failure]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(results),
        "failed": len(failures),
        "correct": all(is_known_defect(r) for r in failures),
        "failures": sorted({f"{r.op.key}: {r.failure}" for r in failures}),
        "passes": passes,
        "environment": environment(seed),
    }
    if trace:
        per_layer = {}
        for name in layers[0]:
            vals = [m[name] for m in layers]
            if isinstance(vals[0], int):
                if len(set(vals)) > 1:
                    raise RuntimeError(f"count {name} differs between traced passes: {vals}")
                per_layer[name] = vals[0]
            else:
                per_layer[name] = statistics.median(vals)
        # each traced pass against the untraced pass just before it, so that
        # host speed drift over the run cancels as far as it can
        per_layer["trace.overhead_s"] = statistics.median(
            b["pass_s"] - a["pass_s"] for a, b in zip(passes, passes[1:]) if b["traced"])
        record["per_layer"] = per_layer
        return record

    samples = {"setup_s": setup, "pass_s": [p["pass_s"] for p in passes]}
    for kind in sorted({op.kind for op in ops}):
        keys = [op.key for op in ops if op.kind == kind]
        samples[f"{kind.replace('-', '_')}_s"] = [sum(p["ops"][k] for k in keys) for p in passes]
    record["samples"] = samples
    e2e = {name: statistics.median(values) for name, values in samples.items()}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["ops_failed_frac"] = len(failures) / len(results)
    headroom = [(q, d) for r in results if r.headroom for q, d in r.headroom]
    if headroom:
        e2e["cert_headroom_dec"] = min(d for _, d in headroom)
        record["cert_limiting"] = min(headroom, key=lambda qd: qd[1])[0]
    record["end_to_end"] = e2e
    return record


def report_lines(rec: dict) -> list[str]:
    env = rec["environment"]
    blas = env["numpy_config"].get("Build Dependencies", {}).get("blas", {})
    lines = [
        f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
        f"passes {len(rec['passes'])}  ops {rec['attempted']}  failed {rec['failed']}  "
        f"correct {rec['correct']}",
        f"  env: python {env['python']}, numpy {env['numpy']} "
        f"({blas.get('name')} {blas.get('version')}), nproc {env['nproc']}, "
        f"BLAS threads {env['blas_threads']}, commit {env['git_commit']}",
        "  closed loop: 1 client, operations run one after another",
    ]
    lines += [f"  FAILED {f}" for f in rec["failures"]]
    if "end_to_end" in rec:
        for name, value in rec["end_to_end"].items():
            note = tail(rec["samples"][name]) if name in rec["samples"] else ""
            if name == "cert_headroom_dec":
                note = f"limited by {rec['cert_limiting']}"
            if name == "ops_failed_frac":
                note = f"{rec['failed']} of {rec['attempted']}"
            lines.append(f"  {name:<22} {value:>14.6g} {UNITS.get(name, ''):<6} {note}")
    else:
        for name, value in rec["per_layer"].items():
            lines.append(f"  {name:<30} {value:>16.6g}")
    return lines


def contract_line(rec: dict, units: dict) -> str:
    source = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
    return json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in units.items()},
    })


def declared_units(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Each workload in its own interpreter; prints every report, then a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "abclab" / "__init__.py").is_file():
        print(f"error: abclab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # pin BLAS before numpy is imported anywhere in this process
    os.environ.update(pinned_env())
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    units = declared_units(bool(args.trace))

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # read the bytecode the set-up launches compile, as they do
    sys.pycache_prefix = str(workdir / "pycache")
    try:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print("\n".join(report_lines(rec)))
    print(contract_line(rec, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
