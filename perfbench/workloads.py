"""Workload definitions: the operations of one pass and their correctness gate.

Every operation is an in-process call to ``abclab.cli.main(argv)`` or to a
public library function, looked up on the module at call time so that a
traced pass sees the patched functions.  The benchmark seed reaches the
program only as ``--seed`` for simulate, compare-robin and verify.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

# Acceptance-criterion-4 winding partition on abc-1d: four boxes in the
# strongly damped region, off the imaginary axis (count_roots_in_box counts
# zeros minus a0 poles, so a box over the axis would not match direct counts).
WINDING_RE = (-0.5, -0.2)
WINDING_CUTS = (-2.5, -1.2, 0.0, 1.2, 2.5)
WINDING_PANELS = 96
WINDING_MARGIN = 0.04

SPECTRUM_MATCH_TOL = 1e-6   # cli default for --method both
ROBIN_FACTOR = 2.0          # plateau certificate of robin_comparison

# Recorded program defects: (scenario, kind) -> (exit code, reason).  They
# count as failed operations; a run that shows only these stays correct.
KNOWN_DEFECTS = {
    ("special-case", "simulate"): (
        3, "energy increases under matched feedback B1 = -B4 B2 (ROADMAP item 4)"),
}

WORKLOADS = {
    "spectral-pencil": [
        ("timoshenko-strip", "spectrum"),
        ("timoshenko-strip", "verify"),
        ("abc-1d", "winding"),
    ],
    "evolution": [
        ("timoshenko-strip", "simulate"),
        ("timoshenko-strip", "compare-robin"),
    ],
    "interval-sweep": [
        (scen, kind)
        for scen in ("abc-1d", "special-case")
        for kind in ("spectrum", "simulate", "verify", "compare-robin", "essential-proxy")
    ],
}
KINDS = ("spectrum", "verify", "simulate", "compare-robin", "essential-proxy", "winding")


@dataclass(frozen=True)
class Op:
    scenario: str
    kind: str
    argv: tuple          # cli arguments; empty for the library-level winding op
    outputs: tuple       # files the operation writes

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.kind}"


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int
    digest: str
    out_bytes: int
    failure: str | None = None
    headroom: list | None = None   # (quantity, decades) pairs


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Operations of one pass; the same seed gives the same argv."""
    rng = random.Random(seed)
    ops = []
    for scen, kind in WORKLOADS[workload]:
        config = str(SCENARIOS / f"{scen}.json")
        out = str(workdir / f"{scen}.{kind}")
        argv: list[str] = []
        outputs = [out]
        if kind == "spectrum":
            argv = ["spectrum", "--config", config, "--method", "both", "--out", out]
            outputs.append(out + ".pairs.csv")
        elif kind == "simulate":
            argv = ["simulate", "--config", config, "--t-final", "10", "--dt", "0.01",
                    "--out", out]
        elif kind == "verify":
            argv = ["verify", "--config", config, "--out", out]
        elif kind == "compare-robin":
            argv = ["compare-robin", "--config", config, "--out", out]
            outputs.append(out + ".summary.json")
        elif kind == "essential-proxy":
            argv = ["essential-proxy", "--config", config, "--out", out]
        elif kind == "winding":
            outputs = []
        if kind in ("simulate", "verify", "compare-robin"):
            argv += ["--seed", str(rng.randrange(1, 2 ** 31))]
        ops.append(Op(scen, kind, tuple(argv), tuple(outputs)))
    return ops


# ---------------------------------------------------------------------------
# Winding partition (library-level operation)
# ---------------------------------------------------------------------------
def _winding_boxes():
    return [(WINDING_RE[0], WINDING_RE[1], a, b)
            for a, b in zip(WINDING_CUTS, WINDING_CUTS[1:])]


def direct_box_counts(scenario: str) -> list[int]:
    """Direct eigenvalue counts per winding box, with the edge-margin check."""
    import abclab
    import numpy as np

    config = abclab.load_config(SCENARIOS / f"{scenario}.json")
    _, sys_ = abclab.build_system(config)
    ev = abclab.PencilEvaluator(sys_, config.solver.get("exclusion_radius"))
    direct = abclab.direct_spectrum(sys_)
    seeds = direct.eigenvalues[direct.admissible_mask(ev)]
    re0, re1 = WINDING_RE
    inside_strip = (seeds.imag > WINDING_CUTS[0]) & (seeds.imag < WINDING_CUTS[-1])
    margin = min(
        float(np.min(np.abs(seeds.real[inside_strip, None] - np.array(WINDING_RE)))),
        float(np.min(np.abs(seeds.imag[:, None] - np.array(WINDING_CUTS)))))
    if margin <= WINDING_MARGIN:
        raise RuntimeError(f"winding boxes pass within {margin:.3g} of an eigenvalue")
    return [int(np.sum((seeds.real > re0) & (seeds.real < re1)
                       & (seeds.imag > a) & (seeds.imag < b)))
            for _, _, a, b in _winding_boxes()]


def winding_partition(scenario: str) -> list[int]:
    import abclab

    config = abclab.load_config(SCENARIOS / f"{scenario}.json")
    _, sys_ = abclab.build_system(config)
    ev = abclab.PencilEvaluator(sys_, config.solver.get("exclusion_radius"))
    return [abclab.count_roots_in_box(ev, box, WINDING_PANELS) for box in _winding_boxes()]


# ---------------------------------------------------------------------------
# Running and checking one operation
# ---------------------------------------------------------------------------
def _decades(value: float, tol: float) -> float:
    return math.log10(tol / value)


def _csv_column(data: bytes, name: str) -> list[float]:
    rows = csv.DictReader(io.StringIO(data.decode()))
    return [float(r[name]) for r in rows]


def _certify(op: Op, files: list[bytes], stdout: str, counts, expected) -> tuple:
    """(failure or None, headroom pairs) from the operation's own certificate."""
    if op.kind == "spectrum":
        unmatched = re.search(r"unmatched (\d+)", stdout)
        if unmatched is None or int(unmatched.group(1)) != 0:
            return f"spectrum certificate: {stdout.strip()}", []
        dists = [d for d in _csv_column(files[1], "norm_distance") if d > 0]
        return None, ([("spectrum-match", _decades(max(dists), SPECTRUM_MATCH_TOL))]
                      if dists else [])
    if op.kind == "verify":
        report = json.loads(files[0])
        if not report["passed"]:
            bad = sorted(k for k, it in report["items"].items() if not it["passed"])
            return f"verify certificate failed: {bad}", []
        # residual identities only: judged as value <= tol with a small tol
        return None, [(f"verify:{k}", _decades(it["value"], it["tol"]))
                      for k, it in sorted(report["items"].items())
                      if it["tol"] < 1 and 0 < it["value"] <= it["tol"]]
    if op.kind == "compare-robin":
        if not json.loads(files[1])["ratio_factor_ok"]:
            return "compare-robin plateau certificate failed", []
        t = _csv_column(files[0], "t")
        ratio = _csv_column(files[0], "ratio")
        pick = [ratio[min(range(len(t)), key=lambda i: abs(t[i] - t0))] for t0 in (1e-3, 1e-2)]
        return None, [("robin-plateau", _decades(max(pick) / min(pick), ROBIN_FACTOR))]
    if op.kind == "winding" and counts != expected:
        return f"winding counts {counts} != direct counts {expected}", []
    return None, []


def run_op(op: Op, expected_counts=None) -> OpResult:
    """Run one operation closed-loop; time only the call itself."""
    import abclab
    import abclab.cli

    for path in op.outputs:
        Path(path).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    counts = None
    failure = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            if op.kind == "winding":
                counts = winding_partition(op.scenario)
                code = 0
            else:
                code = abclab.cli.main(list(op.argv))
        except SystemExit as exc:   # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:    # a crashing operation is a failed operation
            code, failure = 1, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0

    files = [Path(p).read_bytes() for p in op.outputs if Path(p).exists()]
    payload = b"\0".join(files) if op.kind != "winding" else repr(counts).encode()
    result = OpResult(op, seconds, code, hashlib.sha256(payload).hexdigest(),
                      sum(len(f) for f in files))
    if code != 0:
        lines = (stderr.getvalue() or stdout.getvalue()).strip().splitlines()
        result.failure = failure or f"exit {code}: {lines[-1] if lines else ''}"
    elif len(files) != len(op.outputs):
        result.failure = "missing output file"
    else:
        result.failure, result.headroom = _certify(
            op, files, stdout.getvalue(), counts, expected_counts)
    return result


def is_known_defect(result: OpResult) -> bool:
    known = KNOWN_DEFECTS.get((result.op.scenario, result.op.kind))
    return (known is not None and result.exit_code == known[0]
            and result.failure is not None and result.failure.startswith(f"exit {known[0]}"))
