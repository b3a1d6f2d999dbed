"""Checks of the benchmark harness itself (not part of the abclab suite).

Run from the repository root:  python3 -m pytest -q perfbench
The traced-pass fixtures run one pass of each workload (about 40 s).
"""

import os
import sys
from pathlib import Path

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import abclab  # noqa: E402
import abclab.cli  # noqa: E402
import numpy as np  # noqa: E402

from run import SRC, setup_launcher, tail  # noqa: E402
from tracing import SPANS, Tracer, kernel_flops, layer_metrics  # noqa: E402
from workloads import (OpResult, build_ops, direct_box_counts, is_known_defect,  # noqa: E402
                       run_op)


def traced_pass(workload, tmp_path, seed=1):
    ops = build_ops(workload, seed, tmp_path)
    expected = {op.key: direct_box_counts(op.scenario) for op in ops if op.kind == "winding"}
    with Tracer() as tracer:
        results = [run_op(op, expected.get(op.key)) for op in ops]
    return layer_metrics(tracer, sum(r.out_bytes for r in results)), results


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    out = {}
    for workload in ("spectral-pencil", "evolution", "interval-sweep"):
        out[workload] = traced_pass(workload, tmp_path_factory.mktemp(workload))
    return out


def test_every_binding_is_patched_and_restored():
    original, cond = abclab.resolvent.pencil, np.linalg.cond
    with Tracer() as tracer:
        assert tracer.missing == []
        assert tracer.unpatched_bindings() == []
        for ns in (abclab, abclab.resolvent, abclab.spectral, abclab.cli):
            assert ns.pencil.__wrapped__ is original
        assert np.linalg.cond.__wrapped__ is cond
    for ns in (abclab, abclab.resolvent, abclab.spectral, abclab.cli):
        assert ns.pencil is original
    assert np.linalg.cond is cond


def test_spans_nest_into_self_times(tmp_path):
    with Tracer() as tracer:
        abclab.cli.main(["verify", "--config", str(HERE / "scenarios" / "special-case.json"),
                         "--checks", "pencil-two-routes", "--out", str(tmp_path / "v.json")])
    assert tracer.calls["cli"] == 1
    assert tracer.incl_ns["cli"] == sum(tracer.self_ns[name] for name in tracer.self_ns
                                        if name != "cli") + tracer.self_ns["cli"]


@pytest.mark.parametrize("workload,fires,silent", [
    ("spectral-pencil",
     ["resolvent.pencil.calls", "resolvent.dirichlet.calls", "resolvent.blocks.s",
      "linalg.checked_solve.calls", "linalg.cond_share", "spectral.direct.s",
      "spectral.newton.char_evals", "spectral.winding.char_evals", "model.check_assumptions.s",
      "kernel.cond.calls", "kernel.det.calls", "cli.self_s", "cli.out_bytes"],
     ["dynamics.expm.calls", "dynamics.energy.calls", "dynamics.simulate.s",
      "spectral.newton.failures"]),
    ("evolution",
     ["dynamics.simulate.s", "dynamics.expm.calls", "dynamics.times_per_expm",
      "dynamics.eig_route.s", "dynamics.energy.calls", "dynamics.consistency.s",
      "dynamics.robin.s", "scenario.initial_state.s", "kernel.eig.calls"],
     ["resolvent.pencil.calls", "resolvent.dirichlet.calls", "spectral.newton.char_evals",
      "spectral.winding.char_evals"]),
    ("interval-sweep",
     ["scenario.build_system.calls", "mesh.build.s", "model.assemble.s",
      "blockops.assemble.calls", "resolvent.pencil.calls", "spectral.proxy.s",
      "spectral.special.s", "dynamics.eig_route.s", "dynamics.energy.calls",
      "dynamics.expm.calls", "kernel.eigvals.calls"],
     ["spectral.winding.char_evals"]),
])
def test_spans_fire_where_predicted(layers, workload, fires, silent):
    metrics, results = layers[workload]
    assert [m for m in fires if not metrics[m] > 0] == []
    assert [m for m in silent if metrics[m] != 0] == []
    assert [m for m, v in metrics.items() if v < 0] == []
    assert all(r.failure is None or is_known_defect(r) for r in results)


def test_interval_sweep_builds_fourteen_systems(layers):
    metrics, results = layers["interval-sweep"]
    assert metrics["scenario.build_system.calls"] == 14
    assert metrics["blockops.assemble.calls"] == 14
    assert [r.op.key for r in results if r.failure] == ["special-case/simulate"]


def test_counts_repeat_exactly(layers, tmp_path):
    first, _ = layers["interval-sweep"]
    again, _ = traced_pass("interval-sweep", tmp_path)
    counts = [m for m, v in first.items() if isinstance(v, int)]
    assert "kernel.flops_computed" in counts
    assert {m: again[m] for m in counts} == {m: first[m] for m in counts}


def test_kernel_flops():
    a, b = np.ones((3, 3)), np.ones((3, 2))
    assert kernel_flops("solve", (a, b), {}) == 18 + 36
    assert kernel_flops("solve", (a.astype(complex), b), {}) == 4 * (18 + 36)
    assert kernel_flops("svd", (a,), {"compute_uv": False}) == 72
    assert kernel_flops("eig", (np.ones((4, 4)),), {}) == 25 * 64


def test_span_table_targets_exist():
    import importlib
    for modname, attr in SPANS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)


def test_seed_reaches_only_seeded_subcommands(tmp_path):
    ops = build_ops("interval-sweep", 5, tmp_path)
    assert ops == build_ops("interval-sweep", 5, tmp_path)
    assert ops != build_ops("interval-sweep", 6, tmp_path)
    for op in ops:
        assert ("--seed" in op.argv) == (op.kind in ("simulate", "verify", "compare-robin"))


def test_known_defect_needs_its_exit_code():
    op = build_ops("interval-sweep", 1, Path("."))[6]
    assert op.key == "special-case/simulate"
    assert is_known_defect(OpResult(op, 0.1, 3, "", 0, failure="exit 3: energy increased"))
    assert not is_known_defect(OpResult(op, 0.1, 1, "", 0, failure="exit 1: x"))
    assert not is_known_defect(OpResult(op, 0.1, 0, "", 0, failure="output bytes differ"))


def test_tail_percentile():
    assert tail(list(range(19))).endswith("no percentile has 10 samples beyond it")
    assert tail([float(i) for i in range(100)]) == "n=100, p90=89.1"


def test_setup_launches_read_a_private_bytecode_cache(tmp_path):
    launch = setup_launcher(tmp_path / "pycache")
    compiled = sorted((tmp_path / "pycache").rglob("*.pyc"))
    assert any(str(SRC) in str(path) and path.match("abclab/cli.*.pyc") for path in compiled)
    assert launch() > 0
    # timed launches only read the cache
    assert sorted((tmp_path / "pycache").rglob("*.pyc")) == compiled
