import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abclab as ab
from abclab.checks import CHECKS
from abclab.cli import main

from conftest import CONFIG_DIR


def cfg_path(name):
    return str(CONFIG_DIR / f"{name}.json")


# verify's check table on each shipped config, entry -> item -> tolerance;
# no tolerance may move
COMMON = {
    "abb0-b2-block": {"abb0-b2-block": 1e-10},
    "identity-ld": {"identity-ld": 1e-10},
    "resolvent-a0-formula": {"resolvent-a0-formula": 1e-9},
    "block-dirichlet": {"block-dirichlet": 1e-9},
    "pencil-two-routes": {"pencil-two-routes": 1e-10},
    "factorization": {"factorization": 1e-8, "factorization-shifted": 1e-8, "lm-product": 1e-8},
    "resolvent-acal-formula": {"resolvent-acal-formula": 1e-8},
}
TOLERANCES = {
    "abc-1d": COMMON,
    "special-case": {**COMMON, "special-case-resolvent": {"special-case-resolvent": 1e-8},
                     "spectral-separation": {"spectral-separation": 1e-6}},
    "timoshenko-strip": {**COMMON, "neutral-form-symmetry": {"neutral-form-symmetry": 1e-10},
                         "neutral-ladder": {"ladder-lambda0": 65536.0, "ladder-contraction": 1.0,
                                            "ladder-monotone": 1.0000000001}},
}
TOLERANCES["timoshenko-strip-k0"] = TOLERANCES["timoshenko-strip"]
CONFIG_NAMES = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_check_table(tmp_path, name, check):
    assert {c.name for c in CHECKS} == set().union(*TOLERANCES.values())
    out = tmp_path / "verify.json"
    code = main(["verify", "--config", cfg_path(name), "--checks", check.name,
                 "--out", str(out)])
    if check.name not in TOLERANCES[name]:      # inapplicable here
        assert code == 2
        return
    assert code == 0
    items = json.loads(out.read_text())["items"]
    assert {item: v["tol"] for item, v in items.items()} == TOLERANCES[name][check.name]
    assert all(v["passed"] for v in items.values())


@pytest.mark.parametrize("name,nx", [(name, None) for name in CONFIG_NAMES]
                         + [("timoshenko-strip", 24)])
def test_each_check_alone_gives_the_values_of_the_full_run(tmp_path, name, nx):
    # the pieces the block checks share within a run change no number
    config = cfg_path(name)
    if nx is not None:
        data = json.loads(Path(config).read_text())
        data["geometry"].update(nx=nx, ny=nx)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(data))

    def items(checks):
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", str(config), "--checks", checks,
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())["items"]

    full = items("all")
    for check in CHECKS:
        if check.name in TOLERANCES[name]:
            for item, entry in items(check.name).items():
                assert entry == full.pop(item)
    assert full == {}


def test_verify_unknown_check_is_usage_error(capsys):
    for check in ("nonsense", "neutral-ladder"):     # unknown; inapplicable on abc-1d
        code = main(["verify", "--config", cfg_path("abc-1d"), "--checks", check])
        assert code == 2
        assert f"available here: {sorted(COMMON)}" in capsys.readouterr().err


def test_unread_options_are_rejected():
    for argv in (["verify", "--config", cfg_path("abc-1d"), "--tol", "1"],
                 ["spectrum", "--config", cfg_path("abc-1d"), "--out", "x.csv", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("name", ["abc-1d", "timoshenko-strip"])
def test_spectrum_both_matches(tmp_path, capsys, name):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", cfg_path(name), "--method", "both",
                 "--out", str(out)])
    assert code == 0
    assert "unmatched 0" in capsys.readouterr().out
    assert out.exists() and (tmp_path / "spec.csv.pairs.csv").exists()
    header = out.read_text().splitlines()[0]
    assert header == "re,im,classification,residual,gamma_member"


def test_spectrum_special_on_wrong_config_exits_2(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", cfg_path("abc-1d"), "--method", "special",
                 "--out", str(out)])
    assert code == 2


def test_spectrum_direct_includes_zero_mode(tmp_path):
    # unsprung boundary with plain feedback: zero eigenvalue present
    doc = json.loads((CONFIG_DIR / "special-case.json").read_text())
    doc["flags"]["b1_mode"] = "zero"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", str(p), "--method", "direct", "--out", str(out)])
    assert code == 0
    assert "zero-mode" in out.read_text()


def test_simulate_energy_contract(tmp_path):
    doc = json.loads((CONFIG_DIR / "abc-1d.json").read_text())
    doc["coefficients"]["d"] = "0"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--config", str(p), "--t-final", "2.0",
                 "--dt", "0.05", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,energy,integral_residual,state_norm,u_l2_norm"
    energies = [float(row.split(",")[1]) for row in lines[1:]]
    assert abs(energies[-1] - energies[0]) < 1e-8 * energies[0]


def test_simulate_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["simulate", "--config", cfg_path("abc-1d"), "--t-final", "1.0",
                     "--dt", "0.1", "--out", str(out), "--seed", "123"])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_extends_no_state(tmp_path, monkeypatch):
    # the integral_residual column reads x and the flux Lu alone: simulate
    # never forms a ghost-extended field, and the CSV does not move
    argv = ["simulate", "--config", cfg_path("abc-1d"), "--t-final", "1.0",
            "--dt", "0.01", "--seed", "5", "--out"]
    assert main([*argv, str(tmp_path / "a.csv")]) == 0

    def refuse(self, u, y):
        raise AssertionError("simulate extended a state")

    monkeypatch.setattr(ab.BlockSystem, "extend", refuse)
    assert main([*argv, str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_float_rows_have_the_bytes_of_the_field_formatter(tmp_path):
    # the format-string path for rows of floats writes what csv.writer and
    # _fmt write; a mixed or short row takes the field path
    from abclab.cli import _fmt, _write_csv

    rows = [[0.1, -0.0, 1e300, np.float64(2.0) / 3.0], [float("inf"), float("nan"), 5e-324, 1.0],
            [1.5, 2, None, True], [0.25, "x", 3.0, 4.0], [7.0, 8.0]]
    header = ["a", "b", "c", "d"]
    _write_csv(str(tmp_path / "fast.csv"), header, rows)
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_compare_robin(tmp_path):
    out = tmp_path / "robin.csv"
    code = main(["compare-robin", "--config", cfg_path("abc-1d"), "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "robin.csv.summary.json").read_text())
    assert summary["ratio_factor_ok"] is True
    assert summary["limit_within_20pct"] is True


def test_compare_robin_is_independent_of_the_blas_thread_count(tmp_path):
    # nx=ny=24: at nx=16 a dense BLAS matvec happens to sum alike at 1 and 2
    # threads, so the shipped strip would not show a thread-dependent sum.
    # simulate's uniform grid takes the action there, so its states and its
    # CSV (energy, integral_residual and u_l2_norm are fixed-order sums) are
    # compared too
    doc = json.loads((CONFIG_DIR / "timoshenko-strip.json").read_text())
    doc["geometry"].update(nx=24, ny=24)
    cfg = tmp_path / "strip24.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        robin, states = tmp_path / f"robin-{threads}.csv", tmp_path / f"states-{threads}.csv"
        simulated = tmp_path / f"simulate-{threads}.csv"
        for argv in (["compare-robin", "--out", str(robin)],
                     ["simulate", "--t-final", "10", "--dt", "0.01", "--dump-states",
                      str(states), "--out", str(simulated)]):
            subprocess.run([sys.executable, "-m", "abclab.cli", *argv, "--config", str(cfg),
                            "--seed", "5"], env=env, check=True, capture_output=True,
                           timeout=300)
        outputs.append((robin.read_bytes(), Path(f"{robin}.summary.json").read_bytes(),
                        states.read_bytes(), simulated.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("nx", [16, 24])
def test_direct_row_order_is_independent_of_the_blas_thread_count(tmp_path, nx):
    # the strip splits by cosine modes: its eigenvalues come from nx + 1
    # small blocks, gathered by np.bincount and eigensolved below the sizes
    # at which BLAS threads, so the rows (classification, gamma_member and
    # the digits of re and im) are the same at 1 and 2 threads.  Before the
    # split the digits moved and only the row order, on values rounded as
    # canonical_order rounds, was the same
    doc = json.loads((CONFIG_DIR / "timoshenko-strip.json").read_text())
    doc["geometry"].update(nx=nx, ny=nx)
    cfg = tmp_path / "strip.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parent.parent / "src")
    sequences = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"spectrum-{threads}.csv"
        subprocess.run([sys.executable, "-m", "abclab.cli", "spectrum", "--config", str(cfg),
                        "--method", "direct", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        with open(out, newline="", encoding="utf-8") as fh:
            sequences.append([(r["classification"], r["gamma_member"], r["re"], r["im"])
                              for r in csv.DictReader(fh)])
    assert sequences[0] == sequences[1]


def test_essential_proxy_interval(tmp_path):
    out = tmp_path / "ess.json"
    code = main(["essential-proxy", "--config", cfg_path("abc-1d"),
                 "--resolutions", "32,64", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert "compact_resolvent" in data
    assert data["essential_proxy"]["counts"] is None


def test_essential_proxy_strip(tmp_path):
    doc = {
        "geometry": {"kind": "strip", "nx": 8, "ny": 8},
        "coefficients": {"c": 1.0, "rho": "0.2", "m": "1", "d": "1", "k": "0"},
        "flags": {"b3_zero": True},
    }
    p = tmp_path / "strip.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "ess.json"
    code = main(["essential-proxy", "--config", str(p),
                 "--resolutions", "8,16", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    counts = [r["count"] for r in data["essential_proxy"]["refinements"]]
    assert counts == sorted(counts)


def test_io_error_exit_code(tmp_path):
    code = main(["simulate", "--config", cfg_path("abc-1d"), "--t-final", "0.2",
                 "--dt", "0.1", "--out", str(tmp_path / "nodir" / "x.csv")])
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["essential-proxy", "--config", cfg_path("abc-1d"), "--resolutions", "64,x"],
    # 3.33 steps would stop at t = 0.9; 0.4 steps would write only t = 0
    ["simulate", "--config", cfg_path("abc-1d"), "--t-final", "1", "--dt", "0.3"],
    ["simulate", "--config", cfg_path("abc-1d"), "--t-final", "0.004", "--dt", "0.01"],
    # one resolution leaves no refinement to compare
    ["essential-proxy", "--config", cfg_path("abc-1d"), "--resolutions", "64"],
    ["essential-proxy", "--config", cfg_path("timoshenko-strip-k0"), "--resolutions", "8"],
    # a repeated or decreasing resolution compares no refinement
    ["essential-proxy", "--config", cfg_path("abc-1d"), "--resolutions", "64,64"],
    ["essential-proxy", "--config", cfg_path("timoshenko-strip-k0"), "--resolutions", "8,8"],
    ["essential-proxy", "--config", cfg_path("abc-1d"), "--resolutions", "128,64"],
    ["essential-proxy", "--config", cfg_path("abc-1d"), "--resolutions", "64,128,128"],
    # a tolerance that is not finite and positive, whatever the method
    ["spectrum", "--config", cfg_path("abc-1d"), "--method", "both", "--tol", "nan"],
    ["spectrum", "--config", cfg_path("abc-1d"), "--method", "pencil", "--tol", "nan"],
    ["spectrum", "--config", cfg_path("abc-1d"), "--method", "both", "--tol", "-1"],
    ["spectrum", "--config", cfg_path("abc-1d"), "--method", "direct", "--tol", "0"],
    ["essential-proxy", "--config", cfg_path("timoshenko-strip-k0"), "--resolutions", "8,16",
     "--epsilon", "nan"],
    ["essential-proxy", "--config", cfg_path("abc-1d"), "--epsilon", "inf"],
    # a compatible-random seed is a non-negative integer
    ["simulate", "--config", cfg_path("abc-1d"), "--t-final", "1", "--dt", "0.1",
     "--seed", "-1"],
    ["compare-robin", "--config", cfg_path("abc-1d"), "--seed", "-1"],
    ["verify", "--config", cfg_path("abc-1d"), "--seed", "-1"],
    ["essential-proxy", "--config", cfg_path("abc-1d"), "--seed", "-1"],
    # a check named twice would run twice, the second run's items replacing the first's
    ["verify", "--config", cfg_path("abc-1d"), "--checks", "factorization,factorization"],
], ids=["resolutions", "partial-step", "no-step", "one-resolution-interval",
        "one-resolution-strip", "repeated-resolution-interval", "repeated-resolution-strip",
        "decreasing-resolutions", "repeated-last-resolution", "tol-nan-both", "tol-nan-pencil", "tol-negative",
        "tol-zero", "epsilon-nan", "epsilon-inf", "seed-simulate", "seed-compare-robin",
        "seed-verify", "seed-essential-proxy", "repeated-check"])
def test_malformed_run_exits_2_with_one_line(tmp_path, argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "abclab.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("t_final,dt,rows", [("1", "0.1", 11), ("0.3", "0.1", 4),
                                             ("1", "1", 2)])
def test_simulate_takes_whole_steps(tmp_path, t_final, dt, rows):
    # t_final / dt within 1e-9 of a whole number runs that many steps and ends at t_final
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg_path("abc-1d"), "--t-final", t_final,
                 "--dt", dt, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == rows
    assert float(lines[-1].split(",")[0]) == pytest.approx(float(t_final), rel=1e-12)


def test_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"bogus": 1}')
    code = main(["verify", "--config", str(p)])
    assert code == 2


def test_simulate_rk4_warns_on_coarse_grid(tmp_path, recwarn):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--config", cfg_path("abc-1d"), "--t-final", "0.5",
                 "--dt", "0.25", "--method", "rk4", "--out", str(out)])
    assert code == 0
    assert any("stability bound" in str(w.message) for w in recwarn.list)


def test_spectrum_certification_failure_exits_1(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", cfg_path("abc-1d"), "--method", "both",
                 "--out", str(out), "--tol", "1e-20"])
    assert code == 1


def test_spectrum_pencil_covers_multiple_eigenvalues(tmp_path):
    # the special-case boundary branch is a multiplicity-n_b eigenvalue;
    # deduplicated roots must still cover every admissible seed
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", cfg_path("special-case"),
                 "--method", "pencil", "--out", str(out)])
    assert code == 0


# ---------------------------------------------------------------------------
# Every subcommand on every shipped scenario, with the documented exit code
# ---------------------------------------------------------------------------
SUBCOMMANDS = {
    "spectrum": ["--method", "both"],
    "simulate": ["--t-final", "10", "--dt", "0.01"],
    "verify": [],
    "compare-robin": [],
    "essential-proxy": [],
}
# README, "Reference scenarios": every other pair exits 0
NONZERO_EXITS = {
    ("special-case", "simulate"): (3, "energy increased"),
    ("timoshenko-strip", "essential-proxy"): (2, "requires B3 = 0"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_shipped_configs_exit_as_documented(tmp_path, capsys, name, command):
    code = main([command, "--config", cfg_path(name), "--out", str(tmp_path / "out"),
                 *SUBCOMMANDS[command]])
    expected, message = NONZERO_EXITS.get((name, command), (0, ""))
    assert code == expected
    assert message in capsys.readouterr().err


def test_config_warnings_reach_stderr(tmp_path, capsys):
    # no shipped config parses with a warning; a neutral strip with variable
    # rho alone does, and its assembly is then refused with the usual exit code
    assert not any(ab.load_config(cfg_path(name)).warnings for name in CONFIG_NAMES)
    doc = json.loads((CONFIG_DIR / "timoshenko-strip.json").read_text())
    doc["geometry"].update(nx=4, ny=4)
    doc["coefficients"]["rho"] = "1 + 0.5*z"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    code = main(["spectrum", "--config", str(p), "--method", "direct",
                 "--out", str(tmp_path / "spec.csv")])
    assert code == 2
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("warning: neutral model with variable rho")
    assert second.startswith("error: [restricted-symmetry]")


NEUTRAL_INTERVAL = ("abc-1d", {}, {"rho": "1 + 0.5*z"})
NEUTRAL_STRIP_RHO_M = ("timoshenko-strip", {"nx": 6, "ny": 6},
                       {"rho": "1 + 0.5*x", "m": "1 + 0.5*x"})
FORM_ONLY = ["verify", "--checks", "neutral-form-symmetry"]
FORM_REFUSED = "error: unknown or inapplicable check(s) ['neutral-form-symmetry']"


@pytest.mark.parametrize("scenario,argv,code,error", [
    (NEUTRAL_INTERVAL, ["spectrum", "--method", "direct"], 0, None),
    (NEUTRAL_INTERVAL, ["simulate", "--t-final", "1", "--dt", "0.1"], 0, None),
    (NEUTRAL_INTERVAL, ["verify"], 0, None),
    (NEUTRAL_INTERVAL, FORM_ONLY, 2, FORM_REFUSED),
    (NEUTRAL_STRIP_RHO_M, ["spectrum", "--method", "direct"], 0, None),
    (NEUTRAL_STRIP_RHO_M, ["verify"], 0, None),
    (NEUTRAL_STRIP_RHO_M, FORM_ONLY, 2, FORM_REFUSED),
], ids=["interval-spectrum", "interval-simulate", "interval-verify", "interval-verify-form",
        "strip-rho-m-spectrum", "strip-rho-m-verify", "strip-rho-m-verify-form"])
def test_neutral_variable_coefficients_run_where_assembly_allows(tmp_path, capsys, scenario,
                                                                 argv, code, error):
    # the well-posedness warning is printed first; the run then goes on (a
    # strip where rho alone varies is refused at assembly:
    # test_config_warnings_reach_stderr).  verify runs every check but
    # neutral-form-symmetry, whose form needs constant rho and m.
    name, geometry, coefficients = scenario
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc["geometry"].update(geometry)
    doc["coefficients"].update(coefficients)
    doc["flags"].update(neutral=True, neutral_m_zero=doc["geometry"]["kind"] == "interval")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    assert main([argv[0], "--config", str(p), "--out", str(tmp_path / "out"), *argv[1:]]) == code
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: neutral model with variable rho")
    assert err[-1].startswith(error or "warning: ")


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_overflowing_operator_block_is_refused(tmp_path, capsys, command):
    # B3 = -k/m and B4 = -d/m overflow for a subnormal boundary mass
    doc = json.loads((CONFIG_DIR / "abc-1d.json").read_text())
    doc["coefficients"].update(rho="1e-310", m="1e-310", d="1")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    code = main([command, "--config", str(p), "--out", str(tmp_path / "out"),
                 *SUBCOMMANDS[command]])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: operator block B3 has non-finite entries"]


@pytest.mark.parametrize("radius,classes", [
    (5.0, {"zero-mode", "a0-branch"}),
    (0.1, {"zero-mode", "a0-branch", "pencil-root"}),
])
def test_exclusion_radius_is_one_radius_in_the_mu_plane(tmp_path, radius, classes):
    # gamma_member and the classification agree row by row at a set radius
    doc = json.loads((CONFIG_DIR / "abc-1d.json").read_text())
    doc["solver"]["exclusion_radius"] = radius
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(p), "--method", "direct",
                 "--out", str(out)]) == 0
    config = ab.load_config(p)
    _, sys = ab.build_system(config)
    ev = ab.PencilEvaluator(sys, config.solver["exclusion_radius"])
    scale = max(1.0, float(abs(sys.eig_A0).max()))
    assert ab.resolvent.exclusion_radii(sys, radius) == pytest.approx(
        (radius, radius * scale ** -0.5))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    refused = {"zero-mode", "a0-branch"}
    for row in rows:
        lam = complex(float(row["re"]), float(row["im"]))
        member = row["gamma_member"] == "true"
        assert member == ev.is_admissible(lam)
        assert member == (row["classification"] not in refused)
    assert {row["classification"] for row in rows} == classes
