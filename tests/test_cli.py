import csv
import json

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


def test_compare_robin(tmp_path):
    out = tmp_path / "robin.csv"
    code = main(["compare-robin", "--config", cfg_path("abc-1d"), "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "robin.csv.summary.json").read_text())
    assert summary["ratio_factor_ok"] is True
    assert summary["limit_within_20pct"] is True


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
    assert ab.resolvent.companion_zero_radius(sys, radius) == pytest.approx(
        radius * scale ** -0.5)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    refused = {"zero-mode", "a0-branch"}
    for row in rows:
        lam = complex(float(row["re"]), float(row["im"]))
        member = row["gamma_member"] == "true"
        assert member == ev.is_admissible(lam)
        assert member == (row["classification"] not in refused)
    assert {row["classification"] for row in rows} == classes
