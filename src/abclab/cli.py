"""Command-line entry point.

Commands: spectrum, simulate, verify, compare-robin, essential-proxy.
Exit codes: 0 success, 1 numerical-certification failure, 2 hypothesis or
configuration violation, 3 physics-invariant violation, 4 I/O error.
Identical config + seed produce byte-identical outputs at a fixed BLAS thread
count (compare-robin, and simulate on grids the exponential's action steps, at
any thread count; spectrum --method direct keeps its row order, not its
digits); floats are written with 17 significant digits so every value
round-trips exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys as _sys

import numpy as np

from . import __version__
from .checks import select_checks
from .dynamics import robin_comparison, simulate, trajectory_consistency
from .errors import (AbclabError, AssumptionError, ConfigurationError, ModelError,
                     NumericalError, PhysicsError, SpectralParameterError)
from .reporting import VerificationReport
# ``pencil`` stays bound here: perfbench's tracer patches every namespace
# that binds it, and its tests read it off this module.
from .resolvent import PencilEvaluator, pencil  # noqa: F401
from .scenario import (ScenarioConfig, build_system, initial_state_from_config,
                       load_config, override_interval_cells, override_strip_nx,
                       serialize_config)
from .spectral import (compact_resolvent_diagnostic, direct_spectrum,
                       essential_spectrum_proxy, match_spectra,
                       pencil_roots, special_case_spectrum)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _json_default(obj):
    """numpy values as Python ones; complex numbers as {"re", "im"}."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _config_metadata(config: ScenarioConfig, seed) -> dict:
    digest = hashlib.sha256(serialize_config(config).encode()).hexdigest()
    return {"config_sha256": digest, "geometry": dict(config.geometry), "seed": seed,
            "tool_version": __version__}


def _write_csv(path: str, header: list[str], rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _write_json(path: str | None, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------
def _spectrum_rows(report, members):
    return [[lam.real, lam.imag, cls, res, member] for lam, cls, res, member
            in zip(report.eigenvalues, report.classification, report.residuals, members)]


def cmd_spectrum(config: ScenarioConfig, method: str, out: str, tol: float = 1e-6) -> int:
    mesh, sys = build_system(config)
    ev = PencilEvaluator(sys, config.solver.get("exclusion_radius"))
    header = ["re", "im", "classification", "residual", "gamma_member"]

    if method == "special":
        rep = special_case_spectrum(sys, tol=tol)
        _write_csv(out, header, _spectrum_rows(rep, rep.admissible_mask(ev)))
        worst = max(rep.extras["resolvent_display_residuals"].values())
        print(f"special-case set of {rep.eigenvalues.size} eigenvalues; "
              f"resolvent display residual {worst:.3e}")
        return EXIT_OK if worst < 1e-8 else EXIT_NUMERICAL

    direct = direct_spectrum(ev)
    # direct_spectrum classifies by the evaluator's refusal
    members = np.array([cls not in ("zero-mode", "a0-branch") for cls in direct.classification],
                       dtype=bool)
    if method == "direct":
        _write_csv(out, header, _spectrum_rows(direct, members))
        worst = float(np.max(direct.residuals))
        print(f"{direct.eigenvalues.size} eigenvalues, max residual {worst:.3e}")
        return EXIT_OK if worst < 1e-8 else EXIT_NUMERICAL

    seeds = direct.eigenvalues[members]
    roots = pencil_roots(ev, seeds, max_iter=config.solver.get("newton_max_iter", 50),
                         cert_tol=config.solver.get("cert_tol", 1e-6))
    match = match_spectra(seeds, roots.eigenvalues, tol)
    if method == "pencil":
        _write_csv(out, header, _spectrum_rows(roots, roots.admissible_mask(ev)))
        print(f"{roots.eigenvalues.size} certified pencil roots from "
              f"{seeds.size} admissible seeds; coverage {'ok' if match.covered else 'FAILED'}")
        return EXIT_OK if match.covered and not roots.extras["failures"] else EXIT_NUMERICAL

    if method != "both":
        raise ConfigurationError(f"unknown spectrum method {method!r}")
    _write_csv(out, header, _spectrum_rows(direct, members))
    _write_csv(out + ".pairs.csv",
               ["direct_re", "direct_im", "pencil_re", "pencil_im", "norm_distance"],
               [[lam.real, lam.imag, root.real, root.imag, dist]
                for lam, root, dist in match.pairs])
    print(f"matched {len(match.pairs)} admissible eigenvalues; "
          f"max matching distance {match.worst:.3e}; unmatched {match.unmatched}")
    return EXIT_OK if match.unmatched == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------
def cmd_simulate(config: ScenarioConfig, t_final: float, dt: float, out: str,
                 method: str = "exact", seed=None, dump_states: str | None = None) -> int:
    if not (t_final > 0 and dt > 0):
        raise ConfigurationError("t_final and dt must be positive")
    ratio = t_final / dt
    n_steps = round(ratio) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * n_steps:
        raise ConfigurationError(
            f"t_final / dt = {ratio:.17g} is not within 1e-9 (relative) of a whole "
            "number of steps >= 1")
    mesh, sys = build_system(config)
    u0 = initial_state_from_config(config, mesh, sys, seed_override=seed)
    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)
    traj = simulate(sys, u0, t_grid, method=method, mesh=mesh)

    integral = trajectory_consistency(traj, sys)
    state_norm = np.linalg.norm(traj.states, axis=1)
    u_l2_norm = np.sqrt(np.einsum("tn,n->t", np.abs(traj.states[:, :sys.n]) ** 2,
                                  sys.ops.state_weights))
    rows = [[t, traj.energies[i] if traj.energies is not None else None,
             integral[i], state_norm[i], u_l2_norm[i]]
            for i, t in enumerate(t_grid)]
    _write_csv(out, ["t", "energy", "integral_residual", "state_norm", "u_l2_norm"], rows)
    if dump_states:
        _write_csv(dump_states, ["t"] + [f"s{i}" for i in range(sys.state_dim)],
                   [[t, *traj.states[i]] for i, t in enumerate(t_grid)])

    if traj.energies is not None:
        e0 = traj.energies[0]
        slack = 1e-9 * max(e0, 1e-300)
        increases = np.diff(traj.energies)
        if np.any(increases > slack):
            worst = float(np.max(increases))
            print(f"energy increased by {worst:.3e} in one step (slack {slack:.3e}); "
                  "the energy must be nonincreasing when the boundary resistivity "
                  "is nonnegative", file=_sys.stderr)
            return EXIT_PHYSICS
        print(f"energy: E(0)={e0:.6e}, E(T)={traj.energies[-1]:.6e}, nonincreasing ok")
    else:
        print("energy diagnostics skipped (weights undefined for this scenario)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
def cmd_verify(config: ScenarioConfig, checks, out: str | None, seed=None) -> int:
    mesh, sys = build_system(config)
    selected = select_checks(config.flags, sys, checks)
    report = VerificationReport(metadata=_config_metadata(config, seed))
    for check in selected:
        check.run(mesh, sys, report)
    _write_json(out, report.to_dict())
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# compare-robin
# ---------------------------------------------------------------------------
def cmd_compare_robin(config: ScenarioConfig, out: str, seed=None) -> int:
    mesh, sys = build_system(config)
    u0 = initial_state_from_config(config, mesh, sys, seed_override=seed)
    t_grid = np.concatenate([np.geomspace(1e-3, 1e-1, 21), np.linspace(0.2, 1.0, 9)])
    report = robin_comparison(sys, u0, t_grid)
    rows = [[t, d, r] for t, d, r in zip(report["t"], report["dev_state"], report["ratio"])]
    _write_csv(out, ["t", "deviation", "ratio"], rows)
    summary = ("M_est", "A2u0_norm", "ratio_factor_ok", "limit_within_20pct")
    _write_json(out + ".summary.json",
                {**{key: report[key] for key in summary}, **_config_metadata(config, seed)})
    print(f"M_est={report['M_est']:.6e}, ||A2 u0||={report['A2u0_norm']:.6e}, "
          f"plateau ok={report['ratio_factor_ok']}")
    return EXIT_OK if report["ratio_factor_ok"] else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# essential-proxy
# ---------------------------------------------------------------------------
def cmd_essential_proxy(config: ScenarioConfig, resolutions, epsilon: float,
                        out: str | None, seed=None) -> int:
    result = {"metadata": _config_metadata(config, seed)}
    if config.geometry["kind"] == "strip":
        res = resolutions or [8, 16, 32]
        # built one at a time: the proxy refuses B3 != 0 after the first build
        systems = (build_system(override_strip_nx(config, nx)) for nx in res)
        result["essential_proxy"] = essential_spectrum_proxy(systems, epsilon)
        ok = result["essential_proxy"]["nondecreasing"]
    else:
        res = resolutions or [64, 128, 256]
        systems = [build_system(override_interval_cells(config, r)) for r in res]
        result["essential_proxy"] = essential_spectrum_proxy(systems, epsilon)
        result["compact_resolvent"] = compact_resolvent_diagnostic(systems)
        changes = [max(e["relative_change"]) for e in result["compact_resolvent"]["per_k"]]
        ok = max(changes) < 0.05 if changes else False
    _write_json(out, result)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _resolutions(text: str) -> list[int]:
    try:
        return [int(r) for r in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--resolutions must be comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abclab",
        description="Finite-difference laboratory for wave equations with "
                    "acoustic, dynamical and neutral boundary conditions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True, seed=True):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=out_required, default=None, help="output path")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the compatible-random seed")

    p = sub.add_parser("spectrum", help="direct/pencil/special spectra")
    common(p, seed=False)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="matching and separation tolerance")
    p.add_argument("--method", choices=["direct", "pencil", "special", "both"],
                   default="direct")

    p = sub.add_parser("simulate", help="time evolution with energy diagnostics")
    common(p)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--method", choices=["exact", "rk4"], default="exact")
    p.add_argument("--dump-states", default=None)

    p = sub.add_parser("verify", help="operator identity suite")
    common(p, out_required=False)
    p.add_argument("--checks", default="all",
                   help="comma-separated check names, or 'all'")

    p = sub.add_parser("compare-robin", help="frozen-boundary comparison")
    common(p)

    p = sub.add_parser("essential-proxy",
                       help="refinement proxies for essential spectrum / "
                            "compact resolvent")
    common(p, out_required=False)
    p.add_argument("--resolutions", default=None,
                   help="comma-separated refinement resolutions")
    p.add_argument("--epsilon", type=float, default=0.05)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        for warning in config.warnings:
            print(f"warning: {warning}", file=_sys.stderr)
        if args.command == "spectrum":
            return cmd_spectrum(config, args.method, args.out, args.tol)
        if args.command == "simulate":
            return cmd_simulate(config, args.t_final, args.dt, args.out,
                                method=args.method, seed=args.seed,
                                dump_states=args.dump_states)
        if args.command == "verify":
            return cmd_verify(config, args.checks.split(","), args.out, seed=args.seed)
        if args.command == "compare-robin":
            return cmd_compare_robin(config, args.out, seed=args.seed)
        if args.command == "essential-proxy":
            res = _resolutions(args.resolutions) if args.resolutions else None
            return cmd_essential_proxy(config, res, args.epsilon, args.out, seed=args.seed)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, AssumptionError, ModelError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, SpectralParameterError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except PhysicsError as exc:
        print(f"physics violation: {exc}", file=_sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return EXIT_IO
    except AbclabError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
