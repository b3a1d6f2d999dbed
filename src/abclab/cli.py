"""Command-line entry point.

Commands: spectrum, simulate, verify, compare-robin, essential-proxy.
Exit codes: 0 success, 1 numerical-certification failure, 2 hypothesis or
configuration violation, 3 physics-invariant violation, 4 I/O error.
Identical config + seed produce byte-identical outputs; floats are written
with 17 significant digits so every value round-trips exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys as _sys

import numpy as np

from . import __version__
from ._linalg import rel_residual, checked_solve
from .dynamics import robin_comparison, simulate
from .errors import (AbclabError, AssumptionError, ConfigurationError, ModelError,
                     NumericalError, PhysicsError, SpectralParameterError)
from .model import check_assumptions, neutral_form_matrix
from .reporting import VerificationReport
from .resolvent import (PencilEvaluator, block_dirichlet, dirichlet_operator,
                        factorization_check, identity_LD, pencil,
                        pencil_via_blocks, resolvent_A0_block, resolvent_Acal)
from .scenario import (ScenarioConfig, build_system, initial_state_from_config,
                       load_config, override_interval_cells, override_strip_nx,
                       serialize_config)
from .spectral import (compact_resolvent_diagnostic, direct_spectrum,
                       essential_spectrum_proxy, pencil_roots,
                       special_case_spectrum)

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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _config_metadata(config: ScenarioConfig, seed) -> dict:
    digest = hashlib.sha256(serialize_config(config).encode()).hexdigest()
    return {
        "config_sha256": digest,
        "geometry": config.geometry,
        "seed": seed,
        "tool_version": __version__,
    }


def _write_csv(path: str, header: list[str], rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _write_json(path: str | None, obj):
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------
def _spectrum_rows(report, admissible):
    rows = []
    for lam, cls, res, adm in zip(report.eigenvalues, report.classification,
                                  report.residuals, admissible):
        rows.append([lam.real, lam.imag, cls, res, adm])
    return rows


def cmd_spectrum(config: ScenarioConfig, method: str, out: str, tol: float | None,
                 seed=None) -> int:
    mesh, sys = build_system(config)
    ev = PencilEvaluator(sys, config.solver.get("exclusion_radius"))
    header = ["re", "im", "classification", "residual", "gamma_member"]
    match_tol = tol if tol is not None else 1e-6

    if method == "special":
        rep = special_case_spectrum(sys, tol=match_tol)
        adm = rep.admissible_mask(ev)
        _write_csv(out, header, _spectrum_rows(rep, adm))
        worst = max(rep.extras["resolvent_display_residuals"].values())
        print(f"special-case set of {rep.eigenvalues.size} eigenvalues; "
              f"resolvent display residual {worst:.3e}")
        return EXIT_OK if worst < 1e-8 else EXIT_NUMERICAL

    direct = direct_spectrum(ev)
    if method == "direct":
        adm = direct.admissible_mask(ev)
        _write_csv(out, header, _spectrum_rows(direct, adm))
        worst = float(np.max(direct.residuals))
        print(f"{direct.eigenvalues.size} eigenvalues, max residual {worst:.3e}")
        return EXIT_OK if worst < 1e-8 else EXIT_NUMERICAL

    adm_mask = direct.admissible_mask(ev)
    seeds = direct.eigenvalues[adm_mask]
    roots = pencil_roots(ev, seeds, max_iter=config.solver.get("newton_max_iter", 50),
                         cert_tol=config.solver.get("cert_tol", 1e-6))
    if method == "pencil":
        adm = roots.admissible_mask(ev)
        _write_csv(out, header, _spectrum_rows(roots, adm))
        # multiple eigenvalues deduplicate to one root, so certify coverage
        # of every seed rather than a root count
        if roots.eigenvalues.size:
            covered = all(
                float(np.min(np.abs(roots.eigenvalues - s))) <= match_tol * (1 + abs(s))
                for s in seeds)
        else:
            covered = seeds.size == 0
        print(f"{roots.eigenvalues.size} certified pencil roots from "
              f"{seeds.size} admissible seeds; coverage {'ok' if covered else 'FAILED'}")
        return EXIT_OK if covered and not roots.extras["failures"] else EXIT_NUMERICAL

    if method != "both":
        raise ConfigurationError(f"unknown spectrum method {method!r}")
    _write_csv(out, header, _spectrum_rows(direct, adm_mask))
    pairs = []
    worst = 0.0
    unmatched = 0
    for lam in seeds:
        if roots.eigenvalues.size:
            dist = np.abs(roots.eigenvalues - lam)
            i = int(np.argmin(dist))
            norm_dist = float(dist[i]) / (1.0 + abs(lam))
            pairs.append([lam.real, lam.imag, roots.eigenvalues[i].real,
                          roots.eigenvalues[i].imag, norm_dist])
            worst = max(worst, norm_dist)
            if norm_dist > match_tol:
                unmatched += 1
        else:
            unmatched += 1
    for root in roots.eigenvalues:
        norm_dist = float(np.min(np.abs(seeds - root))) / (1.0 + abs(root)) \
            if seeds.size else np.inf
        if norm_dist > match_tol:
            unmatched += 1
    _write_csv(out + ".pairs.csv",
               ["direct_re", "direct_im", "pencil_re", "pencil_im", "norm_distance"],
               pairs)
    print(f"matched {len(pairs)} admissible eigenvalues; "
          f"max matching distance {worst:.3e}; unmatched {unmatched}")
    return EXIT_OK if (worst <= match_tol and unmatched == 0) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------
def cmd_simulate(config: ScenarioConfig, t_final: float, dt: float, out: str,
                 method: str = "exact", seed=None, dump_states: str | None = None) -> int:
    if t_final <= 0 or dt <= 0:
        raise ConfigurationError("t_final and dt must be positive")
    mesh, sys = build_system(config)
    u0 = initial_state_from_config(config, mesh, sys, seed_override=seed)
    n_steps = int(round(t_final / dt))
    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)
    traj = simulate(sys, u0, t_grid, method=method, mesh=mesh)

    w = sys.ops.state_weights
    rows = []
    integral = traj.consistency.get("integral", np.zeros(t_grid.size))
    for i, t in enumerate(t_grid):
        state = traj.states[i]
        u = state[:sys.n]
        rows.append([
            t,
            traj.energies[i] if traj.energies is not None else None,
            integral[i] if i < len(integral) else None,
            float(np.linalg.norm(state)),
            float(np.sqrt(np.sum(w * np.abs(u) ** 2))),
        ])
    _write_csv(out, ["t", "energy", "integral_residual", "state_norm", "u_l2_norm"], rows)
    if dump_states:
        _write_csv(dump_states, ["t"] + [f"s{i}" for i in range(sys.state_dim)],
                   [[t, *traj.states[i]] for i, t in enumerate(t_grid)])

    d = np.real(sys.ops.coeffs.d)
    if traj.energies is not None and np.min(d) >= 0:
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
def _sample_lambdas(count: int = 20):
    return [complex(0.35 + 0.13 * j, 0.4 + 0.7 * j) for j in range(count)]


def _verify_registry(config: ScenarioConfig):
    """Check name -> callable(mesh, sys, report). Applicability via flags."""
    flags = config.flags
    reg = {}

    def chk_abb0(mesh, sys, rep):
        n = sys.n
        resid = float(np.max(np.abs(sys.Abb0[2 * n:, :n] - sys.ops.B2)))
        rep.add("abb0-b2-block", resid, 1e-10,
                note="kernel restriction collapses the flux row to the trace coupling")

    def chk_identity(mesh, sys, rep):
        worst = max(identity_LD(sys, (lam * lam)) for lam in _sample_lambdas())
        rep.add("identity-ld", worst, 1e-10)

    def chk_ra0(mesh, sys, rep):
        worst = 0.0
        m1 = 2 * sys.n + sys.n_b
        for lam in (1 + 1j, 0.6 + 1.7j):
            formula = resolvent_A0_block(sys, lam)
            dense = checked_solve(lam * np.eye(m1, dtype=complex) - sys.Abb0,
                                  np.eye(m1, dtype=complex), what="(lam - Abb0)")
            worst = max(worst, rel_residual(formula, dense, reference=dense))
        rep.add("resolvent-a0-formula", worst, 1e-9)

    def chk_blockd(mesh, sys, rep):
        worst = 0.0
        n = sys.n
        for lam in (0.8 + 0.9j, 1.5 + 0.3j):
            D = dirichlet_operator(sys, lam * lam)
            blk = block_dirichlet(sys, lam)
            worst = max(worst, float(np.max(np.abs(sys.ops.R @ D - np.eye(sys.n_b)))))
            worst = max(worst, float(np.max(np.abs(sys.ops.A_max @ D - lam * lam * D[:n]))))
            worst = max(worst, float(np.max(np.abs(blk[n:2 * n] - lam * blk[:n]))))
            worst = max(worst, float(np.max(np.abs(blk[2 * n:] - (sys.ops.L @ D) / lam))))
        rep.add("block-dirichlet", worst, 1e-9)

    def chk_pencil(mesh, sys, rep):
        ev = PencilEvaluator(sys)
        worst = max(
            float(np.max(np.abs(pencil(ev, lam) - pencil_via_blocks(ev, lam))))
            for lam in (0.8 + 0.9j, 1.5 + 0.3j, 2.0 + 1.1j))
        rep.add("pencil-two-routes", worst, 1e-10)

    def chk_fact(mesh, sys, rep):
        sub = factorization_check(sys, 1 + 1j, 2.0)
        for name, item in sub.items.items():
            rep.add(name, item.value, item.tol)

    def chk_racal(mesh, sys, rep):
        lam = 1 + 1j
        size = sys.state_dim
        formula = resolvent_Acal(sys, lam)
        dense = checked_solve(lam * np.eye(size, dtype=complex) - sys.Acal,
                              np.eye(size, dtype=complex), what="(lam - Acal)")
        rep.add("resolvent-acal-formula",
                rel_residual(formula, dense, reference=dense), 1e-8)

    reg["abb0-b2-block"] = chk_abb0
    reg["identity-ld"] = chk_identity
    reg["resolvent-a0-formula"] = chk_ra0
    reg["block-dirichlet"] = chk_blockd
    reg["pencil-two-routes"] = chk_pencil
    reg["factorization"] = chk_fact
    reg["resolvent-acal-formula"] = chk_racal

    if flags["b3_zero"] and flags["b1_mode"] == "minus_b4b2":
        def chk_special(mesh, sys, rep):
            srep = special_case_spectrum(sys)
            worst = max(srep.extras["resolvent_display_residuals"].values())
            rep.add("special-case-resolvent", worst, 1e-8)

        def chk_sep(mesh, sys, rep):
            scale = max(1.0, float(np.max(np.abs(sys.eig_A0))))
            betas = np.linalg.eigvals(sys.ops.B4)
            margin = min(float(np.min(np.abs(b * b - sys.eig_A0))) for b in betas)
            rep.add("spectral-separation", margin / scale, 1e-6,
                    passed=margin / scale > 1e-6,
                    note="min scaled distance of beta^2 to the restricted spectrum")

        reg["special-case-resolvent"] = chk_special
        reg["spectral-separation"] = chk_sep

    if flags["neutral"]:
        def chk_form(mesh, sys, rep):
            F = neutral_form_matrix(sys.ops, mesh)
            resid = float(np.linalg.norm(F - F.T.conj()) / max(1.0, np.linalg.norm(F)))
            rep.add("neutral-form-symmetry", resid, 1e-10)

        def chk_ladder(mesh, sys, rep):
            sub = check_assumptions(sys, mesh)
            for name in ("ladder-lambda0", "ladder-contraction", "ladder-monotone"):
                item = sub.items[name]
                rep.add(name, item.value, item.tol, passed=item.passed, note=item.note)

        reg["neutral-form-symmetry"] = chk_form
        reg["neutral-ladder"] = chk_ladder
    return reg


def cmd_verify(config: ScenarioConfig, checks, out: str | None, seed=None) -> int:
    registry = _verify_registry(config)
    if checks in (None, "all", ["all"]):
        selected = list(registry)
    else:
        selected = list(checks)
        unknown = [c for c in selected if c not in registry]
        if unknown:
            raise ConfigurationError(
                f"unknown or inapplicable check(s) {unknown}; "
                f"available here: {sorted(registry)}")
    mesh, sys = build_system(config)
    report = VerificationReport(metadata=_config_metadata(config, seed))
    for name in selected:
        registry[name](mesh, sys, report)
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
    t_grid = np.concatenate([
        np.geomspace(1e-3, 1e-1, 21),
        np.linspace(0.2, 1.0, 9),
    ])
    _, report = robin_comparison(sys, u0, t_grid)
    rows = [[t, d, r] for t, d, r in zip(report["t"], report["dev_state"], report["ratio"])]
    _write_csv(out, ["t", "deviation", "ratio"], rows)
    _write_json(out + ".summary.json", {
        "M_est": report["M_est"],
        "A2u0_norm": report["A2u0_norm"],
        "ratio_factor_ok": report["ratio_factor_ok"],
        "limit_within_20pct": report["limit_within_20pct"],
        **_config_metadata(config, seed),
    })
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

    def common(p, out_required=True):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=out_required, default=None, help="output path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the compatible-random seed")
        p.add_argument("--tol", type=float, default=None, help="override tolerance")

    p = sub.add_parser("spectrum", help="direct/pencil/special spectra")
    common(p)
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
        if args.command == "spectrum":
            return cmd_spectrum(config, args.method, args.out, args.tol, seed=args.seed)
        if args.command == "simulate":
            return cmd_simulate(config, args.t_final, args.dt, args.out,
                                method=args.method, seed=args.seed,
                                dump_states=args.dump_states)
        if args.command == "verify":
            checks = "all" if args.checks == "all" else args.checks.split(",")
            return cmd_verify(config, checks, args.out, seed=args.seed)
        if args.command == "compare-robin":
            return cmd_compare_robin(config, args.out, seed=args.seed)
        if args.command == "essential-proxy":
            res = None
            if args.resolutions:
                res = [int(r) for r in args.resolutions.split(",")]
            return cmd_essential_proxy(config, res, args.epsilon, args.out,
                                       seed=args.seed)
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
