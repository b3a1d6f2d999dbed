"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured quantity and the tolerance it was judged against.  The operator
identities that ``verify`` checks (criterion 2, the resolvent formulas, and
parts of criteria 1 and 9) are stated once, in ``abclab.checks``, and run on
every shipped scenario by ``tests/test_cli.py``.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import dataclasses

import numpy as np

import abclab as ab
from abclab.blockops import reduced_generator
from abclab.dynamics import boundary_dissipation, taylor_expm
from abclab.model import check_assumptions
from abclab.resolvent import dirichlet_operator, factorization_check
from abclab.scenario import override_interval_cells, override_strip_nx


def report(name, value, tol, extra=""):
    print(f"PASS {name}: {value:.3e} (tol {tol:.1e}) {extra}")


# ---------------------------------------------------------------------------
# 1. Dirichlet / identity suite
# ---------------------------------------------------------------------------
def test_criterion_1_dirichlet_identities(abc1d):
    # the flux-trace identity L D = I + B2 D is verify's identity-ld entry
    _, sys = abc1d
    worst_rd = worst_ad = 0.0
    for lam in [complex(0.35 + 0.13 * j, 0.4 + 0.7 * j) for j in range(20)]:
        mu = lam * lam
        D = dirichlet_operator(sys, mu)
        worst_rd = max(worst_rd, np.linalg.norm(sys.ops.R @ D - np.eye(sys.n_b), 2))
        worst_ad = max(worst_ad, np.linalg.norm(sys.ops.A_max @ D - mu * D[:sys.n], 2))
    assert worst_rd < 1e-10
    assert worst_ad < 1e-9
    report("criterion-1 boundary-data reproduction", worst_rd, 1e-10)
    report("criterion-1 interior eigen-equation", worst_ad, 1e-9)


# ---------------------------------------------------------------------------
# 3. Factorization suite
# ---------------------------------------------------------------------------
def test_criterion_3_factorization(abc1d_cfg):
    cfg = override_interval_cells(abc1d_cfg, 32)
    _, sys = ab.build_system(cfg)
    worst = 0.0
    for mu in (2.0, 1 + 1j, -0.5):
        residuals = factorization_check(sys, 1 + 1j, mu)
        worst = max(worst, *residuals)
        assert max(residuals) < 1e-8
    report("criterion-3 triangular factorizations", worst, 1e-8)


# ---------------------------------------------------------------------------
# 4. Spectral oracle equivalence
# ---------------------------------------------------------------------------
def test_criterion_4_spectral_equivalence(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    direct = ab.direct_spectrum(sys)
    seeds = direct.eigenvalues[direct.admissible_mask(ev)]
    roots = ab.pencil_roots(ev, seeds)
    assert roots.eigenvalues.size > 0

    match = ab.match_spectra(seeds, roots.eigenvalues, 1e-6)
    worst = max(match.seed_distance.max(), match.root_distance.max())
    assert worst < 1e-6
    report("criterion-4 two-way spectral matching", worst, 1e-6,
           extra=f"({seeds.size} admissible eigenvalues)")

    # argument-principle counts over a 4-box partition of the strongly damped
    # region; edges verified to keep an honest margin from every eigenvalue
    re0, re1 = -0.5, -0.2
    cuts = [-2.5, -1.2, 0.0, 1.2, 2.5]
    edges_im = np.array(cuts)
    margin = min(
        min(abs(l.real - re0), abs(l.real - re1)) if cuts[0] < l.imag < cuts[-1]
        else np.inf for l in seeds)
    margin = min(margin, float(np.min(np.abs(seeds.imag[:, None] - edges_im[None, :]))))
    assert margin > 0.04
    total = 0
    for a, b in zip(cuts, cuts[1:]):
        count = ab.count_roots_in_box(ev, (re0, re1, a, b), 96)
        inside = int(np.sum((seeds.real > re0) & (seeds.real < re1)
                            & (seeds.imag > a) & (seeds.imag < b)))
        assert count == inside
        total += count
    assert total == int(np.sum((seeds.real > re0) & (seeds.real < re1)
                               & (seeds.imag > cuts[0]) & (seeds.imag < cuts[-1])))
    report("criterion-4 winding-count partition", float(total), float(total),
           extra="(counts match direct counts exactly)")


# ---------------------------------------------------------------------------
# 5. Special-case set equality and the zero-mode dichotomy
# ---------------------------------------------------------------------------
def test_criterion_5_special_case(special_cfg):
    _, sys = ab.build_system(special_cfg)
    srep = ab.special_case_spectrum(sys)      # raises if separation fails
    direct = np.linalg.eigvals(reduced_generator(sys))
    d1 = max(np.min(np.abs(direct - v)) for v in srep.eigenvalues)
    d2 = max(np.min(np.abs(srep.eigenvalues - v)) for v in direct)
    hausdorff = max(d1, d2)
    assert hausdorff < 1e-6

    min_matched = float(np.min(np.abs(direct)))
    assert min_matched > 1e-4

    cfg0 = dataclasses.replace(special_cfg,
                               flags={**special_cfg.flags, "b1_mode": "zero"})
    _, sys0 = ab.build_system(cfg0)
    min_zero = float(np.min(np.abs(np.linalg.eigvals(reduced_generator(sys0)))))
    assert min_zero < 1e-10
    report("criterion-5 characterized-set Hausdorff distance", hausdorff, 1e-6)
    report("criterion-5 matched feedback keeps zero out", min_matched, 1e-4,
           extra="(lower bound)")
    report("criterion-5 plain feedback admits zero", min_zero, 1e-10)


# ---------------------------------------------------------------------------
# 6. Energy laws
# ---------------------------------------------------------------------------
def test_criterion_6_energy_laws(abc1d_cfg):
    cfg0 = dataclasses.replace(abc1d_cfg,
                               coefficients={**abc1d_cfg.coefficients, "d": "0"})
    mesh, sys = ab.build_system(cfg0)
    u0 = ab.initial_state_from_config(cfg0, mesh, sys)
    E = ab.simulate(sys, u0, np.linspace(0, 10, 101), mesh=mesh).energies
    drift = float(np.max(np.abs(E - E[0]))) / E[0]
    assert drift <= 1e-8

    mesh1, sys1 = ab.build_system(abc1d_cfg)
    u1 = ab.initial_state_from_config(abc1d_cfg, mesh1, sys1)
    E1 = ab.simulate(sys1, u1, np.linspace(0, 10, 1001), mesh=mesh1).energies
    worst_step = float(np.max(np.diff(E1)))
    assert worst_step <= 1e-9 * E1[0]

    dt = 1e-4
    e_plus = ab.energy(taylor_expm(sys1.Acal * dt) @ u1, sys1, mesh1)
    e0 = ab.energy(u1, sys1, mesh1)
    rate = (e_plus - e0) / dt
    expected = -boundary_dissipation(u1, sys1)
    rel = abs(rate - expected) / abs(expected)
    assert rel < 0.05
    report("criterion-6 conservative drift", drift, 1e-8)
    report("criterion-6 worst energy increment", worst_step, 1e-9 * E1[0])
    report("criterion-6 decay-rate match", rel, 5e-2)


# ---------------------------------------------------------------------------
# 7. Frozen-boundary (first-order perturbation) comparison
# ---------------------------------------------------------------------------
def test_criterion_7_frozen_boundary(abc1d_cfg, abc1d):
    mesh, sys = abc1d
    u0 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    t = np.geomspace(1e-3, 1e-1, 13)
    rep = ab.robin_comparison(sys, u0, t)
    ratio = rep["ratio"]
    assert np.all(np.isfinite(ratio))
    spread = float(np.max(ratio) / ratio[0])
    assert np.max(ratio) <= 2.0 * ratio[0] and np.min(ratio) >= 0.5 * ratio[0]
    limit_rel = abs(ratio[0] - rep["A2u0_norm"]) / rep["A2u0_norm"]
    assert limit_rel <= 0.2
    report("criterion-7 deviation-rate spread", spread, 2.0)
    report("criterion-7 first-order limit", limit_rel, 2e-1)


# ---------------------------------------------------------------------------
# 8. Refinement proxies
# ---------------------------------------------------------------------------
def test_criterion_8_refinement_proxies(abc1d_cfg):
    systems = [ab.build_system(override_interval_cells(abc1d_cfg, n)) for n in (128, 256)]
    out = ab.compact_resolvent_diagnostic(systems)
    worst = max(max(e["relative_change"]) for e in out["per_k"])
    assert worst < 0.01

    strip = ab.parse_config("""{
      "geometry": {"kind": "strip", "nx": 8, "ny": 8},
      "coefficients": {"c": 1.0, "rho": "0.2", "m": "1", "d": "1", "k": "0"},
      "flags": {"b3_zero": true}
    }""")
    proxy = ab.essential_spectrum_proxy(
        [ab.build_system(override_strip_nx(strip, nx)) for nx in (8, 16, 32)], 0.05)
    counts = [r["count"] for r in proxy["refinements"]]
    assert proxy["nondecreasing"]
    report("criterion-8 low-mode stability under refinement", worst, 1e-2)
    report("criterion-8 boundary accumulation counts", float(counts[-1]),
           float(counts[-1]), extra=f"(counts {counts}, nondecreasing)")


# ---------------------------------------------------------------------------
# 9. Neutral model on the strip
# ---------------------------------------------------------------------------
def test_criterion_9_neutral_model(neutral_cfg, neutral_strip):
    # form symmetry and the ladder's lambda0 are verify's neutral entries
    mesh, sys = neutral_strip
    _, contraction, _ = check_assumptions(sys)
    assert contraction < 1.0

    u0 = ab.initial_state_from_config(neutral_cfg, mesh, sys)
    E = ab.simulate(sys, u0, np.linspace(0, 5, 51), mesh=mesh).energies
    worst_step = float(np.max(np.diff(E)))
    assert worst_step <= 1e-8 * E[0]
    report("criterion-9 ladder contraction", contraction, 1.0)
    report("criterion-9 neutral energy increment", worst_step, 1e-8 * E[0])


# ---------------------------------------------------------------------------
# 10. Convergence sanity
# ---------------------------------------------------------------------------
def test_criterion_10_convergence_order():
    errs = {}
    for n in (32, 64, 128):
        mesh = ab.build_interval_mesh(n, 1.0)
        coeffs = ab.CoefficientSet(c=1.0, rho=np.zeros(2), m=np.ones(2),
                                   d=np.zeros(2), k=np.zeros(2))
        A0 = ab.assemble_block_generator(ab.assemble_wave_operator(mesh, coeffs)).A0
        vals = np.sort(np.linalg.eigvals(A0).real)[::-1]
        errs[n] = [abs(vals[k] + (k * np.pi) ** 2) for k in range(4)]
    assert errs[128][0] < 1e-10  # constants are exact in the kernel
    orders = []
    for k in (1, 2, 3):
        o1 = np.log2(errs[32][k] / errs[64][k])
        o2 = np.log2(errs[64][k] / errs[128][k])
        orders += [o1, o2]
        assert 1.8 <= o1 <= 2.2 and 1.8 <= o2 <= 2.2
    report("criterion-10 observed order", float(np.mean(orders)), 2.2,
           extra="(window [1.8, 2.2]); k=0 exact")
