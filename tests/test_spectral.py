import dataclasses
import json
import re

import numpy as np
import pytest

import abclab as ab
import abclab._linalg as la
from abclab.blockops import cosine_modes, reduced_dofs, reduced_generator
from abclab.errors import AssumptionError, NumericalError
from abclab.spectral import beta_separation

from conftest import CONFIG_DIR, traced_peak, wave_system


# ---------------------------------------------------------------------------
# direct spectrum
# ---------------------------------------------------------------------------
def test_direct_residuals_small(abc1d):
    _, sys = abc1d
    rep = ab.direct_spectrum(sys)
    assert float(np.max(rep.residuals)) < 1e-8


def test_direct_zero_mode_for_unsprung_boundary(special_cfg):
    cfg = dataclasses.replace(special_cfg,
                              flags={**special_cfg.flags, "b1_mode": "zero"})
    _, sys = ab.build_system(cfg)
    rep = ab.direct_spectrum(sys)
    assert "zero-mode" in rep.classification
    assert np.min(np.abs(rep.eigenvalues)) < 1e-10


def test_direct_neumann_wave_frequencies():
    # decoupled boundary (rho = d = k = 0): nonzero eigenvalues are the
    # discrete interior frequencies +-i k pi c up to O(h^2)
    mesh, sys = wave_system(n_cells=64, rho="0")
    rep = ab.direct_spectrum(sys)
    freqs = np.sort(np.unique(np.round(
        rep.eigenvalues.imag[rep.eigenvalues.imag > 0.1], 8)))[:3]
    for k, f in enumerate(freqs, start=1):
        assert abs(f - k * np.pi) < (k * np.pi) ** 3 / 64 ** 2


def test_classification_exhaustive_exclusive(abc1d):
    _, sys = abc1d
    rep = ab.direct_spectrum(sys)
    allowed = {"pencil-root", "a0-branch", "b4-branch", "zero-mode"}
    assert set(rep.classification) <= allowed
    assert len(rep.classification) == rep.eigenvalues.size


# ---------------------------------------------------------------------------
# characteristic function and Newton roots
# ---------------------------------------------------------------------------
def test_characteristic_trivial_model():
    mesh, sys = wave_system(n_cells=16, rho="0")
    ev = ab.PencilEvaluator(sys)
    for lam in (0.7 + 0.3j, 2.0):
        assert ab.characteristic_value(ev, lam) == pytest.approx(lam ** sys.n_b)


def test_characteristic_nonzero_far_right(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    lam = 10.0 + float(np.sqrt(np.max(np.abs(sys.eig_A0))))
    assert abs(ab.characteristic_value(ev, lam)) > 0


def test_characteristic_vanishes_at_direct_eigenvalues(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    rep = ab.direct_spectrum(sys)
    for lam in rep.eigenvalues[rep.admissible_mask(ev)]:
        chi = abs(ab.characteristic_value(ev, lam))
        assert chi < 1e-6 * max(1.0, abs(lam)) ** sys.n_b


def test_log_derivative_matches_central_difference(abc1d, special, neutral_strip):
    for _, sys in (abc1d, special, neutral_strip):
        ev = ab.PencilEvaluator(sys)
        for lam in (0.8 + 0.9j, 1.5 + 0.3j, 2.0 + 1.1j, -0.4 + 1.3j):
            step = 1e-7 * (1.0 + abs(lam))
            chi = ab.characteristic_value(ev, lam)
            fd = (ab.characteristic_value(ev, lam + step)
                  - ab.characteristic_value(ev, lam - step)) / (2.0 * step) / chi
            assert abs(ab.log_derivative(ev, lam) - fd) <= 1e-7 * abs(fd)


def test_exact_root_stops_newton_and_blocks_contour(special):
    # B3 = 0 and B1 = -B4 B2 make P(lam) = B4 = -I exactly, so lam = -1
    # makes lam - P(lam) exactly singular
    _, sys = special
    ev = ab.PencilEvaluator(sys)
    assert ab.log_derivative(ev, -1.0) == complex(np.inf)
    roots = ab.pencil_roots(ev, [-1.0])
    assert roots.eigenvalues.tolist() == [-1.0]
    with pytest.raises(NumericalError, match="passes through a root"):
        ab.count_roots_in_box(ev, (-1.0, 0.5, -0.5, 0.5), 8)
    assert ab.count_roots_in_box(ev, (-1.5, 0.5, -0.5, 0.5), 8) == 2


def test_pencil_roots_from_direct_seeds(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    rep = ab.direct_spectrum(sys)
    seeds = rep.eigenvalues[rep.admissible_mask(ev)]
    roots = ab.pencil_roots(ev, seeds, max_iter=10)
    assert roots.eigenvalues.size == seeds.size
    assert not roots.extras["failures"]
    moved = max(np.min(np.abs(roots.eigenvalues - s)) for s in seeds)
    assert moved < 1e-6


def test_pencil_roots_excludes_adjacent_seeds(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    bad_seed = complex(np.sqrt(-sys.eig_A0.real[5]) * 1j)  # on the restricted branch
    roots = ab.pencil_roots(ev, [bad_seed])
    assert bad_seed in roots.gamma_excluded


def test_pencil_roots_refinement_stability(abc1d_cfg):
    import abclab.scenario as sc

    roots = {}
    for n in (64, 128):
        cfg = sc.override_interval_cells(abc1d_cfg, n)
        _, sys = ab.build_system(cfg)
        ev = ab.PencilEvaluator(sys)
        rep = ab.direct_spectrum(sys)
        seeds = rep.eigenvalues[rep.admissible_mask(ev)]
        rts = ab.pencil_roots(ev, seeds).eigenvalues
        rts = rts[np.argsort(np.abs(rts))]
        roots[n] = rts
    for k in range(10):
        a = roots[64][k]
        b = roots[128][np.argmin(np.abs(roots[128] - a))]
        assert abs(a - b) / abs(a) < 0.01


# ---------------------------------------------------------------------------
# winding counts
# ---------------------------------------------------------------------------
def test_count_empty_box(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    assert ab.count_roots_in_box(ev, (-0.5, -0.2, 4.5, 5.5), 48) == 0


def test_count_single_root_and_additivity(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    # one simple root at about -0.325 + 0.746i
    assert ab.count_roots_in_box(ev, (-0.5, -0.2, 0.3, 1.2), 64) == 1
    c1 = ab.count_roots_in_box(ev, (-0.5, -0.2, 0.3, 0.8), 64)
    c2 = ab.count_roots_in_box(ev, (-0.5, -0.2, 0.8, 1.2), 64)
    assert c1 + c2 == 1


def test_count_inconclusive_raises(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    # eigenvalue at -0.3248 + 0.7464i almost on the edge: 2 panels per edge
    # cannot resolve the winding
    with pytest.raises(NumericalError, match="refine"):
        ab.count_roots_in_box(ev, (-0.7449, -0.3248, 0.2, 1.2), 2)


# ---------------------------------------------------------------------------
# special case
# ---------------------------------------------------------------------------
def test_special_case_equals_reduced_direct(special):
    _, sys = special
    srep = ab.special_case_spectrum(sys)
    direct = np.linalg.eigvals(reduced_generator(sys))
    d1 = max(np.min(np.abs(direct - v)) for v in srep.eigenvalues)
    d2 = max(np.min(np.abs(srep.eigenvalues - v)) for v in direct)
    assert max(d1, d2) < 1e-6


def test_direct_spectrum_holds_three_state_size_arrays(neutral_strip):
    # the eigenvectors or their [re | im] parts, the product and one working
    # array at most (traced 2.2 N^2); the full temporaries of the residual
    # vectors and the complex copy of the real product took it to 4.0
    _, sys = neutral_strip
    peak = traced_peak(lambda: ab.direct_spectrum(sys))
    assert peak <= 3 * sys.state_dim ** 2 * 16


def test_special_case_display_pairs_are_dropped_one_by_one(special):
    # the dense inverse, the display and the reduced generator (traced
    # 3.4 N^2 at N = 70, where the lifts and small blocks weigh more); a
    # pair kept alive while the next one is formed took it to 6.8
    _, sys = special
    peak = traced_peak(lambda: ab.special_case_spectrum(sys))
    assert peak <= 4 * sys.state_dim ** 2 * 16


def test_special_case_branch_structure(special):
    # d/m = 1 means B4 = -I: the boundary branch collapses to -1 and the
    # interior branch is +-i sqrt|sigma(A0)|
    _, sys = special
    srep = ab.special_case_spectrum(sys)
    b4 = srep.eigenvalues[np.array(srep.classification) == "b4-branch"]
    assert np.allclose(b4, -1.0, atol=1e-12)
    a0 = srep.eigenvalues[np.array(srep.classification) == "a0-branch"]
    expected = np.sort_complex(np.concatenate(
        [[1j * np.sqrt(-m), -1j * np.sqrt(-m)] for m in sys.eig_A0.real]))
    assert np.allclose(np.sort_complex(a0), expected, atol=1e-8)


def test_special_case_separation_condition_passes(special):
    # real negative boundary multiplier: beta^2 > 0 stays away from the
    # (negative) restricted spectrum
    _, sys = special
    srep = ab.special_case_spectrum(sys)  # would raise on (4.4) failure
    assert srep.method == "special-case"


def test_special_case_refuses_on_the_separation_margin(special):
    # the margin is min over beta in sigma(B4), mu in sigma(A0) of
    # |beta^2 - mu|; the spectrum is refused once it is within tol * scale,
    # naming the beta that attains it
    _, sys = special
    betas = np.linalg.eigvals(sys.ops.B4)
    margin, beta = beta_separation(sys, betas)
    assert margin == pytest.approx(min(abs(b * b - mu) for b in betas for mu in sys.eig_A0),
                                   rel=1e-14)
    assert min(abs(beta * beta - mu) for mu in sys.eig_A0) == pytest.approx(margin, rel=1e-14)
    scale = max(1.0, sys.spectral_scale)
    ab.special_case_spectrum(sys, tol=0.99 * margin / scale)
    with pytest.raises(AssumptionError, match=re.escape(
            f"beta={beta:.6g} of B4 has beta^2 within {margin:.3e}")):
        ab.special_case_spectrum(sys, tol=1.01 * margin / scale)


def test_special_case_rejects_spring(abc1d):
    _, sys = abc1d
    with pytest.raises(AssumptionError, match="B3"):
        ab.special_case_spectrum(sys)


def test_special_case_rejects_unmatched_feedback(special_cfg):
    cfg = dataclasses.replace(special_cfg,
                              flags={**special_cfg.flags, "b1_mode": "zero"})
    _, sys = ab.build_system(cfg)
    with pytest.raises(AssumptionError, match="B1"):
        ab.special_case_spectrum(sys)


# ---------------------------------------------------------------------------
# essential range and proxies
# ---------------------------------------------------------------------------
def test_essential_range_piecewise():
    w = np.full(4, 0.25)
    out = ab.essential_range(np.array([-2.0, -2.0, -2.0, -2.0]), w)
    assert out == [(-2.0, 1.0)]
    out = ab.essential_range(np.array([-1.0, -1.0, -3.0, -3.0]), w)
    assert out == [(-3.0, 0.5), (-1.0, 0.5)]


def test_essential_range_matches_diagonal_eigenvalues():
    vals = np.array([-1.0, -0.5, -1.0, -2.0])
    rng = ab.essential_range(vals, np.ones(4))
    assert sorted(v for v, _ in rng) == sorted(set(np.linalg.eigvals(np.diag(vals)).real))


def strip_proxy_cfg(d_expr="1", rho="0.2"):
    return ab.parse_config(json.dumps({
        "geometry": {"kind": "strip", "nx": 8, "ny": 8},
        "coefficients": {"c": 1.0, "rho": rho, "m": "1", "d": d_expr, "k": "0"},
        "flags": {"b3_zero": True},
    }))


def strip_proxy_systems(cfg, refinements):
    import abclab.scenario as sc

    return [ab.build_system(sc.override_strip_nx(cfg, nx)) for nx in refinements]


def test_proxy_counts_grow_with_boundary_dimension():
    out = ab.essential_spectrum_proxy(
        strip_proxy_systems(strip_proxy_cfg(d_expr="0"), [8, 16]), 0.05)
    counts = [r["count"] for r in out["refinements"]]
    assert counts[1] > counts[0]
    assert out["nondecreasing"]


def test_proxy_interval_reports_finite_boundary(abc1d):
    out = ab.essential_spectrum_proxy([abc1d], 0.05)
    assert out["counts"] is None
    assert "empty essential spectrum" in out["note"]


def test_proxy_epsilon_monotonicity():
    systems = strip_proxy_systems(strip_proxy_cfg(), [8])
    small = ab.essential_spectrum_proxy(systems, 0.05)["refinements"][0]["count"]
    large = ab.essential_spectrum_proxy(systems, 0.10)["refinements"][0]["count"]
    assert large >= small


def test_compact_resolvent_diagnostic(abc1d_cfg):
    import abclab.scenario as sc

    systems = [ab.build_system(sc.override_interval_cells(abc1d_cfg, n)) for n in (32, 64)]
    out = ab.compact_resolvent_diagnostic(systems)
    assert out["resolutions"] == [32, 64]
    worst = max(max(e["relative_change"]) for e in out["per_k"])
    assert worst < 0.01
    assert out["max_eig_squared_growth_ratio"][0] == pytest.approx(4.0, rel=0.1)


# ---------------------------------------------------------------------------
# mirror-split eigenvalues of the refinement proxies
# ---------------------------------------------------------------------------
def _as_diagnosed(vals):
    """Zero-mode count and nonzero eigenvalues, sorted as the diagnostic sorts."""
    zero_tol = 1e-6 * max(1.0, float(np.max(np.abs(vals))))
    nonzero = vals[np.abs(vals) > zero_tol]
    return vals.size - nonzero.size, nonzero[np.lexsort((nonzero.imag, nonzero.real,
                                                         np.abs(nonzero)))]


def _same_spectrum(vals, ref, tol):
    """Every value within ``tol`` of one of the other set, both ways."""
    dist = np.abs(vals[:, None] - ref[None, :])
    return vals.size == ref.size and max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= tol


def _recorded_eigvals(monkeypatch):
    shapes = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda mat: shapes.append(mat.shape) or real(mat))
    return shapes, real


def _recorded_eig(monkeypatch):
    shapes = []
    real = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda mat: shapes.append(mat.shape) or real(mat))
    return shapes


@pytest.mark.parametrize("name", ["abc1d_cfg", "special_cfg"])
def test_mirror_split_matches_full_eigensolve(name, request, monkeypatch):
    import abclab.scenario as sc

    mesh, sys = ab.build_system(sc.override_interval_cells(request.getfixturevalue(name), 256))
    shapes, full_eigvals = _recorded_eigvals(monkeypatch)
    split = la.eigvals(sys.Acal, sys.split)
    # (u, v, x, y) on 257 nodes and 2 ends: the even part keeps the middle node
    assert shapes == [(260, 260), (258, 258)]
    full = full_eigvals(sys.Acal)
    (z_split, nz_split), (z_full, nz_full) = _as_diagnosed(split), _as_diagnosed(full)
    assert z_split == z_full
    assert np.all(np.abs(nz_split[:10] - nz_full[:10]) <= 1e-10 * np.abs(nz_full[:10]))
    big_split, big_full = np.max(np.abs(split)), np.max(np.abs(full))
    assert abs(big_split - big_full) <= 1e-12 * big_full


def test_mirror_split_on_biharmonic_interval(biharmonic_sys, monkeypatch):
    # the state nodes are 1..31 of 0..32, so the mirror maps them onto themselves
    mesh, sys = biharmonic_sys
    shapes, full_eigvals = _recorded_eigvals(monkeypatch)
    split = la.eigvals(sys.Acal, sys.split)
    assert shapes == [(34, 34), (32, 32)]
    full = full_eigvals(sys.Acal)
    assert _same_spectrum(split, full, 1e-10 * np.max(np.abs(full)))


def _one_sided_interval():
    mesh = ab.build_interval_mesh(32, 1.0, gamma1_sides=("right",))
    coeffs = ab.CoefficientSet(c=1.0, rho=np.ones(1), m=np.ones(1), d=np.ones(1),
                               k=np.ones(1))
    return mesh, ab.assemble_block_generator(ab.assemble_wave_operator(mesh, coeffs))


@pytest.mark.parametrize("build", [lambda: wave_system(64, d="1 + x", k="1"),
                                   _one_sided_interval],
                         ids=["d=1+x", "gamma1-right-only"])
def test_asymmetric_interval_keeps_the_full_eigensolve(build, monkeypatch):
    mesh, sys = build()
    shapes, full_eigvals = _recorded_eigvals(monkeypatch)
    vals = la.eigvals(sys.Acal, sys.split)
    assert shapes == [sys.Acal.shape]
    assert vals.tobytes() == full_eigvals(sys.Acal).tobytes()


@pytest.mark.parametrize("reduced", [False, True], ids=["Acal", "reduced"])
def test_shipped_strip_splits_the_eigensolve(reduced, monkeypatch):
    # the neutral strip's assembly is mirror-exact: nx = 16 puts 9 of the 17
    # columns in the even part, so (u, v, x, y) splits into 324 + 288 dofs.
    # It splits by its cosine modes; the mirror is that of its assembly
    # without them
    mesh, sys = ab.build_system(ab.load_config(CONFIG_DIR / "timoshenko-strip-k0.json"))
    mirror = ab.assemble_block_generator(sys.ops).split
    mat, perm = ((reduced_generator(sys), mirror.restrict(reduced_dofs(sys)))
                 if reduced else (sys.Acal, mirror))
    shapes, full_eigvals = _recorded_eigvals(monkeypatch)
    split = la.eigvals(mat, perm)
    assert shapes == ([(315, 315), (280, 280)] if reduced else [(324, 324), (288, 288)])
    full = full_eigvals(mat)
    assert _same_spectrum(split, full, 1e-10 * np.max(np.abs(full)))


def test_mirror_split_on_exactly_symmetric_strip(monkeypatch):
    # nx = 8: 9 columns mirror about the middle one, (u, v, y) of 81, 81, 9 dofs
    mesh, sys = ab.build_system(strip_proxy_cfg())
    mirror = ab.assemble_block_generator(sys.ops).split.restrict(reduced_dofs(sys))
    shapes, full_eigvals = _recorded_eigvals(monkeypatch)
    split = la.eigvals(reduced_generator(sys), mirror)
    assert shapes == [(95, 95), (76, 76)]
    full = full_eigvals(reduced_generator(sys))
    assert _same_spectrum(split, full, 1e-10 * np.max(np.abs(full)))


@pytest.mark.parametrize("name", ["abc-1d", "special-case", "timoshenko-strip",
                                  "timoshenko-strip-k0"])
def test_split_direct_spectrum_agrees_with_the_full_eigensolve(name, monkeypatch):
    # each pair (lam, x) is exact for Acal + E with ||E||_2 = its residual r,
    # floored at eig's own backward error N eps ||Acal||; a double eigenvalue
    # with a Jordan block (the zero modes) moves by at most about
    # sqrt(r ||Acal||) under it, every other one by less
    mesh, sys = ab.build_system(ab.load_config(CONFIG_DIR / f"{name}.json"))
    shapes = _recorded_eig(monkeypatch)
    split = ab.direct_spectrum(sys)
    # the strips take the cosine modes (one stacked eigensolve of nx + 1
    # blocks), the intervals the mirror's two halves
    if name.startswith("timoshenko-strip"):
        assert len(shapes) == 1 and np.prod(shapes[0][:2]) == sys.state_dim
    else:
        assert len(shapes) == 2 and sum(rows for rows, _ in shapes) == sys.state_dim
    full = ab.direct_spectrum(dataclasses.replace(sys, split=None, lift_split=None))
    assert shapes[-1] == sys.Acal.shape
    norm = np.linalg.norm(sys.Acal, 2)
    resid = np.maximum(np.maximum(split.residuals, full.residuals),
                       sys.state_dim * np.finfo(float).eps * norm)
    assert split.classification == full.classification
    assert np.all(np.abs(split.eigenvalues - full.eigenvalues) <= np.sqrt(resid * norm))
    assert np.max(split.residuals) < 1e-8


# ---------------------------------------------------------------------------
# cosine-mode split of the x-constant strip
# ---------------------------------------------------------------------------
def _strip(name="timoshenko-strip", **geometry):
    cfg = ab.load_config(CONFIG_DIR / f"{name}.json")
    return ab.build_system(dataclasses.replace(cfg, geometry={**cfg.geometry, **geometry}))


@pytest.mark.parametrize("name, geometry", [
    ("timoshenko-strip", {}), ("timoshenko-strip-k0", {}),
    ("timoshenko-strip", {"nx": 24, "ny": 24}), ("timoshenko-strip", {"nx": 12, "ny": 20})],
    ids=["strip", "k0", "nx24", "nx12-ny20"])
def test_mode_split_matches_the_unsplit_eigensolve(name, geometry, monkeypatch):
    # tolerance, stated before measuring: both eigensolves are backward
    # stable, each pair exact for Acal + E with ||E|| <= N eps ||Acal||, so a
    # well-conditioned eigenvalue moves by about tol = N eps ||Acal|| on
    # either route (2-norm bounded by holder_norm).  The defective zero pair
    # (a Jordan block) splits to about sqrt(tol ||Acal||) instead: it is
    # matched as a cluster, the same count within that radius of zero on
    # both routes, and every other eigenvalue is matched both ways within tol
    mesh, sys = _strip(name, **geometry)
    nx, ny = mesh.grid_shape[0] - 1, mesh.grid_shape[1] - 1
    assert isinstance(sys.split, la.ModeSplit)
    shapes = _recorded_eig(monkeypatch)
    split = ab.direct_spectrum(sys)
    assert shapes == [(nx + 1, 2 * (ny + 1) + 2, 2 * (ny + 1) + 2)]
    full = np.linalg.eigvals(sys.Acal)
    norm = la.holder_norm(sys.Acal)
    tol = sys.state_dim * np.finfo(float).eps * norm
    cluster = np.sqrt(tol * norm)
    vals = split.eigenvalues
    near = np.abs(vals) <= cluster
    assert np.sum(near) == np.sum(np.abs(full) <= cluster) >= 1
    assert _same_spectrum(vals[~near], full[np.abs(full) > cluster], tol)
    assert np.max(split.residuals) < tol


def test_mode_split_of_the_reduced_generator(monkeypatch):
    # (u, v, y) keeps rows 0..2 ny + 1 and 2 ny + 3 of every column, so the
    # rule restricts the modes to 17 blocks of 35 rows
    mesh, sys = _strip("timoshenko-strip-k0")
    keep = reduced_dofs(sys)
    modes = sys.split.restrict(keep)
    assert modes.modes.shape == (2, keep.size) and set(modes.modes[1]) == set(range(35))
    shapes, full_eigvals = _recorded_eigvals(monkeypatch)
    split = la.eigvals(reduced_generator(sys), modes)
    assert shapes == [(17, 35, 35)]
    full = full_eigvals(reduced_generator(sys))
    assert _same_spectrum(split, full, 1e-10 * np.max(np.abs(full)))
    # a subset that leaves a column without one of the rows the others keep
    assert sys.split.restrict(keep[1:]) is None
    assert la.restrict(None, keep) is None


@pytest.mark.parametrize("d, shapes", [
    ("1 - 0.5*cos(6.283185307179586*(x - 0.5))", [(324, 324), (288, 288)]),
    ("1 + 0.5*cos(6.283185307179586*x)", [(612, 612)])], ids=["mirror-exact", "rounded"])
def test_x_varying_strip_falls_back_to_the_mirror(d, shapes, monkeypatch):
    # d = 1 + cos(2 pi x)/2 varies along Gamma1: no modes.  Written about the
    # middle, its samples are mirror images bit for bit (x - 0.5 is exact on
    # the grid and cos is even), so the eigensolve takes the mirror halves;
    # written in x, 2 pi x and 2 pi (1 - x) round differently, so no split
    cfg = ab.load_config(CONFIG_DIR / "timoshenko-strip-k0.json")
    mesh, sys = ab.build_system(
        dataclasses.replace(cfg, coefficients={**cfg.coefficients, "d": d}))
    assert isinstance(sys.split, la.MirrorSplit) == (len(shapes) == 2)
    assert isinstance(sys.split, (la.MirrorSplit, type(None)))
    recorded = _recorded_eig(monkeypatch)
    rep = ab.direct_spectrum(sys)
    assert recorded == shapes
    assert np.max(rep.residuals) < 1e-8


def test_y_varying_coefficient_keeps_the_modes(monkeypatch):
    # a diffusion field that varies only with height is the same operator
    # in every column
    cfg = ab.parse_config(json.dumps({
        "geometry": {"kind": "strip", "nx": 8, "ny": 6}, "model": "divergence",
        "coefficients": {"a": "1 + 0.5*y", "rho": "1", "m": "1", "d": "1", "k": "1"},
        "flags": {"neutral": True}}))
    mesh, sys = ab.build_system(cfg)
    assert isinstance(sys.split, la.ModeSplit)
    shapes = _recorded_eig(monkeypatch)
    rep = ab.direct_spectrum(sys)
    assert shapes == [(9, 16, 16)]
    full = np.linalg.eigvals(sys.Acal)
    nonzero = np.abs(full) > 1e-6
    assert _same_spectrum(rep.eigenvalues[np.abs(rep.eigenvalues) > 1e-6], full[nonzero],
                          1e-10 * np.max(np.abs(full)))
    # the same field varying along x does not
    cfg = dataclasses.replace(cfg, coefficients={**cfg.coefficients, "a": "1 + 0.5*x"})
    assert not isinstance(ab.build_system(cfg)[1].split, la.ModeSplit)


@pytest.mark.parametrize("fixture", ["abc1d", "special", "biharmonic_sys", "divergence_sys"])
def test_intervals_never_get_modes(fixture, request):
    mesh, sys = request.getfixturevalue(fixture)
    assert not isinstance(sys.split, la.ModeSplit) and cosine_modes(mesh, sys.ops) is None
