import dataclasses

import numpy as np
import pytest

import abclab as ab
import abclab._linalg as la
from abclab.blockops import reduced_dofs, reduced_generator
from abclab.errors import AssumptionError, ConfigurationError, NumericalError
from abclab.model import _LADDER_EXPONENTS, check_assumptions

from conftest import hand_lift, load, wave_system


def test_abb0_flux_row_collapses_to_b2(abc1d):
    _, sys = abc1d
    n = sys.n
    assert np.max(np.abs(sys.Abb0[2 * n:, :n] - sys.ops.B2)) < 1e-12


def test_splitting_is_exact(abc1d):
    _, sys = abc1d
    n, _, nb = sys.dims
    assert np.array_equal(sys.Acal, sys.A1cal + sys.A2cal)
    # feedback part lives only in the y-row and has rank <= n_b
    assert np.max(np.abs(sys.A2cal[:2 * n + nb, :])) == 0.0
    assert np.linalg.matrix_rank(sys.A2cal) <= nb


def test_x_column_couples_only_through_b3(abc1d):
    _, sys = abc1d
    n, _, nb = sys.dims
    xcol = sys.Acal[:, 2 * n:2 * n + nb]
    assert np.max(np.abs(xcol[:2 * n + nb, :])) == 0.0
    assert np.array_equal(xcol[2 * n + nb:, :], sys.ops.B3)


def test_zero_feedback_zero_trace_structure():
    # all B_i = 0 (rho = d = k = 0): the y-row vanishes and the x-row
    # reproduces the flux of the extended state
    mesh, sys = wave_system(n_cells=8, rho="0")
    n, _, nb = sys.dims
    assert np.max(np.abs(sys.Acal[2 * n + nb:, :])) == 0.0
    rng = np.random.default_rng(0)
    u = rng.standard_normal(n)
    y = rng.standard_normal(nb)
    state = np.concatenate([u, np.zeros(n), np.zeros(nb), y])
    xdot = (sys.Acal @ state)[2 * n:2 * n + nb]
    assert np.allclose(xdot, sys.ops.L @ sys.extend(u, y), atol=1e-12)


def test_zeroed_boundary_blocks_give_interior_spectrum():
    mesh, sys = wave_system(n_cells=8, rho="1", d="1", k="1")
    n, _, nb = sys.dims
    M = sys.Acal.copy()
    M[2 * n:, :] = 0.0
    M[:, 2 * n:] = 0.0
    vals = np.linalg.eigvals(M)
    roots = np.concatenate([[np.sqrt(complex(m)), -np.sqrt(complex(m))]
                            for m in sys.eig_A0])
    expected = np.concatenate([roots, np.zeros(2 * nb)])
    assert vals.size == expected.size
    assert max(np.min(np.abs(vals - e)) for e in expected) < 1e-6
    assert max(np.min(np.abs(expected - v)) for v in vals) < 1e-6


def test_ghost_elimination_constraint_exact(abc1d):
    _, sys = abc1d
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.standard_normal(sys.n)
        y = rng.standard_normal(sys.n_b)
        ext = sys.extend(u, y)
        assert np.max(np.abs(sys.ops.R @ ext - y)) < 1e-12


def test_acal_upper_block_matches_abb0(abc1d):
    _, sys = abc1d
    m1 = 2 * sys.n + sys.n_b
    assert np.array_equal(sys.Acal[:m1, :m1], sys.Abb0)


def test_restricted_blocks_are_views_of_acal(abc1d):
    _, sys = abc1d
    assert np.shares_memory(sys.Abb0, sys.Acal)
    assert np.shares_memory(sys.Bfrak, sys.Acal)


def test_assembled_system_is_immutable():
    _, sys = wave_system(n_cells=8, rho="1", d="1", k="1")
    for name in ("Acal", "Abb0", "Bfrak", "A0", "eig_A0"):
        with pytest.raises(ValueError):
            getattr(sys, name)[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys.Acal = np.zeros_like(sys.Acal)
    with pytest.raises(ValueError):
        sys.ops.A_max[0, 0] = 0.0
    with pytest.raises(ValueError):
        sys.ops.coeffs.d[0] = 0.0
    # the computed splitting is a fresh array each time, never a view
    assert not np.shares_memory(sys.A1cal, sys.Acal)
    assert not np.shares_memory(sys.A2cal, sys.Acal)


def test_assembled_objects_hash_by_identity(abc1d_cfg):
    builds = [ab.build_system(abc1d_cfg) for _ in range(2)]
    for pick in (lambda mesh, sys: mesh, lambda mesh, sys: sys.ops.coeffs,
                 lambda mesh, sys: sys.ops, lambda mesh, sys: sys,
                 lambda mesh, sys: ab.PencilEvaluator(sys)):
        first, second = (pick(*build) for build in builds)
        assert first != second
        assert len({first, second}) == 2
        assert len({first, first}) == 1 and first in {first}


def test_initial_state_formulas(abc1d):
    _, sys = abc1d
    n, g, nb = sys.dims
    rng = np.random.default_rng(3)
    # f = 0: y0 = j
    jdat = rng.standard_normal(nb)
    state = ab.initial_state(np.zeros(n), rng.standard_normal(n),
                             rng.standard_normal(nb), jdat, sys)
    assert np.allclose(state[2 * n + nb:], jdat)
    # general f with self-consistent ghosts accepted at 1e-10
    f = rng.standard_normal(n)
    ghosts = rng.standard_normal(g)
    f_ext = np.concatenate([f, ghosts])
    j = sys.ops.L @ f_ext
    state = ab.initial_state(f, np.zeros(n), np.zeros(nb), j, sys,
                             tol=1e-10, f_ghosts=ghosts)
    assert np.allclose(state[2 * n + nb:], j - sys.ops.B2 @ f, atol=1e-12)


def test_initial_state_rejects_incompatible(abc1d):
    _, sys = abc1d
    n, g, nb = sys.dims
    rng = np.random.default_rng(4)
    f = rng.standard_normal(n)
    ghosts = rng.standard_normal(g)
    j = sys.ops.L @ np.concatenate([f, ghosts]) + 0.5
    with pytest.raises(ConfigurationError, match="incompatible"):
        ab.initial_state(f, np.zeros(n), np.zeros(nb), j, sys,
                         tol=1e-10, f_ghosts=ghosts)


def test_restriction_neumann_row_sums():
    mesh, sys = wave_system(n_cells=16, rho="0")
    assert np.max(np.abs(sys.A0.sum(axis=1))) < 1e-10


def test_restriction_robin_first_eigenvalue():
    # Robin characteristic equation for rho/m = 1, c = 1:
    # (1 - mu^2) sin mu + 2 mu cos mu = 0, top eigenvalue -mu1^2
    def char(mu):
        return (1 - mu ** 2) * np.sin(mu) + 2 * mu * np.cos(mu)

    a, b = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (a + b)
        if char(a) * char(mid) <= 0:
            b = mid
        else:
            a = mid
    lam_exact = -0.25 * (a + b) ** 2
    mesh, sys = wave_system(n_cells=64, rho="1")
    top = float(np.max(np.linalg.eigvals(sys.A0).real))
    assert abs(top - lam_exact) < 5e-4  # O(h^2) at h = 1/64


def test_restriction_biharmonic_symmetric(biharmonic_sys):
    mesh, sys = biharmonic_sys
    # s != 0 keeps the operator weighted-symmetric only up to the boundary
    # feedback; the s = 0 case is covered in test_model.  Here: rank check.
    assert sys.A0.shape == (sys.n, sys.n)
    assert np.linalg.matrix_rank(sys.ops.R[:, sys.n:]) == 2


def test_reduced_generator_zero_mode_dichotomy(special_cfg):
    import dataclasses

    mesh, sys = ab.build_system(special_cfg)
    red = reduced_generator(sys)
    assert np.min(np.abs(np.linalg.eigvals(red))) > 1e-4  # matched feedback

    cfg0 = dataclasses.replace(special_cfg,
                               flags={**special_cfg.flags, "b1_mode": "zero"})
    _, sys0 = ab.build_system(cfg0)
    red0 = reduced_generator(sys0)
    assert np.min(np.abs(np.linalg.eigvals(red0))) < 1e-10  # constants slip through


def test_reduced_generator_is_the_uvy_slice_of_acal(special):
    # reference: the explicit 3-block assembly the slice replaced
    _, sys = special
    n, _, nb = sys.dims
    ref = np.zeros((2 * n + nb, 2 * n + nb), dtype=sys.Acal.dtype)
    ref[:n, n:2 * n] = np.eye(n)
    ref[n:2 * n, :n] = sys.A0
    ref[n:2 * n, 2 * n:] = sys.S_A
    ref[2 * n:, :n] = sys.ops.B1 + sys.ops.B4 @ sys.ops.B2
    ref[2 * n:, 2 * n:] = sys.ops.B4
    red = reduced_generator(sys)
    assert red.dtype == ref.dtype and red.shape == ref.shape
    assert red.tobytes() == ref.tobytes()


def test_reduced_generator_requires_b3_zero(abc1d):
    _, sys = abc1d
    with pytest.raises(ConfigurationError, match="B3"):
        reduced_generator(sys)


@pytest.mark.parametrize("scale", [0.0, 1e-14])
def test_singular_ghost_block_refused(scale):
    mesh = ab.build_interval_mesh(8, 1.0)
    coeffs = ab.CoefficientSet(c=1.0, rho=np.ones(2), m=np.ones(2),
                               d=np.zeros(2), k=np.zeros(2))
    ops = ab.assemble_wave_operator(mesh, coeffs)
    R = ops.R.copy()
    R[:, ops.n] *= scale        # exactly singular, or condition 1e14 > 1e12
    with pytest.raises(AssumptionError) as exc:
        ab.assemble_block_generator(dataclasses.replace(ops, R=R))
    assert exc.value.tag == "A3"


@pytest.mark.parametrize("name", ["abc-1d", "special-case", "timoshenko-strip"])
def test_build_takes_no_condition_number(monkeypatch, name):
    # the ghost block of R and, on the neutral strip, (I - M) are guarded by
    # the Frobenius bound of the inverse they form, which clears the threshold
    calls = []
    cond = np.linalg.cond

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    ab.build_system(load(name))
    assert calls == []


# ---------------------------------------------------------------------------
# mirror-exact assembly
# ---------------------------------------------------------------------------
def _variant(name, geometry=(), coefficients=(), neutral_m_zero=False):
    cfg = load(name)
    return dataclasses.replace(
        cfg, geometry={**cfg.geometry, **dict(geometry)},
        coefficients={**cfg.coefficients, **dict(coefficients)},
        flags={**cfg.flags, "neutral": True, "neutral_m_zero": neutral_m_zero})


@pytest.mark.parametrize("name,nx", [("timoshenko-strip", 16), ("timoshenko-strip-k0", 16),
                                     ("timoshenko-strip", 8), ("timoshenko-strip", 24)])
def test_strip_generator_is_mirror_exact(name, nx):
    # the neutral transform's dense solve and products round asymmetrically;
    # averaging B1..B4 and the boundary row with their mirror images makes
    # J Acal J = Acal hold bit for bit.  The strips split by their cosine
    # modes, so the mirror's gate is read from an assembly without them
    mesh, sys = ab.build_system(_variant(name, {"nx": nx, "ny": nx}))
    split = ab.assemble_block_generator(sys.ops).split
    assert isinstance(split, la.MirrorSplit)
    J = split.perm
    assert not np.array_equal(J, np.arange(J.size))
    assert np.array_equal(J[J], np.arange(J.size))
    assert sys.Acal[np.ix_(J, J)].tobytes() == sys.Acal.tobytes()


@pytest.mark.parametrize("variant", [
    ("abc-1d", {}, {"rho": "1 + 0.5*z"}, True),
    ("timoshenko-strip", {}, {"rho": "1 + 1e-12*x", "m": "1 + 1e-12*x"}, False),
], ids=["interval-rho", "strip-rho-m"])
def test_mirror_gate_reads_the_inputs(variant):
    # rho (interval) or d/m (strip) is not mirror-invariant, so nothing is
    # averaged: the blocks are the plain products, and nothing splits
    cfg = _variant(*variant)
    mesh, sys = ab.build_system(cfg)
    assert sys.split is None
    ops, plain = sys.ops, ab.assemble_wave_operator(mesh, ab.sample_coefficients(cfg, mesh))
    S = np.linalg.solve(np.eye(ops.n_b) - ops.M, np.eye(ops.n_b))
    for name in ("B1", "B2", "B3", "B4"):
        assert getattr(ops, name).tobytes() == (S @ getattr(plain, name)).tobytes()
    n, _, nb = sys.dims
    assert sys.Acal[2 * n + nb:, :n].tobytes() == (ops.B1 + ops.B4 @ ops.B2).tobytes()


# sample points of verify's lifts, and two dyadic points of the neutral
# ladder, where mu is real and so is the bordered matrix
_LIFT_MUS = ([complex(lam * lam) for lam in (0.8 + 0.9j, 1.5 + 0.3j, 0.35 + 0.13j)]
             + [4.0, 2.0 ** 10])

# the shipped configs and the nx = ny = 24 strip rung
_LIFT_CASES = [("abc-1d", None), ("special-case", None), ("timoshenko-strip", None),
               ("timoshenko-strip-k0", None), ("timoshenko-strip", 24)]


def _lift_case(name, nx):
    cfg = load(name) if nx is None else _variant(name, {"nx": nx, "ny": nx})
    return ab.build_system(cfg)


def _mirror_lift_case(name, nx):
    """``_lift_case`` assembled without the cosine modes: the strips' split
    and lifts then take the mirror halves, as an x-varying mirror-exact
    strip's do."""
    mesh, sys = _lift_case(name, nx)
    return mesh, ab.assemble_block_generator(sys.ops)


@pytest.mark.parametrize("name,nx", _LIFT_CASES)
def test_split_lifts_match_the_full_ones(name, nx):
    mesh, sys = _mirror_lift_case(name, nx)
    assert isinstance(sys.lift_split.split, la.MirrorSplit)
    J = sys.lift_split.split.perm
    assert not np.array_equal(J, np.arange(J.size))
    assert J.size == sys.ops.A_max.shape[1]
    assert np.array_equal(J[:sys.n], sys.split.restrict(np.arange(sys.n)).perm)
    for mu in _LIFT_MUS:
        split = sys.dirichlet_lift(mu)
        full = hand_lift(sys, mu, sys.ops.R)
        assert split.dtype == full.dtype
        assert np.linalg.norm(split - full) <= 1e-12 * np.linalg.norm(full)


# an odd strip: the nodes next to the axis are coupled to their images, so the
# even and odd blocks sum two entries on those diagonals, and the shift must
# go in before the image's entry (adding mu to the stored sums instead moves
# 20 diagonal entries by one rounding at nx = 9)
_STORED_LIFT_CASES = _LIFT_CASES + [("timoshenko-strip", 9)]


@pytest.mark.parametrize("name,nx", _STORED_LIFT_CASES)
def test_stored_block_lifts_are_the_split_solve_bit_for_bit(name, nx):
    mesh, sys = _mirror_lift_case(name, nx)
    assert sys.lift_split is not None
    if nx == 9:
        J, a_max = sys.lift_split.split.perm[:sys.n], sys.ops.A_max
        off_axis = np.flatnonzero(J != np.arange(sys.n))
        assert np.count_nonzero(a_max[off_axis, J[off_axis]]) > 0
    for mu in _LIFT_MUS + [complex(-3.7, 0.2), 2.0 ** 16]:
        got = sys.dirichlet_lift(mu)
        ref = hand_lift(sys, mu, sys.ops.R, split=sys.lift_split.split)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("rel,svds", [(1e-9, 0), (1e-11, 1), (1e-13, 1)])
def test_lift_next_to_the_restricted_spectrum_decides_as_the_full_solve(
        neutral_strip, monkeypatch, rel, svds):
    # mu a relative 1e-9 from sigma(A0) clears the bound; at 1e-11 the bound
    # (3.4e13) does not, and the full matrix's exact condition number
    # (6.4e11) passes it; at 1e-13 that number (6.4e13) refuses it.  The
    # strip's lift takes the cosine modes, and assembled without them the
    # mirror halves, which are the full matrix's blocks bit for bit
    _, modal = neutral_strip
    mirrored = ab.assemble_block_generator(modal.ops)
    assert isinstance(modal.lift_split.split, la.ModeSplit)
    assert isinstance(mirrored.lift_split.split, la.MirrorSplit)
    a = modal.eig_A0
    mu = a[len(a) // 2] * (1 + rel)
    n, size = modal.ops.A_max.shape
    full = np.concatenate([la.shifted(modal.ops.A_max, mu), modal.ops.R])
    rhs = np.eye(size, modal.n_b, k=-n)

    def outcome(solve):
        try:
            return solve()
        except NumericalError as exc:
            return str(exc)

    conds, cond = [], np.linalg.cond
    # a backward-stable solve of either route is off by about cond eps relative
    tol = 10 * cond(full) * np.finfo(float).eps
    monkeypatch.setattr(np.linalg, "cond", lambda mat: conds.append(mat.shape) or cond(mat))
    for sys in (mirrored, modal):
        ref = outcome(lambda: la.checked_solve(full, rhs, "bordered Dirichlet system",
                                               cond_bound=sys.lift_cond_bound(mu)))
        conds.clear()
        got = outcome(lambda: sys.dirichlet_lift(mu))
        assert conds == [full.shape] * svds
        assert isinstance(ref, str) == isinstance(got, str) == (rel == 1e-13)
        if isinstance(ref, str):
            assert got == ref and ref.startswith("bordered Dirichlet system: condition estimate")
        elif sys is mirrored:
            # the mirror's own solve of the full matrix's halves
            split = sys.lift_split.split
            assert got.tobytes() == split._solve(split._gather(full), rhs).tobytes()
        else:
            assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


def _reference_ladder(sys):
    """check_assumptions' three numbers from hand-formed lifts against L,
    [lam P_n - A_max; L] u_ext = [0; I], instead of the renormalized R-lift."""
    n, B2 = sys.n, sys.ops.B2
    lam0, contraction_at_lam0, prev, worst_ratio = np.inf, np.inf, None, 0.0
    for kexp in _LADDER_EXPONENTS:
        lam = float(2 ** kexp)
        D = hand_lift(sys, lam, sys.ops.L)[:n]
        dnorm, contraction = np.linalg.norm(D, 2), np.linalg.norm(B2 @ D, 2)
        if prev is not None:
            worst_ratio = max(worst_ratio, dnorm / prev)
        prev = dnorm
        if lam0 == np.inf and contraction < 1.0:
            lam0, contraction_at_lam0 = lam, contraction
    return lam0, contraction_at_lam0, worst_ratio


@pytest.mark.parametrize("name,nx", _LIFT_CASES)
def test_ladder_matches_hand_formed_flux_lifts(name, nx):
    # the ladder's flux lift D (L D)^-1 is the lift against L
    mesh, sys = _lift_case(name, nx)
    lam0, contraction, worst_ratio = check_assumptions(sys)
    ref_lam0, ref_contraction, ref_ratio = _reference_ladder(sys)
    assert np.isfinite(lam0) and lam0 == ref_lam0
    assert abs(contraction - ref_contraction) <= 1e-12 * ref_contraction
    assert abs(worst_ratio - ref_ratio) <= 1e-12 * ref_ratio


@pytest.mark.parametrize("name,nx", _LIFT_CASES)
def test_restricted_mirrors_are_the_hand_built_layouts(name, nx):
    # the layouts the restriction rule replaced: the u part for A0, the
    # (u, v, x) part for Abb0, and (u, v, y) for the reduced generator; the
    # strips' mirror is that of their assembly without the cosine modes
    mesh, sys = _mirror_lift_case(name, nx)
    split, (n, _, nb) = sys.split, sys.dims
    J = split.perm
    assert np.array_equal(split.restrict(np.arange(n)).perm, J[:n])
    assert np.array_equal(split.restrict(np.arange(2 * n + nb)).perm, J[:2 * n + nb])
    assert np.array_equal(split.restrict(reduced_dofs(sys)).perm,
                          np.concatenate([J[:2 * n], J[2 * n + nb:] - nb]))
    # a u dof off the mirror axis, kept with the v dof at its image, is not
    # mapped onto the kept set
    r = int(np.flatnonzero(J != np.arange(J.size))[0])
    assert split.restrict(np.r_[r, n + J[r]]) is None


def _old_ghost_images(mesh):
    """The ghost slots' mirror images as they were built before: the slot
    whose inward node is the image of the slot's own inward node."""
    mirror = np.arange(mesh.n_nodes).reshape(mesh.grid_shape[::-1])[..., ::-1].ravel()
    return la.MirrorSplit(mirror).restrict(mesh.ghost_inward).perm


@pytest.mark.parametrize("name", ["abc-1d", "special-case", "timoshenko-strip",
                                  "timoshenko-strip-k0", "biharmonic"])
def test_extended_mirror_from_gamma1_is_the_ghost_image_one(name, biharmonic_sys):
    # ghost slot i belongs to Gamma1 dof i, so [node, n + bnd] is the old
    # [node, n + ghost] permutation
    mesh, sys = biharmonic_sys if name == "biharmonic" else _mirror_lift_case(name, None)
    node, bnd = sys.ops.mirror
    ghost = _old_ghost_images(mesh)
    assert np.array_equal(ghost, bnd)
    assert np.array_equal(sys.lift_split.split.perm, np.concatenate([node, sys.n + ghost]))


def test_lifts_without_a_mirror_are_the_unsplit_solve():
    # rho and m vary (by 1e-12), so R is not mirror-invariant: no extended
    # mirror is stored, and each lift is the one full LU, byte for byte
    mesh, sys = ab.build_system(_variant(
        "timoshenko-strip", coefficients={"rho": "1 + 1e-12*x", "m": "1 + 1e-12*x"}))
    assert sys.split is None and sys.lift_split is None
    for mu in _LIFT_MUS:
        assert sys.dirichlet_lift(mu).tobytes() == hand_lift(sys, mu, sys.ops.R).tobytes()


@pytest.mark.parametrize("name", ["abc-1d", "special-case", "timoshenko-strip",
                                  "timoshenko-strip-k0"])
def test_assembly_reads_exact_blocks(name):
    mesh, sys = ab.build_system(load(name))
    n = sys.n
    assert sys.split is not None
    # the kernel restriction collapses the flux row to B2 exactly
    assert np.max(np.abs(sys.Abb0[2 * n:, :n] - sys.ops.B2)) == 0.0
    assert sys.A0.tobytes() == sys.Acal[n:2 * n, :n].tobytes()


# every config whose split the assembly picks, as (config, changes, kind):
# the shipped four, the nx = ny = 24 rung, a d that varies along Gamma1
# written about the middle (mirror images bit for bit, no modes) and a
# divergence strip whose diffusion varies along x (neither)
_SELECTIONS = [
    ("abc-1d", {}, la.MirrorSplit),
    ("special-case", {}, la.MirrorSplit),
    ("timoshenko-strip", {}, la.ModeSplit),
    ("timoshenko-strip-k0", {}, la.ModeSplit),
    ("timoshenko-strip", {"geometry": {"nx": 24, "ny": 24}}, la.ModeSplit),
    ("timoshenko-strip-k0",
     {"coefficients": {"d": "1 - 0.5*cos(6.283185307179586*(x - 0.5))"}}, la.MirrorSplit),
    ("timoshenko-strip", {"model": "divergence", "coefficients": {"a": "1 + 0.5*x"}}, None),
]


@pytest.mark.parametrize("name,changes,kind", _SELECTIONS,
                         ids=["abc-1d", "special-case", "strip", "k0", "nx24", "variable-d",
                              "divergence"])
def test_each_config_selects_one_split_and_every_restriction_keeps_it(name, changes, kind):
    cfg = load(name)
    cfg = dataclasses.replace(cfg, **{
        key: {**getattr(cfg, key), **value} if isinstance(value, dict) else value
        for key, value in changes.items()})
    mesh, sys = ab.build_system(cfg)
    n, _, nb = sys.dims
    if kind is None:
        assert sys.split is None and sys.lift_split is None
        return
    assert type(sys.split) is kind and type(sys.lift_split.split) is kind
    # the dofs the callers restrict to: (u, v, x) for Abb0, u for A0,
    # (u, v, y) for the reduced generator, and the extended dofs (u, x)
    for keep in (np.arange(2 * n + nb), np.arange(n), reduced_dofs(sys),
                 np.r_[0:n, 2 * n:2 * n + nb]):
        assert type(la.restrict(sys.split, keep)) is kind
