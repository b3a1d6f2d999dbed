import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abclab as ab
import abclab._linalg as la
from abclab._linalg import rel_norm
from abclab.checks import Run, run_checks, select_checks
from abclab.errors import AssumptionError, NumericalError, SpectralParameterError
from abclab.reporting import VerificationReport
from abclab.resolvent import (BlockPieces, _boundary_row, _factored, _r2, block_dirichlet,
                              dirichlet_operator, exclusion_radii, factorization_check,
                              identity_LD, pencil_via_blocks, resolvent_A0_block,
                              resolvent_Acal)

from conftest import hand_lift, load, traced_peak, wave_system


def sweep_lambdas(count=20):
    return [complex(0.35 + 0.13 * j, 0.4 + 0.7 * j) for j in range(count)]


# ---------------------------------------------------------------------------
# Dirichlet operator
# ---------------------------------------------------------------------------
def test_dirichlet_closed_form_at_zero():
    # rho/m = 1, mu = 0: lifting columns are the affine functions solving the
    # 2x2 endpoint algebra: (2 - s)/3 and (1 + s)/3
    mesh, sys = wave_system(n_cells=32, rho="1")
    D = dirichlet_operator(sys, 0.0)
    s = np.linspace(0, 1, 33)
    assert np.allclose(D[:33, 0], (2.0 - s) / 3.0, atol=1e-10)
    assert np.allclose(D[:33, 1], (1.0 + s) / 3.0, atol=1e-10)


def test_dirichlet_defining_properties(abc1d):
    _, sys = abc1d
    n = sys.n
    for mu in (1.0 + 0.5j, -3.7, 25.0 + 2.0j):
        D = dirichlet_operator(sys, mu)
        assert np.linalg.norm(sys.ops.R @ D - np.eye(2), 2) < 1e-10
        assert np.linalg.norm(sys.ops.A_max @ D - mu * D[:n], 2) < 1e-10


def test_dirichlet_refuses_restricted_spectrum(abc1d):
    _, sys = abc1d
    mu_bad = sys.eig_A0[3]
    with pytest.raises(SpectralParameterError) as exc:
        dirichlet_operator(sys, complex(mu_bad))
    assert exc.value.reason == "near-sigma-a0"


def test_identity_ld_sweep_all_models(abc1d, special, neutral_strip, biharmonic_sys):
    for _, sys in (abc1d, special, neutral_strip, biharmonic_sys):
        worst = max(identity_LD(sys, lam * lam) for lam in sweep_lambdas())
        assert worst < 1e-10


def test_identity_ld_exact_when_b2_zero():
    mesh, sys = wave_system(n_cells=16, rho="0")
    D = dirichlet_operator(sys, 2.0 + 1.0j)
    assert np.max(np.abs(sys.ops.L @ D - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# block Dirichlet
# ---------------------------------------------------------------------------
def test_block_dirichlet_structure(abc1d):
    _, sys = abc1d
    n = sys.n
    lam = 1.1 + 0.9j
    blk = block_dirichlet(sys, lam)
    D = dirichlet_operator(sys, lam * lam)
    assert np.allclose(blk[n:2 * n], lam * blk[:n])          # velocity row
    assert np.allclose(blk[2 * n:], (sys.ops.L @ D) / lam)   # flux row
    # eigen-consistency through the extended field: A u_ext = lam^2 u,
    # R u_ext = data
    assert np.max(np.abs(sys.ops.A_max @ D - lam * lam * D[:n])) < 1e-9
    assert np.max(np.abs(sys.ops.R @ D - np.eye(2))) < 1e-9


def test_block_dirichlet_flux_row_at_one(abc1d):
    _, sys = abc1d
    blk = block_dirichlet(sys, 1.0)
    D = dirichlet_operator(sys, 1.0)
    assert np.allclose(blk[2 * sys.n:], sys.ops.L @ D, atol=1e-12)


# ---------------------------------------------------------------------------
# pencil
# ---------------------------------------------------------------------------
def test_pencil_reduces_when_couplings_vanish():
    mesh, sys = wave_system(n_cells=16, rho="0", d="2")
    ev = ab.PencilEvaluator(sys)
    lam = 0.9 + 1.2j
    D = dirichlet_operator(sys, lam * lam)
    expected = sys.ops.B4 @ (sys.ops.L @ D)      # B1 = 0, B3 = 0
    assert np.allclose(ab.pencil(ev, lam), expected, atol=1e-12)


def test_pencil_b3_zero_form(special):
    # with no spring coupling the pencil collapses to (B1 + B4 L) D
    _, sys = special
    ev = ab.PencilEvaluator(sys)
    lam = 1.3 + 0.7j
    D = dirichlet_operator(sys, lam * lam)
    expected = sys.ops.B1 @ D[:sys.n] + sys.ops.B4 @ (sys.ops.L @ D)
    assert np.allclose(ab.pencil(ev, lam), expected, atol=1e-11)


def test_pencil_evaluator_is_frozen(abc1d):
    ev = ab.PencilEvaluator(abc1d[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.exclusion_radius = 1.0


MODAL_LAMBDAS = (0.8 + 0.9j, 1.5 + 0.3j, 2.0 + 1.1j, 2.5 + 0.1j, -0.4 + 1.3j)


def test_pencil_dual_construction(abc1d, special, neutral_strip, biharmonic_sys,
                                  divergence_sys):
    # the modal formula and the bordered block construction are independent
    for _, sys in (abc1d, special, neutral_strip, biharmonic_sys, divergence_sys):
        ev = ab.PencilEvaluator(sys)
        for lam in MODAL_LAMBDAS:
            ev.check(lam)
            assert np.max(np.abs(ab.pencil(ev, lam) - pencil_via_blocks(ev, lam))) < 1e-10


@pytest.fixture(params=["abc1d", "special", "neutral_strip", "biharmonic_sys",
                        "divergence_sys"])
def any_sys(request):
    return request.getfixturevalue(request.param)[1]


def test_pencil_derivative_matches_central_difference(any_sys):
    ev = ab.PencilEvaluator(any_sys)
    for lam in MODAL_LAMBDAS:
        h = 1e-6 * (1.0 + abs(lam))
        fd = (ab.pencil(ev, lam + h) - ab.pencil(ev, lam - h)) / (2.0 * h)
        err = np.max(np.abs(ab.pencil_derivative(ev, lam) - fd))
        assert err <= 1e-8 * max(1.0, float(np.max(np.abs(fd))))


def test_eig_a0_is_the_spectrum_of_a0(any_sys):
    vals = np.linalg.eigvals(any_sys.A0)
    scale = float(np.max(np.abs(vals)))
    assert np.max(np.abs(vals.imag)) <= 1e-12 * scale
    assert np.max(np.abs(np.sort(vals.real) - any_sys.eig_A0)) <= 1e-12 * scale


def test_nonsymmetric_restriction_refused(abc1d):
    _, sys = abc1d
    A_max = sys.ops.A_max.copy()
    assert A_max[3, 4] != 0.0
    A_max[3, 4] *= 1.0 + 1e-6
    with pytest.raises(AssumptionError) as exc:
        ab.assemble_block_generator(dataclasses.replace(sys.ops, A_max=A_max))
    assert exc.value.tag == "restricted-symmetry"


# ---------------------------------------------------------------------------
# block resolvents and factorization
# ---------------------------------------------------------------------------
def test_resolvent_a0_block(abc1d):
    _, sys = abc1d
    lam = 1.4 + 0.8j
    n, nb = sys.n, sys.n_b
    m1 = 2 * n + nb
    R = resolvent_A0_block(sys, lam)
    assert np.allclose(R[2 * n:, 2 * n:], np.eye(nb) / lam)  # exact corner block
    eye = np.eye(m1, dtype=complex)
    assert np.linalg.norm((lam * eye - sys.Abb0) @ R - eye, 2) < 1e-9
    dense = np.linalg.solve(lam * eye - sys.Abb0, eye)
    assert np.linalg.norm(R - dense) / np.linalg.norm(dense) < 1e-9


@pytest.mark.parametrize("name", ["abc1d", "special", "neutral_strip", "timoshenko-strip-k0"])
def test_resolvent_a0_vu_block_matches_the_dense_inverse(request, name):
    # the (v, u) block A0 R2 is formed as lam^2 R2 - I, without a product
    sys = (ab.build_system(load(name)) if name.endswith("k0")
           else request.getfixturevalue(name))[1]
    lam, n, m1 = 1 + 1j, sys.n, 2 * sys.n + sys.n_b
    vu = resolvent_A0_block(sys, lam)[n:2 * n, :n]
    dense = np.linalg.inv(lam * np.eye(m1) - sys.Abb0)[n:2 * n, :n]
    assert np.linalg.norm(vu - dense) <= 1e-12 * np.linalg.norm(dense)


def test_factorization_residuals(abc1d):
    _, sys = abc1d
    assert max(factorization_check(sys, 1 + 1j, 2.0)) < 1e-8


@pytest.mark.parametrize("system", ["abc1d", "neutral_strip"])
def test_blockwise_factored_product_matches_dense(system, request):
    _, sys = request.getfixturevalue(system)
    lam, mu = 1 + 1j, 2.0
    m1, nb = 2 * sys.n + sys.n_b, sys.n_b
    E = -sys.Bfrak @ resolvent_A0_block(sys, lam)
    F = -block_dirichlet(sys, lam)
    Blam = ab.pencil(ab.PencilEvaluator(sys), lam)
    Lfac = np.eye(m1 + nb, dtype=complex)
    Lfac[m1:, :m1] = E
    Mfac = np.eye(m1 + nb, dtype=complex)
    Mfac[:m1, m1:] = F
    for omega in (lam, mu):
        middle = np.zeros((m1 + nb, m1 + nb), dtype=complex)
        middle[:m1, :m1] = omega * np.eye(m1) - sys.Abb0
        middle[m1:, m1:] = omega * np.eye(nb) - Blam
        dense = Lfac @ middle @ Mfac
        blockwise = _factored(sys.Abb0, E, F, Blam, omega)
        assert np.linalg.norm(blockwise - dense) / np.linalg.norm(dense) < 1e-13


def test_factorization_degenerates_at_equal_shifts(abc1d):
    _, sys = abc1d
    res_i, res_ii, _ = factorization_check(sys, 1 + 1j, 1 + 1j)
    assert abs(res_i - res_ii) < 1e-14


def test_factorization_trivial_when_feedback_absent(special):
    # matched feedback makes Bfrak = 0: the left factor is the identity and
    # the product display has no lower off-diagonal block
    _, sys = special
    assert np.max(np.abs(sys.Bfrak)) == 0.0
    assert max(factorization_check(sys, 1 + 1j, -0.5)) < 1e-8


def _lm_product_gap(config: str) -> float:
    """|(iii) - the residual of the unsplit dense Lfac @ Mfac against the
    dense display| on a shipped config, for the E and F of (iii)."""
    system = ab.build_system(load(config))[1]
    lam = 1 + 1j
    m1, size = 2 * system.n + system.n_b, system.state_dim
    E = -_boundary_row(system, lam, BlockPieces(system, lam).R2)
    F = -block_dirichlet(system, lam)
    Lfac = np.eye(size, dtype=complex)
    Lfac[m1:, :m1] = E
    Mfac = np.eye(size, dtype=complex)
    Mfac[:m1, m1:] = F
    display = np.eye(size, dtype=complex)
    display[:m1, m1:] = F
    display[m1:, :m1] = E
    display[m1:, m1:] += E @ F
    dense = rel_norm(Lfac @ Mfac - display, display)
    return abs(factorization_check(system, lam, 2.0)[2] - dense)


@pytest.mark.parametrize("config,atol", [("abc-1d", 0.0), ("special-case", 0.0),
                                         ("timoshenko-strip", 1e-18)])
def test_lm_product_is_the_dense_products_residual(config, atol):
    # (iii) sums only the (y, y) block of Lfac Mfac.  The dense product sums
    # it in an order that follows the BLAS thread count (on abc-1d its
    # residual reads 0.0 at one thread and 4.7e-18 at two), so the
    # comparison runs in a process pinned to one thread
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", "from test_resolvent import _lm_product_gap; "
                           f"print(repr(_lm_product_gap({config!r})))"],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    assert float(done.stdout) <= atol


def test_factorization_forms_no_state_size_product(neutral_strip):
    # _factored's output and one shift omega - Acal set the peak; the two
    # dense factors and their product would add about two more
    _, sys = neutral_strip
    tracemalloc.start()
    try:
        factorization_check(sys, 1 + 1j, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * sys.state_dim ** 2 * 16


def test_boundary_row_is_bfrak_times_the_block_resolvent(abc1d, special, neutral_strip):
    for _, sys in (abc1d, special, neutral_strip):
        for lam in (1 + 1j, 0.6 + 1.7j):
            dense = sys.Bfrak @ resolvent_A0_block(sys, lam)
            got = _boundary_row(sys, lam, BlockPieces(sys, lam).R2)
            assert np.linalg.norm(got - dense) <= 1e-14 * np.linalg.norm(dense)


@pytest.mark.parametrize("name", ["resolvent-a0-formula", "resolvent-acal-formula"])
def test_dense_oracle_checks_hold_three_state_size_arrays(neutral_cfg, neutral_strip, name):
    # the dense inverse, the formula it is judged against and one working
    # array (traced 2.6 and 2.5 N^2); np.block over four new blocks, the
    # difference of each residual and an identity right-hand side took
    # both to about 4.4
    mesh, sys = neutral_strip
    check, = select_checks(neutral_cfg.flags, sys, [name])
    report = VerificationReport(metadata={})
    peak = traced_peak(lambda: check.run(Run(mesh, sys), report))
    assert report.passed
    assert peak <= 3 * sys.state_dim ** 2 * 16


def test_shared_pieces_are_read_only_and_tied_to_their_point(neutral_strip):
    _, sys = neutral_strip
    pieces = BlockPieces(sys, 1 + 1j)
    assert pieces.R2 is pieces.R2 and pieces.lift is pieces.lift
    for shared in (pieces.R2, pieces.lift):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 0.0
    for entry in (lambda p: resolvent_A0_block(sys, 0.6 + 1.7j, p),
                  lambda p: factorization_check(sys, 0.6 + 1.7j, 2.0, p),
                  lambda p: resolvent_Acal(dataclasses.replace(sys), 1 + 1j, p)):
        with pytest.raises(ValueError, match="another system or lam"):
            entry(pieces)


def test_resolvent_acal_formula(abc1d):
    _, sys = abc1d
    lam = 1 + 1j
    size = sys.state_dim
    R = resolvent_Acal(sys, lam)
    eye = np.eye(size, dtype=complex)
    assert np.linalg.norm((lam * eye - sys.Acal) @ R - eye, 2) < 1e-8
    # lower-right block is the pencil resolvent
    ev = ab.PencilEvaluator(sys)
    G = np.linalg.solve(lam * np.eye(sys.n_b) - ab.pencil(ev, lam), np.eye(sys.n_b))
    m1 = 2 * sys.n + sys.n_b
    assert np.allclose(R[m1:, m1:], G, atol=1e-10)


def test_resolvent_acal_refusals(abc1d):
    _, sys = abc1d
    with pytest.raises(SpectralParameterError) as exc:
        resolvent_Acal(sys, 1e-9)
    assert exc.value.reason == "near-zero"
    rep = ab.direct_spectrum(sys)
    ev = ab.PencilEvaluator(sys)
    lam = rep.eigenvalues[rep.admissible_mask(ev)][7]
    with pytest.raises(SpectralParameterError) as exc:
        resolvent_Acal(sys, lam)
    assert exc.value.reason == "pencil-singular"
    # the refusal coincides with genuine near-singularity of the dense matrix
    sv = np.linalg.svd(lam * np.eye(sys.state_dim) - sys.Acal, compute_uv=False)
    assert sv[-1] < 1e-6 * np.linalg.norm(sys.Acal, 2)


def test_dirichlet_flux_lifting_norm_decay(abc1d):
    # high-frequency decay of the (A, L) lifting along the dyadic ladder
    _, sys = abc1d
    norms = []
    for k in range(2, 13):
        D = hand_lift(sys, complex(2 ** k), sys.ops.L)
        norms.append(np.linalg.norm(D[:sys.n], 2))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_pencil_blow_up_toward_zero(abc1d):
    # with a spring coupling present the pencil carries a 1/lam term; its
    # growth toward zero is reported empirically (evaluation below the
    # exclusion radius is refused)
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    lams = [1e-1, 1e-2, 1e-3]
    norms = [np.linalg.norm(ab.pencil(ev, lam), 2) for lam in lams]
    assert norms[1] > 5 * norms[0]
    assert norms[2] > 5 * norms[1]
    assert norms[2] * lams[2] == pytest.approx(norms[1] * lams[1], rel=0.2)
    with pytest.raises(SpectralParameterError):
        ab.pencil(ev, exclusion_radii(sys)[1] / 2)


# ---------------------------------------------------------------------------
# One admissibility guard per entry point
# ---------------------------------------------------------------------------
GUARDED = {
    "resolvent_Acal": lambda sys, lam: resolvent_Acal(sys, lam),
    "pencil_via_blocks": lambda sys, lam: pencil_via_blocks(ab.PencilEvaluator(sys), lam),
    "block_dirichlet": lambda sys, lam: block_dirichlet(sys, lam),
    "factorization_check": lambda sys, lam: factorization_check(sys, lam, 2.0),
    "identity_LD": lambda sys, lam: identity_LD(sys, lam * lam),
    "pencil": lambda sys, lam: ab.pencil(ab.PencilEvaluator(sys), lam),
    "pencil_derivative": lambda sys, lam: ab.pencil_derivative(ab.PencilEvaluator(sys), lam),
    "dirichlet_operator": lambda sys, lam: dirichlet_operator(sys, lam * lam),
    "resolvent_A0_block": lambda sys, lam: resolvent_A0_block(sys, lam),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_entry_point_checks_admissibility_once(abc1d, monkeypatch, name):
    import abclab.resolvent as rv

    _, sys = abc1d
    checked = []
    guard = rv._check_admissible

    def counting(sys_, lam=None, *, mu=None, radius=None):
        checked.append(lam * lam if mu is None else mu)
        return guard(sys_, lam, mu=mu, radius=radius)

    monkeypatch.setattr(rv, "_check_admissible", counting)
    GUARDED[name](sys, 1 + 1j)
    assert checked == [(1 + 1j) ** 2]


# ---------------------------------------------------------------------------
# identities at random admissible points
# ---------------------------------------------------------------------------
# Every eigenvalue of the abc-1d Acal has real part <= 5.3e-7, so points with
# real and imaginary parts in [0.2, 3] stay admissible.  The tolerances are
# those of the verify check table.
_PART = st.floats(0.2, 3.0)
_POINT = st.builds(complex, _PART, _PART)


@settings(max_examples=40, deadline=None)
@given(lam=_POINT, mu=_POINT)
def test_identities_hold_at_random_admissible_points(abc1d, lam, mu):
    _, sys = abc1d
    assert max(factorization_check(sys, lam, mu)) <= 1e-8
    assert identity_LD(sys, lam * lam) <= 1e-10
    size = sys.state_dim
    dense = np.linalg.solve(lam * np.eye(size, dtype=complex) - sys.Acal,
                            np.eye(size, dtype=complex))
    assert rel_norm(resolvent_Acal(sys, lam) - dense, dense) <= 1e-8


# ---------------------------------------------------------------------------
# The routes of verify's dense oracles and bordered lifts
# ---------------------------------------------------------------------------
_MODE_STRIPS = [("timoshenko-strip", {}), ("timoshenko-strip-k0", {}),
                ("timoshenko-strip", {"nx": 24, "ny": 24}),
                ("timoshenko-strip", {"nx": 12, "ny": 20})]

# a d that varies along Gamma1, written about the middle: no cosine modes,
# but its samples are mirror images bit for bit
_VARIABLE_D = "1 - 0.5*cos(6.283185307179586*(x - 0.5))"


def _build(name, geometry=(), **coefficients):
    cfg = load(name)
    cfg = dataclasses.replace(cfg, geometry={**cfg.geometry, **dict(geometry)},
                              coefficients={**cfg.coefficients, **coefficients})
    return cfg, *ab.build_system(cfg)


@pytest.mark.parametrize("name, geometry", _MODE_STRIPS, ids=["strip", "k0", "nx24", "nx12-ny20"])
def test_mode_split_oracles_match_unsplit_linear_algebra(name, geometry):
    # tolerance, stated before measuring: both routes are backward stable,
    # so an inverse or a solve of S is off by at most about N eps cond_2(S)
    # relative; cond_2 is bounded by holder_norm(S) holder_norm(S^-1) for
    # the oracles and by lift_cond_bound for the lifts
    _, mesh, sys = _build(name, geometry)
    assert isinstance(sys.split, la.ModeSplit) and isinstance(sys.lift_split.split, la.ModeSplit)
    eps, lam = np.finfo(float).eps, 1 + 1j
    uvx = la.restrict(sys.split, np.arange(2 * sys.n + sys.n_b))
    oracles = [(sys.Abb0, mu, la.shifted_inverse(sys.Abb0, mu, "probe", uvx))
               for mu in (lam, 0.6 + 1.7j)]
    oracles += [(sys.Acal, lam, la.shifted_inverse(sys.Acal, lam, "probe", sys.split)),
                (sys.A0, lam * lam, BlockPieces(sys, lam).R2)]
    for mat, sigma, got in oracles:
        shift = sigma * np.eye(len(mat)) - mat
        ref = np.linalg.inv(shift)
        tol = len(mat) * eps * la.holder_norm(shift) * la.holder_norm(ref)
        assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)
    n, size = sys.ops.A_max.shape
    rhs = np.eye(size, sys.n_b, k=-n)
    for mu in [complex(lam * lam) for lam in (0.8 + 0.9j, 1.5 + 0.3j, 0.35 + 0.13j)] + [4.0, 2.0 ** 10]:
        got = sys.dirichlet_lift(mu)
        ref = np.linalg.solve(np.concatenate([la.shifted(sys.ops.A_max, mu), sys.ops.R]), rhs)
        assert got.dtype == ref.dtype
        tol = size * eps * sys.lift_cond_bound(mu)
        assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


def test_mode_split_refuses_as_the_unsplit_route_does(neutral_strip):
    # mu on sigma(A0): every guard judges the full matrix, so R2 and the
    # lift are refused with the same message on the cosine modes, on the
    # mirror halves and unsplit
    _, sys = neutral_strip
    mu = sys.eig_A0[len(sys.eig_A0) // 2]
    # assembled without the cosine modes, R2 and the lift take the mirror
    mirrored = ab.assemble_block_generator(sys.ops)
    assert isinstance(mirrored.split, la.MirrorSplit)
    assert isinstance(mirrored.lift_split.split, la.MirrorSplit)
    routes = (sys, mirrored, dataclasses.replace(sys, split=None, lift_split=None))
    for solve in (lambda s: _r2(s, np.sqrt(complex(mu))), lambda s: s.dirichlet_lift(mu)):
        messages = []
        for route in routes:
            with pytest.raises(NumericalError) as exc:
                solve(route)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1 and "condition estimate" in messages[0]


def _recorded_lapack(monkeypatch):
    """(name, matrix shape) of every dense inverse, solve, eigensolve and
    condition number taken while the test runs."""
    calls = []
    for name in ("inv", "solve", "eig", "eigvals", "cond"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *rest, _name=name, _real=real:
                            calls.append((_name, np.shape(a))) or _real(a, *rest))
    return calls


def test_strip_verify_takes_no_dense_call_beyond_one_mode_block(neutral_cfg, neutral_strip,
                                                                 monkeypatch):
    # 17 columns of 36 dofs (u, v, x, y) at nx = ny = 16: every oracle, R2
    # and every lift is solved a block of at most one column's size at a time
    mesh, sys = neutral_strip
    calls = _recorded_lapack(monkeypatch)
    report = VerificationReport(metadata={})
    run_checks(select_checks(neutral_cfg.flags, sys), mesh, sys, report)
    assert report.passed
    assert max(max(shape[-2:]) for _, shape in calls) <= 36
    assert {name for name, shape in calls if len(shape) == 3} == {"inv", "solve"}


@pytest.mark.parametrize("name, coefficients", [
    ("timoshenko-strip-k0", {"d": _VARIABLE_D}), ("abc-1d", {}), ("special-case", {})],
    ids=["variable-d-strip", "abc-1d", "special-case"])
def test_mirror_systems_verify_by_the_two_halves(name, coefficients, monkeypatch):
    cfg, mesh, sys = _build(name, **coefficients)
    assert isinstance(sys.split, la.MirrorSplit)
    assert isinstance(sys.lift_split.split, la.MirrorSplit)

    def halves(perm):
        idx = np.arange(perm.size)
        return [(int(np.sum(perm >= idx)),) * 2, (int(np.sum(perm > idx)),) * 2]

    calls = _recorded_lapack(monkeypatch)
    report = VerificationReport(metadata={})
    run_checks(select_checks(cfg.flags, sys), mesh, sys, report)
    assert report.passed
    inverted = {shape for name, shape in calls if name == "inv"}
    solved = {shape for name, shape in calls if name == "solve"}
    assert all(len(shape) == 2 for _, shape in calls)
    # (lam - Acal)^-1, (lam - Abb0)^-1 and R2 by the halves of their
    # mirrors, and the lifts by those of the extended one
    for keep in (np.arange(sys.state_dim), np.arange(2 * sys.n + sys.n_b), np.arange(sys.n)):
        assert set(halves(sys.split.restrict(keep).perm)) <= inverted
    assert set(halves(sys.lift_split.split.perm)) <= solved
    assert (sys.state_dim,) * 2 not in inverted


def test_special_case_strip_display_takes_the_mode_blocks(monkeypatch):
    # a strip without the neutral transform meets the special case: its
    # display's dense inverse, R2 and lifts take blocks of one column's size
    # (35 rows of (u, v, y) at ny = 16)
    cfg = load("timoshenko-strip-k0")
    cfg = dataclasses.replace(cfg, flags={**cfg.flags, "b1_mode": "minus_b4b2", "neutral": False})
    _, sys = ab.build_system(cfg)
    assert isinstance(sys.split, la.ModeSplit)
    calls = _recorded_lapack(monkeypatch)
    rep = ab.special_case_spectrum(sys)
    assert max(max(shape[-2:]) for _, shape in calls) <= 35
    assert max(rep.extras["resolvent_display_residuals"].values()) < 1e-13
