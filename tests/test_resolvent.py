import dataclasses

import numpy as np
import pytest

import abclab as ab
from abclab.errors import AssumptionError, SpectralParameterError
from abclab.resolvent import default_zero_radius

from conftest import wave_system


def sweep_lambdas(count=20):
    return [complex(0.35 + 0.13 * j, 0.4 + 0.7 * j) for j in range(count)]


# ---------------------------------------------------------------------------
# Dirichlet operator
# ---------------------------------------------------------------------------
def test_dirichlet_closed_form_at_zero():
    # rho/m = 1, mu = 0: lifting columns are the affine functions solving the
    # 2x2 endpoint algebra: (2 - s)/3 and (1 + s)/3
    mesh, sys = wave_system(n_cells=32, rho="1")
    D = ab.dirichlet_operator(sys, 0.0)
    s = np.linspace(0, 1, 33)
    assert np.allclose(D[:33, 0], (2.0 - s) / 3.0, atol=1e-10)
    assert np.allclose(D[:33, 1], (1.0 + s) / 3.0, atol=1e-10)


def test_dirichlet_defining_properties(abc1d):
    _, sys = abc1d
    n = sys.n
    for mu in (1.0 + 0.5j, -3.7, 25.0 + 2.0j):
        D = ab.dirichlet_operator(sys, mu)
        assert np.linalg.norm(sys.ops.R @ D - np.eye(2), 2) < 1e-10
        assert np.linalg.norm(sys.ops.A_max @ D - mu * D[:n], 2) < 1e-10


def test_dirichlet_refuses_restricted_spectrum(abc1d):
    _, sys = abc1d
    mu_bad = sys.eig_A0[3]
    with pytest.raises(SpectralParameterError) as exc:
        ab.dirichlet_operator(sys, complex(mu_bad))
    assert exc.value.reason == "near-sigma-a0"


def test_identity_ld_sweep_all_models(abc1d, special, neutral_strip, biharmonic_sys):
    for _, sys in (abc1d, special, neutral_strip, biharmonic_sys):
        worst = max(ab.identity_LD(sys, lam * lam) for lam in sweep_lambdas())
        assert worst < 1e-10


def test_identity_ld_exact_when_b2_zero():
    mesh, sys = wave_system(n_cells=16, rho="0")
    D = ab.dirichlet_operator(sys, 2.0 + 1.0j)
    assert np.max(np.abs(sys.ops.L @ D - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# block Dirichlet
# ---------------------------------------------------------------------------
def test_block_dirichlet_structure(abc1d):
    _, sys = abc1d
    n = sys.n
    lam = 1.1 + 0.9j
    blk = ab.block_dirichlet(sys, lam)
    D = ab.dirichlet_operator(sys, lam * lam)
    assert np.allclose(blk[n:2 * n], lam * blk[:n])          # velocity row
    assert np.allclose(blk[2 * n:], (sys.ops.L @ D) / lam)   # flux row
    # eigen-consistency through the extended field: A u_ext = lam^2 u,
    # R u_ext = data
    assert np.max(np.abs(sys.ops.A_max @ D - lam * lam * D[:n])) < 1e-9
    assert np.max(np.abs(sys.ops.R @ D - np.eye(2))) < 1e-9


def test_block_dirichlet_flux_row_at_one(abc1d):
    _, sys = abc1d
    blk = ab.block_dirichlet(sys, 1.0)
    D = ab.dirichlet_operator(sys, 1.0)
    assert np.allclose(blk[2 * sys.n:], sys.ops.L @ D, atol=1e-12)


# ---------------------------------------------------------------------------
# pencil
# ---------------------------------------------------------------------------
def test_pencil_reduces_when_couplings_vanish():
    mesh, sys = wave_system(n_cells=16, rho="0", d="2")
    ev = ab.PencilEvaluator(sys)
    lam = 0.9 + 1.2j
    D = ab.dirichlet_operator(sys, lam * lam)
    expected = sys.ops.B4 @ (sys.ops.L @ D)      # B1 = 0, B3 = 0
    assert np.allclose(ab.pencil(ev, lam), expected, atol=1e-12)


def test_pencil_b3_zero_form(special):
    # with no spring coupling the pencil collapses to (B1 + B4 L) D
    _, sys = special
    ev = ab.PencilEvaluator(sys)
    lam = 1.3 + 0.7j
    D = ab.dirichlet_operator(sys, lam * lam)
    expected = sys.ops.B1 @ D[:sys.n] + sys.ops.B4 @ (sys.ops.L @ D)
    assert np.allclose(ab.pencil(ev, lam), expected, atol=1e-11)


MODAL_LAMBDAS = (0.8 + 0.9j, 1.5 + 0.3j, 2.0 + 1.1j, 2.5 + 0.1j, -0.4 + 1.3j)


def test_pencil_dual_construction(abc1d, special, neutral_strip, biharmonic_sys,
                                  divergence_sys):
    # the modal formula and the bordered block construction are independent
    for _, sys in (abc1d, special, neutral_strip, biharmonic_sys, divergence_sys):
        ev = ab.PencilEvaluator(sys)
        for lam in MODAL_LAMBDAS:
            ev.check(lam)
            assert np.max(np.abs(ab.pencil(ev, lam) - ab.pencil_via_blocks(ev, lam))) < 1e-10


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
    R = ab.resolvent_A0_block(sys, lam)
    assert np.allclose(R[2 * n:, 2 * n:], np.eye(nb) / lam)  # exact corner block
    eye = np.eye(m1, dtype=complex)
    assert np.linalg.norm((lam * eye - sys.Abb0) @ R - eye, 2) < 1e-9
    dense = np.linalg.solve(lam * eye - sys.Abb0, eye)
    assert np.linalg.norm(R - dense) / np.linalg.norm(dense) < 1e-9


def test_factorization_residuals(abc1d):
    _, sys = abc1d
    rep = ab.factorization_check(sys, 1 + 1j, 2.0)
    assert all(item.value < 1e-8 for item in rep.items.values())


def test_factorization_degenerates_at_equal_shifts(abc1d):
    _, sys = abc1d
    rep = ab.factorization_check(sys, 1 + 1j, 1 + 1j)
    assert abs(rep.items["factorization"].value
               - rep.items["factorization-shifted"].value) < 1e-14


def test_factorization_trivial_when_feedback_absent(special):
    # matched feedback makes Bfrak = 0: the left factor is the identity and
    # the product display has no lower off-diagonal block
    _, sys = special
    assert np.max(np.abs(sys.Bfrak)) == 0.0
    rep = ab.factorization_check(sys, 1 + 1j, -0.5)
    assert all(item.value < 1e-8 for item in rep.items.values())


def test_resolvent_acal_formula(abc1d):
    _, sys = abc1d
    lam = 1 + 1j
    size = sys.state_dim
    R = ab.resolvent_Acal(sys, lam)
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
        ab.resolvent_Acal(sys, 1e-9)
    assert exc.value.reason == "near-zero"
    rep = ab.direct_spectrum(sys)
    ev = ab.PencilEvaluator(sys)
    lam = rep.eigenvalues[rep.admissible_mask(ev)][7]
    with pytest.raises(SpectralParameterError) as exc:
        ab.resolvent_Acal(sys, lam)
    assert exc.value.reason == "pencil-singular"
    # the refusal coincides with genuine near-singularity of the dense matrix
    sv = np.linalg.svd(lam * np.eye(sys.state_dim) - sys.Acal, compute_uv=False)
    assert sv[-1] < 1e-6 * np.linalg.norm(sys.Acal, 2)


def test_gamma_membership(abc1d):
    _, sys = abc1d
    ev = ab.PencilEvaluator(sys)
    ok, reason = ab.gamma_membership(ev, 1 + 1j)
    assert ok and reason == ""
    ok, reason = ab.gamma_membership(ev, default_zero_radius(sys) / 10)
    assert not ok and reason == "near-zero"


def test_dirichlet_flux_lifting_norm_decay(abc1d):
    # high-frequency decay of the (A, L) lifting along the dyadic ladder
    _, sys = abc1d
    from abclab._linalg import bordered_dirichlet_solve, opnorm
    norms = []
    for k in range(2, 13):
        D = bordered_dirichlet_solve(sys.ops.A_max, sys.ops.L, complex(2 ** k))
        norms.append(opnorm(D[:sys.n]))
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
        ab.pencil(ev, default_zero_radius(sys) / 2)


# ---------------------------------------------------------------------------
# One admissibility guard per entry point
# ---------------------------------------------------------------------------
GUARDED = {
    "resolvent_Acal": lambda sys, lam: ab.resolvent_Acal(sys, lam),
    "pencil_via_blocks": lambda sys, lam: ab.pencil_via_blocks(ab.PencilEvaluator(sys), lam),
    "block_dirichlet": lambda sys, lam: ab.block_dirichlet(sys, lam),
    "factorization_check": lambda sys, lam: ab.factorization_check(sys, lam, 2.0),
    "identity_LD": lambda sys, lam: ab.identity_LD(sys, lam * lam),
    "pencil": lambda sys, lam: ab.pencil(ab.PencilEvaluator(sys), lam),
    "pencil_derivative": lambda sys, lam: ab.pencil_derivative(ab.PencilEvaluator(sys), lam),
    "dirichlet_operator": lambda sys, lam: ab.dirichlet_operator(sys, lam * lam),
    "resolvent_A0_block": lambda sys, lam: ab.resolvent_A0_block(sys, lam),
    "gamma_membership": lambda sys, lam: ab.gamma_membership(ab.PencilEvaluator(sys), lam),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_entry_point_checks_admissibility_once(abc1d, monkeypatch, name):
    import abclab.resolvent as rv

    _, sys = abc1d
    checked = []
    guard = rv._check_mu_admissible

    def counting(sys_, mu, radius=None):
        checked.append(mu)
        return guard(sys_, mu, radius)

    monkeypatch.setattr(rv, "_check_mu_admissible", counting)
    GUARDED[name](sys, 1 + 1j)
    assert checked == [(1 + 1j) ** 2]
