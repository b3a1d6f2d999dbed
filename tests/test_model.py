import json

import numpy as np
import pytest

import abclab as ab
from abclab.errors import AssumptionError, ConfigurationError, ModelError
from abclab.model import check_assumptions, neutral_form_matrix

from conftest import wave_system


def const_coeffs(nb, c=1.0, rho=1.0, m=1.0, d=0.0, k=0.0, **extra):
    fields = {key: np.full(nb, val) for key, val in
              (("rho", rho), ("m", m), ("d", d), ("k", k))}
    return ab.CoefficientSet(c=c, **fields, **extra)


# ---------------------------------------------------------------------------
# coefficient sampling
# ---------------------------------------------------------------------------
def test_sample_constant_fields():
    cfg = ab.parse_config(json.dumps({
        "coefficients": {"m": "1", "d": "0", "k": "1", "rho": "1"}}))
    mesh = ab.build_interval_mesh(8, 1.0)
    co = ab.sample_coefficients(cfg, mesh)
    assert np.all(co.m == 1.0) and np.all(co.k == 1.0) and np.all(co.d == 0.0)


def test_sample_rejects_zero_mass():
    cfg = ab.parse_config('{"coefficients": {"m": "0"}}')
    mesh = ab.build_interval_mesh(8, 1.0)
    with pytest.raises(ModelError, match="inf m > 0"):
        ab.sample_coefficients(cfg, mesh)


def test_sample_boundary_arclength_on_strip():
    cfg = ab.parse_config(json.dumps({
        "geometry": {"kind": "strip", "nx": 4, "ny": 4},
        "coefficients": {"d": "z"}}))
    mesh = ab.build_strip_mesh(4, 4)
    co = ab.sample_coefficients(cfg, mesh)
    assert np.allclose(co.d, mesh.gamma1_arclength())


def test_coefficient_set_rejects_complex_mass():
    with pytest.raises(ModelError, match="real valued"):
        ab.CoefficientSet(c=1.0, rho=np.ones(2), m=np.array([1.0, 1.0 + 1j]),
                          d=np.zeros(2), k=np.zeros(2))


# ---------------------------------------------------------------------------
# wave assembly
# ---------------------------------------------------------------------------
def test_wave_constants_are_flux_free():
    mesh = ab.build_interval_mesh(16, 1.0)
    ops = ab.assemble_wave_operator(mesh, const_coeffs(2))
    u_ext = np.ones(ops.n + 2)
    assert np.max(np.abs(ops.A_max @ u_ext)) < 1e-12
    assert np.max(np.abs(ops.L @ u_ext)) < 1e-12


def test_wave_linear_function_flux():
    mesh = ab.build_interval_mesh(16, 1.0)
    ops = ab.assemble_wave_operator(mesh, const_coeffs(2, rho=1.0))
    h = mesh.h[0]
    u_ext = np.concatenate([mesh.node_coords[:, 0], [-h, 1.0 + h]])
    assert np.max(np.abs(ops.A_max @ u_ext)) < 1e-10
    assert np.allclose(ops.L @ u_ext, [-1.0, 1.0], atol=1e-12)
    # R u = L u + (rho/m) trace(u): hand evaluation of the 2x2 boundary algebra
    assert np.allclose(ops.R @ u_ext, [-1.0, 2.0], atol=1e-12)


def test_r_equals_l_minus_b2_exactly(biharmonic_sys, neutral_strip):
    mesh = ab.build_strip_mesh(5, 4)
    wave = ab.assemble_wave_operator(mesh, const_coeffs(6, rho=2.0, m=0.5, d=1.0, k=3.0))
    for ops in (wave, biharmonic_sys[1].ops, neutral_strip[1].ops):
        recon = ops.L.copy()
        recon[:, :ops.n] -= ops.B2
        assert np.array_equal(ops.R, recon)


def test_wave_boundary_multiplication_operators():
    mesh = ab.build_interval_mesh(8, 1.0)
    ops = ab.assemble_wave_operator(mesh, const_coeffs(2, d=3.0, k=2.0, m=2.0))
    assert np.allclose(np.diag(ops.B4), [-1.5, -1.5])
    assert np.allclose(np.diag(ops.B3), [-1.0, -1.0])
    # diagonal real operators: norm = max |entry|
    assert np.linalg.norm(ops.B4, 2) == pytest.approx(1.5)


def test_divergence_matches_constant_assembly():
    mesh = ab.build_interval_mesh(16, 1.0)
    ops_c = ab.assemble_wave_operator(mesh, const_coeffs(2, c=2.0, rho=1.0, d=1.0))
    a = np.full(mesh.n_nodes, 4.0)
    ops_d = ab.assemble_wave_operator(mesh, const_coeffs(2, c=1.0, rho=1.0, d=1.0, a=a))
    assert np.max(np.abs(ops_c.A_max - ops_d.A_max)) < 1e-12
    assert ops_d.model_tag == "divergence"


def test_divergence_restricted_symmetry():
    mesh = ab.build_strip_mesh(5, 4)
    cfg = ab.parse_config(json.dumps({
        "geometry": {"kind": "strip", "nx": 5, "ny": 4},
        "model": "divergence",
        "coefficients": {"a": "1 + x*y + 0.3*x", "rho": "1"}}))
    co = ab.sample_coefficients(cfg, mesh)
    ops = ab.assemble_wave_operator(mesh, co)
    A0 = ab.assemble_block_generator(ops).A0
    WA = ops.state_weights[:, None] * A0
    assert np.linalg.norm(WA - WA.T) / np.linalg.norm(WA) < 1e-13


def test_wave_neumann_restriction_matches_dispersion():
    # rho/m = 0: restricted operator is the Neumann stencil with eigenvalues
    # 2(cos(k pi h)-1)/h^2, exactly representable by cosine modes
    mesh, sys = wave_system(n_cells=16, rho="0")
    h = 1.0 / 16
    vals = np.sort(np.linalg.eigvals(sys.A0).real)[::-1]
    expected = np.sort([2.0 * (np.cos(k * np.pi * h) - 1.0) / h ** 2
                        for k in range(17)])[::-1]
    assert np.allclose(vals, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# biharmonic assembly
# ---------------------------------------------------------------------------
def test_biharmonic_pins_endpoints(biharmonic_sys):
    mesh, sys = biharmonic_sys
    ops = sys.ops
    assert ops.n == mesh.n_nodes - 2
    xs = mesh.node_coords[ops.state_node_idx, 0]
    u = xs * (1 - xs)
    assert np.all(ops.state_node_idx > 0)
    assert u.shape == (ops.n,)


def test_biharmonic_annihilates_cubics(biharmonic_sys):
    mesh, sys = biharmonic_sys
    ops = sys.ops
    f = lambda t: t * (1 - t) * (t + 0.3)
    xs = mesh.node_coords[1:-1, 0]
    h = mesh.h[0]
    u_ext = np.concatenate([f(xs), [f(-h), f(1 + h)]])
    assert np.max(np.abs(ops.A_max @ u_ext)) < 1e-8


def test_biharmonic_s_zero_gives_r_equal_l():
    mesh = ab.build_interval_mesh(32, 1.0)
    co = const_coeffs(2, r=np.zeros(2), s=np.zeros(2), p=np.zeros(2), q=np.zeros(2))
    ops = ab.assemble_biharmonic_operator(mesh, co)
    assert np.array_equal(ops.R, ops.L)
    A0 = ab.assemble_block_generator(ops).A0
    WA = ops.state_weights[:, None] * A0
    assert np.linalg.norm(WA - WA.T) / np.linalg.norm(WA) < 1e-10


def test_biharmonic_rejects_strip():
    mesh = ab.build_strip_mesh(4, 4)
    with pytest.raises(ConfigurationError, match="interval"):
        ab.assemble_biharmonic_operator(mesh, const_coeffs(5))


# ---------------------------------------------------------------------------
# neutral transform
# ---------------------------------------------------------------------------
def test_neutral_transform_identity_and_scaling():
    mesh = ab.build_strip_mesh(4, 4)
    ops = ab.assemble_wave_operator(mesh, const_coeffs(5, rho=1.0, d=1.0, k=1.0))
    same = ab.apply_neutral_transform(ops, np.zeros((5, 5)))
    assert np.array_equal(same.B2, ops.B2)
    assert np.array_equal(same.R, ops.R)
    halved = ab.apply_neutral_transform(ops, -np.eye(5))
    for name in ("B1", "B2", "B3", "B4"):
        assert np.allclose(getattr(halved, name), 0.5 * getattr(ops, name), atol=1e-15)


def test_neutral_default_m_annihilates_constants():
    mesh = ab.build_strip_mesh(4, 4)
    M = ab.default_boundary_laplacian(mesh)
    assert np.allclose(M @ np.ones(5), 0.0, atol=1e-12)
    S = np.linalg.inv(np.eye(5) - M)
    assert np.allclose(S.sum(axis=1), 1.0, atol=1e-12)


def test_neutral_transform_rejects_singular():
    mesh = ab.build_strip_mesh(4, 4)
    ops = ab.assemble_wave_operator(mesh, const_coeffs(5))
    with pytest.raises(AssumptionError, match="A8"):
        ab.apply_neutral_transform(ops, np.eye(5))


def test_neutral_preserves_realness():
    mesh = ab.build_strip_mesh(4, 4)
    ops = ab.assemble_wave_operator(mesh, const_coeffs(5, d=2.0, k=1.0))
    M = ab.default_boundary_laplacian(mesh)
    out = ab.apply_neutral_transform(ops, M)
    assert not np.iscomplexobj(out.B3)
    assert not np.iscomplexobj(out.B4)


# ---------------------------------------------------------------------------
# assumption checks (the ghost rank and the symmetry of A0 are refused at
# assembly: test_blockops.py, test_resolvent.py)
# ---------------------------------------------------------------------------
def assert_ladder_contracts(sys):
    lam0, contraction, worst_ratio = check_assumptions(sys)
    assert lam0 <= 2 ** 16
    assert contraction < 1.0
    assert worst_ratio <= 1.0 + 1e-10


def test_check_assumptions_wave(abc1d):
    # the ladder is defined on any assembled system; verify reads it on
    # neutral ones only
    assert_ladder_contracts(abc1d[1])


def test_check_assumptions_neutral_ladder(neutral_strip):
    assert_ladder_contracts(neutral_strip[1])


def test_neutral_form_matrix_symmetry(neutral_strip):
    mesh, sys = neutral_strip
    F = neutral_form_matrix(sys.ops, mesh)
    assert np.linalg.norm(F - F.T) / np.linalg.norm(F) < 1e-10


def test_overflowing_operator_block_is_refused():
    # B4 = -d/m overflows for a subnormal boundary mass; B3 = -k/m = 0
    mesh = ab.build_interval_mesh(8, 1.0)
    with pytest.raises(ModelError, match="operator block B4 has non-finite entries"):
        ab.assemble_wave_operator(mesh, const_coeffs(2, rho=1e-310, m=1e-310, d=1.0))


def test_neutral_transform_freezes_its_own_copy_of_m():
    mesh = ab.build_strip_mesh(4, 4)
    ops = ab.assemble_wave_operator(mesh, const_coeffs(5, d=2.0, k=1.0))
    M = ab.default_boundary_laplacian(mesh)
    out = ab.apply_neutral_transform(ops, M)
    assert not np.shares_memory(out.M, M)
    M[0, 0] += 1.0                  # the caller's array stays writable
    with pytest.raises(ValueError):
        out.M[0, 0] = 0.0
