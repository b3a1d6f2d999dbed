import dataclasses
import pickle

import numpy as np
import pytest
import scipy.linalg

import abclab as ab
from abclab.dynamics import (boundary_dissipation, energy_defined, propagator,
                             propagator_frozen, propagator_norms, taylor_expm)
from abclab.errors import ConfigurationError, ModelError


def smooth_cfg(base, n_cells=32, d="1"):
    return dataclasses.replace(
        base,
        geometry={**base.geometry, "n_cells": n_cells},
        coefficients={**base.coefficients, "d": d},
        initial={"f": "sin(3.141592653589793*x)^2", "g": "0", "h": "0", "j": "0"})


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------
def test_propagator_identity_at_zero(abc1d):
    _, sys = abc1d
    assert np.allclose(propagator(sys, 0.0), np.eye(sys.state_dim), atol=1e-14)


def test_propagator_group_law(abc1d):
    _, sys = abc1d
    P = propagator(sys, 1.0)
    Ps, Pt = propagator(sys, 0.3), propagator(sys, 0.7)
    assert np.linalg.norm(P - Ps @ Pt, 2) / np.linalg.norm(P, 2) < 1e-8


def test_propagator_time_reversal(abc1d):
    _, sys = abc1d
    P, Pm = propagator(sys, 0.7), propagator(sys, -0.7)
    assert np.linalg.norm(Pm @ P - np.eye(sys.state_dim), 2) < 1e-8


def test_propagator_matches_scipy(abc1d_cfg, special):
    # special-case has the only well-conditioned eigenbasis (cond 91) among
    # the shipped scenarios; abc-1d's is ill conditioned (cond 1.7e7)
    cfg = dataclasses.replace(abc1d_cfg,
                              geometry={**abc1d_cfg.geometry, "n_cells": 16})
    for _, sys in (ab.build_system(cfg), special):
        P = propagator(sys, 0.1)
        ref = scipy.linalg.expm(sys.Acal * 0.1)
        assert np.linalg.norm(P - ref, 2) / np.linalg.norm(ref, 2) < 1e-8


def test_taylor_expm_against_scipy(abc1d):
    _, sys = abc1d
    t = 0.05
    assert np.linalg.norm(taylor_expm(sys.Acal * t) - scipy.linalg.expm(sys.Acal * t), 2) \
        / np.linalg.norm(scipy.linalg.expm(sys.Acal * t), 2) < 1e-12


def test_group_is_not_contractive(abc1d):
    mesh, sys = abc1d
    norms = propagator_norms(sys, mesh, 0.5)
    assert norms["euclidean"] > 1.0
    assert np.isfinite(norms["energy_weighted"])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------
def test_zero_state_stays_zero(abc1d):
    mesh, sys = abc1d
    traj = ab.simulate(sys, np.zeros(sys.state_dim), np.linspace(0, 1, 11), mesh=mesh)
    assert np.max(np.abs(traj.states)) == 0.0
    assert traj.energies[0] == 0.0


def test_exact_vs_rk4(abc1d_cfg, special_cfg):
    t = np.linspace(0, 1, 1001)
    for cfg in (smooth_cfg(abc1d_cfg), smooth_cfg(special_cfg)):
        mesh, sys = ab.build_system(cfg)
        u0 = ab.initial_state_from_config(cfg, mesh, sys)
        te = ab.simulate(sys, u0, t)
        tr = ab.simulate(sys, u0, t, method="rk4", mesh=mesh)
        assert np.max(np.abs(te.states - tr.states)) < 1e-6


def test_operations_leave_system_unchanged(special_cfg):
    mesh, sys = ab.build_system(special_cfg)
    fields = dict(vars(sys))
    snapshot = pickle.dumps(sys)
    u0 = ab.initial_state_from_config(special_cfg, mesh, sys)
    for method in ("exact", "rk4"):
        ab.simulate(sys, u0, np.linspace(0, 0.5, 101), method=method, mesh=mesh)
    ab.energy(u0, sys, mesh)
    ab.robin_comparison(sys, u0, np.geomspace(1e-3, 1.0, 7))
    ev = ab.PencilEvaluator(sys)
    ab.pencil_roots(ev, [0.5 + 1.5j])
    ab.count_roots_in_box(ev, (-1.5, 0.5, -0.5, 0.5), 8)
    assert vars(sys).keys() == fields.keys()
    assert all(vars(sys)[k] is v for k, v in fields.items())
    assert pickle.dumps(sys) == snapshot


def test_rk4_warns_above_stability_bound(abc1d_cfg):
    cfg = smooth_cfg(abc1d_cfg, n_cells=32)
    mesh, sys = ab.build_system(cfg)
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    with pytest.warns(UserWarning, match="stability bound"):
        ab.simulate(sys, u0, np.linspace(0.0, 0.5, 3), method="rk4", mesh=mesh)


def test_simulate_rejects_bad_grid(abc1d):
    mesh, sys = abc1d
    with pytest.raises(ConfigurationError):
        ab.simulate(sys, np.zeros(sys.state_dim), np.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------
def test_energy_zero_and_quadratic_scaling(abc1d, abc1d_cfg):
    mesh, sys = abc1d
    assert ab.energy(np.zeros(sys.state_dim), sys, mesh) == 0.0
    u0 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    e1 = ab.energy(u0, sys, mesh)
    e2 = ab.energy(2 * u0, sys, mesh)
    assert e2 == pytest.approx(4 * e1, rel=1e-12)


@pytest.mark.parametrize("system", ["abc1d", "neutral_strip"])
def test_energy_of_stack_matches_rows(system, request):
    mesh, sys = request.getfixturevalue(system)
    states = np.random.default_rng(3).standard_normal((5, sys.state_dim))
    rows = np.array([ab.energy(s, sys, mesh) for s in states])
    assert np.allclose(ab.energy(states, sys, mesh), rows, rtol=1e-13, atol=0)


def test_energy_conserved_without_resistivity(abc1d_cfg):
    cfg = dataclasses.replace(abc1d_cfg,
                              coefficients={**abc1d_cfg.coefficients, "d": "0"})
    mesh, sys = ab.build_system(cfg)
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    traj = ab.simulate(sys, u0, np.linspace(0, 10, 101), mesh=mesh)
    E = traj.energies
    assert np.max(np.abs(E - E[0])) <= 1e-8 * E[0]


def test_energy_monotone_with_resistivity(abc1d_cfg, abc1d):
    mesh, sys = abc1d
    u0 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    traj = ab.simulate(sys, u0, np.linspace(0, 5, 501), mesh=mesh)
    E = traj.energies
    assert np.all(np.diff(E) <= 1e-9 * E[0])
    assert E[-1] < E[0]


def test_energy_rate_matches_boundary_dissipation(abc1d_cfg, abc1d):
    mesh, sys = abc1d
    u0 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    dt = 1e-4
    e_plus = ab.energy(propagator(sys, dt) @ u0, sys, mesh)
    e_minus = ab.energy(propagator(sys, -dt) @ u0, sys, mesh)
    rate = (e_plus - e_minus) / (2 * dt)
    expected = -boundary_dissipation(u0, sys)
    assert rate == pytest.approx(expected, rel=0.05)


def test_energy_undefined_for_negative_resistivity(abc1d_cfg):
    cfg = dataclasses.replace(abc1d_cfg,
                              coefficients={**abc1d_cfg.coefficients, "d": "0-1"})
    mesh, sys = ab.build_system(cfg)
    ok, why = energy_defined(sys)
    assert not ok and "d >= 0" in why
    with pytest.raises(ModelError, match="energy undefined"):
        ab.energy(np.zeros(sys.state_dim), sys, mesh)
    # simulation still permitted, energies omitted
    traj = ab.simulate(sys, np.zeros(sys.state_dim), np.linspace(0, 1, 5), mesh=mesh)
    assert traj.energies is None


def test_neutral_energy_monotone(neutral_cfg, neutral_strip):
    mesh, sys = neutral_strip
    u0 = ab.initial_state_from_config(neutral_cfg, mesh, sys)
    traj = ab.simulate(sys, u0, np.linspace(0, 2, 21), mesh=mesh)
    E = traj.energies
    assert np.all(np.diff(E) <= 1e-8 * E[0])


# ---------------------------------------------------------------------------
# trajectory consistency
# ---------------------------------------------------------------------------
def test_consistency_residuals(abc1d_cfg):
    cfg = smooth_cfg(abc1d_cfg)
    mesh, sys = ab.build_system(cfg)
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    traj = ab.simulate(sys, u0, np.linspace(0, 1, 1001), mesh=mesh)
    cons = traj.consistency
    assert cons["integral_max"] < 1e-5
    assert cons["constraint_max"] < 1e-10
    # halving dt divides the time-quadrature residuals by about 4
    traj2 = ab.simulate(sys, u0, np.linspace(0, 1, 2001), mesh=mesh)
    assert traj2.consistency["integral_max"] < 0.35 * cons["integral_max"]
    assert traj2.consistency["second_order_max"] < 0.35 * cons["second_order_max"]


# ---------------------------------------------------------------------------
# frozen-boundary comparison
# ---------------------------------------------------------------------------
def test_robin_comparison_trivial_when_feedback_absent(abc1d_cfg):
    cfg = dataclasses.replace(
        abc1d_cfg, coefficients={**abc1d_cfg.coefficients, "d": "0", "k": "0"})
    mesh, sys = ab.build_system(cfg)
    assert np.max(np.abs(sys.A2cal)) == 0.0
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    _, rep = ab.robin_comparison(sys, u0, np.geomspace(1e-3, 1.0, 7))
    assert np.max(rep["dev_state"]) < 1e-9


def test_robin_comparison_duhamel_limit(abc1d_cfg, abc1d):
    mesh, sys = abc1d
    u0 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    t = np.geomspace(1e-3, 1e-1, 9)
    _, rep = ab.robin_comparison(sys, u0, t)
    assert abs(rep["ratio"][0] - rep["A2u0_norm"]) <= 0.2 * rep["A2u0_norm"]
    assert np.all(rep["dev_state"] <= t * rep["M_est"] + 1e-12)
    assert rep["ratio_factor_ok"]


def test_robin_comparison_rejects_late_times(abc1d):
    _, sys = abc1d
    with pytest.raises(ConfigurationError, match=r"\(0, 1\]"):
        ab.robin_comparison(sys, np.zeros(sys.state_dim), np.array([0.5, 1.5]))


def test_frozen_propagator_matches_scipy(abc1d):
    _, sys = abc1d
    P = propagator_frozen(sys, 0.2)
    ref = scipy.linalg.expm(sys.A1cal * 0.2)
    assert np.linalg.norm(P - ref, 2) / np.linalg.norm(ref, 2) < 1e-12


def test_complex_resistivity_simulation():
    # d, k are complex-capable: the coupled generator and its trajectories
    # become complex; energies are gated off
    mesh = ab.build_interval_mesh(16, 1.0)
    co = ab.CoefficientSet(c=1.0, rho=np.ones(2), m=np.ones(2),
                           d=np.array([1.0 + 0.5j, 1.0 - 0.5j]),
                           k=np.array([1.0 + 0j, 1.0 + 0j]))
    sys = ab.assemble_block_generator(ab.assemble_wave_operator(mesh, co))
    assert np.iscomplexobj(sys.Acal)
    assert not energy_defined(sys)[0]
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(sys.state_dim)
    traj = ab.simulate(sys, u0, np.linspace(0.0, 0.5, 6), mesh=mesh)
    assert np.iscomplexobj(traj.states)
    assert np.all(np.isfinite(traj.states))
    assert traj.energies is None
    assert traj.consistency["constraint_max"] < 1e-10
