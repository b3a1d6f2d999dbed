import dataclasses
import os
import pickle
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import abclab as ab
from abclab import dynamics
from abclab.cli import main
from abclab._linalg import NonzeroOperator, opnorm
from abclab.dynamics import energy_defined, taylor_expm
from abclab.errors import ConfigurationError, ModelError, NumericalError
from abclab.mesh import _interval_weights
from abclab.model import stiffness_matrix

from conftest import CONFIG_DIR, boundary_dissipation, load, wave_system

# output times of `abclab compare-robin`
ROBIN_GRID = np.concatenate([np.geomspace(1e-3, 1e-1, 21), np.linspace(0.2, 1.0, 9)])


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
    assert np.allclose(taylor_expm(sys.Acal * 0.0), np.eye(sys.state_dim), atol=1e-14)


def test_propagator_group_law(abc1d):
    _, sys = abc1d
    P = taylor_expm(sys.Acal * 1.0)
    Ps, Pt = taylor_expm(sys.Acal * 0.3), taylor_expm(sys.Acal * 0.7)
    assert np.linalg.norm(P - Ps @ Pt, 2) / np.linalg.norm(P, 2) < 1e-8


def test_propagator_time_reversal(abc1d):
    _, sys = abc1d
    P, Pm = taylor_expm(sys.Acal * 0.7), taylor_expm(sys.Acal * -0.7)
    assert np.linalg.norm(Pm @ P - np.eye(sys.state_dim), 2) < 1e-8


def test_propagator_matches_scipy(abc1d_cfg, special):
    # abc-1d (at 16 cells) and special-case: B1 = 0 against matched feedback
    # B1 = -B4 B2 with B3 = 0
    cfg = dataclasses.replace(abc1d_cfg,
                              geometry={**abc1d_cfg.geometry, "n_cells": 16})
    for _, sys in (ab.build_system(cfg), special):
        P = taylor_expm(sys.Acal * 0.1)
        ref = scipy.linalg.expm(sys.Acal * 0.1)
        assert np.linalg.norm(P - ref, 2) / np.linalg.norm(ref, 2) < 1e-8


# ---------------------------------------------------------------------------
# stepping: the action in blocks of output times, or one dense step on the
# uniform grids where the cost rule says so
# ---------------------------------------------------------------------------
def strip_system(neutral_cfg, nx):
    return ab.build_system(dataclasses.replace(
        neutral_cfg, geometry={**neutral_cfg.geometry, "nx": nx, "ny": nx}))


def test_taylor_expm_calls_per_grid(monkeypatch, abc1d, special, neutral_strip, tmp_path):
    calls = []
    real = dynamics.taylor_expm
    monkeypatch.setattr(dynamics, "taylor_expm", lambda mat: calls.append(1) or real(mat))
    # the grid of `abclab simulate --t-final 10 --dt 0.01`: the intervals take
    # the dense route, the strip the action
    for (_, sys), expm_calls in ((abc1d, 1), (special, 1), (neutral_strip, 0)):
        calls.clear()
        ab.simulate(sys, np.ones(sys.state_dim), np.linspace(0, 10, 1001))
        assert len(calls) == expm_calls
    calls.clear()
    assert main(["compare-robin", "--config", str(CONFIG_DIR / "abc-1d.json"),
                 "--out", str(tmp_path / "robin.csv")]) == 0
    assert len(calls) == 0


class _RouteChosen(Exception):
    pass


def uniform_route(mat, t_grid):
    """The route _flow picks for a uniform grid, stopped before any stepping."""
    real = dynamics._dense_pays

    def spy(*args):
        raise _RouteChosen("dense" if real(*args) else "action")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_dense_pays", spy)
        with pytest.raises(_RouteChosen) as chosen:
            dynamics._flow(mat, np.ones(mat.shape[0]), t_grid)
    return str(chosen.value)


@pytest.mark.parametrize("system, route", [
    ("abc1d", "dense"), ("special", "dense"), (8, "dense"), (16, "action"), (24, "action")])
def test_uniform_route_by_cost_rule(request, neutral_cfg, system, route):
    # the shipped intervals and the strip ladder on the simulate grid at
    # T = 10, dt = 0.01; nx = 16 is the shipped strip
    _, sys = (strip_system(neutral_cfg, system) if isinstance(system, int)
              else request.getfixturevalue(system))
    assert uniform_route(sys.Acal, np.linspace(0, 10, 1001)) == route


def test_theta_table_matches_published_values():
    # Al-Mohy and Higham 2011, Table 3.1 (double precision), m = 5, 10, ..., 55
    table = [2.4e-3, 1.4e-1, 6.4e-1, 1.4, 2.4, 3.5, 4.7, 6.0, 7.2, 8.5, 9.9]
    assert np.allclose(dynamics.THETA[4::5], table, rtol=0.05, atol=0)
    # leading order for small m: theta_m^m / (m+1)! = 2^-53
    u = 2.0 ** -53
    assert np.allclose(dynamics.THETA[:3], [2 * u, np.sqrt(6 * u), np.cbrt(24 * u)],
                       rtol=1e-5, atol=0)


def _relative_errors(states, refs):
    return np.linalg.norm(states - refs, axis=1) / np.linalg.norm(refs, axis=1)


@pytest.mark.parametrize("generator", ["Acal", "A1cal"])
@pytest.mark.parametrize("system", ["abc1d", "special", "neutral_strip", "complex_sys"])
def test_action_flow_matches_dense_exponentials(system, generator, request):
    _, sys = request.getfixturevalue(system)
    mat = getattr(sys, generator)
    s = np.random.default_rng(7).standard_normal(sys.state_dim).astype(mat.dtype)
    states = dynamics._flow(mat, s, ROBIN_GRID)
    # the strip's dense references are checked at the ends of the grid only
    idx = [0, 10, 20, 29] if system == "neutral_strip" else range(ROBIN_GRID.size)
    taylor = np.array([taylor_expm(mat * ROBIN_GRID[i]) @ s for i in idx])
    ref = np.array([scipy.linalg.expm(mat * ROBIN_GRID[i]) @ s for i in idx])
    assert np.max(_relative_errors(states[idx], taylor)) < 1e-10
    assert np.max(_relative_errors(states[idx], ref)) < 1e-10


# every alpha_p of the zero matrix is 0, and so is alpha_8 of a nilpotent
# Jordan block of size at most 8 (its eighth power vanishes): the reach is
# infinite and the whole grid is one block
_GENERATORS = ("abc1d", "zero", "jordan")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stepped_states_match_taylor_on_any_grid(abc1d, data):
    kind = data.draw(st.sampled_from(_GENERATORS), label="generator")
    if kind == "abc1d":
        mat = abc1d[1].Acal
    elif kind == "zero":
        mat = np.zeros((4, 4))
    else:
        size = data.draw(st.integers(2, 8), label="size")
        mat = data.draw(st.floats(0.1, 10.0), label="scale") * np.eye(size, k=1)
    lead = data.draw(st.lists(st.floats(-1.0, 0.0), min_size=1, max_size=3, unique=True),
                     label="nonpositive")
    grid = data.draw(st.sampled_from(["random", "uniform", "one reach"]), label="grid")
    if grid == "random":
        positive = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1,
                                      max_size=6, unique=True), label="positive")
    elif grid == "uniform":
        gap = data.draw(st.floats(1e-3, 0.1), label="gap")
        positive = gap * np.arange(1, data.draw(st.integers(2, 40), label="K") + 1)
    else:
        # within abc-1d's reach theta_55 / min_p alpha_p = 0.071
        positive = data.draw(st.lists(st.floats(0.0, 0.04, exclude_min=True), min_size=2,
                                      max_size=8, unique=True), label="positive")
    t_grid = np.concatenate([sorted(lead), sorted(positive)])
    s = np.linspace(-1.0, 1.0, mat.shape[0])
    if data.draw(st.booleans(), label="complex"):
        s = s + 1j * s[::-1]
    states = dynamics._flow(mat, s, t_grid)
    refs = np.array([taylor_expm(mat * max(t, 0.0)) @ s for t in t_grid])
    assert np.max(_relative_errors(states, refs)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 0.2, exclude_min=True), min_size=1, max_size=8, unique=True),
       st.integers(1, 4))
@example(offsets=[5e-324], extra=2)
def test_action_steps_serve_every_offset(abc1d, offsets, extra):
    # more steps than planned put the offsets of one call into different
    # steps, each read off its own step's terms; at the smallest subnormal
    # offset the step h underflows to 0 and the action returns s, without a
    # divide-by-zero warning
    _, sys = abc1d
    offsets = np.array(sorted(offsets))
    op = NonzeroOperator(sys.Acal)
    alphas = dynamics._power_alphas(op)
    m, matvecs = dynamics._action_plan(offsets[-1:], alphas)
    s = np.linspace(-1.0, 1.0, sys.state_dim)
    states = dynamics._expm_action(op, s, offsets, int(m[0]), int(matvecs[0] // m[0]) * extra)
    refs = np.array([taylor_expm(sys.Acal * t) @ s for t in offsets])
    assert np.max(_relative_errors(states, refs)) < 1e-10


def sequential_uniform_flow(mat, s, t_grid):
    """One propagator matvec per positive gap: the reference for blocked stepping."""
    gaps = np.diff(np.maximum(t_grid, 0.0), prepend=0.0)
    P = taylor_expm(mat * gaps[gaps > 0].mean())
    states = np.empty((t_grid.size, s.size), dtype=s.dtype)
    for i, gap in enumerate(gaps):
        if gap > 0:
            s = P @ s
        states[i] = s
    return states


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blocked_uniform_flow_matches_sequential_steps(data):
    n = data.draw(st.integers(2, 40), label="n")
    K = data.draw(st.integers(2, 3 * n).filter(lambda k: k % 8), label="K")
    gap = data.draw(st.floats(0.01, 1.0), label="gap")
    lead = data.draw(st.lists(st.floats(-1.0, 0.0), max_size=3, unique=True), label="lead")
    unit = st.floats(-1.0, 1.0)
    skew = data.draw(arrays(float, (n, n), elements=unit), label="skew")
    # damping of at most e^-1 over the grid keeps ||s_k|| near ||s_0||
    damping = data.draw(arrays(float, n, elements=st.floats(0.0, 1.0)), label="damping")
    mat = 0.5 * (skew - skew.T) - np.diag(damping / (K * gap))
    s = data.draw(arrays(float, n, elements=unit), label="s")
    if data.draw(st.booleans(), label="complex"):
        s = s + 1j * data.draw(arrays(float, n, elements=unit), label="imag")
    t_grid = np.concatenate([sorted(lead), gap * np.arange(1, K + 1)])
    states = dynamics._flow(mat, s, t_grid)
    ref = sequential_uniform_flow(mat, s, t_grid)
    assert states.dtype == ref.dtype
    # a generator with tiny power bounds can send the grid to the action
    if K < n and uniform_route(mat, t_grid) == "dense":
        assert states.tobytes() == ref.tobytes()
    else:
        assert np.all(np.linalg.norm(states - ref, axis=1)
                      <= 1e-12 * np.linalg.norm(ref, axis=1))


def test_blocked_strip_flow_against_scipy(neutral_strip):
    # the simulate grid at T = 10, dt = 0.01, which the strip steps by the
    # action in blocks of 20 output times
    _, sys = neutral_strip
    t_grid = np.linspace(0.0, 10.0, 1001)
    s0 = np.random.default_rng(7).standard_normal(sys.state_dim)
    states = ab.simulate(sys, s0, t_grid).states
    for k in (1, 8, 9, 500, 1000):
        ref = scipy.linalg.expm(sys.Acal * t_grid[k]) @ s0
        # rounding accumulates block by block: 3.2e-12 measured at k = 1000
        assert np.linalg.norm(states[k] - ref) / np.linalg.norm(ref) < 1e-14 * k


def exact_power_alphas(mat):
    """alpha_p from exact 1-norms of dense powers: the reference for the bound."""
    d = []
    P = mat
    for p in range(2, dynamics.ACTION_P_MAX + 2):
        P = P @ mat
        d.append(float(np.linalg.norm(P, 1)) ** (1.0 / p))
    return np.maximum(d[:-1], d[1:])


def balanced(mat, exponents=None):
    """D^-1 mat D for D = diag(2^exponents), by default those of ``_balance``."""
    e = dynamics._balance(NonzeroOperator(mat)) if exponents is None else exponents
    return mat * np.ldexp(1.0, e[None, :] - e[:, None])


@pytest.fixture(scope="module")
def strip_k0():
    return ab.build_system(load("timoshenko-strip-k0"))


SHIPPED = ("abc1d", "special", "neutral_strip", "strip_k0")


@pytest.mark.parametrize("generator", ["Acal", "A1cal"])
@pytest.mark.parametrize("system", SHIPPED + ("complex_sys", "biharmonic_sys", "divergence_sys"))
def test_power_alphas_bound_exact_alphas(system, generator, request):
    # the bounds are those of the balanced matrix, which both routes run on
    # in effect (a power-of-two similarity rounds nothing)
    _, sys = request.getfixturevalue(system)
    mat = getattr(sys, generator)
    bound, exact = dynamics._power_alphas(mat), exact_power_alphas(balanced(mat))
    assert np.all(bound >= exact * (1 - 1e-12))
    if system in SHIPPED:
        # the shipped configs: a loose bound would silently inflate the step cost
        assert np.all(bound <= 1.01 * exact)


@pytest.mark.parametrize("generator", ["Acal", "A1cal"])
@pytest.mark.parametrize("system", SHIPPED)
def test_balancing_is_by_powers_of_two_and_settles_in_two_sweeps(
        system, generator, request, monkeypatch):
    _, sys = request.getfixturevalue(system)
    mat = getattr(sys, generator)
    e = dynamics._balance(NonzeroOperator(mat))
    assert e.dtype.kind == "i" and np.any(e)
    # D = 2^e is exact: each entry is a normal power of two
    assert np.all(np.frexp(np.ldexp(1.0, e))[0] == 0.5)
    # the balancing test: D lowers the 1-norm, here by a factor of 10 or more
    assert 10 * np.linalg.norm(balanced(mat, e), 1) <= np.linalg.norm(mat, 1)
    monkeypatch.setattr(dynamics, "_BALANCE_SWEEPS", 2)
    assert np.array_equal(dynamics._balance(NonzeroOperator(mat)), e)


def test_balancing_is_independent_of_the_blas_thread_count(tmp_path):
    # D comes from elementwise ufuncs and bincount, no BLAS call
    script = tmp_path / "exponents.py"
    script.write_text(
        "from sys import argv\n"
        "import abclab as ab\n"
        "from abclab import dynamics\n"
        "from abclab._linalg import NonzeroOperator\n"
        "_, system = ab.build_system(ab.load_config(argv[1]))\n"
        "for mat in (system.Acal, system.A1cal):\n"
        "    print(dynamics._balance(NonzeroOperator(mat)).tolist())\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs.append(subprocess.run(
            [executable, str(script), str(CONFIG_DIR / "timoshenko-strip.json")],
            env=env, check=True, capture_output=True, text=True, timeout=300).stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2


def test_balancing_refuses_a_scaling_that_loses_an_entry():
    # balancing index 0 against index 1 by 2^(+-498) would take the entry
    # 1e-300 of row 0 to about 1e-450, below the float range: D is refused
    mat = np.array([[0.0, 1e300, 1e-300], [1e-300, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert not np.any(dynamics._balance(NonzeroOperator(mat)))
    assert np.all(dynamics._power_alphas(mat) >= exact_power_alphas(mat) * (1 - 1e-12))
    # without that entry, D is exact and balances the pair to within a factor 4
    mat[0, 2] = 0.0
    pair = balanced(mat)[:2, :2]
    assert 0.25 <= pair[0, 1] / pair[1, 0] <= 4.0


def action_plan(mat, t_grid):
    """Blocks and matvecs of the action's plan for a grid of positive times,
    planned as ``_flow`` plans them."""
    alphas = dynamics._power_alphas(mat)
    ends = dynamics._blocks(t_grid, 0, float(dynamics.THETA[-1]) / float(np.min(alphas)))
    _, matvecs = dynamics._action_plan(np.diff(t_grid[ends - 1], prepend=0.0), alphas)
    return ends.size, int(np.sum(matvecs))


SIMULATE_GRID = np.linspace(0.01, 10.0, 1000)     # `simulate --t-final 10 --dt 0.01`


# matvecs of the action's plans before balancing: (simulate grid, compare-robin
# grids of Acal and A1cal together)
_UNBALANCED_MATVECS = {"abc1d": (13750, 3050), "special": (6126, 1642),
                       "neutral_strip": (4235, 980), "strip_k0": (4235, 980)}


@pytest.mark.parametrize("system", SHIPPED)
def test_balancing_cuts_the_planned_matvecs(system, request):
    _, sys = request.getfixturevalue(system)
    simulate = action_plan(sys.Acal, SIMULATE_GRID)
    robin = sum(action_plan(mat, ROBIN_GRID)[1] for mat in (sys.Acal, sys.A1cal))
    before = _UNBALANCED_MATVECS[system]
    assert simulate[1] <= before[0] and robin <= before[1]
    if system == "neutral_strip":
        # the strip of the benchmark: 77 blocks and 4235 matvecs unbalanced
        assert simulate[0] <= 55 and simulate[1] <= 2900


def test_balancing_plans_no_more_than_lapack_gebal(neutral_strip, monkeypatch):
    # LAPACK's gebal balances by powers of two as well, one index at a time
    _, sys = neutral_strip
    ours = action_plan(sys.Acal, SIMULATE_GRID)
    _, (scale, _) = scipy.linalg.matrix_balance(sys.Acal, permute=False, separate=True)
    mantissa, exponent = np.frexp(scale)
    assert np.all(mantissa == 0.5)
    monkeypatch.setattr(dynamics, "_balance", lambda op: exponent - 1)
    assert ours[1] <= action_plan(sys.Acal, SIMULATE_GRID)[1]


# nonzero magnitudes of at least 1e-3 keep the dense reference's ninth powers
# out of the subnormal range, where the reference itself loses digits
_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.one_of(
    arrays(float, (n, n), elements=_ENTRIES),
    arrays(complex, (n, n), elements=st.builds(complex, _ENTRIES, _ENTRIES)))))
def test_power_alphas_bound_random_matrices(mat):
    bound = dynamics._power_alphas(mat)
    assert np.all(bound >= exact_power_alphas(balanced(mat)) * (1 - 1e-12))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_generator_is_numerical_error(bad):
    mat = np.diag([-1.0, -2.0, -3.0, -4.0])
    mat[1, 2] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        taylor_expm(mat)
    with pytest.raises(NumericalError, match="non-finite"):
        dynamics._flow(mat, np.ones(4), ROBIN_GRID)


# every overflow ends in a NumericalError, and numpy's RuntimeWarning about it
# must not escape as well
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_is_numerical_error():
    big = 1e300 * np.eye(3)
    with pytest.raises(NumericalError, match="overflowed"):
        taylor_expm(big)
    # the action route refuses a plan past its matvec cap before stepping
    # (5.6e300 and 5.6e10 matvecs), and stops at the first step whose result
    # overflows (e^{1e4 t} at t = 0.071, on a plan of 5.6e4 matvecs)
    for scale in (1e300, 1e10):
        with pytest.raises(NumericalError, match="matvecs, more than ACTION_MATVEC_MAX"):
            dynamics._flow(scale * np.eye(3), np.ones(3), ROBIN_GRID)
    with pytest.raises(NumericalError, match="overflowed"):
        dynamics._flow(1e4 * np.eye(3), np.ones(3), ROBIN_GRID)
    # the dense route of a uniform grid refuses states that grow past the range
    with pytest.raises(NumericalError, match="dense flow .* overflowed"):
        dynamics._flow(500.0 * np.eye(3), np.ones(3), np.linspace(0.0, 10.0, 1001))
    # a finite bound stays in range up to the top of the float range, where
    # it needs 1024 or 1025 squarings: exact underflow to zero is a result,
    # growth past the range is "overflowed"
    for scale in (1e20, 1e308, 1.5e308):
        assert np.array_equal(taylor_expm(-scale * np.eye(3)), np.zeros((3, 3)))
    for scale in (1e308, 1.5e308):
        with pytest.raises(NumericalError, match="overflowed"):
            taylor_expm(scale * np.eye(3))
    # a bound within an ulp of the largest float is still finite
    top = np.finfo(float).max
    assert np.array_equal(taylor_expm(-top * np.eye(3)), np.zeros((3, 3)))
    with pytest.raises(NumericalError, match="overflowed"):
        taylor_expm(top * np.eye(3))
    # 1^T |A| = 2e308 has no float, but the recursion stays in range and
    # finds A^2 = 0, so e^A = I + A exactly
    nilpotent = np.zeros((3, 3))
    nilpotent[1:, 0] = 1e308
    assert np.array_equal(taylor_expm(nilpotent), np.eye(3) + nilpotent)
    # (1^T |A|^p)^(1/p) = 4e308 has no float: the bound is inf, and both
    # routes refuse it instead of raising OverflowError
    for scale in (1e308, -1e308):
        mat = scale * np.ones((4, 4))
        assert np.all(dynamics._power_alphas(mat) == np.inf)
        with pytest.raises(NumericalError, match="float range"):
            taylor_expm(mat)
        with pytest.raises(NumericalError, match="plans inf matvecs"):
            dynamics._flow(mat, np.ones(4), ROBIN_GRID)


def test_action_refuses_a_plan_past_its_cap_before_stepping():
    # a rotation of norm 1e10 keeps every state finite, so only the cap stops
    # it: its plan over [0, 0.35] is 2e10 matvecs, hours of stepping.  The
    # call runs in a child process, so that a missing cap fails on the
    # timeout instead of hanging the suite
    code = ("import time, numpy as np\n"
            "from abclab import dynamics\n"
            "mat = 1e10 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    dynamics._flow(mat, np.ones(3), np.array([0.1, 0.3, 0.35]))\n"
            "except dynamics.NumericalError as exc:\n"
            "    print(time.perf_counter() - t0, exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([executable, "-c", code], env=env, check=True, capture_output=True,
                          text=True, timeout=60)
    seconds, message = done.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert message.startswith("action of the matrix exponential plans 1.95e+10 matvecs")
    # the largest shipped plan (abc-1d simulate) stays far below the cap
    assert dynamics.ACTION_MATVEC_MAX >= 100 * 7860


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_bound_gives_one_block_without_a_warning():
    # theta_55 / alpha overflows for alpha = 1e-310: the reach is infinite and
    # every time lies in one block, whose states e^{1e-310 t} 1 round to 1
    states = dynamics._flow(1e-310 * np.eye(2), np.ones(2), np.array([0.1, 0.3, 0.35]))
    assert np.array_equal(states, np.ones((3, 2)))


@pytest.mark.parametrize("t", [0.01, 1.0])
def test_taylor_expm_against_scipy_on_strip(neutral_strip, t):
    _, sys = neutral_strip
    ref = scipy.linalg.expm(sys.Acal * t)
    assert np.linalg.norm(taylor_expm(sys.Acal * t) - ref, 2) / np.linalg.norm(ref, 2) < 1e-12


def test_taylor_expm_against_scipy_on_strip_nx32(neutral_cfg):
    cfg = dataclasses.replace(neutral_cfg, geometry={**neutral_cfg.geometry, "nx": 32, "ny": 32})
    _, sys = ab.build_system(cfg)
    ref = scipy.linalg.expm(sys.Acal * 0.01)
    err = taylor_expm(sys.Acal * 0.01) - ref
    # sqrt(||err||_1 ||err||_inf) >= ||err||_2 and the largest column norm is
    # <= ||ref||_2, so this overstates the relative 2-norm error (no 2244^2 SVD)
    err_2 = np.sqrt(np.linalg.norm(err, 1) * np.linalg.norm(err, np.inf))
    assert err_2 / np.max(np.linalg.norm(ref, axis=0)) < 1e-10


def test_taylor_expm_against_scipy(abc1d):
    _, sys = abc1d
    t = 0.05
    assert np.linalg.norm(taylor_expm(sys.Acal * t) - scipy.linalg.expm(sys.Acal * t), 2) \
        / np.linalg.norm(scipy.linalg.expm(sys.Acal * t), 2) < 1e-12


def propagator_norms(sys, mesh, t):
    """Group norms of e^{t Acal} in the Euclidean and energy-weighted metrics.

    The energy metric is regularized with the full H1 weight on the interior
    block and plain boundary quadrature weights so it stays positive definite
    even for k = 0.
    """
    P = taylor_expm(sys.Acal * t)
    euclid = opnorm(P)
    n, nb = sys.n, sys.n_b
    co = sys.ops.coeffs
    rho0 = float(np.real(co.rho[0]))
    K = stiffness_matrix(mesh)
    if sys.ops.state_node_idx.size != mesh.n_nodes:
        K = K[np.ix_(sys.ops.state_node_idx, sys.ops.state_node_idx)]
    W = np.diag(sys.ops.state_weights)
    G = np.zeros((sys.state_dim, sys.state_dim))
    G[:n, :n] = rho0 * (K + W)
    G[n:2 * n, n:2 * n] = (rho0 / co.c ** 2) * W
    G[2 * n:2 * n + nb, 2 * n:2 * n + nb] = np.diag(sys.ops.bnd_weights)
    G[2 * n + nb:, 2 * n + nb:] = np.diag(sys.ops.bnd_weights)
    Gc = np.linalg.cholesky(G)
    weighted = opnorm(Gc.T @ P @ np.linalg.inv(Gc.T))
    return {"euclidean": euclid, "energy_weighted": float(weighted)}


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


def gradient_operators(mesh):
    """Dense forward differences D per axis with their cell weights w.

    The reference route: the Dirichlet form is sum_axis (D u)^H diag(w) (D v),
    with h times the transverse trapezoid weights on each cell.
    """
    def difference(n, h):
        return (np.eye(n, k=1) - np.eye(n))[:-1] / h

    if mesh.kind == "interval":
        (n,), (h,) = mesh.grid_shape, mesh.h
        return [(difference(n, h), np.full(n - 1, h))]
    (nxp, nyp), (hx, hy) = mesh.grid_shape, mesh.h
    wx, wy = _interval_weights(nxp, hx), _interval_weights(nyp, hy)
    return [(np.kron(np.eye(nyp), difference(nxp, hx)), np.kron(wy, np.full(nxp - 1, hx))),
            (np.kron(difference(nyp, hy), np.eye(nxp)), np.kron(np.full(nyp - 1, hy), wx))]


def dense_energy(states, sys, mesh):
    """The energy of each row of ``states`` by dense matrix products."""
    ops, co = sys.ops, sys.ops.coeffs
    rho0 = float(np.real(co.rho[0]))
    u, v, x, y = sys.split(states.T)

    def sq(z):
        return np.real(np.conjugate(z) * z)

    grad_sq = sum(wc @ sq(D @ u) for D, wc in gradient_operators(mesh))
    wb = ops.bnd_weights
    ldot = ops.B2 @ u + y
    if ops.neutral:
        mweight = wb[:, None] * (np.eye(sys.n_b) - ops.M)
        m_sq = float(np.real(co.m[0])) * np.real(np.sum(np.conjugate(ldot) * (mweight @ ldot),
                                                        axis=0))
    else:
        m_sq = (np.real(co.m) * wb) @ sq(ldot)
    return 0.5 * (rho0 * grad_sq + (rho0 / co.c ** 2) * (ops.state_weights @ sq(v))
                  + (np.real(co.k) * wb) @ sq(x) + m_sq)


@pytest.mark.parametrize("name", ["abc-1d", "special-case", "timoshenko-strip",
                                  "timoshenko-strip-k0"])
def test_energy_matches_dense_reference(name):
    cfg = load(name)
    mesh, sys = ab.build_system(cfg)
    assert energy_defined(sys)[0]
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    states = np.vstack([u0, np.random.default_rng(4).standard_normal((20, sys.state_dim))])
    ref = dense_energy(states, sys, mesh)
    assert np.all(ref > 0)
    assert np.max(np.abs(ab.energy(states, sys, mesh) - ref) / ref) <= 1e-14


@pytest.mark.parametrize("mesh", [
    ab.build_interval_mesh(64, 1.0), ab.build_interval_mesh(32, 1.0),
    ab.build_interval_mesh(48, 0.7), ab.build_strip_mesh(16, 16),
    ab.build_strip_mesh(24, 24), ab.build_strip_mesh(12, 20), ab.build_strip_mesh(10, 14),
], ids=lambda m: "x".join(str(n - 1) for n in m.grid_shape))
def test_stiffness_matrix_equals_dense_reference(mesh):
    # entry by entry both round (1/h) (w (1/h)) times 1, 2 or -1
    ref = sum(D.T @ (w[:, None] * D) for D, w in gradient_operators(mesh))
    assert np.array_equal(stiffness_matrix(mesh), ref)


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


@settings(max_examples=40, deadline=None)
@given(n_cells=st.integers(4, 12),
       d=st.floats(0.0, 10.0), k=st.floats(0.0, 10.0),
       m=st.floats(0.05, 10.0), rho=st.floats(0.05, 10.0),
       t_final=st.floats(0.1, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_energy_nonincreasing_for_nonnegative_constant_coefficients(
        n_cells, d, k, m, rho, t_final, seed):
    mesh, sys = wave_system(n_cells, rho=repr(rho), m=repr(m), d=repr(d), k=repr(k),
                            b1_mode="zero")
    u0 = np.random.default_rng(seed).standard_normal(sys.state_dim)
    E = ab.simulate(sys, u0, np.linspace(0.0, t_final, 51), mesh=mesh).energies
    # the slack of `abclab simulate`'s energy gate
    assert np.all(np.diff(E) <= 1e-9 * max(E[0], 1e-300))


def test_energy_rate_matches_boundary_dissipation(abc1d_cfg, abc1d):
    mesh, sys = abc1d
    u0 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    dt = 1e-4
    e_plus = ab.energy(taylor_expm(sys.Acal * dt) @ u0, sys, mesh)
    e_minus = ab.energy(taylor_expm(sys.Acal * -dt) @ u0, sys, mesh)
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
def _second_order_residuals(traj, sys):
    """Per-time constraint residual max|R u_ext - y| and the worst relative
    residual of A_max u_ext against the central second difference of u."""
    n, dt = sys.n, traj.times[1] - traj.times[0]
    us, ys = traj.states[:, :n], traj.states[:, 2 * n + sys.n_b:]
    con, second = [], []
    for i in range(traj.times.size):
        ext = sys.extend(us[i], ys[i])
        con.append(np.max(np.abs(sys.ops.R @ ext - ys[i])))
        if 0 < i < traj.times.size - 1:
            udd = (us[i + 1] - 2 * us[i] + us[i - 1]) / dt ** 2
            rhs = sys.ops.A_max @ ext
            second.append(np.linalg.norm(udd - rhs) / max(1.0, np.linalg.norm(rhs)))
    return np.array(con), max(second)


def test_consistency_residuals(abc1d_cfg):
    cfg = smooth_cfg(abc1d_cfg)
    mesh, sys = ab.build_system(cfg)
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    traj = ab.simulate(sys, u0, np.linspace(0, 1, 1001), mesh=mesh)
    integral = ab.trajectory_consistency(traj, sys)
    con, second = _second_order_residuals(traj, sys)
    assert np.max(integral) < 1e-5
    assert np.max(con) < 1e-10
    # halving dt divides the time-quadrature residuals by about 4
    traj2 = ab.simulate(sys, u0, np.linspace(0, 1, 2001), mesh=mesh)
    assert np.max(ab.trajectory_consistency(traj2, sys)) < 0.35 * np.max(integral)
    assert _second_order_residuals(traj2, sys)[1] < 0.35 * second


def test_consistency_matches_per_time_loop(abc1d_cfg):
    cfg = smooth_cfg(abc1d_cfg)
    mesh, sys = ab.build_system(cfg)
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    traj = ab.simulate(sys, u0, np.linspace(0, 1, 101), mesh=mesh)
    n, nb, dt = sys.n, sys.n_b, traj.times[1] - traj.times[0]
    xs = traj.states[:, 2 * n:2 * n + nb]
    flux = [sys.ops.B2 @ s[:n] + s[2 * n + nb:] for s in traj.states]
    integral, resid = np.zeros(nb), [0.0]
    for i in range(1, traj.times.size):
        integral = integral + 0.5 * dt * (flux[i] + flux[i - 1])
        resid.append(np.linalg.norm(xs[i] - xs[0] - integral))
    # cumulative sums and fixed-order products against a running loop and
    # matvecs: agree to rounding
    assert np.allclose(ab.trajectory_consistency(traj, sys), resid, rtol=0, atol=1e-13)
    # a one-time grid has nothing to integrate
    single = ab.simulate(sys, u0, np.array([0.3]), mesh=mesh)
    assert ab.trajectory_consistency(single, sys).tolist() == [0.0]


# ---------------------------------------------------------------------------
# frozen-boundary comparison
# ---------------------------------------------------------------------------
def test_robin_comparison_trivial_when_feedback_absent(abc1d_cfg):
    cfg = dataclasses.replace(
        abc1d_cfg, coefficients={**abc1d_cfg.coefficients, "d": "0", "k": "0"})
    mesh, sys = ab.build_system(cfg)
    assert np.max(np.abs(sys.A2cal)) == 0.0
    u0 = ab.initial_state_from_config(cfg, mesh, sys)
    rep = ab.robin_comparison(sys, u0, np.geomspace(1e-3, 1.0, 7))
    assert np.max(rep["dev_state"]) < 1e-9


def test_robin_comparison_duhamel_limit(abc1d_cfg, abc1d):
    mesh, sys = abc1d
    u0 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    t = np.geomspace(1e-3, 1e-1, 9)
    rep = ab.robin_comparison(sys, u0, t)
    assert abs(rep["ratio"][0] - rep["A2u0_norm"]) <= 0.2 * rep["A2u0_norm"]
    assert np.all(rep["dev_state"] <= t * rep["M_est"] + 1e-12)
    assert rep["ratio_factor_ok"]


def test_robin_comparison_rejects_late_times(abc1d):
    _, sys = abc1d
    with pytest.raises(ConfigurationError, match=r"\(0, 1\]"):
        ab.robin_comparison(sys, np.zeros(sys.state_dim), np.array([0.5, 1.5]))


def test_frozen_propagator_matches_scipy(abc1d):
    _, sys = abc1d
    P = taylor_expm(sys.A1cal * 0.2)
    ref = scipy.linalg.expm(sys.A1cal * 0.2)
    assert np.linalg.norm(P - ref, 2) / np.linalg.norm(ref, 2) < 1e-12


@pytest.fixture(scope="module")
def complex_sys():
    # d, k are complex-capable: the coupled generator becomes complex
    mesh = ab.build_interval_mesh(16, 1.0)
    co = ab.CoefficientSet(c=1.0, rho=np.ones(2), m=np.ones(2),
                           d=np.array([1.0 + 0.5j, 1.0 - 0.5j]),
                           k=np.array([1.0 + 0j, 1.0 + 0j]))
    return mesh, ab.assemble_block_generator(ab.assemble_wave_operator(mesh, co))


def test_complex_resistivity_simulation(complex_sys):
    # complex generators give complex trajectories; energies are gated off
    mesh, sys = complex_sys
    assert np.iscomplexobj(sys.Acal)
    assert not energy_defined(sys)[0]
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(sys.state_dim)
    traj = ab.simulate(sys, u0, np.linspace(0.0, 0.5, 6), mesh=mesh)
    assert np.iscomplexobj(traj.states)
    assert np.all(np.isfinite(traj.states))
    assert traj.energies is None
    assert np.max(_second_order_residuals(traj, sys)[0]) < 1e-10
