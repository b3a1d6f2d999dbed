"""Time evolution of the coupled system and its energy diagnostics.

Every propagator is a scaling-and-squaring Taylor exponential of order 16:
the coupled generator always carries a defective rigid-drift pair at zero, so
an eigenbasis route would be ill conditioned exactly where it matters.  A
classical RK4 integrator (and, in the tests, scipy's expm) serve only as
independent cross-checks.

The discrete energy uses the weighted-space form

    E = (rho ||grad u||^2 + (rho/c^2) ||v||^2 + sum k|x|^2 w
         + sum m |Lu|^2 w) / 2,

whose decay rate is exactly -sum d |Lu|^2 w along trajectories because the
reflected/ghost Laplacian satisfies summation by parts without interior
remainder.  For neutral models the boundary-mass term becomes
m <(I-M) Lu, Lu> on Gamma1 (obtained by pairing the boundary equation with
the boundary velocity); only its monotonicity is asserted, never its value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import opnorm
from .blockops import BlockSystem
from .errors import ConfigurationError, ModelError, NumericalError
from .mesh import Mesh
from .model import gradient_operators, stiffness_matrix

TAYLOR_ORDER = 16


@dataclass
class Trajectory:
    """Time-indexed reduced states with optional energies and residuals."""

    times: np.ndarray
    states: np.ndarray            # (n_times, state_dim)
    energies: np.ndarray | None
    consistency: dict = field(default_factory=dict)
    method: str = "exact"

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("trajectory times must be strictly increasing")


# ---------------------------------------------------------------------------
# Matrix exponentials
# ---------------------------------------------------------------------------
def taylor_expm(mat: np.ndarray, order: int = TAYLOR_ORDER) -> np.ndarray:
    """Scaling-and-squaring matrix exponential with a plain Taylor kernel."""
    n = mat.shape[0]
    nrm = float(np.linalg.norm(mat, 1))
    squarings = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.5))))
    A = mat / (2.0 ** squarings)
    E = np.eye(n, dtype=mat.dtype)
    for k in range(order, 0, -1):
        E = np.eye(n, dtype=mat.dtype) + (A @ E) / k
    for _ in range(squarings):
        E = E @ E
    if not np.all(np.isfinite(E)):
        raise NumericalError("Taylor matrix exponential overflowed")
    return E


def propagator(sys: BlockSystem, t: float) -> np.ndarray:
    """Dense e^{t Acal}."""
    return taylor_expm(sys.Acal * t)


def _flow(mat: np.ndarray, s: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """States e^{t mat} s at each t of an increasing grid, starting from t = 0.

    Steps between consecutive output times, with one exponential per distinct
    gap; grid points at or before t = 0 return s itself.
    """
    states = np.empty((t_grid.size, s.size), dtype=s.dtype)
    step_cache: dict[float, np.ndarray] = {}
    t_prev = 0.0
    for i, t in enumerate(t_grid):
        gap = t - t_prev
        if gap > 0:
            key = round(gap, 15)
            P = step_cache.get(key)
            if P is None:
                P = taylor_expm(mat * gap)
                step_cache[key] = P
            s = P @ s
            t_prev = t
        states[i] = s
    return states


def propagator_frozen(sys: BlockSystem, t: float) -> np.ndarray:
    """e^{t A1cal} for the decoupled (frozen boundary-datum) part."""
    return taylor_expm(sys.A1cal * t)


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------
def energy_defined(sys: BlockSystem) -> tuple[bool, str]:
    """Whether the weighted energy is meaningful for this model."""
    ops = sys.ops
    if not ops.model_tag.startswith(("wave", "divergence")):
        return False, f"no energy weights for model {ops.model_tag!r}"
    co = ops.coeffs
    rho = np.real(co.rho)
    if np.ptp(rho) > 1e-12 * max(1.0, np.max(np.abs(rho))) or rho[0] <= 0:
        return False, "energy weights need constant positive rho"
    if np.iscomplexobj(co.d) or np.iscomplexobj(co.k):
        return False, "energy weights need real d and k"
    if np.min(co.k) < 0 or np.min(co.d) < 0:
        return False, "energy weights need k >= 0 and d >= 0"
    if np.min(np.real(co.m)) <= 0:
        return False, "energy weights need m > 0"
    if ops.neutral and np.ptp(np.real(co.m)) > 1e-12 * np.max(np.real(co.m)):
        return False, "neutral energy needs constant m"
    if ops.model_tag.startswith("divergence"):
        a = co.a
        if np.ptp(a) > 1e-12 * np.max(a):
            return False, "energy law asserted for uniform interior coefficients only"
    return True, ""


def energy(state: np.ndarray, sys: BlockSystem, mesh: Mesh) -> float | np.ndarray:
    """Weighted energy of a reduced state; boundary velocity recovered as Lu.

    ``state`` is one state (the energy is returned as a float) or a stack of
    states, one per row (an array with one energy per row is returned).
    """
    ok, why = energy_defined(sys)
    if not ok:
        raise ModelError(f"energy undefined: {why}")
    ops = sys.ops
    co = ops.coeffs
    rho0 = float(np.real(co.rho[0]))
    u, v, x, y = sys.split(np.atleast_2d(state).T)

    def sq(z):
        return np.real(np.conjugate(z) * z)

    grad_sq = sum(wc @ sq(D @ u) for D, wc in gradient_operators(mesh))
    v_sq = ops.state_weights @ sq(v)
    wb = ops.bnd_weights
    k_sq = (np.real(co.k) * wb) @ sq(x)
    ldot = ops.B2 @ u + y
    if ops.neutral and ops.M is not None:
        m0 = float(np.real(co.m[0]))
        mweight = wb[:, None] * (np.eye(sys.n_b) - ops.M)
        m_sq = m0 * np.real(np.sum(np.conjugate(ldot) * (mweight @ ldot), axis=0))
    else:
        m_sq = (np.real(co.m) * wb) @ sq(ldot)
    e = 0.5 * (rho0 * grad_sq + (rho0 / co.c ** 2) * v_sq + k_sq + m_sq)
    return float(e[0]) if np.ndim(state) == 1 else e


def boundary_dissipation(state: np.ndarray, sys: BlockSystem) -> float:
    """Instantaneous expected energy decay rate: sum d |Lu|^2 w on Gamma1."""
    u, _, _, y = sys.split(state)
    ldot = sys.ops.B2 @ u + y
    return float(np.sum(np.real(sys.ops.coeffs.d) * sys.ops.bnd_weights
                        * np.real(np.conjugate(ldot) * ldot)))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------
def _rk4_stability_dt(sys: BlockSystem, mesh: Mesh) -> float:
    if sys.ops.model_tag.startswith("biharmonic"):
        return 0.2 * min(mesh.h) ** 2
    co = sys.ops.coeffs
    c_eff = float(np.sqrt(np.max(co.a))) if co.a is not None else co.c
    return 0.25 * min(mesh.h) / c_eff


def simulate(sys: BlockSystem, u0: np.ndarray, t_grid, method: str = "exact",
             mesh: Mesh | None = None) -> Trajectory:
    """Evolve a reduced state over t_grid.

    ``exact`` steps between output times with one matrix exponential per
    distinct gap; ``rk4`` steps classically with fixed substeps below the
    stability bound (a warning is emitted when the requested grid is coarser
    than the bound).  Energies are attached whenever the model's energy
    weights are well defined and a mesh is supplied.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ConfigurationError("t_grid must be a non-empty 1D array")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0):
        raise ConfigurationError("t_grid must be strictly increasing")
    if u0.shape != (sys.state_dim,):
        raise ConfigurationError(f"state must have length {sys.state_dim}")

    dtype = complex if np.iscomplexobj(sys.Acal) or np.iscomplexobj(u0) else float

    if method == "exact":
        states = _flow(sys.Acal, u0.astype(dtype), t_grid)
    elif method == "rk4":
        if mesh is None:
            raise ConfigurationError("rk4 needs the mesh for its stability bound")
        bound = _rk4_stability_dt(sys, mesh)
        gaps = np.diff(np.concatenate([[0.0], t_grid]))
        if np.max(gaps, initial=0.0) > bound:
            warnings.warn(
                f"rk4 grid spacing {np.max(gaps):.3e} exceeds the stability bound "
                f"{bound:.3e}; substepping engaged (the exact method is recommended)",
                stacklevel=2)
        A = sys.Acal
        s = u0.astype(dtype).copy()
        t_prev = 0.0
        states = np.empty((t_grid.size, sys.state_dim), dtype=dtype)
        for i, t in enumerate(t_grid):
            gap = t - t_prev
            if gap > 0:
                nsub = max(1, int(np.ceil(gap / bound)))
                dt = gap / nsub
                for _ in range(nsub):
                    k1 = A @ s
                    k2 = A @ (s + 0.5 * dt * k1)
                    k3 = A @ (s + 0.5 * dt * k2)
                    k4 = A @ (s + dt * k3)
                    s = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states[i] = s
            t_prev = t
    else:
        raise ConfigurationError(f"unknown method {method!r}; use 'exact' or 'rk4'")

    energies = None
    if mesh is not None and energy_defined(sys)[0]:
        energies = energy(states, sys, mesh)
    traj = Trajectory(times=t_grid, states=states, energies=energies, method=method)
    if t_grid.size >= 2:
        traj.consistency = trajectory_consistency(traj, sys)
    return traj


def trajectory_consistency(traj: Trajectory, sys: BlockSystem) -> dict:
    """Residuals tying the first-order trajectory back to the second-order form.

    (i) the boundary displacement must equal its flux integral,
    (ii) the boundary datum must reproduce R applied to the extended state
        (exact by construction),
    (iii) the interior acceleration must match the stencil applied to the
        extended field (central difference in time).
    """
    n, nb = sys.n, sys.n_b
    T = traj.times.size
    us = traj.states[:, :n]
    xs = traj.states[:, 2 * n:2 * n + nb]
    ys = traj.states[:, 2 * n + nb:]
    ldots = us @ sys.ops.B2.T + ys

    # (i) trapezoid integral of the flux against x(t) - x(0)
    integral = np.zeros_like(xs)
    if T >= 2:
        dt = np.diff(traj.times)
        incr = 0.5 * dt[:, None] * (ldots[1:] + ldots[:-1])
        integral[1:] = np.cumsum(incr, axis=0)
    int_resid = np.linalg.norm(xs - xs[0] - integral, axis=1)

    # (ii) constraint: R applied to the extended state returns y
    con_resid = np.empty(T)
    for i in range(T):
        ext = sys.extend(us[i], ys[i])
        con_resid[i] = float(np.max(np.abs(sys.ops.R @ ext - ys[i])))
    con = float(np.max(con_resid))

    # (iii) second-order form on uniform interior grid points
    second = None
    if T >= 3:
        dts = np.diff(traj.times)
        if np.allclose(dts, dts[0], rtol=1e-10):
            dt = dts[0]
            worst = 0.0
            for i in range(1, T - 1):
                udd = (us[i + 1] - 2 * us[i] + us[i - 1]) / dt ** 2
                rhs = sys.ops.A_max @ sys.extend(us[i], ys[i])
                worst = max(worst, float(np.linalg.norm(udd - rhs)
                                         / max(1.0, np.linalg.norm(rhs))))
            second = worst

    return {
        "integral": int_resid,
        "integral_max": float(np.max(int_resid)),
        "constraint": con_resid,
        "constraint_max": con,
        "second_order_max": second,
    }


# ---------------------------------------------------------------------------
# Frozen-boundary comparison
# ---------------------------------------------------------------------------
def robin_comparison(sys: BlockSystem, u0: np.ndarray, t_grid) -> tuple[Trajectory, dict]:
    """Compare the full flow against the frozen-boundary flow e^{t A1cal}.

    The first-order deviation is t * ||A2cal u0|| in the state norm, so the
    ratio ||phi - psi||/t must plateau for small t; the weighted L2 norm of
    the interior component is reported alongside (the advertised bound lives
    there).  t_grid must lie in (0, 1].
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0) or np.any(t_grid > 1.0):
        raise ConfigurationError("comparison bound is stated for t in (0, 1] only")
    phi = simulate(sys, u0, t_grid, method="exact")
    n = sys.n
    psi_states = _flow(sys.A1cal, u0.astype(phi.states.dtype), t_grid)
    psi = Trajectory(times=t_grid, states=psi_states, energies=None,
                     method="frozen-boundary")

    diff = phi.states - psi_states
    dev_state = np.linalg.norm(diff, axis=1)
    w = sys.ops.state_weights
    dev_l2 = np.sqrt(np.sum(w[None, :] * np.abs(diff[:, :n]) ** 2, axis=1))
    ratio = dev_state / t_grid
    m_est = float(np.max(ratio))
    a2_norm = float(np.linalg.norm(sys.A2cal @ u0))

    idx_low = int(np.argmin(np.abs(t_grid - 1e-3)))
    idx_mid = int(np.argmin(np.abs(t_grid - 1e-2)))
    r_low, r_mid = ratio[idx_low], ratio[idx_mid]
    factor_ok = bool(max(r_low, r_mid) <= 2.0 * min(r_low, r_mid) + 1e-300)
    limit_ok = bool(a2_norm == 0.0 and r_low == 0.0
                    or abs(r_low - a2_norm) <= 0.2 * max(a2_norm, 1e-300))
    report = {
        "t": t_grid,
        "dev_state": dev_state,
        "dev_l2": dev_l2,
        "ratio": ratio,
        "M_est": m_est,
        "A2u0_norm": a2_norm,
        "ratio_factor_ok": factor_ok,
        "limit_within_20pct": limit_ok,
    }
    return psi, report


def propagator_norms(sys: BlockSystem, mesh: Mesh, t: float) -> dict:
    """Group norms of e^{t Acal} in the Euclidean and energy-weighted metrics.

    Which norm best mirrors the continuous phase space is left open; both are
    reported.  The energy metric is regularized with the full H1 weight on the
    interior block and plain boundary quadrature weights so it stays positive
    definite even for k = 0.
    """
    P = propagator(sys, t)
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
