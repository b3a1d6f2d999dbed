"""Physical coefficients and the maximal operator with its boundary operators.

Each model produces a ``ModelOperators`` bundle:

    A_max : interior stencil on extended dofs (nodes followed by ghosts)
    L     : outward flux operator on Gamma1 (central difference via the ghost)
    B2    : trace-type coupling on node dofs;  R = L - B2  (ghost columns of R
            are the flux block, so R has full ghost rank)
    B1    : displacement feedback on node dofs (zero for the acoustic wave)
    B3,B4 : spring / resistivity multiplication operators on Gamma1 dofs

Flux conditions are enforced by ghost points so every interior stencil stays
uniform; rigid (Gamma0) edges are closed by ghost reflection directly inside
A_max.  Coefficients are sampled pointwise at nodes: essential boundedness is
all that is required of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ._linalg import checked_solve, opnorm, shifted_inverse
from .errors import (AssumptionError, ConfigurationError, DimensionError, ModelError,
                     NumericalError)
from .expressions import ExpressionError, eval_coeff_expr, parse_expr
from .mesh import Mesh, cell_weights, mirror_images

if TYPE_CHECKING:  # blockops imports this module; the annotation only names it
    from .blockops import BlockSystem

_LADDER_EXPONENTS = range(2, 17)  # lambda = 2^k probe ladder


def freeze_arrays(obj, names) -> None:
    """Make the named array attributes of ``obj`` read-only (None is skipped)."""
    for name in names:
        arr = getattr(obj, name)
        if arr is not None:
            arr.setflags(write=False)


# ---------------------------------------------------------------------------
# Coefficient data
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Sampled physical coefficients.

    ``c`` is the (constant) wave speed; ``rho``, ``m``, ``d``, ``k`` live on
    Gamma1 nodes; ``a`` is an optional interior diffusion field (divergence
    form); ``r``, ``s``, ``p``, ``q`` are the plate-model boundary fields.
    ``d`` and ``k`` may be complex; ``rho`` and ``m`` must be real and
    inf m > 0.
    """

    c: float
    rho: np.ndarray
    m: np.ndarray
    d: np.ndarray
    k: np.ndarray
    a: np.ndarray | None = None
    r: np.ndarray | None = None
    s: np.ndarray | None = None
    p: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        freeze_arrays(self, ("rho", "m", "d", "k", "a", "r", "s", "p", "q"))
        if not (np.isreal(self.c) and self.c > 0 and np.isfinite(self.c)):
            raise ModelError(f"wave speed c must be a positive real, got {self.c!r}")
        for name in ("rho", "m", "d", "k"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"coefficient {name} must be essentially bounded (finite)")
        for name in ("rho", "m"):
            if np.iscomplexobj(getattr(self, name)) and np.any(np.imag(getattr(self, name)) != 0):
                raise ModelError(f"coefficient {name} must be real valued")
        if np.min(np.real(self.m)) <= 0:
            raise ModelError(
                "boundary mass must satisfy inf m > 0; "
                f"got min m = {np.min(np.real(self.m)):.6g}")
        if self.a is not None and np.min(self.a) <= 0:
            raise ModelError("diffusion field a must be strictly positive")


def sample_coefficients(config, mesh: Mesh) -> CoefficientSet:
    """Evaluate the scenario's coefficient expressions on the mesh.

    ``config`` needs ``.model`` and ``.coefficients`` (a mapping of expression
    strings; ``c`` may be a plain number).  Boundary fields see the arclength
    coordinate z (and x, y); interior fields see x (and y).
    """
    exprs = dict(config.coefficients)
    model = config.model

    c_raw = exprs.get("c", 1.0)
    c = float(c_raw) if not isinstance(c_raw, str) else eval_coeff_expr(c_raw, {"x": 0.0})

    zs = mesh.gamma1_arclength()
    bpts = [{"z": float(z), "x": float(xy[0]), "y": float(xy[-1])}
            for z, xy in zip(zs, mesh.node_coords[mesh.gamma1])]
    ipts = [{"x": float(xy[0]), "y": float(xy[-1])} for xy in mesh.node_coords]

    def bnd_field(name, default="0"):
        text = str(exprs.get(name, default))
        try:
            return np.array([eval_coeff_expr(text, p) for p in bpts], dtype=float)
        except ExpressionError as exc:
            raise ModelError(f"coefficient {name!r}: {exc}") from exc

    def int_field(name):
        text = str(exprs[name])
        vals = np.empty(mesh.n_nodes)
        node = parse_expr(text)
        for i, p in enumerate(ipts):
            try:
                vals[i] = eval_coeff_expr(node, p)
            except ExpressionError as exc:
                raise ModelError(
                    f"coefficient {name!r} failed at node {i} {tuple(p.values())}: {exc}"
                ) from exc
        return vals

    kwargs = dict(
        c=c,
        rho=bnd_field("rho", "1"),
        m=bnd_field("m", "1"),
        d=bnd_field("d", "0"),
        k=bnd_field("k", "0"),
    )
    if model == "divergence" or "a" in exprs:
        kwargs["a"] = int_field("a")
    if model == "biharmonic":
        for name in ("r", "s", "p", "q"):
            kwargs[name] = bnd_field(name, "0")
    return CoefficientSet(**kwargs)


# ---------------------------------------------------------------------------
# Operator bundle
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ModelOperators:
    """Dense operator realization of one concrete model."""

    A_max: np.ndarray          # (n, n+g)
    R: np.ndarray              # (n_b, n+g)
    L: np.ndarray              # (n_b, n+g)
    B1: np.ndarray             # (n_b, n)
    B2: np.ndarray             # (n_b, n)
    B3: np.ndarray             # (n_b, n_b)
    B4: np.ndarray             # (n_b, n_b)
    dims: tuple[int, int, int]  # (n_nodes, n_ghost, n_b)
    neutral: bool
    M: np.ndarray | None
    model_tag: str
    state_node_idx: np.ndarray  # mesh node index of each state dof
    state_weights: np.ndarray   # quadrature weights of the state dofs
    bnd_weights: np.ndarray
    coeffs: CoefficientSet
    # (node_img, bnd_img) of mesh.mirror_images: the mirror x -> L - x on
    # the state node dofs and on the Gamma1 dofs (and so on the ghost slots);
    # None where the dofs lack images
    mirror: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        blocks = ("A_max", "R", "L", "B1", "B2", "B3", "B4", "M")
        freeze_arrays(self, blocks + ("state_node_idx", "state_weights", "bnd_weights"))
        for img in self.mirror or ():
            img.setflags(write=False)
        for name in blocks:
            block = getattr(self, name)
            if block is not None and not np.all(np.isfinite(block)):
                raise ModelError(f"operator block {name} has non-finite entries")

    @property
    def n(self) -> int:
        return self.dims[0]

    @property
    def n_b(self) -> int:
        return self.dims[2]

    def mirrored(self, block: np.ndarray) -> np.ndarray:
        """``block`` (Gamma1 rows; Gamma1 or node columns, told apart by
        their count, since n > n_b on every mesh) under the mirror:
        block[J_b, J_b] or block[J_b, J_n]."""
        node, bnd = self.mirror
        return block[np.ix_(bnd, bnd if block.shape[1] == self.n_b else node)]


def _grid_index_maps(mesh: Mesh):
    """Neighbour stepping helpers on the tensor grid."""
    if mesh.kind == "interval":
        nx = mesh.grid_shape[0]

        def unrank(j):
            return (j,)

        def rank(idx):
            (ix,) = idx
            if 0 <= ix < nx:
                return ix
            return None
    else:
        nxp, nyp = mesh.grid_shape

        def unrank(j):
            return (j % nxp, j // nxp)

        def rank(idx):
            ix, iy = idx
            if 0 <= ix < nxp and 0 <= iy < nyp:
                return iy * nxp + ix
            return None
    return unrank, rank


def assemble_wave_operator(mesh: Mesh, coeffs: CoefficientSet) -> ModelOperators:
    """Second-order wave model: A = c^2 Laplace (or div(a grad) when a is set).

    L is the outward normal derivative on Gamma1 (times a(z) in divergence
    form), B2 = -(rho/m) trace, B1 = 0, B3 = -(k/m), B4 = -(d/m).  Gamma0
    nodes get homogeneous Neumann baked in by ghost reflection.
    """
    if mesh.kind not in ("interval", "strip"):
        raise ConfigurationError(f"wave model does not support mesh kind {mesh.kind!r}")
    divergence = coeffs.a is not None
    n = mesh.n_nodes
    nb = mesh.n_b
    c2 = coeffs.c ** 2

    unrank, rank = _grid_index_maps(mesh)
    ghost_slot = {int(node): slot for slot, node in enumerate(mesh.gamma1)}

    def edge_coef(j, nbr, axis):
        # midpoint coefficient between node j and its neighbour along axis
        if not divergence:
            return c2 / mesh.h[axis] ** 2
        return 0.5 * (coeffs.a[j] + coeffs.a[nbr]) / mesh.h[axis] ** 2

    A = np.zeros((n, n + nb))
    for j in range(n):
        idx = unrank(j)
        for axis in range(mesh.dim):
            for direction in (-1, +1):
                step = list(idx)
                step[axis] += direction
                nbr = rank(tuple(step))
                if nbr is not None:
                    coef = edge_coef(j, nbr, axis)
                    A[j, nbr] += coef
                    A[j, j] -= coef
                    continue
                # stepping outside the domain: mirror midpoint coefficient
                mirror = list(idx)
                mirror[axis] -= direction
                mir = rank(tuple(mirror))
                coef = edge_coef(j, mir, axis)
                slot = ghost_slot.get(j)
                if (slot is not None and mesh.ghost_axis[slot] == axis
                        and mesh.ghost_sign[slot] == direction):
                    A[j, n + slot] += coef
                    A[j, j] -= coef
                else:
                    # rigid edge: ghost reflects the inward neighbour
                    A[j, mir] += coef
                    A[j, j] -= coef

    # a ratio may overflow; ModelOperators then refuses its block
    with np.errstate(over="ignore"):
        b2, b3, b4 = (-v / coeffs.m for v in (coeffs.rho, coeffs.k, coeffs.d))
    L = np.zeros((nb, n + nb))
    B2 = np.zeros((nb, n))
    for slot, b in enumerate(mesh.gamma1):
        axis = mesh.ghost_axis[slot]
        fac = coeffs.a[b] if divergence else 1.0
        L[slot, n + slot] = fac / (2.0 * mesh.h[axis])
        L[slot, mesh.ghost_inward[slot]] = -fac / (2.0 * mesh.h[axis])
        B2[slot, b] = b2[slot]

    R = L.copy()
    R[:, :n] -= B2
    return ModelOperators(
        A_max=A, R=R, L=L,
        B1=np.zeros((nb, n)),
        B2=B2,
        B3=np.diag(b3),
        B4=np.diag(b4),
        dims=(n, nb, nb),
        neutral=False, M=None,
        model_tag="divergence" if divergence else "wave",
        state_node_idx=np.arange(n),
        state_weights=mesh.vol_weights.copy(),
        bnd_weights=mesh.bnd_weights.copy(),
        coeffs=coeffs,
        mirror=mirror_images(mesh, np.arange(n)),
    )


def assemble_biharmonic_operator(mesh: Mesh, coeffs: CoefficientSet) -> ModelOperators:
    """Fourth-order plate model on an interval with pinned endpoints.

    A = -d^4/dx^4 on the interior nodes (endpoint values are removed from the
    state), L = second difference at the endpoints through one ghost per side,
    B2 = s * outward one-sided first difference, B1 = r * the same stencil,
    B3 = p, B4 = q.
    """
    if mesh.kind != "interval":
        raise ConfigurationError("biharmonic model supports interval meshes only")
    if mesh.n_b != 2:
        raise ConfigurationError("biharmonic model needs both endpoints in Gamma1")
    N = mesh.grid_shape[0] - 1
    h = mesh.h[0]
    n = N - 1                       # interior state dofs, endpoints pinned to 0
    r = coeffs.r if coeffs.r is not None else np.zeros(2)
    s = coeffs.s if coeffs.s is not None else np.zeros(2)
    p = coeffs.p if coeffs.p is not None else np.zeros(2)
    q = coeffs.q if coeffs.q is not None else np.zeros(2)

    def ext_col(grid_node):
        if grid_node in (0, N):
            return None             # pinned, value 0
        if grid_node == -1:
            return n                # left ghost
        if grid_node == N + 1:
            return n + 1            # right ghost
        return grid_node - 1

    A = np.zeros((n, n + 2))
    stencil = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / h ** 4
    for i in range(n):
        gn = i + 1
        for off, w in zip(range(-2, 3), stencil):
            col = ext_col(gn + off)
            if col is not None:
                A[i, col] += -w     # A = -Delta^2

    L = np.zeros((2, n + 2))
    L[0, n] = 1.0 / h ** 2          # (ghost + u_1)/h^2, endpoint pinned
    L[0, 0] = 1.0 / h ** 2
    L[1, n + 1] = 1.0 / h ** 2
    L[1, n - 1] = 1.0 / h ** 2

    B2 = np.zeros((2, n))
    B1 = np.zeros((2, n))
    B2[0, 0] = -s[0] / h            # du/dnu(0) ~ -(u_1 - 0)/h
    B2[1, n - 1] = -s[1] / h
    B1[0, 0] = -r[0] / h
    B1[1, n - 1] = -r[1] / h

    R = L.copy()
    R[:, :n] -= B2
    return ModelOperators(
        A_max=A, R=R, L=L, B1=B1, B2=B2,
        B3=np.diag(p.astype(float)),
        B4=np.diag(q.astype(float)),
        dims=(n, 2, 2),
        neutral=False, M=None, model_tag="biharmonic",
        state_node_idx=np.arange(1, N),
        state_weights=mesh.vol_weights[1:N].copy(),
        bnd_weights=mesh.bnd_weights.copy(),
        coeffs=coeffs,
        mirror=mirror_images(mesh, np.arange(1, N)),
    )


def default_boundary_laplacian(mesh: Mesh) -> np.ndarray:
    """Default neutral operator M on Gamma1.

    Strip: three-point Laplacian along the top edge with homogeneous Neumann
    ends (so M annihilates constants).  Interval: the two boundary points are
    isolated, M = 0.
    """
    nb = mesh.n_b
    if mesh.kind == "interval":
        return np.zeros((nb, nb))
    hx = mesh.h[0]
    M = np.zeros((nb, nb))
    for i in range(nb):
        M[i, i] = -2.0 / hx ** 2
        if i > 0:
            M[i, i - 1] += 1.0 / hx ** 2
        else:
            M[i, i + 1] += 1.0 / hx ** 2   # Neumann reflection
        if i < nb - 1:
            M[i, i + 1] += 1.0 / hx ** 2
        else:
            M[i, i - 1] += 1.0 / hx ** 2
    return M


def mirror_symmetrized(ops: ModelOperators, outputs, inputs) -> list[np.ndarray]:
    """The ``outputs`` averaged with their mirror images (``ops.mirrored``)
    when every block of ``inputs`` is bitwise mirror-invariant; the
    ``outputs`` as they are otherwise, and on dofs without a mirror.

    When the inputs are invariant, so is the exact value of every output,
    which then differs from its mirror image by rounding only; the average
    (X + J X J) / 2 is invariant bit for bit, since fl(a + b) = fl(b + a).
    The decision reads the inputs, never a tolerance, so a model that is not
    symmetric stays as it is assembled.
    """
    if ops.mirror is None or not all(np.array_equal(ops.mirrored(b), b) for b in inputs):
        return list(outputs)
    return [0.5 * (b + ops.mirrored(b)) for b in outputs]


def apply_neutral_transform(ops: ModelOperators, M: np.ndarray) -> ModelOperators:
    """Replace B_i by (I-M)^-1 B_i and R by L - (I-M)^-1 B2.

    Requires (I - M) invertible to working precision.  When M and the B_i
    are bitwise mirror-invariant, the transformed B_i are averaged with their
    mirror images (``mirror_symmetrized``): the dense solve and products sum
    in an order the mirror does not keep.
    """
    nb = ops.n_b
    M = np.array(M, dtype=float)   # a copy, so the caller's M stays writable
    if M.shape != (nb, nb):
        raise DimensionError(f"M must be {nb}x{nb}, got {M.shape}")
    try:
        S = shifted_inverse(M, 1.0, "neutral transform (I-M)")
    except NumericalError as exc:
        raise AssumptionError(
            "A8", f"{exc}; the neutral transform needs 1 in the resolvent set of M") from exc
    blocks = (ops.B1, ops.B2, ops.B3, ops.B4)
    B1, B2, B3, B4 = mirror_symmetrized(ops, [S @ b for b in blocks], (M,) + blocks)
    R = ops.L.copy()
    R[:, :ops.n] -= B2
    return replace(
        ops,
        B1=B1, B2=B2, B3=B3, B4=B4, R=R,
        neutral=True, M=M,
        model_tag=ops.model_tag + "+neutral",
    )


# ---------------------------------------------------------------------------
# Discrete Dirichlet form (used by the form check)
# ---------------------------------------------------------------------------
def stiffness_matrix(mesh: Mesh) -> np.ndarray:
    """Dense Dirichlet-form matrix K with K[u,v] = <grad u, grad v>.

    K = sum_axis D^T diag(w) D over the forward differences D along each axis
    and their cell weights w (``cell_weights``).  A cell's weight is
    constant along its axis, so each term is a Kronecker product of the 1-D
    pattern T = h^2 D1^T D1 along the axis with diag((1/h) w (1/h)) across it.
    """
    def term(axis):
        n, h = mesh.grid_shape[axis], mesh.h[axis]
        T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        T[0, 0] = T[-1, -1] = 1.0
        c = (1.0 / h) * (cell_weights(mesh, axis) * (1.0 / h))
        if mesh.kind == "interval":
            return c[0] * T
        return np.kron(np.diag(c[:, 0]), T) if axis == 0 else np.kron(T, np.diag(c[0]))

    return sum(term(axis) for axis in range(mesh.dim))


def constant_rho_m(coeffs: CoefficientSet) -> bool:
    """Whether rho and m are constant on Gamma1 (to 1e-14 relative): the
    neutral form needs it, since the transform commutes with scalars only."""
    return all(np.ptp(v) <= 1e-14 * max(1.0, np.max(np.abs(v)))
               for v in (np.real(coeffs.rho), np.real(coeffs.m)))


def neutral_form_matrix(ops: ModelOperators, mesh: Mesh) -> np.ndarray:
    """Discrete sesquilinear form of the shifted restricted operator.

    F = c^2 K + c^2 (rho/m) Tr^T [W_b (I-M)^-1] Tr - W_vol, which must be
    conjugate-symmetric when M is self-adjoint in the boundary quadrature.
    Refuses rho or m that are not constant (``constant_rho_m``).
    """
    if not constant_rho_m(ops.coeffs):
        raise ModelError("form assembly requires constant rho and m")
    rho = np.real(ops.coeffs.rho)
    m = np.real(ops.coeffs.m)
    nb = ops.n_b
    n = ops.n
    M = ops.M if ops.M is not None else np.zeros((nb, nb))
    Wb = np.diag(ops.bnd_weights)
    S = shifted_inverse(M, 1.0, "(I-M) inverse")
    Tr = np.zeros((nb, n))
    # boundary trace in state-dof indexing
    state_pos = {int(node): i for i, node in enumerate(ops.state_node_idx)}
    for slot, b in enumerate(mesh.gamma1):
        Tr[slot, state_pos[int(b)]] = 1.0
    c2 = ops.coeffs.c ** 2
    K = stiffness_matrix(mesh)
    if ops.state_node_idx.size != mesh.n_nodes:
        K = K[np.ix_(ops.state_node_idx, ops.state_node_idx)]
    return c2 * K + c2 * (rho[0] / m[0]) * Tr.T @ (Wb @ S) @ Tr - np.diag(ops.state_weights)


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------
# Largest weighted asymmetry of A0 accepted: block assembly refuses a larger
# one, because the modal pencil rests on a symmetric eigendecomposition.
SYMMETRY_TOL = 1e-12


def weighted_asymmetry(A0: np.ndarray, W: np.ndarray) -> float:
    """||W A0 - (W A0)^H||_F / max(1, ||W A0||_F): zero when A0 is
    self-adjoint in the quadrature weights W."""
    WA = W[:, None] * A0
    return float(np.linalg.norm(WA - WA.T.conj()) / max(1.0, np.linalg.norm(WA)))


def check_assumptions(sys: BlockSystem) -> tuple[float, float, float]:
    """The high-frequency contraction ladder of the (A, L) lifting, which the
    neutral model assumes: for dyadic lambda = 2^2 .. 2^16 it takes the flux
    lift D_lambda and returns (lambda0, ||B2 D_lambda0||, worst ratio), where
    lambda0 is the smallest lambda with ||B2 D_lambda|| < 1 (inf, and the
    contraction inf, when there is none) and the worst ratio is the largest
    ||D_{2 lambda}|| / ||D_lambda|| along the ladder.  The flux lift is the
    R-lift renormalized by its own flux, D^{A,L} = D (L D)^-1 with
    L D = I + B2 D: one guarded n_b-sized solve per rung on top of the
    bordered one.  The other structural assumptions (ghost rank, symmetry of
    A0, finite blocks) are refused at assembly.
    """
    n = sys.n
    lam0, contraction_at_lam0 = np.inf, np.inf
    prev = None
    worst_ratio = 0.0
    for kexp in _LADDER_EXPONENTS:
        lam = float(2 ** kexp)
        D = sys.dirichlet_lift(lam)
        D = D @ checked_solve(sys.ops.L @ D, np.eye(sys.n_b), "flux of the lift")
        dnorm = opnorm(D[:n, :])
        contraction = opnorm(sys.ops.B2 @ D[:n, :])
        if prev is not None:
            worst_ratio = max(worst_ratio, dnorm / prev)
        prev = dnorm
        if lam0 == np.inf and contraction < 1.0:
            lam0, contraction_at_lam0 = lam, contraction
    return lam0, contraction_at_lam0, worst_ratio
