"""Block operators of the first-order coupled system.

The reduced state is ordered (u, v, x, y): interior value and velocity, the
boundary displacement x, and the boundary datum y = R u.  Ghost dofs never
appear in the state: they are eliminated exactly through the constraint
R u_ext = y by solving the (always square, full-rank) ghost block of R, so the
constraint is a coordinate identity along every trajectory.

The coupled generator Acal on (u, v, x, y) is the only full-size matrix a
BlockSystem stores (it is frozen and every stored array is read-only).  With
m1 = 2n + n_b the other blocks are read off it:

    Abb0  = Acal[:m1, :m1], the generator restricted to the kernel of the
            boundary row (its x-row collapses to B2 exactly); a view
    Bfrak = Acal[m1:, :m1], the boundary row [B1 + B4 B2, 0, B3]; a view
    A1cal : the decoupled part, Acal with zero y-rows; a new array
    A2cal : the boundary feedback, the y-rows of Acal (rank <= n_b); a new array

A0 must be self-adjoint in the state quadrature weights W; then one eigh of
W^{1/2} A0 W^{-1/2} = Q diag(a) Q^T gives A0 = V diag(a) V^-1 with
V = W^{-1/2} Q, V^-1 = Q^T W^{1/2}, and the modal pencil factors X1, X2, Y
(see resolvent.pencil).  The one bordered Dirichlet solve is the R-lift
[mu P_n - A_max; R] u_ext = [0; I] (BlockSystem.dirichlet_lift); the same
modal data, with a few norms taken once at assembly, bound its condition
number (BlockSystem.lift_cond_bound), so that guard needs no SVD.

The state's exact split is chosen once, at assembly (BlockSystem.split):
on a strip whose coefficients are constant along x, the cosine modes along
x (a ``_linalg.ModeSplit`` of ``cosine_modes``), whose dense eigensolves and
inverses take nx + 1 blocks of one column's size; else the mirror
x -> L - x (a ``_linalg.MirrorSplit``) when Acal commutes with it bit for
bit, two half-size blocks; else none.  The bordered solve splits the same
way, its blocks of [-A_max; R] gathered once, at assembly
(BlockSystem.lift_split, a ``_linalg.ShiftedSplit``): by the modes
restricted to the extended dofs, else by the mirror where it leaves
[-A_max; R] exactly unchanged.  Each lift adds its mu on the node diagonals
of the stored blocks and solves them.  Every other split restricts
BlockSystem.split to its dofs (``_linalg.restrict``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (MirrorSplit, ModeSplit, ShiftedSplit, Split, checked_solve, holder_norm,
                      shifted)
from .errors import AssumptionError, ConfigurationError, DimensionError, NumericalError
from .mesh import Mesh
from .model import (SYMMETRY_TOL, ModelOperators, default_boundary_laplacian, freeze_arrays,
                    mirror_symmetrized, weighted_asymmetry)


@dataclass(frozen=True, eq=False)
class BlockSystem:
    """Assembled coupled generator with the ghost-elimination maps.

    ghosts = E0 @ u + E1 @ y realizes R(u, ghosts) = y exactly.
    """

    ops: ModelOperators
    A0: np.ndarray                 # (n, n)
    E0: np.ndarray                 # (g, n)
    E1: np.ndarray                 # (g, n_b)
    S_A: np.ndarray                # (n, n_b): ghost contribution of y to v-dot
    Acal: np.ndarray               # (2n+2n_b)^2
    eig_A0: np.ndarray = field(repr=False)   # (n,) real, ascending: a
    spectral_scale: float = field(repr=False)  # max |a|, 1.0 when n = 0
    X1: np.ndarray = field(repr=False)       # (n_b, n): (B1 + B4 B2) V
    X2: np.ndarray = field(repr=False)       # (n_b, n): B3 B2 V
    Y: np.ndarray = field(repr=False)        # (n, n_b): V^-1 S_A
    # holder_norm bounds on 2-norms, for lift_cond_bound
    norm_T: float = field(repr=False)        # T = [[I, 0], [E0, E1]]: (u, y) -> (u, ghosts)
    norm_S_A: float = field(repr=False)
    norm_A_max: float = field(repr=False)
    norm_R: float = field(repr=False)
    kappa_W: float = field(repr=False)       # cond(W^{1/2}) = sqrt(max W / min W)
    # the exact split of the state (u, v, x, y): its cosine modes along x
    # when the model separates by them (``cosine_modes``), else the mirror
    # x -> L - x when Acal commutes with it bit for bit, else None; and the
    # blocks of the bordered Dirichlet matrix [mu P_n - A_max; R] on the
    # extended dofs (nodes, then ghosts): by the modes, else by the mirror
    # when [-A_max; R] commutes with it bit for bit, else None
    split: Split | None = field(repr=False)
    lift_split: ShiftedSplit | None = field(repr=False)

    def __post_init__(self):
        freeze_arrays(self, ("A0", "E0", "E1", "S_A", "Acal", "eig_A0", "X1", "X2", "Y"))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.ops.dims

    @property
    def n(self) -> int:
        return self.dims[0]

    @property
    def n_b(self) -> int:
        return self.dims[2]

    @property
    def state_dim(self) -> int:
        return 2 * self.n + 2 * self.n_b

    @property
    def _m1(self) -> int:          # size of (u, v, x); the y-rows start here
        return 2 * self.n + self.n_b

    @property
    def Abb0(self) -> np.ndarray:
        return self.Acal[:self._m1, :self._m1]

    @property
    def Bfrak(self) -> np.ndarray:
        return self.Acal[self._m1:, :self._m1]

    @property
    def A1cal(self) -> np.ndarray:
        out = self.Acal.copy()
        out[self._m1:] = 0.0
        return out

    @property
    def A2cal(self) -> np.ndarray:
        return self.Acal - self.A1cal

    def unpack(self, state: np.ndarray):
        """Split a reduced state (or matrix of states) into (u, v, x, y)."""
        n, nb = self.n, self.n_b
        if state.shape[0] != self.state_dim:
            raise DimensionError(
                f"state must have length {self.state_dim}, got {state.shape[0]}")
        return (state[:n], state[n:2 * n],
                state[2 * n:2 * n + nb], state[2 * n + nb:])

    def extend(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Extended field (nodes + ghosts) with ghosts chosen so R u_ext = y."""
        return np.concatenate([u, self.E0 @ u + self.E1 @ y])

    def lift_cond_bound(self, mu: complex) -> float:
        """Upper bound on cond_2 of the bordered matrix M = [mu P_n - A_max; R].

        Ghost elimination gives M T = K = [[mu - A0, -S_A], [0, I]].  With
        r = kappa(W^1/2) / dist(mu, sigma(A0)) >= ||(mu - A0)^-1||,

            ||K^-1|| <= r (1 + ||S_A||) + 1,

        and ||M|| <= |mu| + ||A_max|| + ||R||, ||M^-1|| <= ||T|| ||K^-1||.  O(n).
        """
        dist = float(np.min(np.abs(mu - self.eig_A0)))
        if dist == 0.0:
            return np.inf
        r = self.kappa_W / dist
        inv_K = r * (1.0 + self.norm_S_A) + 1.0
        return (abs(mu) + self.norm_A_max + self.norm_R) * self.norm_T * inv_K

    def dirichlet_lift(self, mu: complex) -> np.ndarray:
        """The Dirichlet lift D_mu: the (n + g, n_b) extended fields u_ext
        with (mu P_n - A_max) u_ext = 0 and R u_ext = I, where P_n projects
        the extended dofs (nodes, then ghosts) onto the nodes.

        The bordered solve is guarded by ``lift_cond_bound``.  When
        ``lift_split`` is set, mu is added on the node diagonals of its
        stored blocks and they are solved: the nx + 1 cosine-mode blocks of
        one column's extended dofs on a strip with modes, else the even and
        odd halves, which are the blocks of the full matrix bit for bit, so
        that lift is the mirror's solve of the full matrix.  Either way the
        full matrix is formed only when the bound does not clear the guard,
        which judges it, so every refusal is that of the unsplit
        ``checked_solve``.
        """
        n, size = self.ops.A_max.shape
        rhs = np.eye(size, self.n_b, k=-n, dtype=np.result_type(self.ops.A_max, mu))
        what, bound = "bordered Dirichlet system", self.lift_cond_bound(mu)

        def full():
            return np.concatenate([shifted(self.ops.A_max, mu), self.ops.R])

        if self.lift_split is None:
            return checked_solve(full(), rhs, what, cond_bound=bound)
        return self.lift_split.solve(mu, rhs, what, bound, full)


def _ghost_maps(ops: ModelOperators):
    n = ops.n
    Rn, Rg = ops.R[:, :n], ops.R[:, n:]
    try:
        E1 = checked_solve(Rg, np.eye(Rg.shape[0]), what="ghost block of R")
    except NumericalError as exc:
        raise AssumptionError(
            "A3", f"{exc}; cannot eliminate ghosts against the boundary row") from exc
    E0 = -E1 @ Rn
    return E0, E1


def _splits(ops: ModelOperators, Acal: np.ndarray, modes: np.ndarray | None):
    """The split of the state (u, v, x, y) and the stored blocks of
    [-A_max; R]: its rows are the nodes, then one per ghost slot, and ghost
    slot i belongs to Gamma1 dof i, so the extended dofs are the u dofs,
    then the x dofs, on rows and columns alike.  With ``modes`` both split
    by the cosine modes (restricted to u and x for the extended dofs).
    Else the mirror's permutation of the state is kept when Acal commutes
    with it bit for bit, and its permutation [node, n + bnd] of the
    extended dofs when [-A_max; R] does."""
    n, _, nb = ops.dims
    bordered = np.concatenate([-ops.A_max, ops.R])
    if modes is not None:
        split = ModeSplit(modes)
        ext = split.restrict(np.r_[0:n, 2 * n:2 * n + nb])
        return split, ShiftedSplit(bordered, ext, np.arange(n))
    if ops.mirror is None:
        return None, None
    node, bnd = ops.mirror
    state = MirrorSplit(np.concatenate([node, n + node, 2 * n + bnd, 2 * n + nb + bnd]))
    ext = MirrorSplit(np.concatenate([node, n + bnd]))
    return (state if state.commutes(Acal) else None,
            ShiftedSplit(bordered, ext, np.arange(n)) if ext.commutes(bordered) else None)


def cosine_modes(mesh: Mesh, ops: ModelOperators) -> np.ndarray | None:
    """The cosine-mode basis of the state (u, v, x, y) of ``ops`` on ``mesh``:
    row 0 holds the grid column (x index) of every state dof, row 1 its row
    within the column's block, 2(ny + 1) + 2 of them (u by height, then v,
    then x, then y).  None unless the model separates by cosine modes.

    It does when the mesh is a strip and every sampled coefficient is equal
    bit for bit along x: every operator along x is then the same
    reflected-Neumann second difference (the interior stencil, the Gamma0
    reflection and the neutral M, ``default_boundary_laplacian``), which the
    DCT-I vectors diagonalize (``_linalg.ModeSplit``).  The inputs decide,
    never a tolerance, in O(N).
    """
    if mesh.kind != "strip" or not (ops.M is None
                                    or np.array_equal(ops.M, default_boundary_laplacian(mesh))):
        return None
    nxp, nyp = mesh.grid_shape
    co = ops.coeffs
    if not all(np.all(v == v[0]) for v in (co.rho, co.m, co.d, co.k)):
        return None
    if co.a is not None and not np.all(co.a.reshape(nyp, nxp) == co.a[::nxp, None]):
        return None
    height, col = np.divmod(ops.state_node_idx, nxp)
    bnd_col, bnd = mesh.gamma1 % nxp, np.ones(ops.n_b, dtype=int)
    return np.stack([np.concatenate([col, col, bnd_col, bnd_col]),
                     np.concatenate([height, nyp + height, 2 * nyp * bnd, (2 * nyp + 1) * bnd])])


def assemble_block_generator(ops: ModelOperators,
                             modes: np.ndarray | None = None) -> BlockSystem:
    """Build the coupled generator Acal and the modal data of its restriction.

    When B1, B2 and B4 are bitwise mirror-invariant, so is the exact boundary
    row B1 + B4 B2, and its computed value is averaged with its mirror image
    (``mirror_symmetrized``).  The state's split is the cosine modes when
    ``modes`` is given (``cosine_modes``), else the mirror's state
    permutation when Acal then commutes with it bit for bit; the blocks of
    the bordered Dirichlet matrix are stored by the modes, else by the
    mirror's extended-dof permutation when that matrix commutes with it
    (``_splits``).
    """
    n, _, nb = ops.dims
    E0, E1 = _ghost_maps(ops)
    An, Ag = ops.A_max[:, :n], ops.A_max[:, n:]
    Ln, Lg = ops.L[:, :n], ops.L[:, n:]
    A0 = An + Ag @ E0
    S_A = Ag @ E1
    Bu = ops.B1 + ops.B4 @ ops.B2   # u block of the boundary row
    Bu, = mirror_symmetrized(ops, [Bu], (ops.B1, ops.B2, ops.B4))

    x, y = slice(2 * n, 2 * n + nb), slice(2 * n + nb, None)
    Acal = np.zeros((2 * n + 2 * nb, 2 * n + 2 * nb),
                    dtype=np.result_type(A0, ops.B3, ops.B4))
    Acal[:n, n:2 * n] = np.eye(n)
    Acal[n:2 * n, :n] = A0
    Acal[n:2 * n, y] = S_A
    Acal[x, :n] = Ln + Lg @ E0      # collapses to B2 exactly (R = L - B2)
    Acal[x, y] = Lg @ E1            # collapses to the identity
    Acal[y, :n] = Bu
    Acal[y, x] = ops.B3
    Acal[y, y] = ops.B4

    W = ops.state_weights
    asym = weighted_asymmetry(A0, W)
    if not asym <= SYMMETRY_TOL:
        raise AssumptionError(
            "restricted-symmetry",
            f"restricted operator is not self-adjoint in the quadrature weights "
            f"(weighted asymmetry {asym:.3e} > {SYMMETRY_TOL:.0e}); the modal "
            "pencil needs a symmetric eigendecomposition of A0")
    sq = np.sqrt(W)
    H = sq[:, None] * A0 / sq[None, :]
    a, Q = np.linalg.eigh(0.5 * (H + H.T.conj()))
    V = Q / sq[:, None]

    split, lift_split = _splits(ops, Acal, modes)
    return BlockSystem(
        ops=ops, A0=A0, E0=E0, E1=E1, S_A=S_A, Acal=Acal,
        eig_A0=a, spectral_scale=float(np.max(np.abs(a))) if a.size else 1.0,
        X1=Bu @ V, X2=ops.B3 @ ops.B2 @ V,
        Y=Q.T.conj() @ (sq[:, None] * S_A),
        norm_T=holder_norm(np.block([[np.eye(n), np.zeros((n, nb))], [E0, E1]])),
        norm_S_A=holder_norm(S_A), norm_A_max=holder_norm(ops.A_max),
        norm_R=holder_norm(ops.R), kappa_W=float(np.sqrt(np.max(W) / np.min(W))),
        split=split, lift_split=lift_split,
    )


def reduced_generator(sys: BlockSystem) -> np.ndarray:
    """First-order dynamical-boundary generator on (u, v, y) for B3 = 0.

    With no spring coupling the x coordinate is superfluous (it feeds nothing)
    and the coupled matrix collapses to a 3-block form whose invertibility is
    what the zero-mode diagnostics probe.
    """
    if np.max(np.abs(sys.ops.B3)) > 1e-12:
        raise ConfigurationError(
            "the reduced generator requires B3 = 0 (spring coupling absent)")
    keep = reduced_dofs(sys)
    return sys.Acal[np.ix_(keep, keep)]


def reduced_dofs(sys: BlockSystem) -> np.ndarray:
    """Positions of the reduced state (u, v, y) in the state (u, v, x, y)."""
    n, _, nb = sys.dims
    return np.r_[0:2 * n, 2 * n + nb:2 * n + 2 * nb]


def initial_state(f: np.ndarray, g: np.ndarray, h: np.ndarray, j: np.ndarray,
                  sys: BlockSystem, tol: float = 1e-10,
                  f_ghosts: np.ndarray | None = None) -> np.ndarray:
    """Reduced initial state (f, g, h, y0) with y0 = j - B2 f.

    When the ghost extension of f is known (analytic data sampled at ghost
    coordinates, or a randomly drawn extension), the compatibility j = L f_ext
    is checked against ``tol`` and violations are rejected with the measured
    residual.
    """
    n, _, nb = sys.dims
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    j = np.asarray(j, dtype=float)
    if f.shape != (n,) or g.shape != (n,):
        raise DimensionError(f"f, g must have length {n}")
    if h.shape != (nb,) or j.shape != (nb,):
        raise DimensionError(f"h, j must have length {nb}")
    if f_ghosts is not None:
        f_ext = np.concatenate([f, np.asarray(f_ghosts, dtype=float)])
        resid = float(np.max(np.abs(sys.ops.L @ f_ext - j)))
        if resid > tol:
            raise ConfigurationError(
                f"incompatible initial data: ||L f - j|| = {resid:.3e} > {tol:.1e} "
                "(initial boundary velocity must equal the initial flux)")
    y0 = j - sys.ops.B2 @ f
    return np.concatenate([f, g, h, y0])
