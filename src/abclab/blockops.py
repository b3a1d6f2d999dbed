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
(see resolvent.pencil).  The same modal data, with a few norms taken once at
assembly, bounds the condition number of every bordered Dirichlet solve
(BlockSystem.lift_cond_bound), so that guard needs no SVD.  Where the mirror
x -> L - x leaves both bordered matrices exactly unchanged, each bordered
solve takes their two half-size even and odd blocks (BlockSystem.ext_mirror);
other splits restrict BlockSystem.mirror (``_linalg.restrict_mirror``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import bordered_dirichlet_solve, checked_solve, exact_mirror, holder_norm
from .errors import AssumptionError, ConfigurationError, DimensionError, NumericalError
from .model import (SYMMETRY_TOL, ModelOperators, freeze_arrays, mirror_symmetrized,
                    weighted_asymmetry)


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
    B2V: np.ndarray = field(repr=False)      # (n_b, n): B2 V
    # holder_norm bounds on 2-norms, for lift_cond_bound
    norm_T: float = field(repr=False)        # T = [[I, 0], [E0, E1]]: (u, y) -> (u, ghosts)
    norm_S_A: float = field(repr=False)
    norm_B2: float = field(repr=False)
    norm_A_max: float = field(repr=False)
    norm_R: float = field(repr=False)
    norm_L: float = field(repr=False)
    kappa_W: float = field(repr=False)       # cond(W^{1/2}) = sqrt(max W / min W)
    # the mirror x -> L - x on the state and on the extended dofs (nodes, then
    # ghosts), each None unless its matrices commute with it bit for bit
    # (Acal; [-A_max; R] and [-A_max; L], whose bordered solves split by it)
    mirror: np.ndarray | None = field(repr=False)
    ext_mirror: np.ndarray | None = field(repr=False)

    def __post_init__(self):
        freeze_arrays(self, ("A0", "E0", "E1", "S_A", "Acal", "eig_A0",
                             "X1", "X2", "Y", "B2V", "mirror", "ext_mirror"))

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

    def split(self, state: np.ndarray):
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

    def lift_cond_bound(self, mu: complex, flux: bool = False) -> float:
        """Upper bound on cond_2 of the bordered matrix M = [mu P_n - A_max; bnd].

        ``bnd`` is R, or L when ``flux``.  Ghost elimination gives M T = K with
        K = [[mu - A0, -S_A], [C, I]], C = 0 for R and B2 for L.  With
        r = kappa(W^1/2) / dist(mu, sigma(A0)) >= ||(mu - A0)^-1|| and the
        Schur complement Z = I + B2 (mu - A0)^-1 S_A of the flux case,

            ||K^-1|| <= r (1 + ||S_A||) + 1                         (R)
            ||K^-1|| <= r + ||Z^-1|| (1 + r ||S_A||) (1 + r ||B2||)  (L)

        and ||M|| <= |mu| + ||A_max|| + ||bnd||, ||M^-1|| <= ||T|| ||K^-1||.
        O(n) for R; O(n n_b^2) plus one n_b-sized SVD for L.
        """
        dist = float(np.min(np.abs(mu - self.eig_A0)))
        if dist == 0.0:
            return np.inf
        r = self.kappa_W / dist
        if flux:
            Z = np.eye(self.n_b) + (self.B2V / (mu - self.eig_A0)) @ self.Y
            smin = float(np.linalg.svd(Z, compute_uv=False)[-1])
            if smin == 0.0:
                return np.inf
            inv_K = r + (1.0 + r * self.norm_S_A) * (1.0 + r * self.norm_B2) / smin
            norm_bnd = self.norm_L
        else:
            inv_K = r * (1.0 + self.norm_S_A) + 1.0
            norm_bnd = self.norm_R
        return (abs(mu) + self.norm_A_max + norm_bnd) * self.norm_T * inv_K

    def dirichlet_lift(self, mu: complex, flux: bool = False) -> np.ndarray:
        """Bordered Dirichlet solve for boundary row R (or L when ``flux``),
        guarded by ``lift_cond_bound``; split into its even and odd halves by
        ``ext_mirror`` when that is set."""
        bnd = self.ops.L if flux else self.ops.R
        return bordered_dirichlet_solve(self.ops.A_max, bnd, mu,
                                        cond_bound=self.lift_cond_bound(mu, flux),
                                        mirror=self.ext_mirror)


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


def _mirrors(ops: ModelOperators, Acal: np.ndarray):
    """The mirror's permutations of the state (u, v, x, y), gated on Acal, and
    of the extended dofs, gated on [-A_max; R] and [-A_max; L]: their rows are
    the nodes, then one per ghost slot, and ghost slot i belongs to Gamma1 dof
    i, so [node, n + bnd] acts on rows and columns alike."""
    if ops.mirror is None:
        return None, None
    n, _, nb = ops.dims
    node, bnd = ops.mirror
    state = np.concatenate([node, n + node, 2 * n + bnd, 2 * n + nb + bnd])
    ext = np.concatenate([node, n + bnd])
    return (exact_mirror(state, Acal),
            exact_mirror(ext, *(np.vstack([ops.A_max, b]) for b in (ops.R, ops.L))))


def assemble_block_generator(ops: ModelOperators) -> BlockSystem:
    """Build the coupled generator Acal and the modal data of its restriction.

    When B1, B2 and B4 are bitwise mirror-invariant, so is the exact boundary
    row B1 + B4 B2, and its computed value is averaged with its mirror image
    (``mirror_symmetrized``).  The mirror's state permutation is stored when
    Acal then commutes with it bit for bit, and its extended-dof permutation
    when both bordered Dirichlet matrices do (``_mirrors``).
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

    mirror, ext_mirror = _mirrors(ops, Acal)
    return BlockSystem(
        ops=ops, A0=A0, E0=E0, E1=E1, S_A=S_A, Acal=Acal,
        eig_A0=a, spectral_scale=float(np.max(np.abs(a))) if a.size else 1.0,
        X1=Bu @ V, X2=ops.B3 @ ops.B2 @ V,
        Y=Q.T.conj() @ (sq[:, None] * S_A), B2V=ops.B2 @ V,
        norm_T=holder_norm(np.block([[np.eye(n), np.zeros((n, nb))], [E0, E1]])),
        norm_S_A=holder_norm(S_A), norm_B2=holder_norm(ops.B2),
        norm_A_max=holder_norm(ops.A_max), norm_R=holder_norm(ops.R),
        norm_L=holder_norm(ops.L), kappa_W=float(np.sqrt(np.max(W) / np.min(W))),
        mirror=mirror, ext_mirror=ext_mirror,
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
