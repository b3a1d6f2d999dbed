"""Dirichlet operators, the boundary pencil and block resolvent identities.

For an admissible spectral parameter mu (kept away from the spectrum of the
restricted operator), the Dirichlet operator D_mu maps boundary data to the
unique extended field solving the bordered system

    (mu - A_max) u_ext = 0,    R u_ext = data.

The boundary pencil, whose singularity at lam characterizes the spectrum of
the coupled generator off the restricted spectrum, is

    P(lam) = B1 D_{lam^2} + (B3/lam + B4) L D_{lam^2}.

It is evaluated modally: ghost elimination gives D_mu = (mu - A0)^-1 S_A on
the nodes and L D_mu = I + B2 D_mu, and A0 is self-adjoint in the quadrature
weights, so the eigendecomposition A0 = V diag(a) V^-1 taken once at assembly
(see blockops) turns each evaluation into a diagonal scaling,

    P(lam) = (X1 + X2/lam) diag(1/(lam^2 - a)) Y + B3/lam + B4,

with a closed-form derivative P'(lam).  ``pencil`` and ``pencil_derivative``
take a scalar lam or a 1-D array of K values; a scalar is a batch of one and
gets an (n_b, n_b) result, an array a (K, n_b, n_b) stack.  A PencilEvaluator
folds X1 and X2 with Y once into (n, n_b^2) tables, so a batch costs one real
product of its (K, 2n) diagonal weights with them: no per-point loop and no
K n n_b temporary.  Systems whose A0 is not weighted-symmetric are refused at
assembly.  The bordered solve for D_mu is the independent cross-check: the
lifted block Dirichlet operator on (u, v, x) states gives the second
construction pencil_via_blocks, and the explicit block resolvents and the
triangular factorization of (lam - Acal) are assembled from it, the
factorization block by block with neither dense factor formed; the one
inverse there is R2 = (lam^2 - A0)^-1, and A0 R2 = lam^2 R2 - I.  The
constructions at one lam can share R2, the block lift and the
PencilEvaluator through one BlockPieces, which forms each once.  Every
lift here is the one bordered R-lift ``BlockSystem.dirichlet_lift``; no
bordered solve runs against L, whose lift the neutral ladder forms as
D (L D)^-1 (``model.check_assumptions``).  The bordered solve and R2 take
the system's split (``BlockSystem.lift_split``, and ``BlockSystem.split``
restricted to u for ``_linalg.shifted_inverse``): nx + 1 blocks of one
column's size on a strip with cosine modes, two half-size blocks on
another mirror-exact system.  Either way the guard judges the full
matrix.

Admissibility is one rule: lam is refused within the zero radius r0 of zero
("near-zero", tested first) or when mu = lam^2 is within the exclusion
radius r of the restricted spectrum ("near-sigma-a0"; a bare mu gets only
this test).  ``exclusion_radii`` gives (r, r0) for the radius of the
PencilEvaluator an entry point is given or, for a system, the default one.
One private per-point predicate decides every refusal: the guard every
public entry point runs once, which raises for the first refused point of a
batch with the message that point gets alone, and ``PencilEvaluator.check``,
``refusals`` and ``is_admissible``.  The constructions the entry points
share are unchecked internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import (checked_solve, mixed_matmul, opnorm, rel_norm, restrict, shifted,
                      shifted_inverse)
from .blockops import BlockSystem
from .errors import DimensionError, SpectralParameterError


def exclusion_radii(sys: BlockSystem, radius: float | None = None) -> tuple[float, float]:
    """(r, r0): the exclusion radius in the mu = lam^2 plane and its zero radius
    in the lam plane, the same fraction of max(1, sqrt(s)) as r is of
    max(1, s) for the spectral scale s of the restricted operator (coupled
    eigenvalues scale like square roots of restricted ones).  None selects the
    fraction 1e-6."""
    scale = sys.spectral_scale
    if radius is None:
        return 1e-6 * max(1.0, scale), 1e-6 * max(1.0, np.sqrt(scale))
    return radius, radius * max(1.0, np.sqrt(scale)) / max(1.0, scale)


def _refusal(sys: BlockSystem, radius: float | None, mu: np.ndarray,
             lam: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the reason it is refused ("" if admissible) and its distance:
    |lam| if "near-zero" (no zero test without lam), else from mu to the
    restricted spectrum."""
    r, r0 = exclusion_radii(sys, radius)
    dist = np.min(np.abs(mu[..., None] - sys.eig_A0), axis=-1)
    reason = np.where(dist < r, "near-sigma-a0", "")
    if lam is not None:
        near_zero = np.abs(lam) < r0
        reason = np.where(near_zero, "near-zero", reason)
        dist = np.where(near_zero, np.abs(lam), dist)
    return reason, dist


def _check_admissible(sys: BlockSystem, lam=None, *, mu=None,
                      radius: float | None = None) -> None:
    """Refuse lam, or a bare mu, or the first refused point of a 1-D array."""
    if mu is None:
        lam = np.ravel(lam)
        mu = lam * lam
    mu = np.ravel(mu)
    reason, dist = _refusal(sys, radius, mu, lam)
    refused = np.flatnonzero(reason)
    if refused.size:
        k = refused[0]
        r, r0 = exclusion_radii(sys, radius)
        point, near, rad = ((f"lambda={lam[k]:.6g}", "zero", r0) if reason[k] == "near-zero"
                            else (f"mu={mu[k]:.6g}", "the restricted spectrum", r))
        raise SpectralParameterError(str(reason[k]), f"{point} is within {dist[k]:.3e} "
                                     f"of {near} (exclusion radius {rad:.3e})")


def _as_batch(lam) -> np.ndarray:
    """lam as a 1-D array; a scalar is a batch of one."""
    batch = np.atleast_1d(np.asarray(lam))
    if batch.ndim != 1:
        raise DimensionError(f"lam must be a scalar or a 1-D array, got shape {batch.shape}")
    return batch


@dataclass(frozen=True, eq=False)
class PencilEvaluator:
    """Admissibility-guarded access to the boundary pencil of one system.

    ``exclusion_radius`` is a distance in the mu = lam^2 plane from the
    restricted spectrum; lam is also refused within its square-root companion
    of zero (both from ``exclusion_radii``).  None selects the default radii.
    ``tables`` is [X1 (x) Y; X2 (x) Y], the (2n, n_b^2) fold whose row j is
    X[:, j] Y[j, :] flattened, built once at construction and read-only.
    Evaluators compare and hash by identity.
    """

    sys: BlockSystem
    exclusion_radius: float | None = None
    tables: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = self.sys
        folded = np.concatenate([(X.T[:, :, None] * s.Y[:, None, :]).reshape(s.n, -1)
                                 for X in (s.X1, s.X2)])
        folded.setflags(write=False)
        object.__setattr__(self, "tables", folded)

    def check(self, lam) -> None:
        """Refuse lam, or the first refused point of a 1-D array of them."""
        _check_admissible(self.sys, lam, radius=self.exclusion_radius)

    def refusals(self, lam) -> np.ndarray:
        """Per point of lam, the reason ``check`` refuses it ("near-zero"
        before "near-sigma-a0"), or "" when it is admissible."""
        lam = np.asarray(lam)
        return _refusal(self.sys, self.exclusion_radius, lam * lam, lam)[0]

    def is_admissible(self, lam):
        """A bool for a scalar lam, a boolean mask for a 1-D array."""
        ok = self.refusals(lam) == ""
        return ok if ok.ndim else bool(ok)


@dataclass(frozen=True, eq=False)
class BlockPieces:
    """What the block constructions of one system at one lam share: its
    PencilEvaluator, R2 = (lam^2 - A0)^-1 and the block Dirichlet lift.

    Each is formed on first use, and the arrays are read-only; nothing else
    is kept, so a caller that evaluates several constructions at lam
    (``verify`` does) passes one BlockPieces to each, and drops it when done.
    """

    sys: BlockSystem
    lam: complex

    @cached_property
    def evaluator(self) -> PencilEvaluator:
        return PencilEvaluator(self.sys)

    @cached_property
    def R2(self) -> np.ndarray:
        return _frozen(_r2(self.sys, self.lam))

    @cached_property
    def lift(self) -> np.ndarray:
        return _frozen(_block_lift(self.sys, self.lam))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _pieces(sys: BlockSystem, lam: complex, pieces: BlockPieces | None) -> BlockPieces:
    """``pieces`` when they are those of (sys, lam), fresh ones for None."""
    if pieces is None:
        return BlockPieces(sys, lam)
    if pieces.sys is not sys or pieces.lam != lam:
        raise ValueError(f"block pieces of another system or lam (lam={lam:.6g})")
    return pieces


# ---------------------------------------------------------------------------
# Unchecked constructions (callers run the admissibility guard once)
# ---------------------------------------------------------------------------
def _block_lift(sys: BlockSystem, lam: complex) -> np.ndarray:
    D = sys.dirichlet_lift(complex(lam * lam))
    n, nb = sys.n, sys.n_b
    out = np.zeros((2 * n + nb, nb), dtype=complex)
    out[:n] = D[:n]
    out[n:2 * n] = lam * D[:n]
    out[2 * n:] = (sys.ops.L @ D) / lam
    return out


def _modal_sum(evaluator: PencilEvaluator, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """X1 diag(w1[k]) Y + X2 diag(w2[k]) Y for each row k of the (K, n)
    weights: one product with the folded tables, shaped (K, n_b, n_b)."""
    nb = evaluator.sys.n_b
    weights = np.concatenate([w1, w2], axis=1)
    return mixed_matmul(weights, evaluator.tables).reshape(-1, nb, nb)


def _r2(sys: BlockSystem, lam: complex) -> np.ndarray:
    return shifted_inverse(sys.A0, lam * lam, "(lam^2 - A0) resolvent",
                           restrict(sys.split, np.arange(sys.n)))


def _a0_block_resolvent(sys: BlockSystem, lam: complex, R2: np.ndarray,
                        out: np.ndarray | None = None, add: bool = False) -> np.ndarray:
    """The restricted block resolvent RA0, into a new array, or written into
    ``out`` (shaped like Abb0), or added onto ``out`` when ``add``: each
    entry then is out + RA0 bit for bit, the zero blocks included.  One
    n x n temporary is live at a time."""
    n, nb = sys.n, sys.n_b
    if out is None:
        out = np.empty((2 * n + nb, 2 * n + nb), dtype=complex)
    u, v, x = slice(0, n), slice(n, 2 * n), slice(2 * n, None)

    def put(rows, cols, block):
        if add:
            out[rows, cols] += block
        else:
            out[rows, cols] = block

    put(u, u, lam * R2)
    put(v, v, lam * R2)
    put(u, v, R2)
    a0_r2 = lam * lam * R2                        # A0 R2 = lam^2 R2 - I, no product
    a0_r2[np.diag_indices(n)] -= 1.0
    put(v, u, a0_r2)
    del a0_r2
    B2R2 = sys.ops.B2 @ R2
    put(x, u, B2R2)
    put(x, v, B2R2 / lam)
    put(x, x, np.eye(nb) / lam)
    put(u, x, 0.0)
    put(v, x, 0.0)
    return out


def _regular_pencil(evaluator: PencilEvaluator, lam: complex) -> tuple[np.ndarray, float]:
    """lam - P(lam) for lam in Gamma, with its 2-norm condition number.

    Refuses a near-singular pencil: the pencil-singularity test uses a
    relative smallest-singular-value threshold of 1e-8.
    """
    pcl = shifted(pencil(evaluator, lam), lam)
    sv = np.linalg.svd(pcl, compute_uv=False)
    if sv[-1] <= 1e-8 * max(1.0, sv[0]):
        raise SpectralParameterError(
            "pencil-singular",
            f"lambda={lam:.6g} is in the pencil spectrum "
            f"(smallest singular value {sv[-1]:.3e})")
    return pcl, float(sv[0] / sv[-1])


# ---------------------------------------------------------------------------
# Dirichlet operators
# ---------------------------------------------------------------------------
def dirichlet_operator(sys: BlockSystem, mu: complex) -> np.ndarray:
    """Extended-dof lifting of boundary data: columns solve the bordered system."""
    _check_admissible(sys, mu=mu)
    return sys.dirichlet_lift(complex(mu))


def identity_LD(sys: BlockSystem, mu: complex) -> float:
    """Residual of L D_mu = I + B2 D_mu (B2 acting on the node part)."""
    D = dirichlet_operator(sys, mu)
    n = sys.n
    lhs = sys.ops.L @ D
    rhs = np.eye(sys.n_b) + sys.ops.B2 @ D[:n]
    return opnorm(lhs - rhs)


def block_dirichlet(sys: BlockSystem, lam: complex) -> np.ndarray:
    """Block Dirichlet operator on (u, v, x) states.

    Rows are (D_{lam^2}, lam D_{lam^2}, (1/lam) L D_{lam^2}); the middle row
    is lam times the first, the last one is the scaled flux of the lift.
    """
    _check_admissible(sys, lam)
    return _block_lift(sys, lam)


# ---------------------------------------------------------------------------
# Pencil
# ---------------------------------------------------------------------------
def pencil(evaluator: PencilEvaluator, lam) -> np.ndarray:
    """Boundary pencil from the modal data of the restricted operator.

    ``lam`` is a scalar, giving (n_b, n_b), or a 1-D array of K points,
    giving (K, n_b, n_b).
    """
    evaluator.check(lam)
    sys = evaluator.sys
    lam_k = _as_batch(lam)[:, None]
    r = 1.0 / (lam_k * lam_k - sys.eig_A0)
    out = _modal_sum(evaluator, r, r / lam_k) + sys.ops.B3 / lam_k[..., None] + sys.ops.B4
    return out if np.ndim(lam) else out[0]


def pencil_derivative(evaluator: PencilEvaluator, lam) -> np.ndarray:
    """d/dlam P(lam) in closed form from the same modal data as ``pencil``;
    shaped like ``pencil(evaluator, lam)``."""
    evaluator.check(lam)
    sys = evaluator.sys
    lam_k = _as_batch(lam)[:, None]
    r = 1.0 / (lam_k * lam_k - sys.eig_A0)
    r2 = 2.0 * r * r
    out = (_modal_sum(evaluator, -lam_k * r2, -r / (lam_k * lam_k) - r2)
           - sys.ops.B3 / (lam_k * lam_k)[..., None])
    return out if np.ndim(lam) else out[0]


def pencil_via_blocks(evaluator: PencilEvaluator, lam: complex) -> np.ndarray:
    """Dual construction: B4 + Bfrak applied to the block Dirichlet lift."""
    evaluator.check(lam)
    sys = evaluator.sys
    return sys.ops.B4 + sys.Bfrak @ _block_lift(sys, lam)


# ---------------------------------------------------------------------------
# Block resolvents
# ---------------------------------------------------------------------------
def resolvent_A0_block(sys: BlockSystem, lam: complex,
                       pieces: BlockPieces | None = None) -> np.ndarray:
    """Explicit resolvent of the restricted 3x3 block generator.

    Rows: (lam R2, R2, 0 / A0 R2, lam R2, 0 / B2 R2, B2 R2 / lam, I / lam)
    with R2 = (lam^2 - A0)^{-1}, by the blocks of ``sys.split`` restricted
    to u when it is set; A0 R2 is written as lam^2 R2 - I, equal in exact
    arithmetic, so no dense product is formed.  R2 is read from ``pieces``
    (those of (sys, lam)) when given.
    """
    _check_admissible(sys, lam)
    return _a0_block_resolvent(sys, lam, _pieces(sys, lam, pieces).R2)


def _boundary_row(sys: BlockSystem, lam: complex, R2: np.ndarray) -> np.ndarray:
    """Bfrak RA0 without RA0: Bfrak = [Bu, 0, B3] meets only the first and
    last block rows of RA0, so Bfrak RA0 = [lam W, W, B3/lam] with
    W = (Bu + B3 B2/lam) R2, an n_b-row product.  It equals the dense
    product to rounding."""
    n = sys.n
    Bu, B3 = sys.Bfrak[:, :n], sys.Bfrak[:, 2 * n:]
    W = (Bu + (B3 @ sys.ops.B2) / lam) @ R2
    return np.concatenate([lam * W, W, B3 / lam], axis=1)


def _factored(Abb0: np.ndarray, E: np.ndarray, F: np.ndarray, Blam: np.ndarray,
              omega: complex) -> np.ndarray:
    """Lfac diag(omega - Abb0, omega - Blam) Mfac, evaluated block by block.

    With Lfac = I + [[0, 0], [E, 0]] and Mfac = I + [[0, F], [0, 0]] the
    product is [[X, X F], [E X, omega - Blam + E X F]] for X = omega - Abb0,
    which costs O(N^2 n_b) instead of two dense products.  The blocks are
    written into one preallocated array, X in place, so no full-size
    temporary is formed.
    """
    m1, nb = Abb0.shape[0], Blam.shape[0]
    out = np.empty((m1 + nb, m1 + nb), dtype=complex)
    X = shifted(Abb0, omega, out=out[:m1, :m1])
    EX = E @ X
    out[:m1, m1:] = X @ F
    out[m1:, :m1] = EX
    shifted(Blam, omega, out=out[m1:, m1:])
    out[m1:, m1:] += EX @ F
    return out


def _shift_residual(sys: BlockSystem, omega: complex, rhs: np.ndarray) -> float:
    """Frobenius residual of omega - Acal = ``rhs`` relative to
    max(1, ||omega - Acal||_F); ``rhs`` is overwritten with rhs - (omega - Acal)."""
    lhs = shifted(sys.Acal, omega)
    rhs -= lhs
    return rel_norm(rhs, lhs)


def factorization_check(sys: BlockSystem, lam: complex, mu: complex,
                        pieces: BlockPieces | None = None) -> tuple[float, float, float]:
    """Residuals (i), (ii), (iii) of the triangular factorization of the
    coupled generator, all Frobenius-relative:

      (i)   lam - Acal = Lfac diag(lam - Abb0, lam - P(lam)) Mfac
      (ii)  mu  - Acal = Lfac diag(mu - Abb0, mu - P(lam)) Mfac
                         + (mu - lam)(I - Lfac Mfac)
      (iii) Lfac Mfac equals its displayed closed form [[I, F], [E, I + E F]].

    Lfac = I + [[0, 0], [E, 0]] with E = -Bfrak RA0 and Mfac = I + [[0, F],
    [0, 0]] with F minus the block lift, read from ``pieces`` (those of
    (sys, lam)) when given, and Bfrak RA0 from ``_boundary_row``, so RA0 is
    not formed.  Every term is formed from blocks, and neither factor is:
    the triple products of (i) and (ii) come from ``_factored``, and the
    correction of (ii) is added to its blocks.  Of Lfac Mfac only the (y, y)
    block, the thin product [E, I] [F; I], is not a copy of I, E or F, so
    (iii) compares it with I + E F, relative to the display's norm taken
    from its blocks: an identity of block multiplication, true for any E
    and F, which checks the rounding of the product's one inner sum.  The
    only state-size arrays are ``_factored``'s output and the shift
    omega - Acal, one of each at a time: the peak is about 2.5 N^2 complex
    entries on the strip, the shared pieces included (N the state
    dimension).
    """
    pieces = _pieces(sys, lam, pieces)
    Blam = pencil(pieces.evaluator, lam)
    m1 = 2 * sys.n + sys.n_b
    eye = np.eye(sys.n_b)
    E = -_boundary_row(sys, lam, pieces.R2)
    F = -pieces.lift

    lm_yy = np.concatenate([E, eye], axis=1) @ np.concatenate([F, eye])
    display_yy = E @ F + eye
    display_norm = float(np.sqrt(m1 + sum(np.linalg.norm(b) ** 2 for b in (E, F, display_yy))))
    res_iii = float(np.linalg.norm(lm_yy - display_yy)) / max(1.0, display_norm)

    res_i = _shift_residual(sys, lam, _factored(sys.Abb0, E, F, Blam, lam))
    rhs = _factored(sys.Abb0, E, F, Blam, mu)
    shift = mu - lam                   # (mu - lam)(I - Lfac Mfac), block by block
    rhs[:m1, m1:] -= shift * F
    rhs[m1:, :m1] -= shift * E
    rhs[m1:, m1:] += shift * (eye - lm_yy)
    res_ii = _shift_residual(sys, mu, rhs)
    return res_i, res_ii, res_iii


def resolvent_Acal(sys: BlockSystem, lam: complex,
                   pieces: BlockPieces | None = None) -> np.ndarray:
    """Resolvent of the coupled generator assembled from the factorization.

    Blocks: [[RA0 + D G Bfrak RA0, D G], [G Bfrak RA0, G]] with
    G = (lam - P(lam))^{-1} and D the block lift, R2 and D read from
    ``pieces`` (those of (sys, lam)) when given; refuses lambda outside
    Gamma, distinguishing which membership test failed.  The blocks are
    written into one preallocated output: RA0 first, read for G Bfrak RA0,
    then overwritten by D G Bfrak RA0 and added back from R2, entry for
    entry the sum RA0 + D G Bfrak RA0.  No other state-size array is formed:
    the peak is about 1.3 N^2 complex entries on the strip, the output
    included (N the state dimension).
    """
    pieces = _pieces(sys, lam, pieces)
    pcl, cond = _regular_pencil(pieces.evaluator, lam)
    G = checked_solve(pcl, np.eye(sys.n_b, dtype=complex), what="(lam - pencil) resolvent",
                      cond_bound=cond)
    Dblk = pieces.lift
    m1 = 2 * sys.n + sys.n_b
    out = np.empty((sys.state_dim, sys.state_dim), dtype=complex)
    top = out[:m1, :m1]
    GB = G @ (sys.Bfrak @ _a0_block_resolvent(sys, lam, pieces.R2, out=top))
    np.matmul(Dblk, GB, out=top)
    _a0_block_resolvent(sys, lam, pieces.R2, out=top, add=True)
    out[:m1, m1:] = Dblk @ G
    out[m1:, :m1] = GB
    out[m1:, m1:] = G
    return out
