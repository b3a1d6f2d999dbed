"""Dense linear-algebra primitives shared by the operator modules.

The one exception is ``NonzeroOperator``, which applies a dense matrix
through its nonzeros for the matvecs of the exponential's action.

Everything here is desk scale: square systems of a few hundred unknowns,
solved by LU with partial pivoting, with a condition refusal threshold
instead of iterative refinement.  ``checked_solve`` is the one guarded dense
solve, ``shifted`` forms every shift sigma - M and ``shifted_inverse`` every
(sigma - M)^-1.  The guard costs O(N^2): each solve carries a certified upper
bound on its 2-norm condition number, and only a bound that does not clear the
threshold is settled by the exact (SVD) condition number, so the refusals
are the ones the SVD alone would make (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 15).

A matrix that commutes exactly with an involutive permutation J (the mirror
x -> L - x of a symmetric grid) is block-diagonal in the basis of J's even
and odd vectors (Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986).
``restrict_mirror`` restricts J to dofs it maps onto itself, ``exact_mirror``
gates it, ``mirror_blocks`` forms the two blocks, ``eig`` and ``eigvals``
eigensolve them and ``checked_solve(..., mirror=J)`` solves them, always
guarded on the full matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Refuse bordered/dense solves beyond this condition number.
COND_REFUSAL = 1e12

# A bound passes without an SVD only below COND_REFUSAL / _BOUND_MARGIN.  A
# bound read from a computed inverse X carries its rounding error (LU is
# backward stable, so ||X|| is off by about N eps cond relative: 0.1 at N = 600
# and cond = 1e12); the exact condition number decides that band.
_BOUND_MARGIN = 2.0


def opnorm(a: np.ndarray) -> float:
    """Spectral (2-) norm."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def mixed_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as one real product when one factor is real and the other complex.

    numpy casts the real factor to complex and runs a complex product, four
    real multiplications per term where two suffice.  Stacking the real and
    imaginary parts of the complex factor (side by side on the right, one
    above the other on the left) gives the same result from one real product;
    the sums run in another order, so the two agree to rounding.  No
    temporary is larger than the complex result.
    """
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        m = b.shape[1]
        out = a @ np.concatenate([b.real, b.imag], axis=1)
        re, im = out[:, :m], out[:, m:]
    elif np.iscomplexobj(a) and not np.iscomplexobj(b):
        k = a.shape[0]
        out = np.concatenate([a.real, a.imag]) @ b
        re, im = out[:k], out[k:]
    else:
        return a @ b
    res = np.empty(re.shape, dtype=np.result_type(a, b))
    res.real, res.imag = re, im
    return res


def holder_norm(a: np.ndarray) -> float:
    """sqrt(||a||_1 ||a||_inf), an O(N^2) upper bound on the 2-norm."""
    if a.size == 0:
        return 0.0
    absa = np.abs(a)
    return float(np.sqrt(np.max(absa.sum(axis=0)) * np.max(absa.sum(axis=1))))


def condition_guard(mat: np.ndarray, bound: float, what: str) -> None:
    """Refuse ``mat`` when cond_2(mat) > COND_REFUSAL, given ``bound >= cond_2``.

    A bound that clears the threshold decides on its own; otherwise the exact
    ``np.linalg.cond`` decides and its value goes into the refusal message.
    """
    if bound * _BOUND_MARGIN <= COND_REFUSAL:
        return
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_REFUSAL:
        raise NumericalError(f"{what}: condition estimate {cond:.3e} exceeds {COND_REFUSAL:.0e}")


def _is_identity(rhs: np.ndarray) -> bool:
    """Whether ``rhs`` is a square identity (read without forming one)."""
    n = rhs.shape[0]
    return (rhs.shape == (n, n) and np.count_nonzero(rhs) == n
            and bool(np.all(rhs.diagonal() == 1)))


def restrict_mirror(perm: np.ndarray | None, keep: np.ndarray) -> np.ndarray | None:
    """``perm`` on the dofs ``keep``, as positions in ``keep``; None when
    ``perm`` is None or maps a dof of ``keep`` outside it."""
    if perm is None:
        return None
    pos = np.full(perm.size, -1)
    pos[keep] = np.arange(len(keep))
    img = pos[perm[keep]]
    return None if np.any(img < 0) else img


def exact_mirror(perm: np.ndarray, *mats: np.ndarray) -> np.ndarray | None:
    """The involutive permutation ``perm`` when ``mat[perm][:, perm] == mat``
    bit for bit for every one of ``mats``, else None.

    Only the nonzeros are read (an entry that is zero where its mirror image
    is not fails the test at the image), which keeps full-size temporaries
    out.
    """
    for mat in mats:
        rows, cols = np.divmod(np.flatnonzero(mat != 0), mat.shape[1])
        if not np.array_equal(mat[perm[rows], perm[cols]], mat[rows, cols]):
            return None
    return perm


def _mirror_coords(perm: np.ndarray):
    """(n_even, n_odd, even_of, odd_of, sign) of an involutive permutation J.

    With one representative r = min(i, Ji) per orbit, in increasing order,
    ``even_of[i]`` is the position of i's representative among all of them
    and ``odd_of[i]`` its position among those of the 2-orbits (clipped on
    fixed points); ``sign[i]`` is +1 on a representative of a 2-orbit, -1 on
    its image and 0 on a fixed point.
    """
    idx = np.arange(perm.size)
    rep = np.minimum(idx, perm)
    reps = np.flatnonzero(idx == rep)
    pairs = reps[perm[reps] != reps]
    odd_of = np.minimum(np.searchsorted(pairs, rep), max(pairs.size - 1, 0))
    sign = np.where(perm == idx, 0.0, np.where(idx == rep, 1.0, -1.0))
    return reps.size, pairs.size, np.searchsorted(reps, rep), odd_of, sign


def _odd_rows(odd: np.ndarray, odd_of: np.ndarray) -> np.ndarray:
    """``odd[odd_of]``, rows of zeros when J has no 2-orbit (``odd`` is empty)."""
    return odd[odd_of] if odd.size else np.zeros(odd_of.shape + odd.shape[1:], odd.dtype)


def mirror_blocks(mat: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of a square ``mat`` that commutes exactly with
    the involutive permutation J = ``perm`` (``exact_mirror``).

    With one representative r per orbit of J, the basis e_r + e_Jr, e_r - e_Jr
    (e_r alone on a fixed point) block-diagonalizes ``mat``.  It is the
    orthonormal basis (e_r +- e_Jr)/sqrt2 up to a diagonal scaling, so the
    blocks are exactly similar to the orthogonal ones:

        even[p, q] = mat[r_p, r_q] + mat[r_p, J r_q]   (second term on pairs only)
        odd[p, q]  = mat[r_p, r_q] - mat[r_p, J r_q]   (pairs only)

    Each entry is one rounded sum, gathered from the nonzeros of the
    representative rows.  Two half-size eigensolves or LU factorizations cost
    about a quarter of the full one.
    """
    n_even, n_odd, even_of, odd_of, sign = _mirror_coords(perm)
    rows, cols = np.divmod(np.flatnonzero(mat != 0), mat.shape[1])
    vals = mat[rows, cols]
    even = np.zeros((n_even, n_even), dtype=mat.dtype)
    odd = np.zeros((n_odd, n_odd), dtype=mat.dtype)
    keep = sign[rows] >= 0                      # nonzeros of representative rows
    np.add.at(even, (even_of[rows[keep]], even_of[cols[keep]]), vals[keep])
    keep &= (sign[rows] != 0) & (sign[cols] != 0)
    r, c = rows[keep], cols[keep]
    np.add.at(odd, (odd_of[r], odd_of[c]), vals[keep] * sign[c])
    return even, odd


def mirror_lift(perm: np.ndarray, even_vecs: np.ndarray, odd_vecs: np.ndarray) -> np.ndarray:
    """State vectors of columns in the even and odd coordinates of
    ``mirror_blocks``' basis: x[i] = w[even_of[i]] for an even column w, and
    x[i] = sign[i] w[odd_of[i]] for an odd one (zero on fixed points)."""
    _, _, even_of, odd_of, sign = _mirror_coords(perm)
    return np.concatenate([even_vecs[even_of], sign[:, None] * _odd_rows(odd_vecs, odd_of)],
                          axis=1)


def eigvals(mat: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of ``mat``, in no order; with a ``mirror``, those of its two
    blocks (two half-size eigensolves, about a quarter of the full one)."""
    if mirror is None:
        return np.linalg.eigvals(mat)
    return np.concatenate([np.linalg.eigvals(block) for block in mirror_blocks(mat, mirror)])


def eig(mat: np.ndarray, mirror: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``mat``, split as in ``eigvals``, vectors lifted by
    ``mirror_lift``; a failed eigensolve raises NumericalError."""
    try:
        if mirror is None:
            return np.linalg.eig(mat)
        (val_e, vec_e), (val_o, vec_o) = map(np.linalg.eig, mirror_blocks(mat, mirror))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    return np.concatenate([val_e, val_o]), mirror_lift(mirror, vec_e, vec_o)


def _mirror_solve(mat: np.ndarray, rhs: np.ndarray, perm: np.ndarray,
                  identity: bool) -> np.ndarray:
    """``mat^-1 rhs`` from the two blocks of ``mirror_blocks(mat, perm)``.

    The even and odd parts (rhs +- J rhs)/2 of ``rhs``, read at the
    representatives r, are w_e = (rhs[r] + rhs[Jr])/2 (exactly rhs[r] on a
    fixed point) and, on the 2-orbits, w_o = (rhs[r] - rhs[Jr])/2.  The
    block solutions y_e, y_o lift back as
    x[i] = y_e[even_of[i]] + sign[i] y_o[odd_of[i]].  For an ``identity``
    rhs the blocks are inverted, E and O, and the lift is

        X[i, j] = E[even_of[i], even_of[j]] c_j + sign[i] sign[j] O[odd_of[i], odd_of[j]] / 2

    with c_j = 1/2 on a 2-orbit and 1 on a fixed point.
    """
    even, odd = mirror_blocks(mat, perm)
    _, _, even_of, odd_of, sign = _mirror_coords(perm)
    if not identity:
        reps, pairs = np.flatnonzero(sign >= 0), np.flatnonzero(sign > 0)
        y_even = np.linalg.solve(even, 0.5 * (rhs[reps] + rhs[perm[reps]]))
        y_odd = np.linalg.solve(odd, 0.5 * (rhs[pairs] - rhs[perm[pairs]]))
        return (y_even[even_of]
                + sign.reshape((-1,) + (1,) * (rhs.ndim - 1)) * _odd_rows(y_odd, odd_of))
    even, odd = (np.linalg.solve(b, np.eye(b.shape[0], dtype=b.dtype)) for b in (even, odd))
    x = even[even_of][:, even_of]
    x *= np.where(sign != 0, 0.5, 1.0)
    # column p of ``odd_cols`` is the odd part of column r of X, and minus
    # that of column Jr, for the p-th 2-orbit {r, Jr}; no full-size gather
    odd_cols = _odd_rows(odd, odd_of)
    odd_cols *= (0.5 * sign)[:, None]
    pairs = np.flatnonzero(sign > 0)
    x[:, pairs] += odd_cols
    x[:, perm[pairs]] -= odd_cols
    return x


def checked_solve(mat: np.ndarray, rhs: np.ndarray, what: str = "linear system",
                  cond_bound: float | None = None,
                  mirror: np.ndarray | None = None) -> np.ndarray:
    """Solve ``mat @ x = rhs`` by LU; refuse if the matrix is near singular.

    This is the one guarded dense solve.  ``mirror`` is None or an
    involutive permutation J with J mat J = mat exactly
    (``exact_mirror``); with one, the two half-size blocks of
    ``mirror_blocks`` are solved instead of ``mat`` (``_mirror_solve``), about
    a quarter of the LU work.  Either way the guard judges the full ``mat``,
    so the refusals and their messages do not depend on the split.

    ``cond_bound`` is a certified upper bound on cond_2(mat).  Without one, an
    inverse-forming solve (``rhs`` the identity) bounds it by
    ||mat||_F ||x||_F, and any other solve falls back to the exact condition
    number.
    """
    identity = _is_identity(rhs)
    try:
        x = (np.linalg.solve(mat, rhs) if mirror is None
             else _mirror_solve(mat, rhs, mirror, identity))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: exactly singular matrix") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{what}: non-finite solution")
    if cond_bound is None:
        cond_bound = float(np.linalg.norm(mat) * np.linalg.norm(x)) if identity else np.inf
    condition_guard(mat, cond_bound, what)
    return x


def shifted(mat: np.ndarray, sigma, out: np.ndarray | None = None) -> np.ndarray:
    """sigma - mat for a matrix (sigma [I 0] - mat if wide) or a (K, N, N) stack
    with one sigma each, into ``out`` if given: 0 - mat, then sigma added on
    the diagonal, so a +0 entry stays +0 (``np.negative`` would give -0)."""
    if out is None:
        out = np.empty(mat.shape, dtype=np.result_type(mat, sigma))
    np.subtract(0.0, mat, out=out)
    diag = np.arange(min(mat.shape[-2:]))
    out[..., diag, diag] += np.asarray(sigma)[..., None]
    return out


def shifted_inverse(mat: np.ndarray, sigma, what: str,
                    mirror: np.ndarray | None = None) -> np.ndarray:
    """(sigma - mat)^-1 by ``checked_solve`` against a real identity, guarded
    on the full shifted matrix; real for a real mat and a real sigma."""
    return checked_solve(shifted(mat, sigma), np.eye(mat.shape[0]), what, mirror=mirror)


def bordered_dirichlet_solve(a_max: np.ndarray, bnd: np.ndarray, mu: complex,
                             cond_bound: float | None = None,
                             mirror: np.ndarray | None = None) -> np.ndarray:
    """Columns of the lifting operator for the boundary row operator ``bnd``.

    Solves the square bordered system

        (mu * P_n - A_max) u_ext = 0      (node rows)
        bnd u_ext            = e_i        (boundary rows)

    where ``P_n`` projects extended dofs (nodes followed by ghosts) onto node
    dofs.  Returns the (n + g, n_b) matrix whose i-th column is the unique
    extended field with interior eigen-equation mu and boundary data e_i.
    ``cond_bound`` bounds the condition number of the bordered matrix (see
    ``BlockSystem.lift_cond_bound``); without it the exact one is taken.
    ``mirror`` is a permutation of the extended dofs that leaves
    [-A_max; bnd] unchanged bit for bit (``BlockSystem.ext_mirror``); the
    shift mu on the node diagonal keeps that, so the solve splits.
    """
    n, next_ = a_max.shape
    n_b = bnd.shape[0]
    if bnd.shape[1] != next_:
        raise NumericalError("bordered solve: boundary operator has wrong extended width")
    mat = np.concatenate([shifted(a_max, mu), bnd])
    rhs = np.eye(next_, n_b, k=-n, dtype=mat.dtype)
    return checked_solve(mat, rhs, what="bordered Dirichlet system", cond_bound=cond_bound,
                         mirror=mirror)


class NonzeroOperator:
    """The nonzeros of a dense matrix, applied at O(nnz) per product.

    Built once with ``np.nonzero``, whose row-major order keeps the entries
    of each row contiguous, so ``mat @ b`` is one ``np.add.reduceat`` over
    row segments.  An empty row would share its segment start with the next
    row and return that row's first product, so each empty row stores one
    explicit zero.  The two products are the ones the exponential needs,
    ``mat @ b`` and ``w @ |mat|``; each output entry is summed in a fixed
    order, so results do not depend on the BLAS thread count.
    """

    def __init__(self, mat: np.ndarray):
        stored = mat != 0
        stored[~stored.any(axis=1), 0] = True
        self.shape = mat.shape
        self.rows, self.cols = np.nonzero(stored)
        self.vals = mat[self.rows, self.cols]
        self.abs_vals = np.abs(self.vals)
        self._starts = np.flatnonzero(np.diff(self.rows, prepend=-1))

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """mat @ b for a vector b, real or complex."""
        return np.add.reduceat(self.vals * b[self.cols], self._starts)

    def abs_rmatvec(self, w: np.ndarray) -> np.ndarray:
        """w @ |mat| for a real vector w."""
        return np.bincount(self.cols, weights=w[self.rows] * self.abs_vals,
                           minlength=self.shape[1])


def rel_residual(lhs: np.ndarray, rhs: np.ndarray, reference: np.ndarray | None = None) -> float:
    """Frobenius residual of ``lhs == rhs`` relative to max(1, ||reference||_F)."""
    ref = lhs if reference is None else reference
    denom = max(1.0, float(np.linalg.norm(ref)))
    return float(np.linalg.norm(lhs - rhs)) / denom
