"""Dense linear-algebra primitives shared by the operator modules.

The one exception is ``NonzeroOperator``, which applies a dense matrix
through its nonzeros for the matvecs of the exponential's action.

Everything here is desk scale: square systems of a few hundred unknowns,
solved by LU with partial pivoting, with a condition refusal threshold
instead of iterative refinement.  ``checked_solve`` is the guarded dense
solve, ``shifted`` forms every shift sigma - M and ``shifted_inverse`` every
(sigma - M)^-1, guarded as ``checked_solve`` guards an inverse.  The guard
costs O(N^2): each solve carries a certified upper bound on its 2-norm
condition number, and only a bound that does not clear the threshold is
settled by the exact (SVD) condition number, so the refusals are the ones
the SVD alone would make (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 15).

A matrix that commutes exactly with an involutive permutation J (the mirror
x -> L - x of a symmetric grid) is block-diagonal in the basis of J's even
and odd vectors (Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986).
``restrict_mirror`` restricts J to dofs it maps onto itself, ``exact_mirror``
gates it, ``mirror_blocks`` forms the two blocks, ``eig`` and ``eigvals``
eigensolve them, and ``checked_solve(..., mirror=J)``,
``shifted_inverse(..., mirror=J)`` and ``ShiftedSplit`` solve them through
the one split solve ``_mirror_solve``, always guarded on the full matrix;
``ShiftedSplit`` keeps the blocks of a matrix for every shift of its
diagonal, and solves them as ``checked_solve`` would.

A matrix that acts on a grid of columns as the same reflected-Neumann
second difference in every column (the strip whose coefficients are
constant along x) is block-diagonal in the DCT-I vectors cos(pi k j / nx)
along the columns, nx + 1 blocks of one column's size (Strang, SIAM Review
41, 1999); the mirror split is its first step, the even and odd modes.
``restrict_modes`` restricts the basis to a subset of the dofs,
``mode_blocks`` forms the blocks from the matrix's nonzeros, and ``eigvals``
and ``eig_residuals`` eigensolve them in one stacked call, the vectors
lifted back by ``mode_lift``.  No module but this one touches the blocks of
either split.
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

# Rows per pass where a state-size array is rewritten in place (``_unstack``)
# or filled from its blocks (``mirror_lift``, ``mode_lift``): the temporaries
# stay a few hundred kB at desk scale.
_ROWS = 64


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
    temporary is larger than the complex result, and on the right the real
    product becomes the result in place (``_unstack``).
    """
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        return _unstack(a @ np.concatenate([b.real, b.imag], axis=1))
    if np.iscomplexobj(a) and not np.iscomplexobj(b):
        k = a.shape[0]
        out = np.concatenate([a.real, a.imag]) @ b
        res = np.empty((k, b.shape[1]), dtype=np.result_type(a, b))
        res.real, res.imag = out[:k], out[k:]
        return res
    return a @ b


def _unstack(parts: np.ndarray) -> np.ndarray:
    """The complex (N, m) array re + i im from a real C-contiguous (N, 2m)
    array [re | im], written over its memory _ROWS rows at a time: the same
    entries as a new array, with no state-size temporary."""
    m = parts.shape[1] // 2
    for lo in range(0, parts.shape[0], _ROWS):
        rows = parts[lo:lo + _ROWS]
        re_im = rows.copy()
        rows[:, 0::2], rows[:, 1::2] = re_im[:, :m], re_im[:, m:]
    return parts.view(np.result_type(parts.dtype, np.complex64))


def holder_norm(a: np.ndarray) -> float:
    """sqrt(||a||_1 ||a||_inf), an O(N^2) upper bound on the 2-norm."""
    if a.size == 0:
        return 0.0
    absa = np.abs(a)
    return float(np.sqrt(np.max(absa.sum(axis=0)) * np.max(absa.sum(axis=1))))


def condition_guard(mat, bound: float, what: str) -> None:
    """Refuse ``mat`` when cond_2(mat) > COND_REFUSAL, given ``bound >= cond_2``.

    A bound that clears the threshold decides on its own; otherwise the exact
    ``np.linalg.cond`` decides and its value goes into the refusal message.
    ``mat`` is the matrix or a function that forms it, called only then.
    """
    if bound * _BOUND_MARGIN <= COND_REFUSAL:
        return
    cond = np.linalg.cond(mat() if callable(mat) else mat)
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
    x[i] = sign[i] w[odd_of[i]] for an odd one (zero on fixed points).

    The rows are gathered into the output _ROWS at a time, so no temporary
    near the output's size is formed.
    """
    _, _, even_of, odd_of, sign = _mirror_coords(perm)
    n_even = even_vecs.shape[1]
    out = np.empty((perm.size, n_even + odd_vecs.shape[1]),
                   dtype=np.result_type(even_vecs, odd_vecs))
    for lo in range(0, perm.size, _ROWS):
        rows = slice(lo, lo + _ROWS)
        out[rows, :n_even] = even_vecs[even_of[rows]]
        out[rows, n_even:] = sign[rows, None] * _odd_rows(odd_vecs, odd_of[rows])
    return out


def restrict_modes(modes: np.ndarray | None, keep: np.ndarray) -> np.ndarray | None:
    """``modes`` on the dofs ``keep``, each kept row renumbered by its rank
    among the kept rows; None when ``modes`` is None or the kept dofs do not
    hold the same rows in every column."""
    if modes is None:
        return None
    col, row = modes[:, keep]
    kept, row = np.unique(row, return_inverse=True)
    # the (column, row) pairs are distinct, so this count means every pair
    if col.size != (modes[0].max() + 1) * kept.size:
        return None
    return np.stack([col, row])


def _cosines(ncol: int) -> tuple[np.ndarray, np.ndarray]:
    """T[j, k] = cos(pi k j / nx) on nx + 1 = ``ncol`` columns, and its
    inverse (2/nx) D T D with D = diag(1/2, 1, ..., 1, 1/2)."""
    nx = ncol - 1
    j = np.arange(ncol)
    cos = np.cos(np.pi * (np.outer(j, j) % (2 * nx)) / nx)
    d = np.ones(ncol)
    d[0] = d[-1] = 0.5
    return cos, (2.0 / nx) * (d[:, None] * cos * d)


def mode_blocks(mat: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """The (nx + 1, b, b) stack of the diagonal blocks of T^-1 mat T, where T
    takes mode k of the column block (a b-vector w) to the state
    x[i] = cos(pi k col[i] / nx) w[row[i]], with ``col, row = modes``.

    When mat is the same reflected-Neumann operator in every column
    (``blockops.cosine_modes``), the DCT-I vectors diagonalize it exactly
    (Strang, SIAM Review 41, 1999) and T^-1 mat T is block-diagonal up to
    rounding; the couplings between modes are not formed.  Each block is
    one ``np.bincount`` over the nonzeros of mat, so no temporary near
    mat's size is formed.
    """
    col, row = modes
    cos, cos_inv = _cosines(int(col.max()) + 1)
    ncol, size = cos.shape[0], int(row.max()) + 1
    rows, cols = np.divmod(np.flatnonzero(mat != 0), mat.shape[1])
    vals = mat[rows, cols]
    # entry (k, row[r], row[c]) gathers T^-1[k, col[r]] mat[r, c] T[col[c], k]
    weights = cos_inv[:, col[rows]] * cos[col[cols]].T
    cell = (np.arange(ncol)[:, None] * size + row[rows]) * size + row[cols]

    def gather(part):
        return np.bincount(cell.ravel(), (weights * part).ravel(), ncol * size * size)

    blocks = gather(vals.real) + 1j * gather(vals.imag) if np.iscomplexobj(vals) else gather(vals)
    return blocks.reshape(ncol, size, size)


def _mode_eig(mat: np.ndarray, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of ``mode_blocks(mat, modes)`` by one stacked eigensolve,
    mode by mode; the block eigenvectors; and the norm of each lifted
    vector, read off the blocks: sum_j cos(pi k j / nx)^2 ||w||^2 over the
    columns j, since every column holds the block's every row."""
    try:
        vals, vecs = np.linalg.eig(mode_blocks(mat, modes))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    cos, _ = _cosines(vecs.shape[0])
    norms = np.linalg.norm(cos, axis=0)[:, None] * np.linalg.norm(vecs, axis=1)
    return vals.ravel(), vecs, norms.ravel()


def mode_lift(modes: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """The state vectors of block eigenvectors, side by side, one set per
    (nx + 1, b, b) stack in ``parts``: column k b + p of a set holds
    x[i] = cos(pi k col[i] / nx) parts[k, row[i], p].

    Given the real and imaginary parts of complex vectors, this is the real
    [Re X | Im X] array.  The rows are filled _ROWS at a time, so no
    temporary near the output's size is formed.
    """
    col, row = modes
    cos, _ = _cosines(parts[0].shape[0])
    width = parts[0].shape[0] * parts[0].shape[2]
    out = np.empty((col.size, len(parts) * width), dtype=np.result_type(*parts))
    for lo in range(0, col.size, _ROWS):
        rows = slice(lo, lo + _ROWS)
        scale = cos[col[rows]][:, :, None]
        for i, part in enumerate(parts):
            out[rows, i * width:(i + 1) * width] = (
                scale * part[:, row[rows]].transpose(1, 0, 2)).reshape(-1, width)
    return out


def eigvals(mat: np.ndarray, mirror: np.ndarray | None = None,
            modes: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of ``mat``, in no order; with ``modes``, those of its
    ``mode_blocks`` (one stacked eigensolve of nx + 1 small blocks); else
    with a ``mirror``, those of its two blocks (two half-size eigensolves,
    about a quarter of the full one)."""
    if modes is not None:
        return np.linalg.eigvals(mode_blocks(mat, modes)).ravel()
    if mirror is None:
        return np.linalg.eigvals(mat)
    return np.concatenate([np.linalg.eigvals(block) for block in mirror_blocks(mat, mirror)])


def eig(mat: np.ndarray, mirror: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``mat``, split by a ``mirror`` as in ``eigvals``, vectors
    lifted by ``mirror_lift``; a failed eigensolve raises NumericalError."""
    try:
        if mirror is None:
            return np.linalg.eig(mat)
        (val_e, vec_e), (val_o, vec_o) = map(np.linalg.eig, mirror_blocks(mat, mirror))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc
    return np.concatenate([val_e, val_o]), mirror_lift(mirror, vec_e, vec_o)


def eig_residuals(mat: np.ndarray, mirror: np.ndarray | None = None,
                  modes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of ``mat``, split by ``modes`` (``mode_blocks``, one
    stacked eigensolve) or else by ``mirror`` (``eig``), and the residual
    ||mat x - lam x|| / ||x|| of each, taken against the full mat.

    mat X is ``mixed_matmul``'s product; for a real mat and complex X, X is
    stacked as [Re X | Im X] (lifted straight into that array by
    ``mode_lift``, or stacked and dropped), and the product and X are both
    ``_unstack``-ed from real arrays in place, so that past the eigensolve
    no more than three N^2 complex arrays are live at once: X or the
    residuals, with the two temporaries of their norms, or X's parts and
    the product.
    """
    if modes is None:
        vals, vecs = eig(mat, mirror)
        vec_norms = np.linalg.norm(vecs, axis=0)
    else:
        vals, vecs, vec_norms = _mode_eig(mat, modes)
    if np.iscomplexobj(vecs) and not np.iscomplexobj(mat):
        parts = (np.concatenate([vecs.real, vecs.imag], axis=1) if modes is None
                 else mode_lift(modes, vecs.real, vecs.imag))
        del vecs
        mv = _unstack(mat @ parts)
        vecs = _unstack(parts)
        del parts                       # vecs now holds the one reference to it
    else:
        if modes is not None:
            vecs = mode_lift(modes, vecs)
        mv = mixed_matmul(mat, vecs)
    vecs *= vals[None, :]
    mv -= vecs
    del vecs
    return vals, np.linalg.norm(mv, axis=0) / vec_norms


def _unblock(perm: np.ndarray, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The matrix whose ``mirror_blocks`` are ``even`` and ``odd``:

        X[i, j] = even[even_of[i], even_of[j]] c_j + sign[i] sign[j] odd[odd_of[i], odd_of[j]] / 2

    with c_j = 1/2 on a 2-orbit and 1 on a fixed point (the basis of
    ``mirror_blocks`` and its inverse, applied on either side).  X^T is
    gathered by one ``np.ix_`` and the odd part added onto its rows, and X
    is returned column-major: the last bits of the products and norms later
    formed from X depend on its layout, and ``verify``'s outputs are those
    of this one.  Past the output, the temporaries are the scaled even block,
    a quarter of N^2 entries, then the gathered odd part and the rows it is
    added to, a half each.
    """
    _, _, even_of, odd_of, sign = _mirror_coords(perm)
    scale = np.empty(even.shape[0])
    scale[even_of] = np.where(sign != 0, 0.5, 1.0)      # c_j, on the even coordinates
    xt = (even * scale).T[np.ix_(even_of, even_of)]
    pairs = np.flatnonzero(sign > 0)
    if pairs.size:
        # row p of ``odd_t`` is the odd part of row r of X^T, and minus that
        # of row Jr, for the p-th 2-orbit {r, Jr}
        odd_t = odd.T[:, odd_of]
        odd_t *= 0.5 * sign
        xt[pairs] += odd_t
        xt[perm[pairs]] -= odd_t
    return xt.T


def _mirror_solve(blocks: list[np.ndarray], rhs: np.ndarray | None,
                  perm: np.ndarray) -> np.ndarray:
    """``mat^-1 rhs`` from the list ``[even, odd]`` of ``mirror_blocks(mat, perm)``.

    For ``rhs`` None or an identity, the blocks are inverted, each popped
    from the list as it is (so a caller that keeps no other reference frees
    it), and the inverse is ``_unblock``-ed.  Otherwise the even and odd
    parts (rhs +- J rhs)/2 of ``rhs``, read at the representatives r, are
    w_e = (rhs[r] + rhs[Jr])/2 (exactly rhs[r] on a fixed point) and, on the
    2-orbits, w_o = (rhs[r] - rhs[Jr])/2.  The block solutions y_e, y_o lift
    back as x[i] = y_e[even_of[i]] + sign[i] y_o[odd_of[i]].
    """
    if rhs is None or _is_identity(rhs):
        return _unblock(perm, *[np.linalg.inv(blocks.pop(0)) for _ in range(2)])
    even, odd = blocks
    _, _, even_of, odd_of, sign = _mirror_coords(perm)
    reps, pairs = np.flatnonzero(sign >= 0), np.flatnonzero(sign > 0)
    y_even = np.linalg.solve(even, 0.5 * (rhs[reps] + rhs[perm[reps]]))
    y_odd = np.linalg.solve(odd, 0.5 * (rhs[pairs] - rhs[perm[pairs]]))
    return (y_even[even_of]
            + sign.reshape((-1,) + (1,) * (rhs.ndim - 1)) * _odd_rows(y_odd, odd_of))


def _lu(solve, what: str) -> np.ndarray:
    """``solve()``, with an exactly singular matrix and a non-finite solution
    refused as NumericalError."""
    try:
        x = solve()
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: exactly singular matrix") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{what}: non-finite solution")
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
    so the refusals and their messages do not depend on the split.  An
    identity ``rhs`` is read without a solve against it: ``np.linalg.inv``
    runs the same LAPACK solve against an identity of its own.

    ``cond_bound`` is a certified upper bound on cond_2(mat).  Without one, an
    inverse-forming solve (``rhs`` the identity) bounds it by
    ||mat||_F ||x||_F, and any other solve falls back to the exact condition
    number.
    """
    identity = _is_identity(rhs)
    if mirror is not None:
        x = _lu(lambda: _mirror_solve(list(mirror_blocks(mat, mirror)), rhs, mirror), what)
    elif identity:
        x = _lu(lambda: np.linalg.inv(mat).astype(np.result_type(mat, rhs), copy=False), what)
    else:
        x = _lu(lambda: np.linalg.solve(mat, rhs), what)
    if cond_bound is None:
        cond_bound = float(np.linalg.norm(mat) * np.linalg.norm(x)) if identity else np.inf
    condition_guard(mat, cond_bound, what)
    return x


class ShiftedSplit:
    """The even and odd blocks of ``base + sigma P`` for every scalar sigma,
    from one gather.

    ``base`` is square and commutes exactly with the involutive permutation
    J = ``perm`` (``exact_mirror``); P is the 0/1 diagonal on the dofs
    ``shifted``, which J maps onto themselves.  The blocks of ``base`` without
    its diagonal on P are gathered once and kept read-only.  ``blocks(sigma)``
    writes (sigma + base[r, r]) + stored[p, p] on the diagonal entry p of
    each shifted representative r: ``mirror_blocks`` sums the entry at (r, r)
    first and the one at (r, Jr) next, so the blocks equal
    ``mirror_blocks(base + sigma P, perm)`` bit for bit.
    """

    def __init__(self, base: np.ndarray, perm: np.ndarray, shifted: np.ndarray):
        _, _, even_of, odd_of, sign = _mirror_coords(perm)
        rest = base.copy()
        rest[shifted, shifted] = 0.0
        reps = shifted[sign[shifted] >= 0]
        pairs = reps[sign[reps] > 0]
        self.perm = perm
        self._blocks = mirror_blocks(rest, perm)
        self._diagonals = ((even_of[reps], base[reps, reps]), (odd_of[pairs], base[pairs, pairs]))
        for arr in (perm,) + self._blocks + tuple(a for d in self._diagonals for a in d):
            arr.setflags(write=False)

    def blocks(self, sigma) -> list[np.ndarray]:
        """``mirror_blocks(base + sigma P, perm)``, as new arrays."""
        out = []
        for block, (pos, diag) in zip(self._blocks, self._diagonals):
            block = block.astype(np.result_type(block, sigma))
            block[pos, pos] = (sigma + diag) + block[pos, pos]
            out.append(block)
        return out

    def solve(self, sigma, rhs: np.ndarray, what: str, cond_bound: float,
              full) -> np.ndarray:
        """``checked_solve(full(), rhs, what, cond_bound, mirror=perm)`` from the
        stored blocks, with the same solution and the same refusals bit for
        bit; ``full()`` forms ``base + sigma P``, only when ``cond_bound`` does
        not clear the guard."""
        x = _lu(lambda: _mirror_solve(self.blocks(sigma), rhs, self.perm), what)
        condition_guard(full, cond_bound, what)
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
    """(sigma - mat)^-1 with the refusals of ``checked_solve`` against an
    identity, guarded on the full shifted matrix; real for a real mat and a
    real sigma.

    The shift S = sigma - mat is formed once.  With a ``mirror`` its two
    blocks are gathered, ||S||_F is kept for the guard's bound
    ||S||_F ||S^-1||_F and S is dropped before ``_mirror_solve`` (the split
    inverse of ``checked_solve``) inverts the blocks, each dropped as soon
    as it is inverted; S is formed again only when that bound does not
    clear the guard.  No identity right-hand side is formed: ``np.linalg.inv``
    runs LAPACK's solve against one of its own.  For an N x N mat the split
    route peaks near 2.5 N^2 entries, the output included (the output, the
    inverted blocks and ``_unblock``'s two half-size temporaries).
    """
    full = shifted(mat, sigma)
    norm = float(np.linalg.norm(full))
    if mirror is None:
        x = _lu(lambda: np.linalg.inv(full), what)
    else:
        blocks = list(mirror_blocks(full, mirror))
        del full
        x = _lu(lambda: _mirror_solve(blocks, None, mirror), what)
    condition_guard(lambda: shifted(mat, sigma), norm * float(np.linalg.norm(x)), what)
    return x


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

    def abs_rmatvec(self, w: np.ndarray, mags: np.ndarray | None = None) -> np.ndarray:
        """w @ |mat| for a real vector w, or w @ M for the matrix M that holds
        the magnitudes ``mags`` (one per stored entry) on mat's nonzeros."""
        mags = self.abs_vals if mags is None else mags
        return np.bincount(self.cols, weights=w[self.rows] * mags, minlength=self.shape[1])


def rel_norm(diff: np.ndarray, reference: np.ndarray) -> float:
    """||diff||_F relative to max(1, ||reference||_F): the residual of
    ``lhs == rhs`` for diff = lhs - rhs.  A caller that owns ``lhs`` forms
    the difference in place (``lhs -= rhs``), so the residual adds no array
    (0 N^2) and its norm is that of ``lhs - rhs`` bit for bit."""
    return float(np.linalg.norm(diff)) / max(1.0, float(np.linalg.norm(reference)))
