"""Dense linear-algebra primitives shared by the operator modules.

The one exception is ``NonzeroOperator``, which applies a dense matrix
through its nonzeros for the matvecs of the exponential's action and the
eigenvector residuals.

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

A matrix that an exact similarity makes block-diagonal is eigensolved,
inverted and solved by blocks, through a split of its dofs.  A split
computes its coordinates once, at construction, and offers one protocol:
``restrict(keep)``, the split on the dofs ``keep`` (of the same kind, or
None when they break it; the module's ``restrict`` passes None through);
the list of a matrix's blocks, matrices or stacks (``_gather``); a vector
or a stack of vectors in block coordinates and back (``_to_blocks``,
``_from_blocks``); their eigenpairs, the vectors lifted back (``_eig``); the
matrix of given blocks, for the inverse (``_unblock``); the solve
(``_solve``, in the coordinates of the two maps); and the blocks of one
matrix kept for every shift of its diagonal (``_store``, ``_shift``).
``eigvals``, ``eig_residuals`` and ``shifted_inverse`` take one ``split``,
and ``ShiftedSplit`` keeps the stored blocks of any split; every split
inverse and solve is guarded on the full matrix.  ``blocks_of``,
``to_blocks`` and ``from_blocks`` hand out the blocks and the coordinate
maps, for the uniform-grid flow of ``dynamics``, which steps the blocks'
exponentials in block coordinates; unsplit, they are the identity.  No
module but this one touches a split's internals.

- ``MirrorSplit(perm)``: the even and odd vectors of an involutive
  permutation J that commutes exactly with the matrix (the mirror
  x -> L - x of a symmetric grid; Bossavit, Comput. Methods Appl. Mech.
  Engrg. 56, 1986), two blocks of about half the size.
- ``ModeSplit(modes)``: the DCT-I vectors cos(pi k j / nx) along the
  columns of a grid, where the matrix is the same reflected-Neumann second
  difference in every column (the strip whose coefficients are constant
  along x; Strang, SIAM Review 41, 1999), nx + 1 blocks of one column's
  size.
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
# or filled from its blocks (the splits' ``_lift``, and the states of the
# dense flow in ``dynamics``): the temporaries stay a few hundred kB at desk
# scale.
_ROWS = 64

# Columns per pass of ``NonzeroOperator.matmat``: its gathered terms, nnz x 32
# entries (0.8 MB on the nx = ny = 16 strip), stay in cache; at nx = ny = 32
# the product takes 50 ms at 32 columns, 53 ms at 64 and 181 ms dense.
_COLS = 32


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
                  cond_bound: float | None = None) -> np.ndarray:
    """Solve ``mat @ x = rhs`` by LU; refuse if the matrix is near singular.

    This is the one guarded dense solve of a whole matrix; the split
    inverses and solves (``shifted_inverse``, ``ShiftedSplit``) refuse as it
    does, their guard judging the full matrix.  An identity ``rhs`` is read
    without a solve against it: ``np.linalg.inv`` runs the same LAPACK solve
    against an identity of its own.

    ``cond_bound`` is a certified upper bound on cond_2(mat).  Without one, an
    inverse-forming solve (``rhs`` the identity) bounds it by
    ||mat||_F ||x||_F, and any other solve falls back to the exact condition
    number.
    """
    identity = _is_identity(rhs)
    if identity:
        x = _lu(lambda: np.linalg.inv(mat).astype(np.result_type(mat, rhs), copy=False), what)
    else:
        x = _lu(lambda: np.linalg.solve(mat, rhs), what)
    if cond_bound is None:
        cond_bound = float(np.linalg.norm(mat) * np.linalg.norm(x)) if identity else np.inf
    condition_guard(mat, cond_bound, what)
    return x


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _checked_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eig`` of a matrix or a stack; a failure raises NumericalError."""
    try:
        return np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolve failed: {exc}") from exc


def _columns(vals: np.ndarray, vecs: np.ndarray,
             real_form: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vals, X, the norm of each column of X) for eigenvectors X, X in
    ``_real_form`` when ``real_form``."""
    norms = np.linalg.norm(vecs, axis=0)
    return vals, _real_form(vals, vecs) if real_form else vecs, norms


def _real_form(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """LAPACK's real form of the eigenvectors of a real matrix, or of a stack
    of them (the vectors in the columns of each).

    LAPACK lists a conjugate pair at columns (j, j + 1), the eigenvalue with
    the positive imaginary part first, and numpy's vectors of the pair are
    exactly a + ib and a - ib: the real form holds a at column j and b at
    column j + 1, and a real eigenvalue's vector as it is.  Its N real
    columns hold all that the N complex ones do.
    """
    if not np.iscomplexobj(vecs):
        return vecs
    out = vecs.real.copy()
    np.copyto(out[..., 1:], vecs.imag[..., :-1], where=(vals.imag > 0)[..., None, :-1])
    return out


class MirrorSplit:
    """The split by an involutive permutation J = ``perm``: the even and odd
    blocks of a matrix that commutes exactly with J (``commutes``).

    With one representative r = min(i, Ji) per orbit, in increasing order
    (``reps``, and ``pairs`` those of the 2-orbits), ``even_of[i]`` is the
    position of i's representative among all of them and ``odd_of[i]`` its
    position among those of the 2-orbits (clipped on fixed points);
    ``sign[i]`` is +1 on a representative of a 2-orbit, -1 on its image and
    0 on a fixed point.  Every array is read-only.
    """

    def __init__(self, perm: np.ndarray):
        idx = np.arange(perm.size)
        rep = np.minimum(idx, perm)
        self.perm = perm
        self.reps = np.flatnonzero(idx == rep)
        self.pairs = self.reps[perm[self.reps] != self.reps]
        self.even_of = np.searchsorted(self.reps, rep)
        self.odd_of = np.minimum(np.searchsorted(self.pairs, rep), max(self.pairs.size - 1, 0))
        self.sign = np.where(perm == idx, 0.0, np.where(idx == rep, 1.0, -1.0))
        _freeze(self.perm, self.reps, self.pairs, self.even_of, self.odd_of, self.sign)

    def restrict(self, keep: np.ndarray) -> MirrorSplit | None:
        """J on the dofs ``keep``, as positions in ``keep``; None when J maps
        a dof of ``keep`` outside it."""
        pos = np.full(self.perm.size, -1)
        pos[keep] = np.arange(len(keep))
        img = pos[self.perm[keep]]
        return None if np.any(img < 0) else MirrorSplit(img)

    def commutes(self, *mats: np.ndarray) -> bool:
        """Whether ``mat[perm][:, perm] == mat`` bit for bit for every one of
        ``mats``.

        Only the nonzeros are read (an entry that is zero where its mirror
        image is not fails the test at the image), which keeps full-size
        temporaries out.
        """
        for mat in mats:
            rows, cols = np.divmod(np.flatnonzero(mat != 0), mat.shape[1])
            if not np.array_equal(mat[self.perm[rows], self.perm[cols]], mat[rows, cols]):
                return False
        return True

    def _odd_rows(self, odd: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``odd[odd_of[rows]]``, rows of zeros when J has no 2-orbit (``odd``
        is empty)."""
        at = self.odd_of[rows]
        return odd[at] if odd.size else np.zeros(at.shape + odd.shape[1:], odd.dtype)

    def _gather(self, mat: np.ndarray) -> list[np.ndarray]:
        """The list [even, odd] of the blocks of a square ``mat`` that
        commutes exactly with J.

        The basis e_r + e_Jr, e_r - e_Jr (e_r alone on a fixed point)
        block-diagonalizes ``mat``.  It is the orthonormal basis
        (e_r +- e_Jr)/sqrt2 up to a diagonal scaling, so the blocks are
        exactly similar to the orthogonal ones:

            even[p, q] = mat[r_p, r_q] + mat[r_p, J r_q]   (second term on pairs only)
            odd[p, q]  = mat[r_p, r_q] - mat[r_p, J r_q]   (pairs only)

        Each entry is one rounded sum, gathered from the nonzeros of the
        representative rows.  Two half-size eigensolves or LU factorizations
        cost about a quarter of the full one.
        """
        even_of, odd_of, sign = self.even_of, self.odd_of, self.sign
        rows, cols = np.divmod(np.flatnonzero(mat != 0), mat.shape[1])
        vals = mat[rows, cols]
        even = np.zeros((self.reps.size, self.reps.size), dtype=mat.dtype)
        odd = np.zeros((self.pairs.size, self.pairs.size), dtype=mat.dtype)
        keep = sign[rows] >= 0                      # nonzeros of representative rows
        np.add.at(even, (even_of[rows[keep]], even_of[cols[keep]]), vals[keep])
        keep &= (sign[rows] != 0) & (sign[cols] != 0)
        r, c = rows[keep], cols[keep]
        np.add.at(odd, (odd_of[r], odd_of[c]), vals[keep] * sign[c])
        return [even, odd]

    def _eig(self, mat: np.ndarray, real_form: bool):
        """``_columns`` of the eigenpairs of the two blocks, the vectors
        lifted by ``_lift``; the norms are those of the lifted vectors."""
        (val_e, vec_e), (val_o, vec_o) = map(_checked_eig, self._gather(mat))
        vecs = self._lift(vec_e, vec_o)
        del vec_e, vec_o
        return _columns(np.concatenate([val_e, val_o]), vecs, real_form)

    def _lift(self, even_vecs: np.ndarray, odd_vecs: np.ndarray) -> np.ndarray:
        """State vectors of columns in the even and odd coordinates:
        x[i] = w[even_of[i]] for an even column w, and
        x[i] = sign[i] w[odd_of[i]] for an odd one (zero on fixed points).

        The rows are gathered into the output _ROWS at a time, so no
        temporary near the output's size is formed.
        """
        n_even = even_vecs.shape[1]
        out = np.empty((self.perm.size, n_even + odd_vecs.shape[1]),
                       dtype=np.result_type(even_vecs, odd_vecs))
        for lo in range(0, self.perm.size, _ROWS):
            rows = slice(lo, lo + _ROWS)
            out[rows, :n_even] = even_vecs[self.even_of[rows]]
            out[rows, n_even:] = self.sign[rows, None] * self._odd_rows(odd_vecs, rows)
        return out

    def _unblock(self, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """The matrix whose blocks are ``even`` and ``odd``:

            X[i, j] = even[even_of[i], even_of[j]] c_j
                      + sign[i] sign[j] odd[odd_of[i], odd_of[j]] / 2

        with c_j = 1/2 on a 2-orbit and 1 on a fixed point (the basis of
        ``_gather`` and its inverse, applied on either side).  X^T is
        gathered by one ``np.ix_`` and the odd part added onto its rows, and
        X is returned column-major: the last bits of the products and norms
        later formed from X depend on its layout, and ``verify``'s outputs
        are those of this one.  Past the output, the temporaries are the
        scaled even block, a quarter of N^2 entries, then the gathered odd
        part and the rows it is added to, a half each.
        """
        even_of, sign, pairs = self.even_of, self.sign, self.pairs
        scale = np.empty(even.shape[0])
        scale[even_of] = np.where(sign != 0, 0.5, 1.0)      # c_j, on the even coordinates
        xt = (even * scale).T[np.ix_(even_of, even_of)]
        if pairs.size:
            # row p of ``odd_t`` is the odd part of row r of X^T, and minus that
            # of row Jr, for the p-th 2-orbit {r, Jr}
            odd_t = odd.T[:, self.odd_of]
            odd_t *= 0.5 * sign
            xt[pairs] += odd_t
            xt[self.perm[pairs]] -= odd_t
        return xt.T

    def _to_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The even and odd coordinates [w_e, w_o] of a vector or a stack
        ``x`` (dofs on the first axis): the even and odd parts (x +- J x)/2,
        read at the representatives r, are w_e = (x[r] + x[Jr])/2 (exactly
        x[r] on a fixed point) and, on the 2-orbits, w_o = (x[r] - x[Jr])/2."""
        reps, pairs, perm = self.reps, self.pairs, self.perm
        return [0.5 * (x[reps] + x[perm[reps]]), 0.5 * (x[pairs] - x[perm[pairs]])]

    def _from_blocks(self, parts: list[np.ndarray]) -> np.ndarray:
        """The vector or stack x of even and odd coordinates [y_e, y_o]:
        x[i] = y_e[even_of[i]] + sign[i] y_o[odd_of[i]]."""
        even, odd = parts
        return (even[self.even_of]
                + self.sign.reshape((-1,) + (1,) * (even.ndim - 1)) * self._odd_rows(odd))

    def _solve(self, blocks: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
        """``mat^-1 rhs`` from the list ``[even, odd]`` of its blocks, one
        solve per block in the coordinates of ``_to_blocks``."""
        return self._from_blocks([np.linalg.solve(block, part)
                                  for block, part in zip(blocks, self._to_blocks(rhs))])

    def _store(self, base: np.ndarray, shifted: np.ndarray):
        """Per block, read-only: the block of ``base`` without its diagonal on
        the dofs ``shifted``, and the positions and values of that diagonal
        at their representatives."""
        rest = base.copy()
        rest[shifted, shifted] = 0.0
        reps = shifted[self.sign[shifted] >= 0]
        pairs = reps[self.sign[reps] > 0]
        stored = tuple(zip(self._gather(rest), (self.even_of[reps], self.odd_of[pairs]),
                           (base[reps, reps], base[pairs, pairs])))
        _freeze(*(arr for block in stored for arr in block))
        return stored

    def _shift(self, stored, sigma) -> list[np.ndarray]:
        """The blocks of base + sigma P, as new arrays: (sigma + base[r, r])
        + stored[p, p] on the diagonal entry p of each shifted
        representative r.  ``_gather`` sums the entry at (r, r) first and the
        one at (r, Jr) next, so they equal ``_gather(base + sigma P)`` bit
        for bit."""
        out = []
        for block, pos, diag in stored:
            block = block.astype(np.result_type(block, sigma))
            block[pos, pos] = (sigma + diag) + block[pos, pos]
            out.append(block)
        return out


class ModeSplit:
    """The split by the DCT-I vectors along the columns of a grid: row 0 of
    ``modes`` holds the column of each dof and row 1 its row within the
    column's block, and T takes mode k of the column block (a b-vector w)
    to the state x[i] = cos(pi k col[i] / nx) w[row[i]].

    The cosines T[j, k] = cos(pi k j / nx) on the nx + 1 columns and T's
    inverse (2/nx) D T D, D = diag(1/2, 1, ..., 1, 1/2), are formed once.
    Every array is read-only.
    """

    def __init__(self, modes: np.ndarray):
        col, row = modes
        ncol = int(col.max()) + 1
        nx, j = ncol - 1, np.arange(ncol)
        d = np.ones(ncol)
        d[0] = d[-1] = 0.5
        self.modes = modes
        self._size = int(row.max()) + 1
        self._cos = np.cos(np.pi * (np.outer(j, j) % (2 * nx)) / nx)
        self._cos_inv = (2.0 / nx) * (d[:, None] * self._cos * d)
        _freeze(self.modes, self._cos, self._cos_inv)

    def restrict(self, keep: np.ndarray) -> ModeSplit | None:
        """The modes on the dofs ``keep``, each kept row renumbered by its
        rank among the kept rows; None when the kept dofs do not hold the
        same rows in every column."""
        col, row = self.modes[:, keep]
        kept, row = np.unique(row, return_inverse=True)
        # the (column, row) pairs are distinct, so this count means every pair
        if col.size != self._cos.shape[0] * kept.size:
            return None
        return ModeSplit(np.stack([col, row]))

    def _gather(self, mat: np.ndarray) -> list[np.ndarray]:
        """The list [stack] of the (nx + 1, b, b) stack of the diagonal blocks
        of T^-1 mat T.

        When mat is the same reflected-Neumann operator in every column
        (``blockops.cosine_modes``), the DCT-I vectors diagonalize it
        exactly and T^-1 mat T is block-diagonal up to rounding; the
        couplings between modes are not formed.  Each block is one
        ``np.bincount`` over the nonzeros of mat, mode by mode, so every
        temporary is of the nonzeros' size.
        """
        col, row = self.modes
        ncol, size = self._cos.shape[0], self._size
        rows, cols = np.divmod(np.flatnonzero(mat != 0), mat.shape[1])
        vals = mat[rows, cols]
        cell = row[rows] * size + row[cols]
        blocks = np.empty((ncol, size * size), dtype=vals.dtype)
        for k in range(ncol):
            # entry (k, row[r], row[c]) gathers T^-1[k, col[r]] mat[r, c] T[col[c], k]
            weights = self._cos_inv[k, col[rows]] * self._cos[col[cols], k]
            blocks[k] = np.bincount(cell, weights * vals.real, size * size)
            if np.iscomplexobj(vals):
                blocks[k] += 1j * np.bincount(cell, weights * vals.imag, size * size)
        return [blocks.reshape(ncol, size, size)]

    def _eig(self, mat: np.ndarray, real_form: bool):
        """``_columns`` of the eigenpairs of the blocks, by one stacked
        eigensolve, the vectors (in ``_real_form`` when ``real_form``) lifted
        straight into their final array by ``_lift``.  The norm of each
        lifted vector is read off the blocks: sum_j cos(pi k j / nx)^2 ||w||^2
        over the columns j, since every column holds the block's every row."""
        vals, vecs = _checked_eig(*self._gather(mat))
        norms = np.linalg.norm(self._cos, axis=0)[:, None] * np.linalg.norm(vecs, axis=1)
        return (vals.ravel(), self._lift(_real_form(vals, vecs) if real_form else vecs),
                norms.ravel())

    def _lift(self, vecs: np.ndarray) -> np.ndarray:
        """The state vectors of the block eigenvectors ``vecs``, a
        (nx + 1, b, b) stack, side by side: column k b + p holds
        x[i] = cos(pi k col[i] / nx) vecs[k, row[i], p].  The rows are filled
        _ROWS at a time, so no temporary near the output's size is formed.
        """
        col, row = self.modes
        width = vecs.shape[0] * vecs.shape[2]
        out = np.empty((col.size, width), dtype=vecs.dtype)
        for lo in range(0, col.size, _ROWS):
            rows = slice(lo, lo + _ROWS)
            out[rows] = (self._cos[col[rows]][:, :, None]
                         * vecs[:, row[rows]].transpose(1, 0, 2)).reshape(-1, width)
        return out

    def _unblock(self, inv: np.ndarray) -> np.ndarray:
        """The matrix whose blocks are the (nx + 1, b, b) stack ``inv``,
        T blockdiag(inv) T^-1:

            X[i, j] = sum_k cos(pi k col[i] / nx) inv[k, row[i], row[j]] T^-1[k, col[j]]

        X is returned column-major, as the mirror's is, and filled a _ROWS
        column slab at a time: the slab's block columns, scaled by T^-1, are
        lifted by one product with the cosines and gathered into the
        output's rows, so no temporary nears the output's size.
        """
        col, row = self.modes
        ncol, size = inv.shape[:2]
        out = np.empty((col.size, col.size), dtype=inv.dtype, order="F")
        for lo in range(0, col.size, _ROWS):
            cols = slice(lo, lo + _ROWS)
            scaled = inv[:, :, row[cols]] * self._cos_inv[:, None, col[cols]]
            out[:, cols] = mixed_matmul(self._cos, scaled.reshape(ncol, -1)).reshape(
                ncol, size, -1)[col, row]
        return out

    def _to_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The mode coordinates [T^-1 x] of a vector or a stack ``x`` (dofs on
        the first axis), as the (nx + 1, b) + x.shape[1:] stack: the rows of x
        gathered by column and row, then T^-1 applied along the columns by
        one product."""
        col, row = self.modes
        gathered = np.empty(self._cos.shape[:1] + (self._size,) + x.shape[1:], dtype=x.dtype)
        gathered[col, row] = x
        return [mixed_matmul(self._cos_inv, gathered.reshape(gathered.shape[0], -1))
                .reshape(gathered.shape)]

    def _from_blocks(self, parts: list[np.ndarray]) -> np.ndarray:
        """The vector or stack T w of mode coordinates [w]: T applied along
        the columns by one product, then the rows read back by column and
        row."""
        col, row = self.modes
        stack, = parts
        return mixed_matmul(self._cos, stack.reshape(stack.shape[0], -1)).reshape(
            stack.shape)[col, row]

    def _solve(self, blocks: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
        """``mat^-1 rhs`` from the list [stack] of its blocks: one stacked
        ``np.linalg.solve`` in the coordinates of ``_to_blocks``."""
        stack, = blocks
        coeffs, = self._to_blocks(rhs)
        solved = np.linalg.solve(stack, coeffs.reshape(coeffs.shape[:2] + (-1,)))
        return self._from_blocks([solved.reshape(coeffs.shape)])

    def _store(self, base: np.ndarray, shifted: np.ndarray):
        """Read-only: the stack of ``base``, and the rows of the dofs
        ``shifted``, which hold the same rows in every column, so T^-1 P T
        is P exactly."""
        stored = *self._gather(base), np.unique(self.modes[1, shifted])
        _freeze(*stored)
        return stored

    def _shift(self, stored, sigma) -> list[np.ndarray]:
        """The blocks of base + sigma P up to rounding, as a new stack:
        sigma added on the diagonal entries of the shifted rows of a copy."""
        stack, rows = stored
        stack = stack.astype(np.result_type(stack, sigma))
        stack[:, rows, rows] += sigma
        return [stack]


# the split protocol of the module docstring, implemented twice
Split = MirrorSplit | ModeSplit


def restrict(split: Split | None, keep: np.ndarray) -> Split | None:
    """``split`` on the dofs ``keep`` (``split.restrict``); None when
    ``split`` is None or the dofs break it."""
    return None if split is None else split.restrict(keep)


def blocks_of(mat: np.ndarray, split: Split | None) -> list[np.ndarray]:
    """The blocks of ``mat`` by ``split`` (``_gather``); [mat] unsplit."""
    return [mat] if split is None else split._gather(mat)


def to_blocks(x: np.ndarray, split: Split | None) -> list[np.ndarray]:
    """A vector or a stack (dofs on the first axis) in the block coordinates
    of ``split`` (``_to_blocks``); [x] unsplit."""
    return [x] if split is None else split._to_blocks(x)


def from_blocks(parts: list[np.ndarray], split: Split | None) -> np.ndarray:
    """The vector or stack of the block coordinates ``parts`` of ``split``
    (``_from_blocks``); the one part unsplit."""
    return parts[0] if split is None else split._from_blocks(parts)


def eigvals(mat: np.ndarray, split: Split | None = None) -> np.ndarray:
    """Eigenvalues of ``mat``, in no order; with a ``split``, those of its
    blocks (a stack's in one stacked eigensolve): a mirror's two half-size
    eigensolves cost about a quarter of the full one."""
    if split is None:
        return np.linalg.eigvals(mat)
    return np.concatenate([np.linalg.eigvals(block).ravel() for block in split._gather(mat)])


def eig_residuals(mat: np.ndarray, split: Split | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of ``mat``, split by ``split`` when given, and the
    residual ||mat x - lam x|| / ||x|| of each, taken against the full mat.

    For a real mat, X is taken in ``_real_form`` (by ``_columns``, or lifted
    straight into it by a mode split): its N real columns hold every
    eigenvector, so mat X is one real N x N product, half the columns of
    [Re X | Im X].  It is taken through mat's nonzeros
    (``NonzeroOperator.matmat``), in a fixed order that does not depend on
    the BLAS thread count, and in less time than the dense product on the
    strips (a generator holds about five nonzeros per row).  For the pair
    a +- ib of lam = alpha +- i beta the residual's real and imaginary
    parts are

        (mat a - alpha a + beta b) +- i (mat b - alpha b - beta a),

    formed in place in the product's columns of a and b, _ROWS rows at a
    time, and both members of the pair get the one norm, the hypot of those
    two columns' norms.  Past the eigensolve two N^2 real arrays are live:
    X and the product.  Every step past the eigensolve is a fixed-order sum,
    so the residuals depend on the thread count only through X.
    """
    real = not np.iscomplexobj(mat)
    vals, vecs, vec_norms = (_columns(*_checked_eig(mat), real) if split is None
                             else split._eig(mat, real))
    if not real:
        mv = mixed_matmul(mat, vecs)
        vecs *= vals[None, :]
        mv -= vecs
        return vals, np.linalg.norm(mv, axis=0) / vec_norms
    mv = NonzeroOperator(mat).matmat(vecs)
    first = np.flatnonzero(vals.imag > 0)
    beta = np.zeros(vals.size)          # beta at the first column of each pair
    beta[first] = vals.imag[first]
    for lo in range(0, mv.shape[0], _ROWS):
        rows = slice(lo, lo + _ROWS)
        mv[rows] -= vecs[rows] * vals.real
        mv[rows, :-1] += vecs[rows, 1:] * beta[:-1]
        mv[rows, 1:] -= vecs[rows, :-1] * beta[:-1]
    del vecs
    norms = np.linalg.norm(mv, axis=0)
    norms[first] = norms[first + 1] = np.hypot(norms[first], norms[first + 1])
    return vals, norms / vec_norms


class ShiftedSplit:
    """The blocks of ``base + sigma P`` by ``split`` for every scalar sigma,
    from one gather.

    ``base`` is square and ``split`` splits it exactly; P is the 0/1
    diagonal on the dofs ``shifted``, which the split keeps apart from the
    others (a mirror maps them onto themselves; modes find them on the same
    rows in every column).  The split stores its blocks of ``base`` once,
    read-only (``_store``), and adds each sigma in its own arithmetic
    (``_shift``): a mirror's blocks are those of base + sigma P bit for bit,
    the modes' up to rounding.
    """

    def __init__(self, base: np.ndarray, split: Split, shifted: np.ndarray):
        self.split = split
        self._stored = split._store(base, shifted)

    def solve(self, sigma, rhs: np.ndarray, what: str, cond_bound: float,
              full) -> np.ndarray:
        """The solution of (base + sigma P) x = rhs from the stored blocks,
        with the refusals of ``checked_solve(full(), rhs, what,
        cond_bound)``: the guard judges the full matrix, which ``full()``
        forms only when ``cond_bound`` does not clear it."""
        x = _lu(lambda: self.split._solve(self.split._shift(self._stored, sigma), rhs), what)
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
                    split: Split | None = None) -> np.ndarray:
    """(sigma - mat)^-1 with the refusals of ``checked_solve`` against an
    identity, guarded on the full shifted matrix; real for a real mat and a
    real sigma.

    The shift S = sigma - mat is formed once.  With a ``split`` its blocks
    are gathered, ||S||_F is kept for the guard's bound ||S||_F ||S^-1||_F,
    and S is dropped before the blocks are inverted (each dropped as soon
    as it is) and ``_unblock``-ed.  S is formed again only when that bound
    does not clear the guard.  No identity right-hand side is formed:
    ``np.linalg.inv`` runs LAPACK's solve against one of its own.  For an
    N x N mat the mirror route peaks near 2.5 N^2 entries, the output
    included (the output, the inverted blocks and ``_unblock``'s two
    half-size temporaries), the mode route near N^2 (S, then the output).
    """
    full = shifted(mat, sigma)
    norm = float(np.linalg.norm(full))
    if split is None:
        x = _lu(lambda: np.linalg.inv(full), what)
    else:
        blocks = split._gather(full)
        del full
        x = _lu(lambda: split._unblock(*[np.linalg.inv(blocks.pop(0))
                                         for _ in range(len(blocks))]), what)
    condition_guard(lambda: shifted(mat, sigma), norm * float(np.linalg.norm(x)), what)
    return x


class NonzeroOperator:
    """The nonzeros of a dense matrix, applied at O(nnz) per product.

    Built once with ``np.nonzero``, whose row-major order keeps the entries
    of each row contiguous, so ``mat @ b`` is one ``np.add.reduceat`` over
    row segments.  An empty row would share its segment start with the next
    row and return that row's first product, so each empty row stores one
    explicit zero.  The products are the two the exponential needs,
    ``mat @ b`` and ``w @ |mat|``, and ``mat @ B`` for the residuals of
    ``eig_residuals``; each output entry is summed in a fixed order, so
    results do not depend on the BLAS thread count.
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

    def matmat(self, b: np.ndarray) -> np.ndarray:
        """mat @ b for a real (N, m) array b, _COLS columns of b at a time:
        each pass gathers the rows of b that the nonzeros read, a temporary
        of nnz x _COLS entries that stays in cache, scales it in place and
        sums each row's segment in the fixed order of ``matvec``."""
        out = np.empty((self.shape[0], b.shape[1]), dtype=np.result_type(self.vals, b))
        vals = self.vals[:, None]
        for lo in range(0, b.shape[1], _COLS):
            cols = slice(lo, lo + _COLS)
            terms = b[self.cols, cols]
            terms *= vals
            out[:, cols] = np.add.reduceat(terms, self._starts, axis=0)
        return out

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
