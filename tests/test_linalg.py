"""The condition guard and the nonzero-pattern operator.

The sameness audit wraps the guard's decision point and checks, for every
guarded solve it sees, that the bound is never below the exact condition
number and that the pass/refuse decision is the one the exact condition
number alone makes.  The operator's two products are checked against the
dense ones.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import abclab as ab
import abclab._linalg as la
from abclab.cli import main
from abclab.errors import AssumptionError, NumericalError

from conftest import CONFIG_DIR


@pytest.fixture
def audit(monkeypatch):
    """Record (what, bound, cond, refused) for every guard decision."""
    seen = []
    guard, cond_of = la.condition_guard, np.linalg.cond

    def audited(mat, bound, what):
        # a guard that may settle on its bound alone gets a function forming mat
        cond = float(cond_of(mat() if callable(mat) else mat))
        exact_refuses = not np.isfinite(cond) or cond > la.COND_REFUSAL
        assert bound >= cond, f"{what}: bound {bound:.6e} below cond {cond:.6e}"
        try:
            guard(mat, bound, what)
        except NumericalError:
            seen.append((what, bound, cond, True))
            assert exact_refuses, f"{what}: refused at cond {cond:.3e}"
            raise
        seen.append((what, bound, cond, False))
        assert not exact_refuses, f"{what}: passed at cond {cond:.3e}"

    monkeypatch.setattr(la, "condition_guard", audited)
    return seen


@pytest.mark.parametrize("name", ["abc-1d", "special-case", "timoshenko-strip"])
def test_verify_guard_decisions_match_the_svd(tmp_path, audit, name):
    code = main(["verify", "--config", str(CONFIG_DIR / f"{name}.json"),
                 "--out", str(tmp_path / "v.json")])
    assert code == 0
    whats = {what for what, *_ in audit}
    assert "bordered Dirichlet system" in whats
    assert "(lam - Acal)" in whats and "(lam - pencil) resolvent" in whats
    assert not any(refused for *_, refused in audit)


def _fixture_ops(mesh_kind):
    if mesh_kind == "interval":
        mesh = ab.build_interval_mesh(8, 1.0)
        nb = 2
    else:
        mesh = ab.build_strip_mesh(4, 4)
        nb = 5
    coeffs = ab.CoefficientSet(c=1.0, rho=np.ones(nb), m=np.ones(nb),
                               d=np.zeros(nb), k=np.zeros(nb))
    return ab.assemble_wave_operator(mesh, coeffs)


@pytest.mark.parametrize("scale,guarded", [(0.0, False), (1e-14, True)])
def test_ghost_block_refusal_matches_the_svd(audit, scale, guarded):
    ops = _fixture_ops("interval")
    R = ops.R.copy()
    R[:, ops.n] *= scale
    with pytest.raises(AssumptionError, match="A3"):
        ab.assemble_block_generator(dataclasses.replace(ops, R=R))
    # an exactly singular block is refused by the LU before any bound
    assert [refused for *_, refused in audit] == ([True] if guarded else [])


@pytest.mark.parametrize("last,guarded", [(1.0, False), (1.0 - 1e-14, True)])
def test_neutral_transform_refusal_matches_the_svd(audit, last, guarded):
    ops = _fixture_ops("strip")
    M = np.diag([0.0] * (ops.n_b - 1) + [last])     # I - M singular or cond 1e14
    with pytest.raises(AssumptionError, match="A8"):
        ab.apply_neutral_transform(ops, M)
    assert [refused for *_, refused in audit] == ([True] if guarded else [])


def test_strip_verify_takes_no_condition_number(tmp_path, monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    code = main(["verify", "--config", str(CONFIG_DIR / "timoshenko-strip.json"),
                 "--out", str(tmp_path / "v.json")])
    assert code == 0
    assert calls == []


def test_inconclusive_bound_is_settled_by_the_exact_condition_number():
    mat = np.diag([1.0, 1e-3])
    # a bound that does not clear the threshold passes when the SVD does
    la.condition_guard(mat, np.inf, "probe")
    with pytest.raises(NumericalError, match=r"probe: condition estimate 1\.000e\+13"):
        la.condition_guard(np.diag([1.0, 1e-13]), np.inf, "probe")


def test_inverse_forming_solve_bounds_by_frobenius_norms(monkeypatch):
    bounds = []
    monkeypatch.setattr(la, "condition_guard", lambda mat, bound, what: bounds.append(bound))
    mat = np.array([[2.0, 1.0], [0.0, 3.0]])
    x = la.checked_solve(mat, np.eye(2))
    la.checked_solve(mat, np.ones(2))
    la.checked_solve(mat, np.ones(2), cond_bound=7.0)
    assert bounds == [np.linalg.norm(mat) * np.linalg.norm(x), np.inf, 7.0]


def test_holder_norm_bounds_the_two_norm():
    rng = np.random.default_rng(3)
    for shape in ((5, 5), (7, 3), (3, 7)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert la.holder_norm(a) >= np.linalg.norm(a, 2)


@pytest.mark.parametrize("fixture", ["abc1d", "special", "neutral_strip", "biharmonic_sys",
                                     "divergence_sys"])
def test_lift_cond_bound_is_never_below_the_exact_condition_number(request, fixture):
    _, sys = request.getfixturevalue(fixture)
    a = sys.eig_A0
    near = a[len(a) // 2] + 1e-3 * max(1.0, abs(a[len(a) // 2]))   # close to sigma(A0)
    for mu in (near, -3.7, 1.0 + 0.5j, 25.0 + 2.0j, 4.0, 2.0 ** 10, 2.0 ** 16):
        n = sys.n
        mat = np.vstack([np.hstack([mu * np.eye(n), np.zeros((n, sys.dims[1]))])
                         - sys.ops.A_max, sys.ops.R])
        assert sys.lift_cond_bound(mu) >= np.linalg.cond(mat)


# magnitudes of at least 1e-3 keep every product out of the subnormal range,
# where a relative bound does not hold
_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _arrays(dtype, shape):
    entries = _ENTRIES if dtype is float else st.builds(complex, _ENTRIES, _ENTRIES)
    return arrays(dtype, shape, elements=entries)


@st.composite
def _operands(draw):
    """A real or complex matrix with some rows and columns zeroed, b and w >= 0."""
    n = draw(st.integers(1, 12))
    mat = draw(_arrays(draw(st.sampled_from([float, complex])), (n, n)))
    mat[draw(arrays(bool, n)), :] = 0
    mat[:, draw(arrays(bool, n))] = 0
    b = draw(_arrays(draw(st.sampled_from([float, complex])), n))
    w = np.abs(draw(_arrays(float, n)))
    return mat, b, w


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_nonzero_operator_matches_dense_products(operands):
    mat, b, w = operands
    n = mat.shape[0]
    eps = np.finfo(float).eps
    for a in (mat, np.zeros_like(mat)):
        op = la.NonzeroOperator(a)
        got = op.matvec(b)
        assert got.shape == (n,) and got.dtype == np.result_type(a, b)
        assert np.all(np.abs(got - a @ b) <= n * eps * (np.abs(a) @ np.abs(b)))
        ref = w @ np.abs(a)
        assert np.all(np.abs(op.abs_rmatvec(w) - ref) <= n * eps * ref)
        # other magnitudes on the same nonzeros: here twice those of a
        assert np.all(np.abs(op.abs_rmatvec(w, 2 * op.abs_vals) - 2 * ref) <= 2 * n * eps * ref)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_mixed_matmul_matches_the_complex_product(k, n, m, seed):
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((k, n))
    cplx = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    eps = np.finfo(float).eps
    for a, b in ((real, cplx), (cplx.T, real.T), (real, real.T), (cplx.T, cplx)):
        got, ref = la.mixed_matmul(a, b), a @ b
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.all(np.abs(got - ref) <= 4 * n * eps * (np.abs(a) @ np.abs(b)))


def _mirror_invariant(seed, n_pairs, n_fixed, dtype=complex):
    """A real or complex matrix with J A J = A bit for bit, J an involution
    with ``n_pairs`` 2-orbits and ``n_fixed`` fixed points in shuffled
    positions."""
    rng = np.random.default_rng(seed)
    size = 2 * n_pairs + n_fixed
    slots = rng.permutation(size)
    perm = np.arange(size)
    a, b = slots[:n_pairs], slots[n_pairs:2 * n_pairs]
    perm[a], perm[b] = b, a
    half = rng.standard_normal((size, size)).astype(dtype)
    if dtype is complex:
        half += 1j * rng.standard_normal((size, size))
    return half + half[np.ix_(perm, perm)], perm


def _split_solve(mat, rhs, perm):
    """``checked_solve(mat, rhs, "probe")`` by the mirror's blocks: the
    stored-block solve of mat with no shift, guarded on mat by its exact
    condition number."""
    return la.ShiftedSplit(mat, la.MirrorSplit(perm), np.arange(0)).solve(
        0.0, rhs, "probe", np.inf, lambda: mat)


@pytest.mark.parametrize("n_pairs,n_fixed", [(5, 0), (4, 3), (1, 1), (0, 3)])
def test_split_inverse_and_eigenvectors_match_the_full_ones(audit, n_pairs, n_fixed):
    mat, perm = _mirror_invariant(n_pairs + 7 * n_fixed, n_pairs, n_fixed)
    split = la.MirrorSplit(perm)
    assert split.commutes(mat)
    # the split inverse of the shift 0 - (-mat), which is mat
    inv = la.shifted_inverse(-mat, 0.0, "probe", split)
    ref = np.linalg.inv(mat)
    assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
    # the guard judged the full matrix with the Frobenius bound of the inverse
    (what, bound, cond, refused), = audit
    assert (what, refused) == ("probe", False)
    assert bound == pytest.approx(np.linalg.norm(mat) * np.linalg.norm(ref), rel=1e-12)
    even, odd = split._gather(mat)
    assert (even.shape[0], odd.shape[0]) == (n_pairs + n_fixed, n_pairs)
    vals = np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(odd)])
    vecs = split._lift(np.linalg.eig(even)[1], np.linalg.eig(odd)[1])
    assert np.linalg.norm(mat @ vecs - vecs * vals) <= 1e-12 * np.linalg.norm(mat)
    # the split's eigensolve lifts the same vectors
    vals, lifted, _ = split._eig(mat, stack=False)
    assert lifted.tobytes() == vecs.tobytes()
    assert np.linalg.norm(mat @ lifted - lifted * vals) <= 1e-12 * np.linalg.norm(mat)


def test_exact_mirror_refuses_when_only_the_last_matrix_breaks_it():
    mat, perm = _mirror_invariant(3, 4, 2)
    split = la.MirrorSplit(perm)
    assert split.commutes(mat, mat.real)
    r = int(np.flatnonzero(perm != np.arange(perm.size))[0])
    changed, dropped = mat.copy(), mat.copy()
    changed[r, r] += 1.0
    # a zero whose image is not zero is caught at the image
    dropped[r, r] = 0.0
    for broken in (changed, dropped):
        assert not split.commutes(mat, mat.real, broken)


def test_restrict_mirror_keeps_positions_in_the_kept_set():
    perm = np.array([4, 1, 3, 2, 0, 5])        # orbits {0, 4}, {2, 3}, fixed 1 and 5
    split = la.MirrorSplit(perm)
    assert split.restrict(np.array([0, 1, 4])).perm.tolist() == [2, 1, 0]
    assert split.restrict(np.array([2, 3, 5])).perm.tolist() == [1, 0, 2]
    assert split.restrict(np.arange(6)).perm.tolist() == perm.tolist()
    # 0 maps to 4, which is not kept
    assert split.restrict(np.array([0, 1])) is None
    assert la.restrict(None, np.arange(6)) is None


@pytest.mark.parametrize("split", [False, True])
def test_eig_maps_a_failed_eigensolve_to_numerical_error(split, monkeypatch):
    mat, perm = _mirror_invariant(2, 2, 1)

    def fail(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(NumericalError, match="dense eigensolve failed"):
        la.eig_residuals(mat, la.MirrorSplit(perm) if split else None)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.sampled_from([float, complex]),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@example(n_pairs=0, n_fixed=3, dtype=float, k=2, seed=0)
@example(n_pairs=0, n_fixed=1, dtype=complex, k=1, seed=1)
def test_split_solve_matches_the_full_solve(n_pairs, n_fixed, dtype, k, seed):
    # a thin right-hand side (not the identity), real or complex, against a
    # well-conditioned mirror-invariant matrix (the shift keeps cond small);
    # a permutation without a 2-orbit leaves only the even block
    mat, perm = _mirror_invariant(seed, n_pairs, n_fixed, dtype)
    mat += 4 * perm.size * np.eye(perm.size)
    rhs = _mirror_invariant(seed + 1, n_pairs, n_fixed, dtype)[0][:, :k]
    split = la.MirrorSplit(perm)
    got = split._solve(split._gather(mat), rhs)
    ref = la.checked_solve(mat, rhs, "probe")
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    # a single vector splits the same way
    vec = split._solve(split._gather(mat), rhs[:, 0])
    assert np.linalg.norm(vec - ref[:, 0]) <= 1e-13 * np.linalg.norm(ref[:, 0])
    # the split inverse of the shift 0 - (-mat), which is mat
    inv, ref = la.shifted_inverse(-mat, 0.0, "probe", split), np.linalg.inv(mat)
    assert np.linalg.norm(inv - ref) <= 1e-13 * np.linalg.norm(ref)


def test_split_inverse_refuses_as_the_full_solve_does(audit):
    # for the identity and for a thin right-hand side, the split and the full
    # solve refuse with the same message
    for thin in (False, True):
        mat, perm = _mirror_invariant(5, 3, 2)
        rhs = mat[:, :2].copy() if thin else np.eye(perm.size, dtype=complex)

        def messages(mat):
            out = []
            for solve in (_split_solve, lambda mat, rhs, _: la.checked_solve(mat, rhs, "probe")):
                with pytest.raises(NumericalError) as exc:
                    solve(mat, rhs, perm)
                out.append(str(exc.value))
            return out

        # an exact odd null vector (+1, -1 on one 2-orbit) makes mat singular
        r = int(np.flatnonzero(perm != np.arange(perm.size))[0])
        mat[:, r] = mat[:, perm[r]] = 0.0
        assert messages(mat) == ["probe: exactly singular matrix"] * 2
        # near singular: the full matrix's exact condition number decides, and
        # both routes report the same value
        mat[r, r] = mat[perm[r], perm[r]] = 1e-14
        split, full = messages(mat)
        assert split == full and split.startswith("probe: condition estimate")
    assert [refused for *_, refused in audit] == [True] * 4


def test_shift_has_the_entries_of_sigma_i_minus_m():
    mat = np.array([[0.0, -0.0, 2.0], [1.0, 0.0, 0.0], [0.5, 3.0, -1.0]])
    for sigma in (2.0, 0.5 - 1.5j):
        got = la.shifted(mat, sigma)
        assert got.dtype == np.result_type(mat, sigma)
        assert np.array_equal(got, sigma * np.eye(3) - mat)
        # 0 - (+-0) is +0: no entry of the shift is a negative zero
        assert not np.any(np.signbit(got.real[got.real == 0]))
        wide = la.shifted(mat[:2], sigma)
        assert np.array_equal(wide, sigma * np.eye(2, 3) - mat[:2])
    stack, sigmas = np.stack([mat, 2 * mat]), np.array([1.0, 2j])
    assert np.array_equal(la.shifted(stack, sigmas),
                          [s * np.eye(3) - m for s, m in zip(sigmas, stack)])


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("sigma", [1.5, 0.3 + 1.1j])
def test_shifted_inverse_is_the_inverse_of_the_shift(split, sigma):
    mat, perm = _mirror_invariant(11, 3, 2, dtype=float)
    inv = la.shifted_inverse(mat, sigma, "probe", la.MirrorSplit(perm) if split else None)
    ref = np.linalg.inv(sigma * np.eye(perm.size) - mat)
    # a real sigma and a real matrix give a real inverse
    assert inv.dtype == (complex if isinstance(sigma, complex) else float)
    assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("last", [1.0, 1.0 - 1e-14])
def test_shifted_inverse_refuses_as_checked_solve_does(last):
    # sigma = 1 makes the shift exactly singular, or of condition about 2e14
    mat = np.diag([2.0, 3.0, last])
    messages = []
    for solve in (lambda: la.shifted_inverse(mat, 1.0, "probe"),
                  lambda: la.checked_solve(np.eye(3) - mat, np.eye(3), "probe")):
        with pytest.raises(NumericalError) as exc:
            solve()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("odd_pivot", [0.0, 2.0 ** -47])
def test_split_shifted_inverse_refuses_as_the_solve_of_the_shift_does(monkeypatch, odd_pivot):
    # the split shifted inverse drops the shift once its blocks are gathered
    # and forms it again only for the SVD; it refuses with the message of
    # checked_solve on the formed shift and an identity, for an exactly
    # singular shift (an odd null vector: +1, -1 on one 2-orbit) and for one
    # of condition about 1e15.  Integer entries keep the shift exact
    mat, perm = _mirror_invariant(5, 3, 2, dtype=float)
    mat = np.rint(mat)
    r = int(np.flatnonzero(perm != np.arange(perm.size))[0])
    mat[:, r] = mat[:, perm[r]] = 0.0
    mat[r, r] = mat[perm[r], perm[r]] = odd_pivot
    mat = 2.0 * np.eye(perm.size) - mat        # so that 2 - mat is the matrix built above
    split = la.MirrorSplit(perm)
    assert split.commutes(mat)
    formed = []
    shifted = la.shifted
    monkeypatch.setattr(la, "shifted", lambda *args: formed.append(1) or shifted(*args))
    messages = []
    for solve in (lambda: la.shifted_inverse(mat, 2.0, "probe", split),
                  lambda: _split_solve(shifted(mat, 2.0), np.eye(perm.size), perm)):
        with pytest.raises(NumericalError) as exc:
            solve()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    if odd_pivot:
        assert messages[0].startswith("probe: condition estimate")
        assert len(formed) == 2          # once for the blocks, once for the SVD
    else:
        assert messages[0] == "probe: exactly singular matrix"
        assert len(formed) == 1
    # a regular shift is formed once
    formed.clear()
    la.shifted_inverse(mat, 2.0 + 1j, "probe", split)
    assert len(formed) == 1


@pytest.mark.parametrize("n", [145, 300])
@pytest.mark.parametrize("dtype", [float, complex])
def test_inverse_is_the_solve_against_an_identity_bit_for_bit(n, dtype):
    # np.linalg.inv runs LAPACK's solve against an identity of its own, so an
    # identity right-hand side needs no solve against it, split or not
    rng = np.random.default_rng(n)
    mat = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        mat += 1j * rng.standard_normal((n, n))
    eye = np.eye(n, dtype=dtype)
    assert np.linalg.inv(mat).tobytes() == np.linalg.solve(mat, eye).tobytes()
    assert la.checked_solve(mat, np.eye(n)).tobytes() == np.linalg.solve(mat, np.eye(n)).tobytes()
    mat, perm = _mirror_invariant(n, n // 2 - 2, 4, dtype)
    split = la.MirrorSplit(perm)
    solved = [np.linalg.solve(b, np.eye(len(b), dtype=b.dtype)) for b in split._gather(mat)]
    # the split inverse of the shift 0 - (-mat), which is mat bit for bit
    inv = la.shifted_inverse(-mat, 0.0, "probe", split)
    assert inv.tobytes() == split._unblock(*solved).tobytes()


@pytest.mark.parametrize("n_pairs,n_fixed", [(5, 0), (4, 3), (0, 3)])
def test_unblock_is_the_column_major_dense_reconstruction(n_pairs, n_fixed):
    # the last bits of the BLAS products and norms that verify forms from an
    # _unblock-ed matrix follow its layout, so verify's bytes rest on it being
    # column-major (a C-ordered variant moved two verify values on every
    # shipped config)
    mat, perm = _mirror_invariant(n_pairs + 5, n_pairs, n_fixed)
    split = la.MirrorSplit(perm)
    even, odd = split._gather(mat)
    # the basis of the mirror's blocks, built by hand: e_r + e_Jr (e_r on a fixed
    # point) for each representative r = min(i, Ji) in increasing order, then
    # e_r - e_Jr for the representatives of the 2-orbits
    reps = [r for r in range(perm.size) if r <= perm[r]]
    pairs = [r for r in reps if perm[r] != r]
    basis = np.zeros((perm.size, perm.size))
    for col, r in enumerate(reps):
        basis[[r, perm[r]], col] = 1.0
    for col, r in enumerate(pairs, start=len(reps)):
        basis[[r, perm[r]], col] = 1.0, -1.0
    blocks = np.zeros(mat.shape, dtype=mat.dtype)
    blocks[:len(reps), :len(reps)] = even
    blocks[len(reps):, len(reps):] = odd
    ref = basis @ blocks @ np.linalg.inv(basis)
    got = split._unblock(even, odd)
    assert got.flags.f_contiguous and not got.flags.c_contiguous
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    assert np.linalg.norm(got - mat) <= 1e-14 * np.linalg.norm(mat)


def _mode_separable(seed, ncol, size, dtype=float):
    """A matrix T blockdiag(B_0, ..., B_nx) T^-1 for random blocks B_k, with
    T the cosine-mode basis of ``ncol`` columns of ``size`` rows; that
    basis' (column, row) of each dof, the dofs in shuffled order; and the
    (ncol, size, size) stack of the B_k."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(ncol * size)
    modes = np.stack(np.divmod(np.arange(ncol * size), size))[:, order]
    cos = np.cos(np.pi * np.outer(np.arange(ncol), np.arange(ncol)) / (ncol - 1))
    basis = np.zeros((ncol * size, ncol * size))
    for i, (col, row) in enumerate(modes.T):
        basis[i, np.arange(ncol) * size + row] = cos[col]
    blocks = rng.standard_normal((ncol, size, size)).astype(dtype)
    if dtype is complex:
        blocks += 1j * rng.standard_normal((ncol, size, size))
    dense = np.zeros((ncol * size,) * 2, dtype=dtype)
    for k in range(ncol):
        dense[k * size:(k + 1) * size, k * size:(k + 1) * size] = blocks[k]
    return basis @ dense @ np.linalg.inv(basis), modes, blocks


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("ncol,size", [(2, 3), (5, 4), (9, 1)])
def test_mode_inverse_and_solve_match_the_full_ones(dtype, ncol, size):
    mat, modes, blocks = _mode_separable(ncol * size, ncol, size, dtype)
    n, split = mat.shape[0], la.ModeSplit(modes)
    assert np.allclose(split._gather(mat), blocks)
    for sigma in (3.0, 1.5 - 2j):
        inv = la.shifted_inverse(mat, sigma, "probe", split)
        ref = np.linalg.inv(sigma * np.eye(n) - mat)
        assert inv.dtype == ref.dtype and inv.flags.f_contiguous
        assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
    # the stored stack with sigma on the first rows of every column, solved
    # against a thin right-hand side and a vector
    shifted_rows = np.flatnonzero(modes[1] < max(size - 1, 1))
    stored = la.ShiftedSplit(mat, split, shifted_rows)
    shift = mat.copy()
    shift[shifted_rows, shifted_rows] += 2.5
    rhs = np.random.default_rng(1).standard_normal((n, 3))
    full = la.checked_solve(shift, rhs, "probe")
    got = stored.solve(2.5, rhs, "probe", np.inf, lambda: shift)
    assert got.dtype == full.dtype and got.shape == full.shape
    assert np.linalg.norm(got - full) <= 1e-12 * np.linalg.norm(full)
    vec = stored.solve(2.5, rhs[:, 0], "probe", np.inf, lambda: shift)
    assert np.linalg.norm(vec - full[:, 0]) <= 1e-12 * np.linalg.norm(full[:, 0])
