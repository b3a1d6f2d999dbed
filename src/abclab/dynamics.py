"""Time evolution of the coupled system and its energy diagnostics.

Trajectories step through the output times (``_flow``) by the action
e^{tA} u of a truncated Taylor series (Al-Mohy and Higham 2011), walked in
blocks: a block is the longest run of output times within one step's reach
of its start, and one set of Taylor terms serves every time in the block.
The action applies the generator through its nonzeros
(``_linalg.NonzeroOperator``): a finite-difference stencil with a rank-n_b
boundary border holds about five nonzeros per row, so each matvec costs
O(nnz) instead of O(N^2), and no sum depends on the BLAS thread count.

A uniform grid (two or more positive gaps, all equal to a relative 1e-10)
takes a dense route instead when a cost rule in multiply-adds, computed from
the inputs alone (``_dense_route``), says it is cheaper: one propagator P
for the common gap, a scaling-and-squaring Taylor exponential of degree 16
(``taylor_expm``), applied by matvecs; with at least as many steps as
states, every block of eight states after the first is one product with
P^8.  When the system splits exactly (``BlockSystem.split``), the route may
step the split's blocks instead: one propagator per block, the states
stepped in block coordinates and lifted back in buffers of a few dozen rows
(``_dense_flow``).  On an x-constant strip the generator is block-diagonal
in the cosine modes along x (Strang, SIAM Review 41, 1999), so the strip's
simulate grid (1000 steps) takes nx + 1 exponentials of 2(ny + 1) + 2
states (17 of 36 at nx = ny = 16) instead of the action's 2750 matvecs.
Numpy call overhead makes an action matvec cost about as much as 2^18 dense
multiply-adds and a small product about 2^17, so on that grid every
x-constant strip steps its modes, abc-1d its two mirror blocks, special-case
its whole generator (two blocks of about 35 states cost more calls than
they save), and the strips that vary along x, split by the mirror or not at
all, take the action.

Both routes are scaled from the same certified upper bounds on
||B^p||_1^(1/p), read off the row vector 1^T |B|^p (``_power_alphas``), for
B = D^-1 A D balanced by a power-of-two diagonal D (``_balance``).  D rounds
nothing, so a route run on A computes the bits of the same route run on B
and scaled back, and its backward error is bounded in the balanced norm.
Balancing evens out the scales of the displacement and velocity blocks: on
the strip it takes min_p alpha_p from 72.5 to 48.3, near the spectral radius
45.25, and the 1000-step simulate grid from 4235 matvecs to 2750.

The coupled generator always carries a defective rigid-drift pair at zero, so
no eigenbasis route is used.  A classical RK4 integrator and, in the tests,
scipy's expm are the independent cross-checks of both routes.

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

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import (_ROWS, NonzeroOperator, Split, blocks_of, from_blocks, shifted,
                      to_blocks)
from .blockops import BlockSystem
from .errors import ConfigurationError, ModelError, NumericalError
from .mesh import Mesh, cell_weights

TAYLOR_ORDER = 16
# states per matrix product on a uniform grid with at least as many steps as
# the state dimension (see _flow); P^8 takes three squarings
_BLOCK = 8


@dataclass
class Trajectory:
    """Time-indexed reduced states with optional energies."""

    times: np.ndarray
    states: np.ndarray            # (n_times, state_dim)
    energies: np.ndarray | None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("trajectory times must be strictly increasing")


# ---------------------------------------------------------------------------
# Matrix exponentials
# ---------------------------------------------------------------------------
_TAYLOR_COEFFS = np.array([1.0 / math.factorial(k) for k in range(TAYLOR_ORDER + 1)])

# Truncated-Taylor action of the exponential (Al-Mohy and Higham, "Computing
# the action of the matrix exponential", SISC 2011, Alg. 3.2): the largest
# degree m and power index p considered and THETA[m-1] = theta_m, the largest
# ||t A|| for which the degree-m Taylor polynomial has relative backward
# error at most 2^-53, the unit roundoff of double precision.  theta_m solves
# sum_{k>m} |c_k| theta^(k-1) = 2^-53 for the coefficients c_k of
# log(e^-x T_m(x)); the paper's Table 3.1 lists every fifth entry (2.4e-3 at
# m = 5, ..., 9.9 at m = 55).
ACTION_M_MAX = 55
ACTION_P_MAX = 8
THETA = np.array([
    2.220446049250313e-16, 2.580956802971767e-08, 1.386347866119121e-05,
    3.397168839976962e-04, 2.400876357887274e-03, 9.065656407595102e-03,
    2.384455532500274e-02, 4.991228871115323e-02, 8.957760203223343e-02,
    1.441829761614378e-01, 2.142358068451711e-01, 2.996158913811581e-01,
    3.997775336316795e-01, 5.139146936124294e-01, 6.410835233041199e-01,
    7.802874256626574e-01, 9.305328460786568e-01, 1.090863719290036e+00,
    1.260381060642639e+00, 1.438252596804337e+00, 1.623715950235821e+00,
    1.816077816215086e+00, 2.014710780944616e+00, 2.219048869365090e+00,
    2.428582524442827e+00, 2.642853457459435e+00, 2.861449633934264e+00,
    3.084000544989162e+00, 3.310172839890271e+00, 3.539666348743689e+00,
    3.772210495681751e+00, 4.007561086118040e+00, 4.245497442579696e+00,
    4.485819859447369e+00, 4.728347345793539e+00, 4.972915626191981e+00,
    5.219375371084058e+00, 5.467590630524544e+00, 5.717437447572013e+00,
    5.968802630041849e+00, 6.221582661689891e+00, 6.475682736079984e+00,
    6.731015898381024e+00, 6.987502282130630e+00, 7.245068429597951e+00,
    7.503646685788864e+00, 7.763174657377987e+00, 8.023594728939980e+00,
    8.284853629803917e+00, 8.546902045684933e+00, 8.809694269971322e+00,
    9.073187890176145e+00, 9.337343505612013e+00, 9.602124472826556e+00,
    9.867496675753401e+00,
])
_DEGREES = np.arange(1, ACTION_M_MAX + 1)
_POWERS = np.arange(2, ACTION_P_MAX + 1)
# The backward-error bound in alpha_p holds for degrees m >= p(p-1) - 1
# (their Theorem 4.2).
_ADMISSIBLE = _DEGREES[None, :] >= (_POWERS * (_POWERS - 1) - 1)[:, None]
# The most matvecs the action's plans for one grid may need in all.  This is
# a cost cap, not an accuracy limit: at 2.5-35 us per matvec (134 to 2244
# states, one thread of a 2-core x86-64 host) 2^22 matvecs take 10 s to
# 2.5 min, and a plan past it would run for hours (a rotation of norm 1e10
# over [0, 0.35] plans 2e10).  The largest shipped plan is 7860 matvecs
# (abc-1d simulate).
ACTION_MATVEC_MAX = 2 ** 22
# The most sweeps ``_balance`` takes; every shipped generator settles in two
_BALANCE_SWEEPS = 8


def taylor_expm(mat: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring matrix exponential with a degree-16 Taylor kernel.

    The polynomial is evaluated by Paterson-Stockmeyer in A^4 (six matrix
    products) after scaling A by 2^-s, with s the fewest squarings that bring
    min(alpha_2, alpha_3, alpha_4) to at most theta_16 (Al-Mohy and Higham,
    SIMAX 2009): p <= 4 are the powers admissible at degree 16, and the
    alpha_p are the certified upper bounds of ``_power_alphas``, those of
    mat balanced by a power-of-two diagonal.  Raises
    NumericalError when that bound or the result leaves the float range.
    """
    n = mat.shape[0]
    squarings = _squarings(_power_alphas(mat))
    c = _TAYLOR_COEFFS
    diag = np.diag_indices(n)

    def block(j):
        """sum_{i<4} c_{4j+i} A^i."""
        B = c[4 * j + 1] * A + c[4 * j + 2] * A2 + c[4 * j + 3] * A3
        B[diag] += c[4 * j]
        return B

    # an overflow leaves E non-finite (inf, or nan from inf * 0), which is
    # refused below, so the scope only keeps numpy from also warning
    with np.errstate(over="ignore", invalid="ignore"):
        # 2.0 ** squarings overflows from 1024 on; a finite alpha gives at most
        # 1025 squarings, so 2.0 ** -squarings is an exact nonzero power of two
        A = mat * 2.0 ** -squarings
        A2 = A @ A
        A3 = A2 @ A
        A4 = A2 @ A2
        E = c[16] * A4 + block(3)
        for j in (2, 1, 0):
            E = E @ A4 + block(j)
        for _ in range(squarings):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise NumericalError("Taylor matrix exponential overflowed")
    return E


def _squarings(alphas: np.ndarray, t: float = 1.0) -> int:
    """Squarings ``taylor_expm`` takes for t*mat, given the alpha_p of mat.

    The fewest s with 2^-s t min(alpha_2, alpha_3, alpha_4) <= theta_16.
    Raises NumericalError when that bound is beyond the float range.
    """
    alpha = t * float(np.min(alphas[_ADMISSIBLE[:, TAYLOR_ORDER - 1]]))
    if not np.isfinite(alpha):
        raise NumericalError("Taylor matrix exponential overflowed: "
                             "the norm bound exceeds the float range")
    return max(0, math.ceil(math.log2(max(alpha, 1e-300))
                            - math.log2(THETA[TAYLOR_ORDER - 1])))


def _uniform(gaps: np.ndarray) -> bool:
    """Whether every gap equals the first to a relative 1e-10."""
    return np.allclose(gaps, gaps[0], rtol=1e-10, atol=0.0)


def _col_norm(mags: np.ndarray, op: NonzeroOperator) -> float:
    """1-norm of the matrix with the magnitudes ``mags`` on op's nonzeros."""
    return float(np.max(np.bincount(op.cols, weights=mags, minlength=op.shape[1])))


def _balance(op: NonzeroOperator) -> np.ndarray:
    """Exponents e of the power-of-two diagonal D = diag(2^e) that balances mat.

    B = D^-1 mat D has the entries mat_ij 2^(e_j - e_i).  A sweep reads the
    off-diagonal row and column 1-norms r_i and c_i of B from the nonzeros,
    in O(nnz), and moves every e_i at once by the nearest integer to
    (x_i - y_i) / 4, where x_i and y_i are the integer exponents that
    ``np.frexp`` gives r_i and c_i: x_i - y_i is log2(r_i / c_i) to within
    1, and no logarithm is taken, so nothing warns at any finite scale.
    That is half the step of Parlett and Reinsch (Numer. Math. 13, 1969),
    who move one index at a time: when both ends of a coupling i <-> j move
    together, half steps meet in the middle where full ones would swap the
    two entries.  An index whose r_i or c_i is zero or infinite stays put.
    The sweeps stop when no exponent moves, after at most _BALANCE_SWEEPS.
    D is kept only when it scales every nonzero exactly (no entry of B
    overflows or loses bits as a subnormal) and lowers the 1-norm, the
    balancing test of Al-Mohy and Higham (2011, Sec. 3.1); otherwise e = 0.
    Elementwise ufuncs and ``np.bincount`` only, no BLAS call: D does not
    depend on the thread count.
    """
    n = op.shape[0]
    off = op.rows != op.cols
    rows, cols, mags = op.rows[off], op.cols[off], op.abs_vals[off]
    e = np.zeros(n, dtype=int)
    # an entry of B that overflows is inf, which stops its indices and fails
    # the exactness test, so numpy need not also warn
    with np.errstate(over="ignore"):
        for _ in range(_BALANCE_SWEEPS):
            b = np.ldexp(mags, e[cols] - e[rows])
            r = np.bincount(rows, weights=b, minlength=n)
            c = np.bincount(cols, weights=b, minlength=n)
            move = np.rint((np.frexp(r)[1] - np.frexp(c)[1]) / 4).astype(int)
            move[~((0 < r) & (r < np.inf) & (0 < c) & (c < np.inf))] = 0
            if not np.any(move):
                break
            e += move
        shift = e[op.cols] - e[op.rows]
        scaled = np.ldexp(op.abs_vals, shift)
        exact = np.array_equal(np.ldexp(scaled, -shift), op.abs_vals)
    if exact and _col_norm(scaled, op) < _col_norm(op.abs_vals, op):
        return e
    return np.zeros(n, dtype=int)


def _power_alphas(mat: np.ndarray | NonzeroOperator) -> np.ndarray:
    """alpha_p = max(d_p, d_{p+1}) for p = 2..ACTION_P_MAX, d_p >= ||B^p||_1^(1/p).

    B = D^-1 mat D is mat balanced by the power-of-two diagonal D of
    ``_balance``.  Scaling by a power of two rounds nothing, so either
    exponential route, run on mat with a plan certified for B, computes the
    very bits of running on B and scaling back by D: the alpha_p of B scale
    both routes, and their backward error is bounded in the balanced norm
    ||D^-1 . D||_1.  Balancing lowers the alpha_p where the blocks of mat
    differ in scale, as the displacement and velocity blocks of a wave
    generator do.  ``mat`` is a dense matrix or its ``NonzeroOperator``
    (which ``_flow`` builds once and shares with the action).  Entrywise
    |B^p| <= |B|^p, so the largest entry of the row vector w_p = 1^T |B|^p
    bounds ||B^p||_1 from above: p vector-matrix products at O(nnz) each
    and no dense power.  Every d_p is a certified upper bound, so the
    backward-error bounds of both exponential routes hold.  w is kept below
    2^-k, with 2^k >= the dimension, by exact power-of-two rescaling, and
    the exponents are summed, so no product overflows at any finite scale of
    mat; a d_p beyond the float range is returned as inf.  Raises
    NumericalError for non-finite entries.
    """
    op = mat if isinstance(mat, NonzeroOperator) else NonzeroOperator(mat)
    if not np.all(np.isfinite(op.vals)):
        raise NumericalError("matrix exponential of a matrix with non-finite entries")
    e = _balance(op)
    mags = np.ldexp(op.abs_vals, e[op.cols] - e[op.rows])     # |B| on mat's nonzeros
    k = max(op.shape[0] - 1, 1).bit_length()
    w = np.full(op.shape[0], 2.0 ** -k)
    log2_scale = k                  # 1^T |B|^p = w 2^log2_scale
    d = np.zeros(ACTION_P_MAX)
    for p in range(1, ACTION_P_MAX + 2):
        w = op.abs_rmatvec(w, mags)
        top = float(np.max(w))
        if top == 0.0:          # |B|^p = 0, so are all higher powers
            break
        mantissa, exponent = math.frexp(top)
        w = np.ldexp(w, -exponent - k)
        log2_scale += exponent + k
        if p >= 2:
            # log2 d_p = whole + frac, split exactly from the integer
            # exponent, so that a d_p within an ulp of the float range
            # keeps its value instead of rounding log2 d_p up to 1024
            whole, rem = divmod(log2_scale - k, p)
            frac = (rem + math.log2(mantissa)) / p
            try:
                d[p - 2] = math.ldexp(2.0 ** frac, whole)
            except OverflowError:
                d[p - 2] = math.inf
    return np.maximum(d[:-1], d[1:])


def _action_plan(t: np.ndarray, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree m and matvec count m*s of the cheapest action plan for each t.

    (m, s) minimizes m*s subject to t alpha_p / s <= theta_m over the
    admissible (p, m) (Al-Mohy and Higham 2011, Alg. 3.2, without the shift;
    the alpha_p are those of the balanced matrix).  The count is inf where no
    finite plan exists (an infinite alpha_p).
    """
    # ceil(t alpha_p / theta_m) grows with alpha_p: each degree takes the
    # least alpha_p admissible at it
    least = np.where(_ADMISSIBLE, alphas[:, None], np.inf).min(axis=0)
    cost = np.maximum(np.ceil(np.multiply.outer(t, least) / THETA), 1.0) * _DEGREES
    m = np.argmin(cost, axis=-1)
    return m + 1, np.take_along_axis(cost, m[..., None], axis=-1)[..., 0]


def _expm_action(op: NonzeroOperator, b: np.ndarray, offsets: np.ndarray,
                 m: int, s: int) -> np.ndarray:
    """e^{t mat} b at each t of an increasing array of positive offsets.

    ``op`` applies mat through its nonzeros, so each matvec costs O(nnz) and
    sums in a fixed order.  (m, s) is the ``_action_plan`` of the last offset
    T: [0, T] is crossed in s steps of h = T/s.  Each step forms its scaled
    Taylor terms b_k = (h/k) mat b_{k-1}, k <= m, once, so no power of mat
    overflows, and every offset inside the step, at a fraction r of it, reads
    sum_k r^k b_k off the same terms (Al-Mohy and Higham 2011, Sec. 5).  As
    r <= 1, the theta_m plan alone bounds the backward error at every offset;
    there is no early stop.  The sums are one ``np.einsum`` per step, a fixed
    order that does not depend on the BLAS thread count.  Raises
    NumericalError when a result stops being finite.
    """
    h = offsets[-1] / s
    dtype = np.result_type(b, op.vals)
    out = np.empty((offsets.size, b.size), dtype=dtype)
    if h == 0.0:        # each Taylor term past b underflows: e^{t mat} b = b
        out[:] = b
        return out
    # offset j lies in step i_j, which covers (i_j h, (i_j + 1) h]
    step = np.clip(np.ceil(offsets / h) - 1, 0, s - 1)
    terms = np.empty((m + 1, b.size), dtype=dtype)
    lo = 0
    for i in range(s):
        hi = int(np.searchsorted(step, i, side="right"))
        r = np.clip((offsets[lo:hi] - i * h) / h, 0.0, 1.0)
        if not r.size or r[-1] != 1.0:
            r = np.append(r, 1.0)       # the last row carries the step's end
        terms[0] = b
        for k in range(1, m + 1):
            np.multiply(op.matvec(terms[k - 1]), h / k, out=terms[k])
        # a complex array is summed as its interleaved real and imaginary parts
        rows = np.einsum("jk,kn->jn", np.power.outer(r, np.arange(m + 1)),
                         terms.view(float)).view(dtype)
        if not np.all(np.isfinite(rows)):
            raise NumericalError("action of the matrix exponential overflowed")
        out[lo:hi] = rows[:hi - lo]
        b = rows[-1]
        lo = hi
    return out


def _blocks(t: np.ndarray, lo: int, reach: float) -> np.ndarray:
    """Ends of the action's blocks of output times, walking t[lo:] in order.

    A block runs from the last time before it (0 for the first block) over
    the longest run of times within ``reach`` of that start, or over a single
    time when the next lies farther away; the ends are exclusive indices.
    """
    times = t.tolist()
    ends = []
    start = 0.0
    while lo < len(times):
        lo = max(bisect.bisect_right(times, start + reach), lo + 1)
        ends.append(lo)
        start = times[lo - 1]
    return np.array(ends, dtype=int)


# One action matvec costs about as much as 2^18 dense multiply-adds: at strip
# nx = ny = 16 (612 states, 3096 nonzeros) a NonzeroOperator.matvec takes
# 15-20 us, and a one-thread OpenBLAS dgemm does 2^18 multiply-adds in
# 12-15 us (numpy 2.4.6, scipy-openblas 0.3.31, 2-core x86-64 host).  Numpy
# call overhead, not arithmetic, sets this cost below a few thousand states.
_MATVEC_COST = 2 ** 18
# The call overhead of one product of the dense route on small blocks, in the
# same multiply-adds: special-case's generator stepped as its two mirror
# blocks takes 2.3 us more per eight steps than stepped whole (0.77 against
# 0.48 ms over 1000 steps), about 2^17 multiply-adds of a one-thread dgemm
# at 6e10 a second (512^3, same software on the same host).
_CALL_COST = 2 ** 17


def _dense_cost(blocks: list[np.ndarray], k: int, q: int) -> float:
    """Multiply-adds of the dense route over ``blocks`` (matrices or stacks)
    for K steps.

    Per b x b block: the six products of its Taylor polynomial, q squarings
    (those of the whole matrix's bound stand in for each block's), three
    more for (P^T)^8 when blocked (K at least the largest b), and b^2 per
    step.  Per state, the lift reads one block coordinate per block for each
    of the N entries (one copy unsplit, two for a mirror, nx + 1 for the
    modes).  Per _BLOCK steps, one product call per block array (a stack
    counts once), at _CALL_COST each.
    """
    blocked = k >= max(blk.shape[-1] for blk in blocks)
    n = sum(blk.size // blk.shape[-1] for blk in blocks)
    cost = 0.0
    for blk in blocks:
        b = float(blk.shape[-1])
        count = blk.size // blk.shape[-1] ** 2
        cost += count * ((6 + q + 3 * blocked) * b ** 3 + k * b ** 2 + k * n)
    return cost + math.ceil(k / _BLOCK) * len(blocks) * _CALL_COST


def _dense_route(mat: np.ndarray, split: Split | None, op: NonzeroOperator,
                 alphas: np.ndarray, positive: np.ndarray, matvecs: float):
    """The cheapest dense route of a uniform grid, as (split, blocks), or
    None when the action takes fewer multiply-adds.

    ``positive`` holds the grid's K equal positive gaps.  The candidates are
    mat unsplit, (None, [mat]), and with a ``split`` its blocks
    (``_linalg.blocks_of``); each costs ``_dense_cost`` at the squarings q of
    mat's bound at the mean gap (``_squarings``), and a tie keeps mat
    unsplit.  The action costs its planned ``matvecs`` times
    nnz + _MATVEC_COST.  Every count comes from the inputs alone.
    """
    k, q = positive.size, _squarings(alphas, positive.mean())
    routes = [(None, [mat])] + ([] if split is None else [(split, blocks_of(mat, split))])
    costs = [_dense_cost(blocks, k, q) for _, blocks in routes]
    best = int(np.argmin(costs))
    return routes[best] if costs[best] <= matvecs * (op.vals.size + _MATVEC_COST) else None


def _dense_flow(split: Split | None, blocks: list[np.ndarray], s: np.ndarray,
                gap: float, out: np.ndarray) -> None:
    """Fill ``out``, one row per step of ``gap``, with the states of s stepped
    by the exponentials of ``blocks`` in the coordinates of ``split``.

    One propagator per block of size b, ``taylor_expm`` of gap times the
    block (a stack takes one call per block).  s goes to block coordinates
    once (``_linalg.to_blocks``; unsplit, they are the state).  With at least
    as many steps K as the largest b, only the first _BLOCK steps are matvecs:
    every later group of _BLOCK rows of a block's coordinates is the group
    before it times (P^T)^_BLOCK, formed by three squarings; otherwise every
    step is a matvec.  The rows are stepped into buffers of _ROWS rows per
    block and each buffer is lifted into ``out`` as soon as it is full
    (``_linalg.from_blocks``; unsplit, copied), so no trajectory in block
    coordinates is kept.
    """
    props = [np.stack([taylor_expm(b * gap) for b in blk]) if blk.ndim == 3
             else taylor_expm(blk * gap) for blk in blocks]
    coords = to_blocks(s, split)
    blocked = out.shape[0] >= max(p.shape[-1] for p in props)
    if blocked:
        steps = []
        for p in props:
            step = np.swapaxes(p, -1, -2)
            for _ in range(3):
                step = step @ step
            steps.append(step.astype(out.dtype, copy=False))
    bufs = [np.empty(p.shape[:-2] + (_ROWS, p.shape[-1]), dtype=out.dtype) for p in props]
    prev = None
    for lo in range(0, out.shape[0], _ROWS):
        hi = min(lo + _ROWS, out.shape[0])
        rows = [buf[..., :hi - lo, :] for buf in bufs]
        for j in range(0, hi - lo, _BLOCK):
            m = min(_BLOCK, hi - lo - j)
            if blocked and prev is not None:
                for row, before, step in zip(rows, prev, steps):
                    np.matmul(before[..., :m, :], step, out=row[..., j:j + m, :])
            else:
                for r in range(j, j + m):
                    coords = [p @ c if p.ndim == 2 else (p @ c[..., None])[..., 0]
                              for p, c in zip(props, coords)]
                    for row, c in zip(rows, coords):
                        row[..., r, :] = c
            prev = [row[..., j:j + m, :] for row in rows]
        out[lo:hi] = from_blocks([np.swapaxes(row, -1, -2) for row in rows], split).T


def _flow(mat: np.ndarray, s: np.ndarray, t_grid: np.ndarray,
          split: Split | None = None) -> np.ndarray:
    """States e^{t mat} s at each t of an increasing grid, starting from t = 0.

    Grid points at or before t = 0 return s itself.  The positive times are
    walked in blocks (``_blocks``): a block is the longest run of times
    within one step's reach theta_55 / min_p alpha_p of its start, and one
    ``_expm_action`` call steps from the start to every time of the block.
    The power bounds alpha_p, those of mat balanced by a power-of-two
    diagonal D, and the plans of all blocks are computed once per grid; the
    backward error of each step is bounded in the balanced norm
    ||D^-1 . D||_1.  A uniform grid (two or more positive gaps, equal to a
    relative 1e-10) takes a dense route instead when ``_dense_route`` finds
    one cheaper: mat unsplit, or the blocks of ``split``, an exact split of
    mat, each stepped by the exponential of the mean gap (``_dense_flow``).
    Raises NumericalError before any step when the action's plans need more
    than ACTION_MATVEC_MAX matvecs in all (an infinite alpha_p among them),
    and when a state of either route overflows.
    """
    t = np.maximum(t_grid, 0.0)
    gaps = np.diff(t, prepend=0.0)
    positive = gaps[gaps > 0]
    i0 = t.size - positive.size
    op = NonzeroOperator(mat)
    alphas = _power_alphas(op)
    alpha = float(np.min(alphas))
    # Python float division takes a subnormal alpha to an infinite reach
    # (one block) without numpy's overflow warning
    ends = _blocks(t, i0, float(THETA[-1]) / alpha if alpha > 0 else math.inf)
    # overflow makes a plan cost inf (no finite plan) and an action or dense
    # state non-finite; both are refused, so numpy need not also warn
    with np.errstate(over="ignore", invalid="ignore"):
        degrees, matvecs = _action_plan(np.diff(t[ends - 1], prepend=0.0), alphas)
        states = np.empty((t.size, s.size), dtype=s.dtype)
        states[:i0] = s
        route = (_dense_route(mat, split, op, alphas, positive, np.sum(matvecs))
                 if positive.size >= 2 and _uniform(positive) else None)
        if route is not None:
            _dense_flow(*route, s, positive.mean(), states[i0:])
            if not np.all(np.isfinite(states)):
                raise NumericalError("dense flow of the matrix exponential overflowed")
            return states
        planned = float(np.sum(matvecs))
        if not planned <= ACTION_MATVEC_MAX:
            raise NumericalError(f"action of the matrix exponential plans {planned:.3g} "
                                 f"matvecs, more than ACTION_MATVEC_MAX = {ACTION_MATVEC_MAX}")
        lo, start = i0, 0.0
        for hi, m, steps in zip(ends.tolist(), degrees.tolist(),
                                (matvecs // degrees).astype(int).tolist()):
            states[lo:hi] = _expm_action(op, s, t[lo:hi] - start, m, steps)
            s, lo, start = states[hi - 1], hi, t[hi - 1]
        return states


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


def _boundary_velocity(states: np.ndarray, sys: BlockSystem) -> np.ndarray:
    """Lu = B2 u + y of one state or of each row of a stack of states.

    B2 acts through its nonzero columns (the Gamma1 nodes of the wave models)
    in one ``np.einsum``, a fixed order whatever the BLAS thread count.
    """
    B2 = sys.ops.B2
    cols = np.flatnonzero(np.any(B2 != 0, axis=0))
    return (np.einsum("...j,bj->...b", states[..., cols], B2[:, cols])
            + states[..., 2 * sys.n + sys.n_b:])


def energy(state: np.ndarray, sys: BlockSystem, mesh: Mesh) -> float | np.ndarray:
    """Weighted energy of a reduced state; boundary velocity recovered as Lu.

    ``state`` is one state (the energy is returned as a float) or a stack of
    states, one per row (an array with one energy per row is returned).  The
    gradient term differences u on the grid (the state of a wave or
    divergence model is every mesh node, in node order) and weighs each cell
    by ``cell_weights``.  Every sum is an ``np.einsum`` in a fixed order.
    """
    ok, why = energy_defined(sys)
    if not ok:
        raise ModelError(f"energy undefined: {why}")
    ops = sys.ops
    co = ops.coeffs
    rho0 = float(np.real(co.rho[0]))
    states = np.atleast_2d(state)
    u, v, x, _ = (block.T for block in sys.unpack(states.T))
    ldot = _boundary_velocity(states, sys)

    def weighted(w, z):
        """sum w |z|^2 over all but the first axis of z."""
        z = z.reshape(len(z), -1)
        return np.einsum("tj,j->t", (z.conj() * z).real, w.ravel())

    grid = u.reshape((-1,) + mesh.grid_shape[::-1])
    grad_sq = sum(weighted(cell_weights(mesh, axis), np.diff(grid, axis=-1 - axis) / h)
                  for axis, h in enumerate(mesh.h))
    wb = ops.bnd_weights
    if ops.neutral and ops.M is not None:
        mweight = float(np.real(co.m[0])) * wb[:, None] * shifted(ops.M, 1.0)
        m_sq = np.real(np.einsum("tb,bc,tc->t", np.conjugate(ldot), mweight, ldot))
    else:
        m_sq = weighted(np.real(co.m) * wb, ldot)
    e = 0.5 * (rho0 * grad_sq + (rho0 / co.c ** 2) * weighted(ops.state_weights, v)
               + weighted(np.real(co.k) * wb, x) + m_sq)
    return float(e[0]) if np.ndim(state) == 1 else e


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------
def _rk4_stability_dt(sys: BlockSystem, mesh: Mesh) -> float:
    if sys.ops.model_tag.startswith("biharmonic"):
        return 0.2 * min(mesh.h) ** 2
    co = sys.ops.coeffs
    c_eff = float(np.sqrt(np.max(co.a))) if co.a is not None else co.c
    return 0.25 * min(mesh.h) / c_eff


def _start(sys: BlockSystem, u0: np.ndarray, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Checked output times and the start state in the trajectory's dtype."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ConfigurationError("t_grid must be a non-empty 1D array")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0):
        raise ConfigurationError("t_grid must be strictly increasing")
    if u0.shape != (sys.state_dim,):
        raise ConfigurationError(f"state must have length {sys.state_dim}")
    dtype = complex if np.iscomplexobj(sys.Acal) or np.iscomplexobj(u0) else float
    return t_grid, u0.astype(dtype)


def simulate(sys: BlockSystem, u0: np.ndarray, t_grid, method: str = "exact",
             mesh: Mesh | None = None) -> Trajectory:
    """Evolve a reduced state over t_grid.

    ``exact`` steps between output times with the exponential (its action
    in blocks of output times, or one dense step on a uniform grid where
    that costs less, by the blocks of ``sys.split`` where those cost less
    still; see ``_flow``);
    ``rk4`` steps classically with fixed substeps below the
    stability bound (a warning is emitted when the requested grid is coarser
    than the bound).  Energies are attached whenever the model's energy
    weights are well defined and a mesh is supplied; the flux-integral
    residual is ``trajectory_consistency``'s, computed only on request.
    """
    t_grid, s = _start(sys, u0, t_grid)
    if method == "exact":
        states = _flow(sys.Acal, s, t_grid, sys.split)
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
        t_prev = 0.0
        states = np.empty((t_grid.size, sys.state_dim), dtype=s.dtype)
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
    return Trajectory(times=t_grid, states=states, energies=energies)


def trajectory_consistency(traj: Trajectory, sys: BlockSystem) -> np.ndarray:
    """Per-time residual tying the first-order trajectory back to its flux.

    The boundary displacement x must equal its flux integral: entry i is
    ||x(t_i) - x(t_0) - int_{t_0}^{t_i} Lu dt||, the integral taken by the
    trapezoid rule over the output times (0 at t_0, so a one-time grid gives
    a single 0).
    """
    n, nb = sys.n, sys.n_b
    xs = traj.states[:, 2 * n:2 * n + nb]
    ldots = _boundary_velocity(traj.states, sys)
    integral = np.zeros_like(xs)
    incr = 0.5 * np.diff(traj.times)[:, None] * (ldots[1:] + ldots[:-1])
    integral[1:] = np.cumsum(incr, axis=0)
    return np.linalg.norm(xs - xs[0] - integral, axis=1)


# ---------------------------------------------------------------------------
# Frozen-boundary comparison
# ---------------------------------------------------------------------------
def robin_comparison(sys: BlockSystem, u0: np.ndarray, t_grid) -> dict:
    """Compare the full flow against the frozen-boundary flow e^{t A1cal}.

    The first-order deviation is t * ||A2cal u0|| in the state norm, so the
    ratio ||phi - psi||/t must plateau for small t.  t_grid must lie in
    (0, 1].  Returns the report dict: the deviations and ratios per time,
    M_est, ||A2cal u0|| and the plateau and first-order-limit verdicts; the
    flows themselves are not kept.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0) or np.any(t_grid > 1.0):
        raise ConfigurationError("comparison bound is stated for t in (0, 1] only")
    t_grid, s = _start(sys, u0, t_grid)
    phi_states = _flow(sys.Acal, s, t_grid)
    psi_states = _flow(sys.A1cal, s, t_grid)

    dev_state = np.linalg.norm(phi_states - psi_states, axis=1)
    ratio = dev_state / t_grid
    m_est = float(np.max(ratio))
    a2_norm = float(np.linalg.norm(sys.A2cal @ u0))

    idx_low = int(np.argmin(np.abs(t_grid - 1e-3)))
    idx_mid = int(np.argmin(np.abs(t_grid - 1e-2)))
    r_low, r_mid = ratio[idx_low], ratio[idx_mid]
    factor_ok = bool(max(r_low, r_mid) <= 2.0 * min(r_low, r_mid) + 1e-300)
    limit_ok = bool(a2_norm == 0.0 and r_low == 0.0
                    or abs(r_low - a2_norm) <= 0.2 * max(a2_norm, 1e-300))
    return {
        "t": t_grid,
        "dev_state": dev_state,
        "ratio": ratio,
        "M_est": m_est,
        "A2u0_norm": a2_norm,
        "ratio_factor_ok": factor_ok,
        "limit_within_20pct": limit_ok,
    }
