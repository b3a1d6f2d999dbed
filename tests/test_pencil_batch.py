"""The array API of the pencil kernel: a batch of lam against its points.

``pencil``, ``pencil_derivative``, ``characteristic_value`` and
``log_derivative`` take a scalar or a 1-D array of lam.  Each point of a
batch must match the bordered cross-check, the central difference and the
same point evaluated alone; refusals and exact roots stay per point.
Batched Newton (``pencil_roots``) is checked against the per-seed loop it
replaced, kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abclab as ab
from abclab.errors import SpectralParameterError
from abclab.resolvent import exclusion_radii, pencil_via_blocks

# divergence_sys has B4 != B3, so X1 != X2 there (on abc-1d they coincide)
SYSTEMS = ("abc1d", "special", "neutral_strip", "divergence_sys")

# Points with |re| and |im| in [0.2, 3] have |Im lam^2| >= 0.08, far from the
# real restricted spectrum, and |lam| >= 0.28, far from zero, on every system
# here: they are admissible.  A batch draws with replacement from a few such
# points, so it usually repeats some of them.
_PART = st.floats(0.2, 3.0) | st.floats(-3.0, -0.2)
_POINT = st.builds(complex, _PART, _PART)
_BATCH = st.lists(_POINT, min_size=1, max_size=12, unique=True).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=50))
# the right half plane holds no eigenvalue (every real part is <= 5.3e-7), so
# chi stays away from zero there and its value is well conditioned
_RIGHT_POINT = st.builds(complex, st.floats(0.2, 3.0), _PART)
_RIGHT_BATCH = st.lists(_RIGHT_POINT, min_size=1, max_size=12, unique=True).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=50))

PENCIL_TWO_ROUTES_TOL = 1e-10   # the verify check of the two constructions


# an abc-1d evaluator at a set radius: 0.05 in the mu plane stays below the
# 0.08 that keeps the drawn points admissible
SET_RADIUS = "abc1d-radius-0.05"


@pytest.fixture(scope="module")
def evaluators(request):
    evs = {name: ab.PencilEvaluator(request.getfixturevalue(name)[1]) for name in SYSTEMS}
    evs[SET_RADIUS] = ab.PencilEvaluator(evs["abc1d"].sys, 0.05)
    return evs


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(SYSTEMS), batch=_BATCH)
def test_batched_pencil_matches_bordered_construction(evaluators, name, batch):
    ev = evaluators[name]
    lam = np.array(batch)
    assert ev.is_admissible(lam).all()
    P = ab.pencil(ev, lam)
    assert P.shape == (lam.size, ev.sys.n_b, ev.sys.n_b)
    via_blocks = {z: pencil_via_blocks(ev, z) for z in set(batch)}
    for k, z in enumerate(batch):
        assert np.max(np.abs(P[k] - via_blocks[z])) <= PENCIL_TWO_ROUTES_TOL


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(SYSTEMS), batch=_BATCH)
def test_batched_derivative_matches_central_difference(evaluators, name, batch):
    ev = evaluators[name]
    lam = np.array(batch)
    h = 1e-6 * (1.0 + np.abs(lam))
    fd = (ab.pencil(ev, lam + h) - ab.pencil(ev, lam - h)) / (2.0 * h[:, None, None])
    dP = ab.pencil_derivative(ev, lam)
    for k in range(lam.size):
        assert np.max(np.abs(dP[k] - fd[k])) <= 1e-8 * max(1.0, float(np.max(np.abs(fd[k]))))


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(SYSTEMS), batch=_RIGHT_BATCH)
def test_point_values_do_not_depend_on_the_batch(evaluators, name, batch):
    ev = evaluators[name]
    lam = np.array(batch)
    for fn in (ab.pencil, ab.pencil_derivative, ab.characteristic_value, ab.log_derivative):
        together = fn(ev, lam)
        for k, z in enumerate(batch):
            alone = fn(ev, z)
            assert np.shape(alone) == np.shape(together[k])
            assert _rel(together[k], alone) <= 1e-13, (fn.__name__, z)
        reversed_ = fn(ev, lam[::-1])[::-1]
        assert _rel(together, reversed_) <= 1e-13, fn.__name__


@settings(max_examples=15, deadline=None)
@given(batch=_RIGHT_BATCH, where=st.integers(0, 50))
def test_exact_root_in_a_batch_is_infinite_there_only(evaluators, batch, where):
    # on special-case P(lam) = B4 = -I, so lam - P(lam) = 0 at lam = -1
    ev = evaluators["special"]
    where = min(where, len(batch))
    lam = np.array(batch[:where] + [-1.0] + batch[where:])
    logd = ab.log_derivative(ev, lam)
    assert logd[where] == complex(np.inf)
    rest = np.delete(logd, where)
    assert np.all(np.isfinite(rest))
    assert _rel(rest, ab.log_derivative(ev, np.array(batch))) <= 1e-13
    assert ab.characteristic_value(ev, lam)[where] == 0.0


def _inadmissible(ev, which, j):
    """The j-th of some points within the evaluator's zero radius (which = 0)
    or with lam^2 on the restricted spectrum (which = 1)."""
    sys = ev.sys
    if which == 0:
        return complex(exclusion_radii(sys, ev.exclusion_radius)[1] / (2 + j))
    return complex(1j * np.sqrt(-sys.eig_A0[len(sys.eig_A0) // 2 + j]))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(SYSTEMS + (SET_RADIUS,)), batch=_BATCH,
       bad=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5), st.integers(0, 50)),
                    min_size=2, max_size=4))
def test_first_refused_point_raises_the_scalar_reason(evaluators, name, batch, bad):
    ev = evaluators[name]
    points = list(batch)
    for which, j, where in bad:
        points.insert(min(where, len(points)), _inadmissible(ev, which, j))
    lam = np.array(points)
    first = int(np.argmin(ev.is_admissible(lam)))
    assert not ev.is_admissible(lam[first]) and ev.is_admissible(lam[:first]).all()
    with pytest.raises(SpectralParameterError) as scalar:
        ev.check(points[first])
    assert ev.refusals(lam)[first] == scalar.value.reason
    for fn in (lambda: ev.check(lam), lambda: ab.pencil(ev, lam),
               lambda: ab.pencil_derivative(ev, lam), lambda: ab.characteristic_value(ev, lam),
               lambda: ab.log_derivative(ev, lam)):
        with pytest.raises(SpectralParameterError) as batched:
            fn()
        assert batched.value.reason == scalar.value.reason
        # the same point is named; the distance printed after it is rounding
        # noise for a point on the restricted spectrum
        assert (str(batched.value).split(" is within")[0]
                == str(scalar.value).split(" is within")[0])


def test_scalar_is_a_batch_of_one(abc1d):
    ev = ab.PencilEvaluator(abc1d[1])
    lam = 0.8 + 0.9j
    assert ab.pencil(ev, lam).shape == (2, 2)
    assert isinstance(ab.characteristic_value(ev, lam), complex)
    assert isinstance(ab.log_derivative(ev, lam), complex)
    assert ev.is_admissible(lam) is True
    assert ev.is_admissible(np.array([lam, 0.0])).tolist() == [True, False]
    assert ab.log_derivative(ev, np.array([], dtype=complex)).shape == (0,)
    with pytest.raises(ab.DimensionError):
        ab.pencil(ev, np.full((2, 2), lam))


# ---------------------------------------------------------------------------
# Newton: the batched pencil_roots against the per-seed loop
# ---------------------------------------------------------------------------
def per_seed_roots(evaluator, seeds, tol=None, cert_tol=1e-6, max_iter=50, newton_tol=1e-10):
    """The per-seed Newton loop that batched ``pencil_roots`` replaced."""
    nb = evaluator.sys.n_b
    roots, chis, excluded, failures = [], [], [], []
    for seed in seeds:
        seed = complex(seed)
        if not evaluator.is_admissible(seed):
            excluded.append(seed)
            continue
        lam = seed
        converged = False
        for _ in range(max_iter):
            try:
                logd = ab.log_derivative(evaluator, lam)
            except SpectralParameterError:
                failures.append(f"seed {seed:.6g}: iterate left the admissible set")
                break
            if logd == 0:
                failures.append(f"seed {seed:.6g}: stationary characteristic value")
                break
            step = 1.0 / logd
            lam_new = lam - step
            if not evaluator.is_admissible(lam_new):
                failures.append(f"seed {seed:.6g}: step into the exclusion zone")
                break
            lam = lam_new
            if abs(step) <= newton_tol * (1.0 + abs(lam)):
                converged = True
                break
        if not converged:
            if not any(msg.startswith(f"seed {seed:.6g}") for msg in failures):
                failures.append(f"seed {seed:.6g}: no convergence in {max_iter} iterations")
            continue
        chi_final = abs(ab.characteristic_value(evaluator, lam))
        if chi_final > cert_tol * max(1.0, abs(lam)) ** nb:
            failures.append(
                f"seed {seed:.6g}: root {lam:.6g} failed certification "
                f"(|chi| = {chi_final:.3e})")
            continue
        dedup = tol if tol is not None else 1e-8 * (1.0 + abs(lam))
        if any(abs(lam - r) <= dedup for r in roots):
            continue
        roots.append(lam)
        chis.append(chi_final)
    order = np.lexsort((np.imag(roots), np.real(roots))) if roots else []
    return np.array(roots, dtype=complex)[order], excluded, failures


def mixed_seeds(sys, direct):
    """Admissible direct eigenvalues, the same moved off by 1e-4 and 1e-3 (a
    few Newton steps from convergence), refused seeds and far seeds, each
    admissible one twice, interleaved."""
    ev = ab.PencilEvaluator(sys)
    good = direct.eigenvalues[direct.admissible_mask(ev)][::3]
    seeds = []
    for k, lam in enumerate(good):
        far = 0.5 + 1.5j * (k + 1)
        seeds += [lam, lam + 1e-4, _inadmissible(ev, k % 2, k % 5), far, lam + 1e-3j,
                  lam, far, lam + 1e-4]
    return seeds


@pytest.mark.parametrize("name", ["abc1d", "special"])
@pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 50])
def test_batched_newton_keeps_the_per_seed_record(request, name, max_iter):
    _, sys = request.getfixturevalue(name)
    ev = ab.PencilEvaluator(sys)
    seeds = mixed_seeds(sys, ab.direct_spectrum(ev))
    if name == "special":
        seeds = [-1.0] + seeds + [-1.0]
    ref_roots, ref_excluded, ref_failures = per_seed_roots(ev, seeds, max_iter=max_iter)
    rep = ab.pencil_roots(ev, seeds, max_iter=max_iter)
    assert rep.gamma_excluded == ref_excluded
    assert rep.extras["failures"] == ref_failures
    assert rep.eigenvalues.shape == ref_roots.shape
    for root in ref_roots:
        assert np.min(np.abs(rep.eigenvalues - root)) <= 1e-14 * abs(root)
    if max_iter == 1:
        assert any("no convergence in 1 iterations" in msg for msg in ref_failures)
    if name == "special":
        assert -1.0 in rep.eigenvalues.tolist()


def test_batched_newton_keeps_certification_failures(special):
    # P = -I on special-case, so chi = (lam + 1)^2 exactly and Newton halves
    # lam + 1 per step: a seed near -1 stops at |lam + 1| ~ 1e-10, whose
    # |chi| ~ 1e-20 fails a 1e-25 certification; the exact root -1 passes
    ev = ab.PencilEvaluator(special[1])
    seeds = [-0.9999, -1.0, -0.999 + 1e-3j, -0.9999, -1.0]
    ref_roots, ref_excluded, ref_failures = per_seed_roots(ev, seeds, cert_tol=1e-25)
    rep = ab.pencil_roots(ev, seeds, cert_tol=1e-25)
    assert len(ref_failures) == 3 and all("failed certification" in f for f in ref_failures)
    assert rep.extras["failures"] == ref_failures
    assert rep.eigenvalues.tolist() == ref_roots.tolist() == [-1.0]
