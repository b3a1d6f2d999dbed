"""Spectra of the coupled generator: direct, pencil-based and characterized.

The dense eigensolve of the assembled generator is always the oracle of
record.  The boundary pencil provides the independent route: off the
restricted spectrum, lam is an eigenvalue of the coupled generator exactly
when det(lam - P(lam)) = 0, so Newton iteration on that characteristic
function and argument-principle winding counts must reproduce the direct
eigenvalues.  ``characteristic_value`` and ``log_derivative`` take a scalar
or a 1-D array of lam, like ``pencil``, and every lam-loop here is one such
batched call per step: the classification of all direct eigenvalues, the
four edges of a winding box, and the live seeds of one Newton iteration
(each seed keeps its own exclusion, failure and certification record).
Essential-spectrum statements survive only as refinement
trends in finite dimensions and are reported as such, never as point values.

Every dense eigensolve here goes through ``_linalg`` and takes the largest
exact split the system stores: the cosine modes along x of a strip whose
coefficients are constant along x (``sys.modes``, nx + 1 small blocks), else
the mirror x -> L - x (``sys.mirror``, two half-size blocks), else none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (eig_residuals, eigvals, rel_norm, restrict_mirror, restrict_modes,
                      shifted, shifted_inverse)
from .blockops import BlockSystem, reduced_dofs, reduced_generator
from .errors import AssumptionError, ConfigurationError, NumericalError, SpectralParameterError
from .resolvent import (PencilEvaluator, _a0_block_resolvent, _r2, dirichlet_operator, pencil,
                        pencil_derivative)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 fallback


@dataclass
class SpectrumReport:
    """Eigenvalues with classification, certification residuals and exclusions."""

    eigenvalues: np.ndarray
    classification: list[str]
    residuals: np.ndarray
    gamma_excluded: list[complex] = field(default_factory=list)
    method: str = ""
    extras: dict = field(default_factory=dict)

    def admissible_mask(self, evaluator: PencilEvaluator) -> np.ndarray:
        return evaluator.is_admissible(self.eigenvalues)


# Row order of direct spectra: values rounded to multiples of this fraction of
# 1 + max |lam|, the relative scale at which the largest direct eigenvalue is
# matched to a pencil root.
ORDER_TOL = 1e-6


def canonical_order(vals: np.ndarray) -> np.ndarray:
    """Indices sorting ``vals`` by real part, then |imag|, each rounded to a
    multiple of q = ORDER_TOL (1 + max |lam|); a conjugate pair puts its
    negative imaginary part first, and the exact values only break the ties
    that remain.

    One q for the whole spectrum keeps the rounded keys comparable.  The
    order then does not depend on the last digits, which move with the BLAS
    thread count and with the mirror split, unless a value sits within that
    drift of a rounding boundary.
    """
    quantum = ORDER_TOL * (1.0 + float(np.max(np.abs(vals), initial=0.0)))
    re, im = np.rint(vals.real / quantum), np.rint(np.abs(vals.imag) / quantum)
    return np.lexsort((vals.imag, vals.real, np.sign(vals.imag), im, re))


def direct_spectrum(evaluator: PencilEvaluator | BlockSystem) -> SpectrumReport:
    """Brute-force dense eigendecomposition of Acal with per-pair residuals.

    A strip that separates by cosine modes (``sys.modes`` set: its
    coefficients are equal bit for bit along x) is eigensolved through the
    nx + 1 diagonal blocks of T^-1 Acal T, T the DCT-I vectors along x, in
    one stacked eigensolve (``_linalg.mode_blocks``); any other
    mirror-invariant Acal (``sys.mirror`` set) through its even and odd
    blocks (``_linalg.eig``).  Both are exact similarities, and each
    residual ||Acal x - lam x|| / ||x|| is still taken against the full
    Acal, so the certification does not rest on the split.
    ``_linalg.eig_residuals`` does both and keeps no spare state-size array:
    the peak is about 2.2 N^2 complex entries on the strip (N the state
    dimension), on either split.  Rows come
    in ``canonical_order``.  Eigenvalues the evaluator refuses are
    classified by the failed test (``zero-mode`` or ``a0-branch``), so
    ``pencil-root`` and ``b4-branch`` rows are exactly its admissible ones; a
    bare system gets the default radii.
    """
    if isinstance(evaluator, BlockSystem):
        evaluator = PencilEvaluator(evaluator)
    sys = evaluator.sys
    vals, resid = eig_residuals(sys.Acal, sys.mirror, sys.modes)
    order = canonical_order(vals)
    vals, resid = vals[order], resid[order]
    eig_b4 = np.linalg.eigvals(sys.ops.B4)
    refusal = evaluator.refusals(vals)
    near_b4 = (np.min(np.abs(vals[:, None] - eig_b4), axis=1) <= 1e-6 * (1.0 + np.abs(vals))
               if eig_b4.size else np.zeros(vals.size, dtype=bool))
    cls = np.select([refusal == "near-zero", refusal != "", near_b4],
                    ["zero-mode", "a0-branch", "b4-branch"], "pencil-root").tolist()
    return SpectrumReport(
        eigenvalues=vals, classification=cls, residuals=resid,
        method="direct",
    )


# ---------------------------------------------------------------------------
# Characteristic function, Newton roots and their match with direct eigenvalues
# ---------------------------------------------------------------------------
def characteristic_value(evaluator: PencilEvaluator, lam):
    """det(lam I - P(lam)); zero exactly at admissible coupled eigenvalues.

    A complex for a scalar lam, a complex array for a 1-D array.
    """
    lam_b = np.atleast_1d(lam)
    chi = np.linalg.det(shifted(pencil(evaluator, lam_b), lam_b)).astype(complex)
    return chi if np.ndim(lam) else complex(chi[0])


def _trace_of_quotient(pcl: np.ndarray, rhs: np.ndarray):
    """tr(pcl^-1 rhs) for one matrix pair or a stack; inf where pcl is exactly
    singular, found point by point when the stacked solve refuses."""
    try:
        return np.trace(np.linalg.solve(pcl, rhs), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        if pcl.ndim == 2:
            return complex(np.inf)
        return np.array([_trace_of_quotient(a, b) for a, b in zip(pcl, rhs)])


def log_derivative(evaluator: PencilEvaluator, lam):
    """chi'(lam)/chi(lam) = tr((lam - P(lam))^-1 (I - P'(lam))), in closed form.

    Infinite where lam - P(lam) is exactly singular, i.e. at a root.  A
    complex for a scalar lam, a complex array for a 1-D array: one stacked
    solve for the whole batch.
    """
    lam_b = np.atleast_1d(lam)
    pcl = shifted(pencil(evaluator, lam_b), lam_b)
    rhs = shifted(pencil_derivative(evaluator, lam_b), 1.0)     # I - P'(lam)
    quotient = np.asarray(_trace_of_quotient(pcl, rhs), dtype=complex)
    return quotient if np.ndim(lam) else complex(quotient[0])


def pencil_roots(evaluator: PencilEvaluator, seeds, tol: float | None = None,
                 cert_tol: float = 1e-6, max_iter: int = 50,
                 newton_tol: float = 1e-10) -> SpectrumReport:
    """Newton iteration on the characteristic function from the given seeds.

    The Newton step chi/chi' is the reciprocal of ``log_derivative``; all
    live seeds take their step in one batched evaluation.  Every iterate is
    checked before it is accepted, so the evaluation never refuses one.
    Converged roots are deduplicated in seed order at distance ``tol``
    (default 1e-8*(1+|lam|)) and certified by the characteristic-value
    threshold cert_tol * max(1, |lam|)^n_b.  Inadmissible seeds are listed in
    gamma_excluded; per-seed non-convergence is recorded, not fatal.
    """
    nb = evaluator.sys.n_b
    seeds = np.fromiter(map(complex, seeds), dtype=complex)
    admissible = evaluator.is_admissible(seeds)
    lam = seeds.copy()
    stopped = [""] * seeds.size       # why a seed stopped before converging
    converged = np.zeros(seeds.size, dtype=bool)
    live = np.flatnonzero(admissible)
    for _ in range(max_iter):
        if not live.size:
            break
        logd = log_derivative(evaluator, lam[live])
        for i in live[logd == 0]:
            stopped[i] = "stationary characteristic value"
        live, logd = live[logd != 0], logd[logd != 0]
        step = 1.0 / logd
        lam_new = lam[live] - step
        inside = evaluator.is_admissible(lam_new)
        for i in live[~inside]:
            stopped[i] = "step into the exclusion zone"
        live, step, lam_new = live[inside], step[inside], lam_new[inside]
        lam[live] = lam_new
        done = np.abs(step) <= newton_tol * (1.0 + np.abs(lam_new))
        converged[live[done]] = True
        live = live[~done]

    chi = np.zeros(seeds.size)
    chi[converged] = np.abs(characteristic_value(evaluator, lam[converged]))
    bound = cert_tol * np.maximum(1.0, np.abs(lam)) ** nb
    roots: list[complex] = []
    chis: list[float] = []
    failures: list[str] = []
    for i in np.flatnonzero(admissible):
        seed, root = complex(seeds[i]), complex(lam[i])
        if stopped[i]:
            failures.append(f"seed {seed:.6g}: {stopped[i]}")
        elif not converged[i]:
            if not any(msg.startswith(f"seed {seed:.6g}") for msg in failures):
                failures.append(f"seed {seed:.6g}: no convergence in {max_iter} iterations")
        elif chi[i] > bound[i]:
            failures.append(
                f"seed {seed:.6g}: root {root:.6g} failed certification "
                f"(|chi| = {chi[i]:.3e})")
        else:
            dedup = tol if tol is not None else 1e-8 * (1.0 + abs(root))
            if not any(abs(root - r) <= dedup for r in roots):
                roots.append(root)
                chis.append(float(chi[i]))

    vals = np.array(roots, dtype=complex)
    order = np.lexsort((vals.imag, vals.real)) if vals.size else []
    vals = vals[order] if vals.size else vals
    chis_arr = np.array(chis)[order] if vals.size else np.array([])
    return SpectrumReport(
        eigenvalues=vals,
        classification=["pencil-root"] * vals.size,
        residuals=chis_arr,
        gamma_excluded=seeds[~admissible].tolist(),
        method="pencil-newton",
        extras={"failures": failures},
    )


@dataclass(frozen=True)
class SpectrumMatch:
    """Nearest-neighbour matching of admissible eigenvalues and pencil roots.

    Distances are relative to 1 + |own value|, inf when the other set is empty,
    and match at most ``tol``; a multiple eigenvalue gives one shared root.
    """

    pairs: list              # (seed, nearest root, distance) per seed, if any root
    seed_distance: np.ndarray
    root_distance: np.ndarray
    tol: float

    @property
    def covered(self) -> bool:
        return bool(np.all(self.seed_distance <= self.tol))

    @property
    def unmatched(self) -> int:
        return int(np.sum(self.seed_distance > self.tol)
                   + np.sum(self.root_distance > self.tol))

    @property
    def worst(self) -> float:
        return max((dist for *_, dist in self.pairs), default=0.0)


def match_spectra(seeds: np.ndarray, roots: np.ndarray, tol: float) -> SpectrumMatch:
    """Match admissible direct eigenvalues (``seeds``) and pencil roots both ways."""
    pairs, seed_dist = [], []
    for lam in seeds:
        if not roots.size:
            seed_dist.append(np.inf)
            continue
        dist = np.abs(roots - lam)
        i = int(np.argmin(dist))
        seed_dist.append(float(dist[i]) / (1.0 + abs(lam)))
        pairs.append((lam, roots[i], seed_dist[-1]))
    root_dist = [float(np.min(np.abs(seeds - root))) / (1.0 + abs(root))
                 if seeds.size else np.inf for root in roots]
    return SpectrumMatch(pairs, np.array(seed_dist), np.array(root_dist), tol)


def count_roots_in_box(evaluator: PencilEvaluator, box, n_quad: int) -> int:
    """Winding number of the characteristic function around a rectangle.

    ``box`` is (re_min, re_max, im_min, im_max); ``log_derivative`` is
    integrated along the boundary with ``n_quad`` trapezoid panels per edge,
    all four edges evaluated in one batch.
    The rounded winding estimate must sit within 0.2 of an integer, otherwise
    the count is inconclusive and a finer n_quad is required.  The contour
    must stay admissible and must not pass through a root.
    """
    re0, re1, im0, im1 = box
    if not (re1 > re0 and im1 > im0):
        raise ConfigurationError(f"degenerate box {box}")
    starts = np.array([re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1])
    sides = np.roll(starts, -1) - starts
    pts = starts[:, None] + sides[:, None] * np.linspace(0.0, 1.0, n_quad + 1)
    try:
        vals = log_derivative(evaluator, pts.ravel()).reshape(pts.shape)
    except SpectralParameterError as exc:
        raise SpectralParameterError(
            exc.reason, f"box boundary intersects the exclusion zone: {exc}")
    if not np.all(np.isfinite(vals)):
        raise NumericalError("box boundary passes through a root")
    total = np.sum(_trapezoid(vals, dx=1.0 / n_quad, axis=1) * sides)
    winding = total / (2.0j * np.pi)
    estimate = float(np.real(winding))
    rounded = int(round(estimate))
    if abs(estimate - rounded) > 0.2:
        raise NumericalError(
            f"inconclusive winding count {estimate:.4f} (gap "
            f"{abs(estimate - rounded):.3f} > 0.2); refine n_quad")
    return rounded


# ---------------------------------------------------------------------------
# Special-case characterization (no spring coupling, matched feedback)
# ---------------------------------------------------------------------------
def beta_separation(sys: BlockSystem, betas: np.ndarray) -> tuple[float, complex]:
    """The spectral-separation margin min_beta min |beta^2 - eig_A0| over the
    eigenvalues ``betas`` of B4, and the beta that attains it."""
    dists = [float(np.min(np.abs(beta * beta - sys.eig_A0))) for beta in betas]
    i = int(np.argmin(dists))
    return dists[i], complex(betas[i])


def special_case_spectrum(sys: BlockSystem, tol: float = 1e-6) -> SpectrumReport:
    """Point spectrum for B3 = 0, B1 = -B4 B2: square roots of the restricted
    spectrum joined with the spectrum of B4.

    Requires the spectral-separation condition: no eigenvalue beta of B4 may
    have beta^2 within ``tol``-scaled distance of the restricted spectrum.
    Additionally validates the block-triangular resolvent display against a
    dense inverse at three sample points (residuals in ``extras``).
    """
    ops = sys.ops
    b3 = float(np.max(np.abs(ops.B3))) if ops.B3.size else 0.0
    if b3 > 1e-12:
        raise AssumptionError(
            "B3=0", f"special-case spectrum requires the spring coupling to vanish "
                    f"(max |B3| = {b3:.3e})")
    b1res = float(np.max(np.abs(ops.B1 + ops.B4 @ ops.B2)))
    if b1res > 1e-12:
        raise AssumptionError(
            "B1=-B4B2", "special-case spectrum requires the matched feedback "
                        f"B1 = -B4 B2 (entrywise residual {b1res:.3e})")

    eig_b4 = np.linalg.eigvals(ops.B4)
    margin, beta = beta_separation(sys, eig_b4)
    if margin <= tol * max(1.0, sys.spectral_scale):
        raise AssumptionError(
            "spectral-separation",
            f"eigenvalue beta={beta:.6g} of B4 has beta^2 within {margin:.3e} of "
            "the restricted spectrum; branch collision, characterization void")

    vals, cls = [], []
    for mu in sys.eig_A0:
        root = np.sqrt(complex(mu))
        vals.extend([root, -root])
        cls.extend(["a0-branch", "a0-branch"])
    vals.extend(eig_b4.tolist())
    cls.extend(["b4-branch"] * eig_b4.size)
    vals = np.array(vals, dtype=complex)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    cls = [cls[i] for i in order]

    # validate the block-triangular resolvent display at three sample points
    red = reduced_generator(sys)
    keep = reduced_dofs(sys)
    red_mirror, red_modes = restrict_mirror(sys.mirror, keep), restrict_modes(sys.modes, keep)
    n = sys.n
    residuals = {}
    for lam in (0.7 + 0.9j, 1.3 + 0.4j, 2.1 + 1.7j):
        # dense first, and each pair dropped before the next: past the dense
        # inverse's own peak, the pair and the reduced generator are live
        dense = shifted_inverse(red, lam, "(lam - reduced)", mirror=red_mirror, modes=red_modes)
        RB4 = shifted_inverse(ops.B4, lam, "(lam - B4)")
        Dn = dirichlet_operator(sys, lam * lam)[:n]
        # the (u, v) blocks are those of the restricted block resolvent
        display = _a0_block_resolvent(sys, lam, _r2(sys, lam))
        display[2 * n:, :2 * n] = 0.0
        display[:n, 2 * n:] = Dn @ RB4
        display[n:2 * n, 2 * n:] = lam * Dn @ RB4
        display[2 * n:, 2 * n:] = RB4
        display -= dense
        residuals[f"{lam}"] = rel_norm(display, dense)
        del dense, display

    return SpectrumReport(
        eigenvalues=vals, classification=cls,
        residuals=np.zeros(vals.size),
        method="special-case",
        extras={"resolvent_display_residuals": residuals},
    )


def essential_range(values: np.ndarray, weights: np.ndarray) -> list[tuple[float, float]]:
    """Distinct values carrying positive aggregated weight.

    Exact for piecewise-constant data; values closer than 1e-12 (scaled) are
    merged.  Returns (value, measure) pairs sorted by value.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ConfigurationError("field and weights must have the same length")
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    out: list[list[float]] = []
    for v, w in sorted(zip(values, weights)):
        if out and abs(v - out[-1][0]) <= 1e-12 * scale:
            out[-1][1] += w
        else:
            out.append([v, w])
    return [(v, w) for v, w in out if w > 0]


# ---------------------------------------------------------------------------
# Refinement proxies
# ---------------------------------------------------------------------------
def essential_spectrum_proxy(systems, epsilon: float) -> dict:
    """Eigenvalue accumulation near the essential range of -d/m on the strip.

    ``systems`` yields (mesh, system) pairs, one per refinement of the Gamma1
    resolution, and is read in order.  Per refinement, counts reduced-generator
    eigenvalues within ``epsilon`` of the essential range and reports whether
    the counts are nondecreasing.  A genuine essential spectrum does not exist
    in finite dimensions; only the trend is meaningful, and the report says so.
    Interval models get the finite-boundary answer instead of counts; strip
    systems are always wave or divergence models (the only strip assembly).
    The eigenvalues come from ``_linalg.eigvals``, through an exact
    similarity that keeps the spectrum: on a strip that separates by cosine
    modes (``sys.modes`` set, as on both shipped strips) the reduced
    generator's nx + 1 mode blocks, with ``sys.modes`` restricted to
    (u, v, y) (``_linalg.restrict_modes``); else, on a mirror-exact strip,
    its even and odd parts under ``sys.mirror`` restricted the same way.
    """
    rows = []
    ess_vals = None
    for mesh, sys in systems:
        if mesh.kind == "interval":
            return {
                "geometry": "interval",
                "counts": None,
                "note": ("finite-dimensional boundary space: empty essential spectrum "
                         "expected; the coupled generator has discrete spectrum only "
                         "(see the compact-resolvent diagnostic)"),
            }
        if np.max(np.abs(sys.ops.B3)) > 1e-12:
            raise ConfigurationError("essential-spectrum proxy requires B3 = 0 (k = 0)")
        rng = essential_range(np.real(np.diag(sys.ops.B4)), sys.ops.bnd_weights)
        ess_vals = [v for v, _ in rng]
        keep = reduced_dofs(sys)
        vals = eigvals(reduced_generator(sys), restrict_mirror(sys.mirror, keep),
                       restrict_modes(sys.modes, keep))
        count = int(np.sum([
            np.min([abs(l - v) for v in ess_vals]) <= epsilon for l in vals]))
        rows.append({"nx": mesh.grid_shape[0] - 1, "n_b": sys.n_b, "count": count})
    counts = [r["count"] for r in rows]
    return {
        "geometry": "strip",
        "epsilon": epsilon,
        "essential_values": ess_vals,
        "refinements": rows,
        "nondecreasing": all(b >= a for a, b in zip(counts, counts[1:])),
        "note": ("finite truncation: accumulation trend only, not a point "
                 "spectrum statement"),
    }


def compact_resolvent_diagnostic(systems) -> dict:
    """Eigenvalue stability under 1D refinement plus unbounded growth.

    ``systems`` is a sequence of (mesh, system) pairs on refined intervals.
    For each fixed k the k-th smallest-|lam| eigenvalue must stabilize while
    the spectral radius grows like the stencil stiffness: the discrete
    signature of a compact resolvent / purely discrete spectrum.  Each
    refinement's eigenvalues come from ``_linalg.eigvals``: when Acal
    commutes exactly with the mirror x -> L - x (``sys.mirror`` set, as on
    both shipped intervals), its even and odd parts, of about half the size
    each, are eigensolved instead of Acal; the similarity between them is
    exact, so only rounding differs.
    """
    spectra = []
    sizes = []
    zero_counts = []
    for mesh, sys in systems:
        if mesh.kind != "interval":
            raise ConfigurationError("compact-resolvent diagnostic expects 1D models")
        vals = eigvals(sys.Acal, sys.mirror)
        # rigid drift modes sit numerically at zero and carry no convergence
        # information; track them separately
        zero_tol = 1e-6 * max(1.0, float(np.max(np.abs(vals))))
        zero_counts.append(int(np.sum(np.abs(vals) <= zero_tol)))
        vals = vals[np.abs(vals) > zero_tol]
        order = np.lexsort((vals.imag, vals.real, np.abs(vals)))
        spectra.append(vals[order])
        sizes.append(mesh.grid_shape[0] - 1)

    k_max = min(10, min(s.size for s in spectra))
    table = []
    for k in range(k_max):
        entry = {"k": k, "abs_lambda": [float(abs(s[k])) for s in spectra]}
        entry["relative_change"] = [
            abs(spectra[i + 1][k] - spectra[i][k]) / max(1e-300, abs(spectra[i][k]))
            for i in range(len(spectra) - 1)
        ]
        table.append(entry)
    max_eig = [float(np.max(np.abs(s))) for s in spectra]
    growth = [max_eig[i + 1] / max_eig[i] for i in range(len(max_eig) - 1)]
    # |lam|^2 is the top interior frequency and tracks the stencil stiffness
    growth_sq = [g * g for g in growth]
    return {
        "resolutions": sizes,
        "per_k": table,
        "zero_modes": zero_counts,
        "max_eig": max_eig,
        "max_eig_growth_ratio": growth,
        "max_eig_squared_growth_ratio": growth_sq,
        "note": ("stabilizing low modes with unbounded spectral radius indicate "
                 "purely discrete spectrum under refinement"),
    }
