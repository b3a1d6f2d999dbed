"""The operator-identity checks of ``abclab verify``, stated once.

``CHECKS`` is one table of entries: a name, an applicability predicate on the
scenario flags and the assembled system, and a callable that runs the check
on one ``Run`` (an assembled ``(mesh, system)`` pair and what the checks of
one run share), adding its items to a VerificationReport with the tolerance
each is judged at.  The library functions a check calls return numbers; the
sample points, tolerances and verdicts of every item live only here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ._linalg import rel_norm, restrict, shifted_inverse
from .blockops import BlockSystem
from .errors import ConfigurationError
from .mesh import Mesh
from .model import check_assumptions, constant_rho_m, neutral_form_matrix
from .reporting import VerificationReport
from .resolvent import (BlockPieces, dirichlet_operator, factorization_check, identity_LD,
                        pencil, pencil_via_blocks, resolvent_A0_block, resolvent_Acal)
from .spectral import beta_separation, special_case_spectrum

# the sample point of the factorization, where resolvent-a0-formula and
# resolvent-acal-formula evaluate too
SHARED_LAM = 1 + 1j


class Run:
    """One ``verify`` run: the assembled mesh and system, and the BlockPieces
    at SHARED_LAM its checks share (R2, the block lift and the system's
    PencilEvaluator, each formed on first use), dropped with the run."""

    def __init__(self, mesh: Mesh, sys: BlockSystem):
        self.mesh, self.sys = mesh, sys
        self.pieces = BlockPieces(sys, SHARED_LAM)


class Check(NamedTuple):
    """One ``verify`` entry; ``run(run, report)`` adds its items."""

    name: str
    applies: Callable[[dict, BlockSystem], bool]
    run: Callable[[Run, VerificationReport], None]


def _abb0_b2_block(run, rep):
    sys = run.sys
    resid = float(np.max(np.abs(sys.Abb0[2 * sys.n:, :sys.n] - sys.ops.B2)))
    rep.add("abb0-b2-block", resid, 1e-10,
            note="kernel restriction collapses the flux row to the trace coupling")


def _identity_ld(run, rep):
    worst = max(identity_LD(run.sys, lam * lam)
                for lam in (complex(0.35 + 0.13 * j, 0.4 + 0.7 * j) for j in range(20)))
    rep.add("identity-ld", worst, 1e-10)


def _resolvent_a0_formula(run, rep):
    sys, worst = run.sys, 0.0
    # Abb0 is Acal on (u, v, x), which the mirror maps onto itself and
    # every column holds
    split = restrict(sys.split, np.arange(len(sys.Abb0)))
    for lam, pieces in ((SHARED_LAM, run.pieces), (0.6 + 1.7j, None)):
        # dense first, and each pair dropped before the next: the dense
        # inverse, the formula (overwritten by the difference) and one
        # working array at most are live
        dense = shifted_inverse(sys.Abb0, lam, "(lam - Abb0)", split)
        formula = resolvent_A0_block(sys, lam, pieces)
        formula -= dense
        worst = max(worst, rel_norm(formula, dense))
        del formula, dense
    rep.add("resolvent-a0-formula", worst, 1e-9)


def _block_dirichlet(run, rep):
    sys, worst, n = run.sys, 0.0, run.sys.n
    for lam in (0.8 + 0.9j, 1.5 + 0.3j):
        D = dirichlet_operator(sys, lam * lam)
        # the block rows lam D_n and L D / lam are formed from this D
        for resid in (sys.ops.R @ D - np.eye(sys.n_b), sys.ops.A_max @ D - lam * lam * D[:n]):
            worst = max(worst, float(np.max(np.abs(resid))))
    rep.add("block-dirichlet", worst, 1e-9)


def _pencil_two_routes(run, rep):
    ev = run.pieces.evaluator
    worst = max(
        float(np.max(np.abs(pencil(ev, lam) - pencil_via_blocks(ev, lam))))
        for lam in (0.8 + 0.9j, 1.5 + 0.3j, 2.0 + 1.1j))
    rep.add("pencil-two-routes", worst, 1e-10)


def _factorization(run, rep):
    residuals = factorization_check(run.sys, SHARED_LAM, 2.0, run.pieces)
    for name, resid in zip(("factorization", "factorization-shifted", "lm-product"), residuals):
        rep.add(name, resid, 1e-8)


def _resolvent_acal_formula(run, rep):
    sys, lam = run.sys, SHARED_LAM
    dense = shifted_inverse(sys.Acal, lam, "(lam - Acal)", sys.split)
    formula = resolvent_Acal(sys, lam, run.pieces)
    formula -= dense
    rep.add("resolvent-acal-formula", rel_norm(formula, dense), 1e-8)


def _special_case_resolvent(run, rep):
    srep = special_case_spectrum(run.sys)
    worst = max(srep.extras["resolvent_display_residuals"].values())
    rep.add("special-case-resolvent", worst, 1e-8)


def _spectral_separation(run, rep):
    sys = run.sys
    scale = max(1.0, sys.spectral_scale)
    margin, _ = beta_separation(sys, np.linalg.eigvals(sys.ops.B4))
    rep.add("spectral-separation", margin / scale, 1e-6, passed=margin / scale > 1e-6,
            note="min scaled distance of beta^2 to the restricted spectrum")


def _neutral_form_symmetry(run, rep):
    F = neutral_form_matrix(run.sys.ops, run.mesh)
    resid = float(np.linalg.norm(F - F.T.conj()) / max(1.0, np.linalg.norm(F)))
    rep.add("neutral-form-symmetry", resid, 1e-10)


def _neutral_ladder(run, rep):
    lam0, contraction, worst_ratio = check_assumptions(run.sys)
    rep.add("ladder-lambda0", lam0, float(2 ** 16), passed=np.isfinite(lam0),
            note="smallest dyadic lambda with ||B2' D_lambda^{A,L}|| < 1")
    rep.add("ladder-contraction", contraction, 1.0, passed=contraction < 1.0)
    rep.add("ladder-monotone", worst_ratio, 1.0 + 1e-10,
            note="max ratio ||D_{2 lambda}|| / ||D_lambda|| along the ladder")


def _always(flags, sys) -> bool:
    return True


def _special_case(flags, sys) -> bool:
    return bool(flags["b3_zero"] and flags["b1_mode"] == "minus_b4b2")


def _neutral(flags, sys) -> bool:
    return bool(flags["neutral"])


def _neutral_form(flags, sys) -> bool:
    # the form exists for constant rho and m only
    return _neutral(flags, sys) and constant_rho_m(sys.ops.coeffs)


CHECKS = (
    Check("abb0-b2-block", _always, _abb0_b2_block),
    Check("identity-ld", _always, _identity_ld),
    Check("resolvent-a0-formula", _always, _resolvent_a0_formula),
    Check("block-dirichlet", _always, _block_dirichlet),
    Check("pencil-two-routes", _always, _pencil_two_routes),
    Check("factorization", _always, _factorization),
    Check("resolvent-acal-formula", _always, _resolvent_acal_formula),
    Check("special-case-resolvent", _special_case, _special_case_resolvent),
    Check("spectral-separation", _special_case, _spectral_separation),
    Check("neutral-form-symmetry", _neutral_form, _neutral_form_symmetry),
    Check("neutral-ladder", _neutral, _neutral_ladder),
)


def select_checks(flags: dict, sys: BlockSystem, names=None) -> list[Check]:
    """The named checks (all applicable ones for ``"all"``); refuses a name
    that is repeated, unknown or does not apply under ``flags`` to ``sys``."""
    available = {check.name: check for check in CHECKS if check.applies(flags, sys)}
    if names in (None, "all", ["all"]):
        return list(available.values())
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"check(s) named more than once: {repeated}")
    unknown = [name for name in names if name not in available]
    if unknown:
        raise ConfigurationError(f"unknown or inapplicable check(s) {unknown}; "
                                 f"available here: {sorted(available)}")
    return [available[name] for name in names]


def run_checks(checks, mesh: Mesh, sys: BlockSystem, report: VerificationReport) -> None:
    """Run ``checks`` in order on one ``Run`` of (mesh, sys), adding their
    items to ``report``."""
    run = Run(mesh, sys)
    for check in checks:
        check.run(run, report)
