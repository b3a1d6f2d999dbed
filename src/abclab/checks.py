"""The operator-identity checks of ``abclab verify``, stated once.

``CHECKS`` is one table of entries: a name, an applicability predicate on the
scenario flags, and a callable that runs the check on an assembled
``(mesh, system)`` pair, adding its items to a VerificationReport with the
tolerance each is judged at.  Sample points and tolerances live only here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ._linalg import checked_solve, rel_residual
from .blockops import BlockSystem
from .errors import ConfigurationError
from .mesh import Mesh
from .model import check_assumptions, neutral_form_matrix
from .reporting import VerificationReport
from .resolvent import (PencilEvaluator, block_dirichlet, dirichlet_operator,
                        factorization_check, identity_LD, pencil, pencil_via_blocks,
                        resolvent_A0_block, resolvent_Acal)
from .spectral import special_case_spectrum


class Check(NamedTuple):
    """One ``verify`` entry; ``run(mesh, sys, report)`` adds its items."""

    name: str
    applies: Callable[[dict], bool]
    run: Callable[[Mesh, BlockSystem, VerificationReport], None]


def _abb0_b2_block(mesh, sys, rep):
    resid = float(np.max(np.abs(sys.Abb0[2 * sys.n:, :sys.n] - sys.ops.B2)))
    rep.add("abb0-b2-block", resid, 1e-10,
            note="kernel restriction collapses the flux row to the trace coupling")


def _identity_ld(mesh, sys, rep):
    worst = max(identity_LD(sys, lam * lam)
                for lam in (complex(0.35 + 0.13 * j, 0.4 + 0.7 * j) for j in range(20)))
    rep.add("identity-ld", worst, 1e-10)


def _resolvent_a0_formula(mesh, sys, rep):
    worst, m1 = 0.0, 2 * sys.n + sys.n_b
    for lam in (1 + 1j, 0.6 + 1.7j):
        formula = resolvent_A0_block(sys, lam)
        dense = checked_solve(lam * np.eye(m1, dtype=complex) - sys.Abb0,
                              np.eye(m1, dtype=complex), what="(lam - Abb0)")
        worst = max(worst, rel_residual(formula, dense, reference=dense))
    rep.add("resolvent-a0-formula", worst, 1e-9)


def _block_dirichlet(mesh, sys, rep):
    worst, n = 0.0, sys.n
    for lam in (0.8 + 0.9j, 1.5 + 0.3j):
        D = dirichlet_operator(sys, lam * lam)
        blk = block_dirichlet(sys, lam)
        for resid in (sys.ops.R @ D - np.eye(sys.n_b), sys.ops.A_max @ D - lam * lam * D[:n],
                      blk[n:2 * n] - lam * blk[:n], blk[2 * n:] - (sys.ops.L @ D) / lam):
            worst = max(worst, float(np.max(np.abs(resid))))
    rep.add("block-dirichlet", worst, 1e-9)


def _pencil_two_routes(mesh, sys, rep):
    ev = PencilEvaluator(sys)
    worst = max(
        float(np.max(np.abs(pencil(ev, lam) - pencil_via_blocks(ev, lam))))
        for lam in (0.8 + 0.9j, 1.5 + 0.3j, 2.0 + 1.1j))
    rep.add("pencil-two-routes", worst, 1e-10)


def _factorization(mesh, sys, rep):
    rep.items.update(factorization_check(sys, 1 + 1j, 2.0).items)


def _resolvent_acal_formula(mesh, sys, rep):
    lam, size = 1 + 1j, sys.state_dim
    formula = resolvent_Acal(sys, lam)
    dense = checked_solve(lam * np.eye(size, dtype=complex) - sys.Acal,
                          np.eye(size, dtype=complex), what="(lam - Acal)")
    rep.add("resolvent-acal-formula", rel_residual(formula, dense, reference=dense), 1e-8)


def _special_case_resolvent(mesh, sys, rep):
    srep = special_case_spectrum(sys)
    worst = max(srep.extras["resolvent_display_residuals"].values())
    rep.add("special-case-resolvent", worst, 1e-8)


def _spectral_separation(mesh, sys, rep):
    scale = max(1.0, float(np.max(np.abs(sys.eig_A0))))
    betas = np.linalg.eigvals(sys.ops.B4)
    margin = min(float(np.min(np.abs(b * b - sys.eig_A0))) for b in betas)
    rep.add("spectral-separation", margin / scale, 1e-6, passed=margin / scale > 1e-6,
            note="min scaled distance of beta^2 to the restricted spectrum")


def _neutral_form_symmetry(mesh, sys, rep):
    F = neutral_form_matrix(sys.ops, mesh)
    resid = float(np.linalg.norm(F - F.T.conj()) / max(1.0, np.linalg.norm(F)))
    rep.add("neutral-form-symmetry", resid, 1e-10)


def _neutral_ladder(mesh, sys, rep):
    sub = check_assumptions(sys, mesh).items
    rep.items.update({name: sub[name] for name in
                      ("ladder-lambda0", "ladder-contraction", "ladder-monotone")})


def _always(flags) -> bool:
    return True


def _special_case(flags) -> bool:
    return bool(flags["b3_zero"] and flags["b1_mode"] == "minus_b4b2")


def _neutral(flags) -> bool:
    return bool(flags["neutral"])


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
    Check("neutral-form-symmetry", _neutral, _neutral_form_symmetry),
    Check("neutral-ladder", _neutral, _neutral_ladder),
)


def select_checks(flags: dict, names=None) -> list[Check]:
    """The named checks (all applicable ones for ``"all"``); refuses a name
    that is unknown or does not apply under ``flags``."""
    available = {check.name: check for check in CHECKS if check.applies(flags)}
    if names in (None, "all", ["all"]):
        return list(available.values())
    unknown = [name for name in names if name not in available]
    if unknown:
        raise ConfigurationError(f"unknown or inapplicable check(s) {unknown}; "
                                 f"available here: {sorted(available)}")
    return [available[name] for name in names]
