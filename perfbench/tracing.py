"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public functions of each abclab module, and the
numpy.linalg entry points abclab calls, in spans.  Every module namespace that
binds a wrapped function object is patched (``pencil`` is bound in
``resolvent``, ``spectral``, ``cli`` and the package itself), and everything is
restored on exit.  Spans nest on one stack, so each span's self time is its
duration minus the time of the spans it caused.  Times are integer
nanoseconds, so self times are never negative.

The span table maps functions to layer names; :func:`layer_metrics` turns one
traced pass into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> span name.  Several functions may share a span.
SPANS = {
    ("abclab.scenario", "load_config"): "scenario.load_config",
    ("abclab.scenario", "build_system"): "scenario.build_system",
    ("abclab.scenario", "initial_state_from_config"): "scenario.initial_state",
    ("abclab.mesh", "build_interval_mesh"): "mesh.build",
    ("abclab.mesh", "build_strip_mesh"): "mesh.build",
    ("abclab.model", "sample_coefficients"): "model.assemble",
    ("abclab.model", "assemble_wave_operator"): "model.assemble",
    ("abclab.model", "assemble_biharmonic_operator"): "model.assemble",
    ("abclab.model", "default_boundary_laplacian"): "model.assemble",
    ("abclab.model", "apply_neutral_transform"): "model.assemble",
    ("abclab.model", "check_assumptions"): "model.check_assumptions",
    ("abclab.blockops", "assemble_block_generator"): "blockops.assemble",
    ("abclab.resolvent", "pencil"): "resolvent.pencil",
    ("abclab.resolvent", "pencil_via_blocks"): "resolvent.pencil",
    ("abclab.resolvent", "dirichlet_operator"): "resolvent.dirichlet",
    ("abclab.resolvent", "block_dirichlet"): "resolvent.blocks",
    ("abclab.resolvent", "resolvent_A0_block"): "resolvent.blocks",
    ("abclab.resolvent", "resolvent_Acal"): "resolvent.blocks",
    ("abclab.resolvent", "factorization_check"): "resolvent.blocks",
    ("abclab.resolvent", "identity_LD"): "resolvent.blocks",
    ("abclab._linalg", "checked_solve"): "linalg.checked_solve",
    ("abclab.spectral", "direct_spectrum"): "spectral.direct",
    ("abclab.spectral", "pencil_roots"): "spectral.newton",
    ("abclab.spectral", "count_roots_in_box"): "spectral.winding",
    ("abclab.spectral", "special_case_spectrum"): "spectral.special",
    ("abclab.spectral", "essential_spectrum_proxy"): "spectral.proxy",
    ("abclab.spectral", "compact_resolvent_diagnostic"): "spectral.proxy",
    ("abclab.dynamics", "simulate"): "dynamics.simulate",
    ("abclab.dynamics", "taylor_expm"): "dynamics.expm",
    ("abclab.dynamics", "energy"): "dynamics.energy",
    ("abclab.dynamics", "trajectory_consistency"): "dynamics.consistency",
    ("abclab.dynamics", "robin_comparison"): "dynamics.robin",
    ("abclab.cli", "main"): "cli",
}
KERNELS = ("solve", "cond", "svd", "eig", "eigvals", "det", "inv")
for _k in KERNELS:
    SPANS[("numpy.linalg", _k)] = f"kernel.{_k}"

# Counted, not timed: their time stays with the span that called them.
COUNTERS = {("abclab.spectral", "characteristic_value"): "char_evals"}


def _square_flops(n: int, nrhs: int, kernel: str, compute_uv: bool) -> int:
    """Standard LAPACK flop counts for one real n-by-n matrix (Golub & Van Loan)."""
    if kernel == "solve":
        return (2 * n ** 3) // 3 + 2 * n * n * nrhs
    if kernel == "det":
        return (2 * n ** 3) // 3
    if kernel == "inv":
        return 2 * n ** 3
    if kernel == "cond":
        return (8 * n ** 3) // 3
    if kernel == "svd":
        return 21 * n ** 3 if compute_uv else (8 * n ** 3) // 3
    if kernel == "eig":
        return 25 * n ** 3
    return 10 * n ** 3  # eigvals


def kernel_flops(kernel: str, args, kwargs) -> int:
    """Computed (not counted in hardware) flops of one numpy.linalg call.

    Complex arithmetic counts four real flops per complex flop.  Non-square
    inputs use the square count of their smaller side.
    """
    a = args[0] if args else kwargs.get("a")
    n = min(a.shape)
    nrhs = 0
    if kernel == "solve":
        b = args[1] if len(args) > 1 else kwargs.get("b")
        bshape = getattr(b, "shape", (n,))
        nrhs = 1 if len(bshape) == 1 else bshape[-1]
    compute_uv = kernel == "svd" and bool(
        kwargs.get("compute_uv", args[2] if len(args) > 2 else True))
    flops = _square_flops(n, nrhs, kernel, compute_uv)
    return 4 * flops if a.dtype.kind == "c" else flops


class Tracer:
    """Context manager that installs spans for one traced pass.

    ``calls``, ``incl_ns`` and ``self_ns`` are keyed by span name.  ``extra``
    holds counts the layers expose only through arguments and results.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.extra = defaultdict(int)
        self._stack: list[list] = []      # [span name, child ns]
        self._patched: list[tuple] = []   # (namespace, attribute, original)
        self.missing: list[str] = []

    # -- span bookkeeping -------------------------------------------------
    def _under(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _enter(self, name, args, kwargs):
        if name == "spectral.newton":
            self.extra["newton.seeds"] += len(args[1] if len(args) > 1 else kwargs["seeds"])
        elif name in ("dynamics.simulate", "dynamics.robin"):
            t_grid = args[2] if len(args) > 2 else kwargs["t_grid"]
            self.extra["times_served"] += len(t_grid)
        elif name.startswith("kernel."):
            self.extra["flops"] += kernel_flops(name[7:], args, kwargs)

    def _exit(self, name, result, dt):
        if name == "spectral.newton":
            self.extra["newton.failures"] += len(result.extras["failures"])
        elif name == "kernel.eig" and self._under("dynamics.simulate"):
            self.extra["eig_route_ns"] += dt
        elif name == "kernel.cond" and self._under("linalg.checked_solve"):
            self.extra["cond_in_solve_ns"] += dt

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            self._enter(name, args, kwargs)
            frame = [name, 0]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.incl_ns[name] += dt
                self.self_ns[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            self._exit(name, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        def counted(*args, **kwargs):
            if self._stack:
                self.extra[f"{self._stack[-1][0]}.{key}"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ---------------------------------------------------------
    @staticmethod
    def _namespaces():
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "abclab" or name.startswith("abclab.")
                                        or name == "numpy.linalg")]

    def _install(self, table, make):
        namespaces = self._namespaces()
        for (modname, attr), label in table.items():
            home = sys.modules.get(modname)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = make(label, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def __enter__(self):
        self._install(SPANS, self.span)
        self._install(COUNTERS, self.counter)
        return self

    def __exit__(self, *exc):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()
        return False

    def unpatched_bindings(self) -> list[str]:
        """Namespace bindings that still point at an original while installed."""
        originals = {id(orig) for _, _, orig in self._patched}
        return [f"{ns.__name__}.{key}" for ns in self._namespaces()
                for key, value in vars(ns).items() if id(value) in originals]


def layer_metrics(tr: Tracer, out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass; ``out_bytes`` is what it wrote."""
    s = lambda name: tr.self_ns[name] / 1e9  # noqa: E731
    c = lambda name: tr.calls[name]           # noqa: E731
    seeds = tr.extra["newton.seeds"]
    newton_evals = tr.extra["spectral.newton.char_evals"]
    solve_incl = tr.incl_ns["linalg.checked_solve"]
    expm_calls = c("dynamics.expm")
    m = {
        "scenario.load_config.s": s("scenario.load_config"),
        "scenario.build_system.calls": c("scenario.build_system"),
        "scenario.build_system.s": tr.incl_ns["scenario.build_system"] / 1e9,
        "scenario.initial_state.s": s("scenario.initial_state"),
        "mesh.build.s": s("mesh.build"),
        "model.assemble.s": s("model.assemble"),
        "model.check_assumptions.s": s("model.check_assumptions"),
        "blockops.assemble.calls": c("blockops.assemble"),
        "blockops.assemble.s": s("blockops.assemble"),
        "resolvent.pencil.calls": c("resolvent.pencil"),
        "resolvent.pencil.s": s("resolvent.pencil"),
        "resolvent.dirichlet.calls": c("resolvent.dirichlet"),
        "resolvent.dirichlet.s": s("resolvent.dirichlet"),
        "resolvent.blocks.s": s("resolvent.blocks"),
        "linalg.checked_solve.calls": c("linalg.checked_solve"),
        "linalg.checked_solve.s": s("linalg.checked_solve"),
        "linalg.cond_share": tr.extra["cond_in_solve_ns"] / solve_incl if solve_incl else 0.0,
        "spectral.direct.s": s("spectral.direct"),
        "spectral.newton.s": s("spectral.newton"),
        "spectral.newton.seeds": seeds,
        "spectral.newton.char_evals": newton_evals,
        "spectral.newton.evals_per_seed": newton_evals / seeds if seeds else 0.0,
        "spectral.newton.failures": tr.extra["newton.failures"],
        "spectral.winding.s": s("spectral.winding"),
        "spectral.winding.char_evals": tr.extra["spectral.winding.char_evals"],
        "spectral.special.s": s("spectral.special"),
        "spectral.proxy.s": s("spectral.proxy"),
        "dynamics.simulate.s": s("dynamics.simulate"),
        "dynamics.expm.calls": expm_calls,
        "dynamics.expm.s": s("dynamics.expm"),
        "dynamics.times_per_expm": tr.extra["times_served"] / expm_calls if expm_calls else 0.0,
        "dynamics.eig_route.s": tr.extra["eig_route_ns"] / 1e9,
        "dynamics.energy.calls": c("dynamics.energy"),
        "dynamics.energy.s": s("dynamics.energy"),
        "dynamics.consistency.s": s("dynamics.consistency"),
        "dynamics.robin.s": s("dynamics.robin"),
        "cli.self_s": s("cli"),
        "cli.out_bytes": out_bytes,
    }
    for k in KERNELS:
        m[f"kernel.{k}.calls"] = c(f"kernel.{k}")
        m[f"kernel.{k}.s"] = s(f"kernel.{k}")
    m["kernel.flops_computed"] = tr.extra["flops"]
    return m
