"""Scenario documents: parsing, validation and system assembly.

A scenario is a JSON document with the top-level keys

    geometry      {"kind": "interval", "n_cells", "length"} or
                  {"kind": "strip", "nx", "ny"}
    model         "wave" | "divergence" | "biharmonic"
    coefficients  expression strings (c may be a number)
    flags         neutral, b1_mode ("zero" | "minus_b4b2"), b3_zero,
                  neutral_m_zero
    initial       {"f","g","h","j"} expressions or "compatible-random(seed)"
    solver        tolerances
    output        paths

Unknown keys are rejected with the path to the offending key, duplicate keys
are rejected, defaults are applied and echoed back, and parse/serialize/parse
is the identity.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace as dc_replace
from types import MappingProxyType

import numpy as np

from .blockops import BlockSystem, assemble_block_generator, cosine_modes, initial_state
from .errors import ConfigurationError
from .expressions import eval_coeff_expr, parse_expr
from .mesh import Mesh, build_interval_mesh, build_strip_mesh
from .model import (apply_neutral_transform, assemble_biharmonic_operator,
                    assemble_wave_operator, default_boundary_laplacian,
                    sample_coefficients)

_RANDOM_TOKEN = re.compile(r"compatible-random\((\d+)\)")

_DEFAULTS = {
    "geometry": {"kind": "interval", "n_cells": 64, "length": 1.0},
    "model": "wave",
    "coefficients": {"c": 1.0, "rho": "1", "m": "1", "d": "0", "k": "0"},
    "flags": {"neutral": False, "b1_mode": "zero", "b3_zero": False,
              "neutral_m_zero": False},
    "initial": "compatible-random(1)",
    "solver": {"tol": 1e-10, "exclusion_radius": None, "newton_max_iter": 50,
               "cert_tol": 1e-6},
    "output": {"dir": "."},
}

_ALLOWED = {
    "": {"geometry", "model", "coefficients", "flags", "initial", "solver", "output"},
    "geometry": {"kind", "n_cells", "length", "nx", "ny"},
    "coefficients": {"c", "rho", "m", "d", "k", "a", "r", "s", "p", "q"},
    "flags": {"neutral", "b1_mode", "b3_zero", "neutral_m_zero"},
    "initial": {"f", "g", "h", "j"},
    "solver": {"tol", "exclusion_radius", "newton_max_iter", "cert_tol"},
    "output": {"dir", "prefix"},
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario.  Its object sections are read-only copies
    (assigning a key raises TypeError); ``dataclasses.replace`` with a plain
    dict gives a new config with its own read-only copy."""

    geometry: Mapping
    model: str
    coefficients: Mapping
    flags: Mapping
    initial: object            # the random-state token, or a mapping of expressions
    solver: Mapping
    output: Mapping
    warnings: tuple = field(default=())

    def __post_init__(self):
        for name in _DEFAULTS:
            value = getattr(self, name)
            if isinstance(value, Mapping):
                object.__setattr__(self, name, MappingProxyType(dict(value)))

    def to_document(self) -> dict:
        doc = {name: getattr(self, name) for name in _DEFAULTS}
        return {key: dict(value) if isinstance(value, Mapping) else value
                for key, value in doc.items()}


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigurationError(f"duplicate key {key!r} in scenario document")
        seen[key] = value
    return seen


def _check_keys(section: str, obj: dict):
    allowed = _ALLOWED[section]
    for key in obj:
        if key not in allowed:
            where = section if section else "top level"
            raise ConfigurationError(
                f"unknown key {key!r} at {where}; allowed: {sorted(allowed)}")


def _eval_samples(expr, var: str = "z"):
    node = parse_expr(str(expr))
    pts = [0.0, 0.2031, 0.5, 0.7719, 1.0]
    return [eval_coeff_expr(node, {var: p, "x": p, "y": p}) for p in pts]


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; defaults applied and echoed."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario document must be a JSON object")
    _check_keys("", raw)

    doc = {}
    for section, default in _DEFAULTS.items():
        value = raw.get(section, default)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"{section} must be an object")
            _check_keys(section, value)
            merged = dict(default)
            merged.update(value)
            doc[section] = merged
        else:
            doc[section] = value

    geom = doc["geometry"]
    kind = geom.get("kind")
    if kind == "interval":
        geom.pop("nx", None)
        geom.pop("ny", None)
        geom.setdefault("n_cells", 64)
        geom.setdefault("length", 1.0)
        if not isinstance(geom["n_cells"], int) or geom["n_cells"] < 4:
            raise ConfigurationError("geometry.n_cells must be an integer >= 4")
    elif kind == "strip":
        geom.pop("n_cells", None)
        geom.pop("length", None)
        geom.setdefault("nx", 8)
        geom.setdefault("ny", 8)
        for key in ("nx", "ny"):
            if not isinstance(geom[key], int) or geom[key] < 4:
                raise ConfigurationError(f"geometry.{key} must be an integer >= 4")
    else:
        raise ConfigurationError(
            f"geometry.kind must be 'interval' or 'strip', got {kind!r}")

    model = doc["model"]
    if model not in ("wave", "divergence", "biharmonic"):
        raise ConfigurationError(f"model must be wave|divergence|biharmonic, got {model!r}")
    if model == "divergence" and "a" not in doc["coefficients"]:
        raise ConfigurationError("model 'divergence' requires coefficients.a")
    if model == "biharmonic":
        if kind != "interval":
            raise ConfigurationError("model 'biharmonic' requires interval geometry")
        for name in ("r", "s", "p", "q"):
            doc["coefficients"].setdefault(name, "0")

    flags = doc["flags"]
    if flags["b1_mode"] not in ("zero", "minus_b4b2"):
        raise ConfigurationError(
            f"flags.b1_mode must be 'zero' or 'minus_b4b2', got {flags['b1_mode']!r}")
    warnings_list = []
    if flags["b3_zero"]:
        k_samples = _eval_samples(doc["coefficients"].get("k", "0"))
        if any(abs(v) > 1e-14 for v in k_samples):
            raise ConfigurationError(
                "flags.b3_zero requires the spring constant k to vanish identically "
                "(B3 = 0 means k = 0)")
    if flags["neutral"]:
        if model == "biharmonic":
            raise ConfigurationError("neutral boundary dynamics apply to the wave models")
        if kind == "interval" and not flags["neutral_m_zero"]:
            raise ConfigurationError(
                "neutral on an interval has a two-point boundary; set "
                "flags.neutral_m_zero to acknowledge M = 0")
        for name in ("rho", "m"):
            samples = _eval_samples(doc["coefficients"].get(name, "1"))
            if max(samples) - min(samples) > 1e-14:
                warnings_list.append(
                    f"neutral model with variable {name} is outside the proved "
                    "well-posedness regime (constant rho, m assumed)")

    initial = doc["initial"]
    if isinstance(initial, str):
        if _RANDOM_TOKEN.fullmatch(initial) is None:
            raise ConfigurationError(
                f"initial must be 'compatible-random(seed)' or an object, got {initial!r}")
    elif isinstance(initial, dict):
        _check_keys("initial", initial)
        missing = {"f", "g", "h", "j"} - set(initial)
        if missing:
            raise ConfigurationError(f"initial is missing expressions {sorted(missing)}")
    else:
        raise ConfigurationError("initial must be a string token or an object")

    return ScenarioConfig(
        geometry=geom, model=model, coefficients=doc["coefficients"],
        flags=flags, initial=initial, solver=doc["solver"], output=doc["output"],
        warnings=tuple(warnings_list),
    )


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical JSON (sorted keys); parse(serialize(c)) == c."""
    return json.dumps(config.to_document(), indent=2, sort_keys=True)


def override_strip_nx(config: ScenarioConfig, nx: int) -> ScenarioConfig:
    geom = dict(config.geometry)
    geom["nx"] = int(nx)
    return dc_replace(config, geometry=geom)


def override_interval_cells(config: ScenarioConfig, n_cells: int) -> ScenarioConfig:
    geom = dict(config.geometry)
    geom["n_cells"] = int(n_cells)
    return dc_replace(config, geometry=geom)


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------
def build_mesh(config: ScenarioConfig) -> Mesh:
    geom = config.geometry
    if geom["kind"] == "interval":
        return build_interval_mesh(geom["n_cells"], geom["length"])
    return build_strip_mesh(geom["nx"], geom["ny"])


def build_system(config: ScenarioConfig) -> tuple[Mesh, BlockSystem]:
    """Mesh, coefficients, operators (with flags applied) and block assembly,
    with the cosine-mode basis where the model separates by it."""
    mesh = build_mesh(config)
    coeffs = sample_coefficients(config, mesh)
    if config.model == "biharmonic":
        ops = assemble_biharmonic_operator(mesh, coeffs)
    else:
        ops = assemble_wave_operator(mesh, coeffs)
    if config.flags["b1_mode"] == "minus_b4b2":
        ops = dc_replace(ops, B1=-ops.B4 @ ops.B2)
    if config.flags["neutral"]:
        M = default_boundary_laplacian(mesh)
        ops = apply_neutral_transform(ops, M)
    return mesh, assemble_block_generator(ops, cosine_modes(mesh, ops))


def initial_state_from_config(config: ScenarioConfig, mesh: Mesh, sys: BlockSystem,
                              seed_override: int | None = None) -> np.ndarray:
    """Reduced initial state from the scenario's initial section.

    compatible-random(seed): f, g, h and the ghost extension of f are drawn
    from a seeded generator and j := L f_ext, so the flux compatibility holds
    by construction.  Analytic data is sampled at nodes and ghost coordinates
    and must satisfy the compatibility up to solver.tol.
    """
    n, g, nb = sys.dims
    tol = float(config.solver.get("tol", 1e-10))
    if isinstance(config.initial, str):
        match = _RANDOM_TOKEN.fullmatch(config.initial)
        seed = int(match.group(1)) if seed_override is None else int(seed_override)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(n)
        f_ghosts = rng.standard_normal(g)
        gvel = rng.standard_normal(n)
        h = rng.standard_normal(nb)
        f_ext = np.concatenate([f, f_ghosts])
        j = sys.ops.L @ f_ext
        return initial_state(f, gvel, h, j, sys, tol=tol, f_ghosts=f_ghosts)

    exprs = {key: parse_expr(str(val)) for key, val in config.initial.items()}
    ipts = [{"x": float(xy[0]), "y": float(xy[-1])}
            for xy in mesh.node_coords[sys.ops.state_node_idx]]
    gpts = [{"x": float(xy[0]), "y": float(xy[-1])} for xy in mesh.ghost_coords]
    zs = mesh.gamma1_arclength()
    bpts = [{"z": float(z), "x": float(xy[0]), "y": float(xy[-1])}
            for z, xy in zip(zs, mesh.node_coords[mesh.gamma1])]
    f = np.array([eval_coeff_expr(exprs["f"], p) for p in ipts])
    gvel = np.array([eval_coeff_expr(exprs["g"], p) for p in ipts])
    h = np.array([eval_coeff_expr(exprs["h"], p) for p in bpts])
    j = np.array([eval_coeff_expr(exprs["j"], p) for p in bpts])
    f_ghosts = np.array([eval_coeff_expr(exprs["f"], p) for p in gpts])
    if sys.ops.model_tag.startswith("biharmonic"):
        ends = mesh.node_coords[mesh.gamma1, 0]
        vals = [eval_coeff_expr(exprs["f"], {"x": float(e)}) for e in ends]
        if max(abs(v) for v in vals) > tol:
            raise ConfigurationError(
                "biharmonic initial displacement must vanish at the pinned endpoints")
    return initial_state(f, gvel, h, j, sys, tol=tol, f_ghosts=f_ghosts)
