import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abclab as ab
from abclab.errors import ConfigurationError
from abclab.expressions import ExpressionError
from abclab.model import check_assumptions

from conftest import CONFIG_DIR, load


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------
def test_expr_basic():
    assert ab.eval_coeff_expr("2*z+1", {"z": 0.5}) == pytest.approx(2.0)


def test_expr_step_indicator():
    assert ab.eval_coeff_expr("step(0.5, 3) + 1", {"z": 0.25}) == pytest.approx(1.0)
    assert ab.eval_coeff_expr("step(0.5, 3) + 1", {"z": 0.75}) == pytest.approx(4.0)


def test_expr_trig_identity():
    assert ab.eval_coeff_expr("sin(x)^2 + cos(x)^2", {"x": 0.7}) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("text,env,expected", [
    ("2^3", {}, 8.0),
    ("2*3^2", {}, 18.0),          # '^' binds tightest
    ("6/3/2", {}, 1.0),           # left-associative
    ("1 - 2 - 3", {}, -4.0),
    ("-x+1", {"x": 0.25}, 0.75),
    ("exp(0)", {}, 1.0),
    ("abs(0-3)", {}, 3.0),
    ("1.5e2", {}, 150.0),
    ("(1+2)*(3+4)", {}, 21.0),
])
def test_expr_grammar(text, env, expected):
    assert ab.eval_coeff_expr(text, env) == pytest.approx(expected)


def test_expr_parse_error_has_position():
    with pytest.raises(ExpressionError, match="position"):
        ab.eval_coeff_expr("2 +* 3", {})
    with pytest.raises(ExpressionError):
        ab.eval_coeff_expr("sin(1, 2)", {})
    with pytest.raises(ExpressionError):
        ab.eval_coeff_expr("nope(1)", {})
    with pytest.raises(ExpressionError):
        ab.eval_coeff_expr("2 @ 3", {})


def test_expr_division_by_zero():
    with pytest.raises(ExpressionError, match="division by zero"):
        ab.eval_coeff_expr("1/z", {"z": 0.0})


def test_expr_unknown_variable():
    with pytest.raises(ExpressionError, match="unknown variable"):
        ab.eval_coeff_expr("q + 1", {"x": 0.0})


# ASTs in the parser's own node shapes; numbers are nonnegative, as in the
# grammar, and print as their repr, which reads back to the same float
_EXPR_LEAVES = (st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
                .map(lambda v: ("num", abs(v)))
                | st.sampled_from("xyz").map(lambda name: ("var", name)))


def _expr_nodes(children):
    return (children.map(lambda a: ("neg", a))
            | st.tuples(st.sampled_from("+-*/^"), children, children)
            | st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp", "abs"]),
                        st.lists(children, min_size=1, max_size=1))
            | st.tuples(st.just("call"), st.just("step"),
                        st.lists(children, min_size=2, max_size=2)))


def _render(node):
    """Fully parenthesised text of an AST."""
    tag = node[0]
    if tag == "num":
        return repr(node[1])
    if tag == "var":
        return node[1]
    if tag == "neg":
        return f"(-{_render(node[1])})"
    if tag == "call":
        return f"{node[1]}({', '.join(map(_render, node[2]))})"
    return f"({_render(node[1])}{tag}{_render(node[2])})"


@settings(max_examples=200, deadline=None)
@given(tree=st.recursive(_EXPR_LEAVES, _expr_nodes, max_leaves=20))
def test_expr_round_trip(tree):
    assert ab.parse_expr(_render(tree)) == tree


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------
def test_minimal_config_gets_defaults():
    cfg = ab.parse_config("{}")
    assert cfg.geometry["n_cells"] == 64
    assert cfg.model == "wave"
    assert cfg.flags["b1_mode"] == "zero"
    assert cfg.solver["tol"] == 1e-10


def test_round_trip_idempotent():
    for name in ("abc-1d", "special-case", "timoshenko-strip"):
        cfg = load(name)
        again = ab.parse_config(ab.serialize_config(cfg))
        assert cfg == again


# sha256 of serialize_config for each shipped config, as the CLI writes it
# into output metadata (config_sha256)
SHIPPED_CONFIG_SHA256 = {
    "abc-1d": "37d8426f3535119493728e62dc790d432c3610cd0b7353d1793e6305914bb458",
    "special-case": "e12ba351a337986b354be8258964715211b8e032b9c0d62e471d14e269a5f91b",
    "timoshenko-strip-k0": "552d397faae1355713ee5aac465f192cc18d62e498a0ecf939738c01488330c5",
    "timoshenko-strip": "4a389264cde5c34803963983b51bf5ce315489caa2d19bb868e8f591c2ea72c1",
}


def test_config_sections_are_read_only():
    import hashlib

    from abclab.cli import _config_metadata

    for name, digest in SHIPPED_CONFIG_SHA256.items():
        cfg = load(name)
        for section in (cfg.geometry, cfg.coefficients, cfg.flags, cfg.solver, cfg.output):
            with pytest.raises(TypeError):
                section["neutral"] = True
        assert hashlib.sha256(ab.serialize_config(cfg).encode()).hexdigest() == digest
        meta = _config_metadata(cfg, 3)
        assert meta["config_sha256"] == digest
        assert json.loads(json.dumps(meta))["geometry"] == dict(cfg.geometry)
    cfg = ab.parse_config(json.dumps({"initial": {key: "0" for key in "fghj"}}))
    with pytest.raises(TypeError):
        cfg.initial["f"] = "1"
    # a replaced section is copied: the caller's dict does not reach the config
    geometry = {**cfg.geometry, "n_cells": 8}
    smaller = dataclasses.replace(cfg, geometry=geometry)
    geometry["n_cells"] = 4
    assert smaller.geometry["n_cells"] == 8 and cfg.geometry["n_cells"] == 64
    import abclab.scenario as sc

    assert sc.override_interval_cells(cfg, 16).geometry["n_cells"] == 16
    strip = load("timoshenko-strip")
    assert sc.override_strip_nx(strip, 8).geometry["nx"] == 8
    assert strip.geometry["nx"] == 16


_POSITIVE = st.sampled_from(["1", "2.5", "1 + x", "0.5*z + 1", "1 + 0.1*sin(z)",
                             "exp(-x)", "step(0.5, 2) + 1"])
_ANY = st.one_of(_POSITIVE, st.just("0"), st.just("-0.25*cos(z)"))


@st.composite
def scenario_documents(draw):
    """Valid scenario documents; optional sections and keys may be left out."""
    kind = draw(st.sampled_from(["interval", "strip"]))
    models = ["wave", "divergence"] + (["biharmonic"] if kind == "interval" else [])
    model = draw(st.sampled_from(models))
    if kind == "interval":
        geometry = {"kind": kind, "n_cells": draw(st.integers(4, 128)),
                    "length": draw(st.floats(0.1, 10.0))}
    else:
        geometry = {"kind": kind, "nx": draw(st.integers(4, 32)),
                    "ny": draw(st.integers(4, 32))}
    coefficients = draw(st.fixed_dictionaries(
        {}, optional={"c": st.one_of(st.floats(0.1, 5.0), _POSITIVE),
                      "rho": _POSITIVE, "m": _POSITIVE, "d": _ANY, "k": _ANY}))
    if model == "divergence":
        coefficients["a"] = draw(_POSITIVE)
    if model == "biharmonic":
        coefficients.update(draw(st.fixed_dictionaries(
            {}, optional={name: _ANY for name in ("r", "s", "p", "q")})))
    b3_zero = draw(st.booleans())
    if b3_zero:
        coefficients["k"] = "0"
    neutral = model != "biharmonic" and draw(st.booleans())
    flags = {"neutral": neutral, "b1_mode": draw(st.sampled_from(["zero", "minus_b4b2"])),
             "b3_zero": b3_zero,
             "neutral_m_zero": (neutral and kind == "interval") or draw(st.booleans())}
    doc = {"geometry": geometry, "model": model, "coefficients": coefficients,
           "flags": flags}
    doc.update(draw(st.fixed_dictionaries({}, optional={
        "initial": st.one_of(
            st.integers(0, 10 ** 6).map(lambda seed: f"compatible-random({seed})"),
            st.fixed_dictionaries({key: _ANY for key in "fghj"})),
        "solver": st.fixed_dictionaries({}, optional={
            "tol": st.floats(1e-14, 1e-6), "newton_max_iter": st.integers(1, 200),
            "exclusion_radius": st.one_of(st.none(), st.floats(1e-9, 1e-3)),
            "cert_tol": st.floats(1e-12, 1e-3)}),
        "output": st.fixed_dictionaries({}, optional={
            "dir": st.sampled_from([".", "out", "runs/a"]),
            "prefix": st.sampled_from(["", "run", "strip-"])}),
    })))
    return doc


@settings(max_examples=50, deadline=None)
@given(scenario_documents())
def test_round_trip_random_documents(doc):
    cfg = ab.parse_config(json.dumps(doc))
    assert ab.parse_config(ab.serialize_config(cfg)) == cfg


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate key"):
        ab.parse_config('{"model": "wave", "model": "wave"}')


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigurationError, match="top level"):
        ab.parse_config('{"bogus": 1}')
    with pytest.raises(ConfigurationError, match="geometry"):
        ab.parse_config('{"geometry": {"kind": "interval", "zzz": 2}}')
    with pytest.raises(ConfigurationError, match="solver"):
        ab.parse_config('{"solver": {"speed": 11}}')


def test_b3_zero_requires_vanishing_spring():
    with pytest.raises(ConfigurationError, match="b3_zero"):
        ab.parse_config(json.dumps({
            "coefficients": {"k": "1"},
            "flags": {"b3_zero": True},
        }))


def test_neutral_interval_needs_acknowledgement():
    doc = {"flags": {"neutral": True}}
    with pytest.raises(ConfigurationError, match="neutral_m_zero"):
        ab.parse_config(json.dumps(doc))
    doc["flags"]["neutral_m_zero"] = True
    cfg = ab.parse_config(json.dumps(doc))
    assert cfg.flags["neutral"]


def test_neutral_variable_rho_flagged():
    cfg = ab.parse_config(json.dumps({
        "geometry": {"kind": "strip", "nx": 4, "ny": 4},
        "coefficients": {"rho": "1 + z"},
        "flags": {"neutral": True},
    }))
    assert any("variable rho" in w for w in cfg.warnings)


def test_divergence_requires_a():
    with pytest.raises(ConfigurationError, match="coefficients.a"):
        ab.parse_config('{"model": "divergence"}')


def test_biharmonic_needs_interval():
    with pytest.raises(ConfigurationError, match="interval"):
        ab.parse_config(json.dumps({
            "geometry": {"kind": "strip", "nx": 4, "ny": 4},
            "model": "biharmonic",
        }))


def test_bad_initial_token():
    with pytest.raises(ConfigurationError, match="compatible-random"):
        ab.parse_config('{"initial": "random-please"}')


def test_shipped_configs_parse_and_pass_assumptions():
    for name in ("abc-1d", "special-case", "timoshenko-strip"):
        cfg = ab.load_config(CONFIG_DIR / f"{name}.json")
        _, sys = ab.build_system(cfg)
        lam0, contraction, worst_ratio = check_assumptions(sys)
        assert lam0 <= 2 ** 16 and contraction < 1.0 and worst_ratio <= 1.0 + 1e-10, name


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------
def test_compatible_random_is_deterministic(abc1d_cfg, abc1d):
    mesh, sys = abc1d
    s1 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    s2 = ab.initial_state_from_config(abc1d_cfg, mesh, sys)
    assert np.array_equal(s1, s2)
    s3 = ab.initial_state_from_config(abc1d_cfg, mesh, sys, seed_override=999)
    assert not np.array_equal(s1, s3)


def test_expression_initial_data_compatibility(abc1d_cfg):
    cfg = dataclasses.replace(abc1d_cfg, initial={
        "f": "sin(3.141592653589793*x)^2", "g": "0", "h": "0", "j": "0"})
    mesh, sys = ab.build_system(cfg)
    state = ab.initial_state_from_config(cfg, mesh, sys)
    u, v, x, y = sys.unpack(state)
    # y0 = j - B2 f
    assert np.allclose(y, -sys.ops.B2 @ u, atol=1e-12)


def test_incompatible_initial_data_rejected(abc1d_cfg):
    # f with nonzero flux but j = 0 violates the compatibility
    cfg = dataclasses.replace(abc1d_cfg, initial={
        "f": "x^2", "g": "0", "h": "0", "j": "0"})
    mesh, sys = ab.build_system(cfg)
    with pytest.raises(ConfigurationError, match="incompatible"):
        ab.initial_state_from_config(cfg, mesh, sys)


def test_biharmonic_scenario_end_to_end():
    cfg = ab.parse_config(json.dumps({
        "geometry": {"kind": "interval", "n_cells": 16},
        "model": "biharmonic",
        "coefficients": {"r": "1", "s": "0.5", "p": "0-1", "q": "0-0.5"},
        "initial": {"f": "x*(1-x)", "g": "0", "h": "0", "j": "0-2"},
    }))
    mesh, sys = ab.build_system(cfg)
    state = ab.initial_state_from_config(cfg, mesh, sys)
    u, v, x, y = sys.unpack(state)
    assert u.size == 15                      # endpoints pinned and removed
    assert np.allclose(y, -2.0 - sys.ops.B2 @ u, atol=1e-10)


def test_biharmonic_scenario_rejects_nonvanishing_endpoint():
    cfg = ab.parse_config(json.dumps({
        "geometry": {"kind": "interval", "n_cells": 16},
        "model": "biharmonic",
        "initial": {"f": "1 + x", "g": "0", "h": "0", "j": "0"},
    }))
    mesh, sys = ab.build_system(cfg)
    with pytest.raises(ConfigurationError, match="pinned"):
        ab.initial_state_from_config(cfg, mesh, sys)
