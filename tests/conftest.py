"""Shared fixtures: shipped scenario configs and assembled systems."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import abclab as ab
import abclab._linalg as la
from abclab.blockops import BlockSystem
from abclab.dynamics import _boundary_velocity

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load(name: str) -> ab.ScenarioConfig:
    return ab.load_config(CONFIG_DIR / f"{name}.json")


def hand_lift(sys, mu, bnd, mirror=None):
    """The bordered Dirichlet solve [mu P_n - A_max; bnd] u_ext = [0; I] formed
    by hand, with the mu I temporary on the node block, and solved by one LU
    of the full matrix, or with a ``mirror`` by ``checked_solve``'s split of
    the full matrix: the reference for the split lift, for the lift from the
    stored blocks and for the lift against L."""
    a_max = sys.ops.A_max
    n, size = a_max.shape
    mat = np.zeros((size, size), dtype=np.result_type(a_max.dtype, type(mu)))
    mat[:n, :] = -a_max
    mat[:n, :n] += mu * np.eye(n)
    mat[n:, :] = bnd
    rhs = np.zeros((size, bnd.shape[0]), dtype=mat.dtype)
    rhs[n:, :] = np.eye(bnd.shape[0])
    if mirror is None:
        return np.linalg.solve(mat, rhs)
    return la.checked_solve(mat, rhs, "hand lift", mirror=mirror)


def boundary_dissipation(state: np.ndarray, sys: BlockSystem) -> float:
    """Instantaneous expected energy decay rate: sum d |Lu|^2 w on Gamma1."""
    ldot = _boundary_velocity(state, sys)
    return float(np.sum(np.real(sys.ops.coeffs.d) * sys.ops.bnd_weights
                        * np.real(np.conjugate(ldot) * ldot)))


def traced_peak(run) -> int:
    """The peak, in bytes, of the memory tracemalloc traces while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wave_system(n_cells=32, c=1.0, rho="1", m="1", d="0", k="0",
                b1_mode="zero", b3_zero=False):
    text_cfg = ab.parse_config("{}")
    cfg = dataclasses.replace(
        text_cfg,
        geometry={"kind": "interval", "n_cells": n_cells, "length": 1.0},
        coefficients={"c": c, "rho": rho, "m": m, "d": d, "k": k},
        flags={**text_cfg.flags, "b1_mode": b1_mode, "b3_zero": b3_zero},
    )
    return ab.build_system(cfg)


@pytest.fixture(scope="session")
def abc1d_cfg():
    return load("abc-1d")


@pytest.fixture(scope="session")
def abc1d(abc1d_cfg):
    return ab.build_system(abc1d_cfg)


@pytest.fixture(scope="session")
def special_cfg():
    return load("special-case")


@pytest.fixture(scope="session")
def special(special_cfg):
    return ab.build_system(special_cfg)


@pytest.fixture(scope="session")
def neutral_cfg():
    return load("timoshenko-strip")


@pytest.fixture(scope="session")
def neutral_strip(neutral_cfg):
    return ab.build_system(neutral_cfg)


@pytest.fixture(scope="session")
def biharmonic_sys():
    mesh = ab.build_interval_mesh(32, 1.0)
    coeffs = ab.CoefficientSet(
        c=1.0, rho=np.ones(2), m=np.ones(2), d=np.zeros(2), k=np.zeros(2),
        r=np.array([1.0, 1.0]), s=np.array([0.5, 0.5]),
        p=np.array([-1.0, -1.0]), q=np.array([-0.5, -0.5]))
    ops = ab.assemble_biharmonic_operator(mesh, coeffs)
    return mesh, ab.assemble_block_generator(ops)


@pytest.fixture(scope="session")
def divergence_sys():
    cfg = ab.parse_config(json.dumps({
        "geometry": {"kind": "interval", "n_cells": 32, "length": 1.0},
        "model": "divergence",
        "coefficients": {"a": "1 + 0.5*x", "rho": "0.7", "m": "1", "d": "0.3", "k": "1"}}))
    return ab.build_system(cfg)
