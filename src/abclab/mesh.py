"""Uniform grids with ghost slots and trapezoidal quadrature.

Two geometries are supported: a 1D interval whose endpoints carry the dynamic
boundary data, and the unit-square "strip" whose top edge carries it while the
remaining three edges are rigid (homogeneous Neumann).  Boundary nodes are
partitioned into Gamma0 (rigid) and Gamma1 (dynamic); every Gamma1 node owns
exactly one ghost slot sitting one spacing outward along the normal direction.
Gamma0 flux conditions are enforced later by stencil reflection and need no
explicit ghost dof.

Strip corners: the top corners are members of Gamma1 (they carry boundary data
and a normal ghost), but their lateral out-of-domain stencil reach is closed by
the Gamma0 reflection, so Robin data is never counted twice at a corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from ._linalg import restrict_mirror
from .errors import ConfigurationError, DimensionError


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable grid with boundary partition and quadrature weights.

    Attributes
    ----------
    kind : "interval" or "strip"
    node_coords : (n_nodes, dim) nodal coordinates
    h : grid spacing per axis
    gamma0, gamma1 : node index arrays of the rigid / dynamic boundary parts
    ghost_coords : (n_b, dim) coordinates of the Gamma1 ghost slots
    ghost_inward : (n_b,) index of the interior node across each Gamma1 node
    ghost_axis, ghost_sign : outward normal direction of each ghost slot
    vol_weights : (n_nodes,) trapezoidal volume weights
    bnd_weights : (n_b,) quadrature weights on Gamma1
    grid_shape : nodes per axis
    """

    kind: str
    node_coords: np.ndarray
    h: tuple[float, ...]
    gamma0: np.ndarray
    gamma1: np.ndarray
    ghost_coords: np.ndarray
    ghost_inward: np.ndarray
    ghost_axis: np.ndarray
    ghost_sign: np.ndarray
    vol_weights: np.ndarray
    bnd_weights: np.ndarray
    grid_shape: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for name in ("node_coords", "gamma0", "gamma1", "ghost_coords",
                     "ghost_inward", "ghost_axis", "ghost_sign",
                     "vol_weights", "bnd_weights"):
            getattr(self, name).setflags(write=False)
        if np.intersect1d(self.gamma0, self.gamma1).size:
            raise ConfigurationError("Gamma0 and Gamma1 must be disjoint")
        if np.any(self.vol_weights <= 0) or np.any(self.bnd_weights <= 0):
            raise ConfigurationError("quadrature weights must be positive")

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def n_b(self) -> int:
        return self.gamma1.size

    @property
    def dim(self) -> int:
        return self.node_coords.shape[1]

    def gamma1_arclength(self) -> np.ndarray:
        """Arclength coordinate z of each Gamma1 node along its boundary part.

        The interval's end points and the strip's top edge are both
        parametrised by x.
        """
        return self.node_coords[self.gamma1, 0].copy()


def _interval_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2.0
    return w


def cell_weights(mesh: Mesh, axis: int) -> np.ndarray:
    """Weight of each cell (two neighbouring nodes) along ``axis``.

    h times the trapezoid weights across the other axes, so the discrete
    Dirichlet form is exactly dual to the reflected/ghost Laplacian.  Shaped
    as the grid in node order (x last), one shorter along ``axis``.
    """
    vecs = [np.full(n - 1, h) if a == axis else _interval_weights(n, h)
            for a, (n, h) in enumerate(zip(mesh.grid_shape, mesh.h))]
    return reduce(np.multiply.outer, vecs[::-1])


def build_interval_mesh(n_cells: int, length: float,
                        gamma1_sides: tuple[str, ...] = ("left", "right")) -> Mesh:
    """Uniform mesh on [0, length] with n_cells cells.

    Both endpoints belong to Gamma1 by default; pass a subset of
    ("left", "right") to move an endpoint to the rigid part Gamma0.
    """
    if not isinstance(n_cells, (int, np.integer)) or n_cells < 4:
        raise ConfigurationError(f"n_cells must be an integer >= 4, got {n_cells!r}")
    if not (length > 0 and np.isfinite(length)):
        raise ConfigurationError(f"length must be positive, got {length!r}")
    unknown = set(gamma1_sides) - {"left", "right"}
    if unknown:
        raise ConfigurationError(f"unknown interval sides {sorted(unknown)}")

    n_nodes = n_cells + 1
    h = length / n_cells
    coords = (np.arange(n_nodes) * h).reshape(-1, 1)
    vol = _interval_weights(n_nodes, h)
    if abs(vol.sum() - length) > 1e-12 * length:
        raise ConfigurationError("volume weights do not sum to the domain measure")

    side_nodes = {"left": 0, "right": n_nodes - 1}
    g1 = np.array(sorted(side_nodes[s] for s in gamma1_sides), dtype=int)
    boundary = np.array([0, n_nodes - 1], dtype=int)
    g0 = np.setdiff1d(boundary, g1)

    ghost_coords, inward, axis, sign = [], [], [], []
    for b in g1:
        if b == 0:
            ghost_coords.append([-h])
            inward.append(1)
            sign.append(-1)
        else:
            ghost_coords.append([length + h])
            inward.append(n_nodes - 2)
            sign.append(+1)
        axis.append(0)

    return Mesh(
        kind="interval",
        node_coords=coords,
        h=(h,),
        gamma0=g0,
        gamma1=g1,
        ghost_coords=np.array(ghost_coords, dtype=float),
        ghost_inward=np.array(inward, dtype=int),
        ghost_axis=np.array(axis, dtype=int),
        ghost_sign=np.array(sign, dtype=int),
        vol_weights=vol,
        bnd_weights=np.ones(g1.size),
        grid_shape=(n_nodes,),
    )


def build_strip_mesh(nx: int, ny: int) -> Mesh:
    """Tensor mesh on the unit square; Gamma1 is the top edge.

    Node ids are row-major from the bottom: id = iy*(nx+1) + ix.  Every top
    node (corners included) gets one ghost directly above it; all other
    boundary conditions are rigid and handled by reflection.
    """
    for name, val in (("nx", nx), ("ny", ny)):
        if not isinstance(val, (int, np.integer)) or val < 4:
            raise ConfigurationError(f"{name} must be an integer >= 4, got {val!r}")

    hx, hy = 1.0 / nx, 1.0 / ny
    xs = np.arange(nx + 1) * hx
    ys = np.arange(ny + 1) * hy
    X, Y = np.meshgrid(xs, ys)            # shape (ny+1, nx+1), row iy
    coords = np.column_stack([X.ravel(), Y.ravel()])

    wx = _interval_weights(nx + 1, hx)
    wy = _interval_weights(ny + 1, hy)
    vol = np.outer(wy, wx).ravel()
    if abs(vol.sum() - 1.0) > 1e-12:
        raise ConfigurationError("volume weights do not sum to the domain measure")

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    g1 = np.array([nid(ix, ny) for ix in range(nx + 1)], dtype=int)
    boundary = set()
    for ix in range(nx + 1):
        boundary.add(nid(ix, 0))
        boundary.add(nid(ix, ny))
    for iy in range(ny + 1):
        boundary.add(nid(0, iy))
        boundary.add(nid(nx, iy))
    g0 = np.array(sorted(boundary - set(g1.tolist())), dtype=int)

    ghost_coords = np.column_stack([xs, np.full(nx + 1, 1.0 + hy)])
    inward = np.array([nid(ix, ny - 1) for ix in range(nx + 1)], dtype=int)

    return Mesh(
        kind="strip",
        node_coords=coords,
        h=(hx, hy),
        gamma0=g0,
        gamma1=g1,
        ghost_coords=ghost_coords,
        ghost_inward=inward,
        ghost_axis=np.ones(nx + 1, dtype=int),
        ghost_sign=np.ones(nx + 1, dtype=int),
        vol_weights=vol,
        bnd_weights=wx.copy(),
        grid_shape=(nx + 1, ny + 1),
    )


def mirror_images(mesh: Mesh, state_node_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Positions of the mirror images under x -> L - x (node axis 0 reversed).

    Returns (node_img, bnd_img): the mirror restricted (``restrict_mirror``)
    to the state dofs (the mesh nodes listed in ``state_node_idx``) and to
    the Gamma1 dofs, as positions in those lists; None when some dof has no
    image in its own list.  Ghost slot i belongs to Gamma1 dof i, so
    ``bnd_img`` is also the ghost slots' image.
    """
    mirror = np.arange(mesh.n_nodes).reshape(mesh.grid_shape[::-1])[..., ::-1].ravel()
    node_img, bnd_img = (restrict_mirror(mirror, nodes) for nodes in (state_node_idx, mesh.gamma1))
    return None if node_img is None or bnd_img is None else (node_img, bnd_img)


def inner_product(mesh: Mesh, f: np.ndarray, g: np.ndarray,
                  weight: np.ndarray | None = None) -> complex:
    """Discrete L2 pairing sum(w * conj(f) * g), conjugate-linear in f.

    ``weight`` is an optional extra nodal weight (defaults to 1).
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (mesh.n_nodes,) or g.shape != (mesh.n_nodes,):
        raise DimensionError(
            f"fields must have length {mesh.n_nodes}, got {f.shape} and {g.shape}")
    w = mesh.vol_weights
    if weight is not None:
        weight = np.asarray(weight)
        if weight.shape != (mesh.n_nodes,):
            raise DimensionError(f"weight must have length {mesh.n_nodes}")
        w = w * weight
    val = np.sum(w * np.conjugate(f) * g)
    return complex(val) if np.iscomplexobj(val) else float(val)
