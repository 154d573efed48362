"""Mesh construction, field sampling, norms and error functionals.

The domain is the square [L0, L1] x [L0, L1] with the same J+2 uniformly
spaced nodes on both axes (x_j = y_j = L0 + j*h, h = (L1-L0)/(J+1),
`Grid.nodes`) and uniform time levels t_n = t0 + n*l.  Fields are (J+2) x
(J+2) matrices with row index = x node and column index = y node.

`sample` is the one sampler of the problem's callables (forcing, exact
seeding, Taylor data): a pair f(X, Y, t) into one checked (2, n, n) array.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import DegenerateExactError, InvalidSpecError

COUPLED = "coupled"          # l = h*sqrt(h)
INDEPENDENT = "independent"  # l given explicitly

# Byte budget for the U/V trajectory, 16 (n_steps + 1) (J+2)^2 bytes, checked
# for every run, streamed or not.  It has two reasons: the memory of the list
# that `stepper.run` keeps (the reference J = 799 needs 2.6e9), and, until a
# preflight of the run's work exists, the only refusal of a run too long to
# finish: T = 1e9 at J = 9 (3.5e8 steps) is refused before any operator is
# built, also when `stepper.march` would stream it.
MAX_TRAJECTORY_BYTES = 2**34


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Mesh parameters.

    step_rule 'coupled' ties the time step to the space step, l = h^(3/2);
    'independent' uses the explicit value in `l`.
    """

    L0: float
    L1: float
    J: int
    t0: float = 0.0
    n_steps: int = 2
    alpha: float = 0.25
    step_rule: str = COUPLED
    l: float | None = None

    def mesh_steps(self) -> tuple[float, float]:
        """The space and time steps (h, l), after the checks of the spec.

        Raises InvalidSpecError for an invalid spec (alpha < 0 or NaN among
        them: the scheme's weight is alpha >= 0), for steps that are not
        positive and finite or a last node L0 + (J+1) h that overflows (a
        width L1 - L0 near the float range, an l that underflows), and for a
        trajectory above MAX_TRAJECTORY_BYTES.
        """
        if self.L1 <= self.L0:
            raise InvalidSpecError(f"need L1 > L0, got [{self.L0}, {self.L1}]")
        if self.J < 1:
            raise InvalidSpecError(f"need J >= 1, got J={self.J}")
        if self.t0 < 0:
            raise InvalidSpecError(f"need t0 >= 0, got t0={self.t0}")
        if self.n_steps < 1:
            raise InvalidSpecError(f"need n_steps >= 1, got {self.n_steps}")
        if not self.alpha >= 0.0:
            raise InvalidSpecError(f"need alpha >= 0, got alpha={self.alpha}")
        if self.step_rule not in (COUPLED, INDEPENDENT):
            raise InvalidSpecError(f"unknown step_rule {self.step_rule!r}")
        if self.step_rule == INDEPENDENT and (self.l is None or self.l <= 0):
            raise InvalidSpecError("independent step rule needs an explicit l > 0")
        h = (self.L1 - self.L0) / (self.J + 1)
        l = h * math.sqrt(h) if self.step_rule == COUPLED else float(self.l)
        if not (h > 0.0 and 0.0 < l < math.inf and math.isfinite(self.L0 + h * (self.J + 1))):
            raise InvalidSpecError(f"need finite nodes and mesh steps h, l > 0, got h={h}, l={l}")
        trajectory_bytes = 16 * (self.n_steps + 1) * (self.J + 2) ** 2
        if trajectory_bytes > MAX_TRAJECTORY_BYTES:
            raise InvalidSpecError(
                f"the trajectory of {self.n_steps} steps at J={self.J} would take "
                f"{trajectory_bytes:,} bytes, above the budget {MAX_TRAJECTORY_BYTES:,}"
            )
        return h, l


@dataclasses.dataclass(frozen=True)
class Grid:
    """Realized mesh: the axis nodes, shared by x and y, and the mesh steps."""

    spec: GridSpec
    nodes: np.ndarray
    h: float
    l: float
    singular: np.ndarray  # indices j with |x_j| <= h/100: nodes on a coordinate axis

    @property
    def size(self):
        """Matrix dimension J+2."""
        return self.nodes.size

    @property
    def sigma(self):
        return self.l * self.l / (self.h * self.h)

    @property
    def t0(self):
        return self.spec.t0

    @property
    def n_steps(self):
        return self.spec.n_steps

    def time(self, n):
        return self.spec.t0 + n * self.l

    def meshgrid(self):
        """(X, Y) coordinate matrices matching the field convention.

        Built once per grid and shared by every caller, so both are read-only.
        """
        return self._coordinates

    @functools.cached_property
    def _coordinates(self):
        X, Y = np.meshgrid(self.nodes, self.nodes, indexing="ij")
        X.flags.writeable = Y.flags.writeable = False
        return X, Y


def build_grid(spec: GridSpec) -> Grid:
    """Build the uniform mesh, flagging nodes that sit on a coordinate axis."""
    h, l = spec.mesh_steps()
    nodes = spec.L0 + h * np.arange(spec.J + 2)
    singular = np.flatnonzero(np.abs(nodes) <= h / 100.0)
    return Grid(spec=spec, nodes=nodes, h=h, l=l, singular=singular)


@dataclasses.dataclass(frozen=True)
class Field:
    """One (J+2) x (J+2) real matrix."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidSpecError(f"field must be square, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def size(self):
        return self.values.shape[0]


@dataclasses.dataclass(frozen=True)
class CoupledState:
    """The unknown pair (U, V) at one time level."""

    U: Field
    V: Field
    level: int = 0

    def __post_init__(self):
        if self.U.size != self.V.size:
            raise InvalidSpecError("U and V must share dimensions")

    def check_finite(self):
        for field in (self.U, self.V):
            if not np.isfinite(field.values).all():
                raise InvalidSpecError(f"field at level {self.level} contains NaN/Inf")
        return self

    def sup_norm(self):
        """Combined Frobenius norm of the pair."""
        return math.hypot(l2_norm(self.U), l2_norm(self.V))


def l2_norm(X) -> float:
    """Frobenius norm (sum |X_ij|^2)^(1/2)."""
    values = X.values if isinstance(X, Field) else np.asarray(X)
    return float(np.linalg.norm(values))


def sample(f: Callable, grid: Grid, level: int, name: str) -> np.ndarray:
    """The pair f(X, Y, t_level) on the grid nodes, written into one (2, n, n) array.

    f receives the grid's read-only coordinate matrices and t_level; each
    value of the pair may be grid-shaped or broadcastable (a constant).
    Raises InvalidSpecError naming the nodes when f raises (as one that
    writes into the coordinates does) or does not return such a pair, and
    naming `name`, the level and t when a sample is not finite.
    """
    X, Y = grid.meshgrid()
    t = grid.time(level)
    pair = np.empty((2,) + X.shape)
    try:
        pair[0], pair[1] = f(X, Y, t)
    except Exception as exc:
        raise InvalidSpecError(
            f"sampling failed on nodes x in [{grid.nodes[0]}, {grid.nodes[-1]}]: {exc}"
        ) from exc
    if not np.isfinite(pair).all():
        raise InvalidSpecError(f"{name} at level {level} (t_{level} = {t:.6g}) contains NaN/Inf")
    return pair


class ErrorReport(NamedTuple):
    """Discrete error functionals, max over time levels and both components.

    er carries the per-node RMS scaling ||E||_F / (J+2), the scale on which
    the reference table's error values live (a pointwise-O(h^2) field then
    shows order 2).  rel_er is the ratio max_n ||E^n|| / ||x^n|| and does
    not depend on the scaling.
    """

    er: float
    rel_er: float
    er_u: float
    rel_er_u: float
    er_v: float
    rel_er_v: float


def _grid_values(w, shape) -> np.ndarray:
    """w as a float array of the grid's shape, broadcast only when it is not."""
    w = np.asarray(w, dtype=float)
    return w if w.shape == shape else np.broadcast_to(w, shape)


def discrete_errors(
    traj_numeric: Sequence[CoupledState],
    exact: Callable,
    grid: Grid,
) -> ErrorReport:
    """Per-component max_n ||X^n - x^n|| and max_n ||X^n - x^n|| / ||x^n||.

    `traj_numeric` may be any iterable of levels, a generator included: the
    maxima are folded level by level.  `exact` is called as exact(X, Y, t)
    with coordinate matrices and must return the pair (u, v).  All J+2 nodes
    per axis enter the norm, boundary included.  Raises InvalidSpecError on
    no levels, and DegenerateExactError if a nonzero trajectory is compared
    against an exact level of zero norm.
    """
    X, Y = grid.meshgrid()
    levels = 0
    fro_u = fro_v = rel_u = rel_v = 0.0
    for state in traj_numeric:
        levels += 1
        t = grid.time(state.level)
        u_ex, v_ex = (_grid_values(w, X.shape) for w in exact(X, Y, t))
        du = float(np.linalg.norm(state.U.values - u_ex))
        dv = float(np.linalg.norm(state.V.values - v_ex))
        nu = float(np.linalg.norm(u_ex))
        nv = nu if v_ex is u_ex else float(np.linalg.norm(v_ex))
        fro_u = max(fro_u, du)
        fro_v = max(fro_v, dv)
        if nu == 0.0 or nv == 0.0:
            if du > 0.0 or dv > 0.0:
                raise DegenerateExactError(
                    f"exact solution vanishes identically at level {state.level}"
                )
            continue  # 0/0 convention: an exactly reproduced zero level
        rel_u = max(rel_u, du / nu)
        rel_v = max(rel_v, dv / nv)
    if not levels:
        raise InvalidSpecError("empty trajectory")
    scale = grid.size
    return ErrorReport(
        er=max(fro_u, fro_v) / scale,
        rel_er=max(rel_u, rel_v),
        er_u=fro_u / scale,
        rel_er_u=rel_u,
        er_v=fro_v / scale,
        rel_er_v=rel_v,
    )
