"""Mesh construction, field sampling, norms and error functionals.

The domain is the square [L0, L1] x [L0, L1] with the same J+2 uniformly
spaced nodes on both axes, h = (L1-L0)/(J+1) apart (`Grid.nodes`), and
uniform time levels t_n = t0 + n*l.  Fields are (J+2) x (J+2) matrices with
row index = x node and column index = y node.  The nodes are placed about
the centre of the interval,

    x_j = y_j = (0.5 L0 + 0.5 L1) + h (j - (J+1)/2),    j = 0..J+1,

one formula for every grid (`_node`).  j - (J+1)/2 is exact and changes sign
under j -> J+1-j, so on a centred grid (L0 = -L1, whose centre is exactly 0)
the nodes are exactly mirrored, nodes == -nodes[::-1] bit for bit, and an
odd J puts a node at exactly 0.  The ends lie within a few ulps of L0 and
L1.  The centre is formed as 0.5 L0 + 0.5 L1, which cannot overflow where
L0 + L1 would, and `GridSpec.mesh_steps` refuses a grid whose end node
overflows.

`sample` is the one sampler of the problem's callables (forcing, exact
seeding, Taylor data, and the exact pair that `discrete_errors` compares
against): a pair f(X, Y, t) into one checked (2, n, n) array.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import DegenerateExactError, InvalidSpecError

COUPLED = "coupled"          # l = h*sqrt(h)
INDEPENDENT = "independent"  # l given explicitly

# Cap on a run's step count, read at call time.  It refuses a run too long to
# finish before any operator is built: T = 1e9 at J = 9 asks for 3.5e8 steps,
# while 2^23 steps at J = 9 take about 16 minutes (113 us per step on a
# 2-vCPU Xeon VM).  It holds for every run, streamed or not; the memory of a
# kept trajectory is `stepper.run`'s own budget (`stepper.MAX_TRAJECTORY_BYTES`).
MAX_STEPS = 2**23

# Cap on a run's work, steps x (J+2)^3 (a step's solve is a few n x n matrix
# products), read at call time.  It refuses a long run at a large J, which
# the step cap admits: J = 799 to T = 1e4 is 2,529,823 steps, 1.3e15, about
# six days at 0.22 s per J = 799 step (2-vCPU Xeon VM).  The reference
# J = 1599 (2.9e12) and J = 9 at MAX_STEPS (1.1e10) pass.
MAX_WORK = 2**45


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Mesh parameters.

    step_rule 'coupled' ties the time step to the space step, l = h^(3/2),
    and takes no `l`; 'independent' uses the explicit value in `l`.
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

        Raises InvalidSpecError for an invalid spec (among them a t0 or an
        alpha that is negative or not finite, a J or n_steps that is not an
        integer, and an l given to the coupled rule, which sets l itself),
        for steps that are not positive and finite or an end node
        (`_node` at j = 0 or J+1) that overflows (a width L1 - L0 near the
        float range, an l that underflows), for more steps than MAX_STEPS,
        naming the count, and then for a work steps x (J+2)^3 above
        MAX_WORK, naming the steps, J and the cap.
        """
        if self.L1 <= self.L0:
            raise InvalidSpecError(f"need L1 > L0, got [{self.L0}, {self.L1}]")
        for name in ("J", "n_steps"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidSpecError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.J < 1:
            raise InvalidSpecError(f"need J >= 1, got J={self.J}")
        if self.t0 < 0:
            raise InvalidSpecError(f"need t0 >= 0, got t0={self.t0}")
        if self.n_steps < 1:
            raise InvalidSpecError(f"need n_steps >= 1, got {self.n_steps}")
        if not self.alpha >= 0.0:
            raise InvalidSpecError(f"need alpha >= 0, got alpha={self.alpha}")
        for name in ("t0", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"need a finite {name}, got {name}={getattr(self, name)}")
        if self.step_rule not in (COUPLED, INDEPENDENT):
            raise InvalidSpecError(f"unknown step_rule {self.step_rule!r}")
        if self.step_rule == INDEPENDENT and (self.l is None or self.l <= 0):
            raise InvalidSpecError("independent step rule needs an explicit l > 0")
        if self.step_rule == COUPLED and self.l is not None:
            raise InvalidSpecError(f"the coupled step rule sets l itself; got l={self.l}")
        h = (self.L1 - self.L0) / (self.J + 1)
        l = h * math.sqrt(h) if self.step_rule == COUPLED else float(self.l)
        ends = (_node(self, h, 0), _node(self, h, self.J + 1))
        if not (h > 0.0 and 0.0 < l < math.inf and all(map(math.isfinite, ends))):
            raise InvalidSpecError(f"need finite nodes and mesh steps h, l > 0, got h={h}, l={l}")
        if self.n_steps > MAX_STEPS:
            raise InvalidSpecError(
                f"a run of {self.n_steps} steps is above the cap of {MAX_STEPS:,} steps"
            )
        work = int(self.n_steps) * (int(self.J) + 2) ** 3
        if work > MAX_WORK:
            raise InvalidSpecError(
                f"a run of {self.n_steps} steps at J={self.J} is above the work cap: "
                f"steps x (J+2)^3 = {work:.3g} > {MAX_WORK:.3g}"
            )
        return h, l


def _node(spec: GridSpec, h: float, j):
    """x_j = (0.5 L0 + 0.5 L1) + h (j - (J+1)/2), for an index or an index array j."""
    return (0.5 * spec.L0 + 0.5 * spec.L1) + h * (j - 0.5 * (spec.J + 1))


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
    nodes = _node(spec, h, np.arange(spec.J + 2))
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
        return math.hypot(np.linalg.norm(self.U.values), np.linalg.norm(self.V.values))


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
    not depend on the scaling.  These are the paper's Er and RelEr, the two
    numbers its tables print.
    """

    er: float
    rel_er: float


def discrete_errors(
    traj_numeric: Sequence[CoupledState],
    exact: Callable,
    grid: Grid,
) -> ErrorReport:
    """Max over levels and components of ||X^n - x^n|| and ||X^n - x^n|| / ||x^n||.

    `traj_numeric` may be any iterable of levels, a generator included: the
    maxima are folded level by level.  Each level's exact pair x^n is read
    through `sample`, exact(X, Y, t_n), so a faulty `exact` raises what it
    raises in `run`: InvalidSpecError naming the nodes when it raises or
    does not return a grid-shaped or constant pair, and naming the level
    and t_n when a value is not finite.  All J+2 nodes per axis enter the
    norm, boundary included.  Raises InvalidSpecError on no levels or on a
    level whose error or exact norm is not finite (a NaN would otherwise
    drop out of the maxima), naming the level and t_n and saying whether
    the level holds NaN/Inf or is finite with a norm that overflows
    float64; and
    DegenerateExactError if a nonzero trajectory is compared against an
    exact level of zero norm.
    """
    levels = 0
    fro = rel = 0.0
    for state in traj_numeric:
        levels += 1
        pair = sample(exact, grid, state.level, "exact solution")
        norms = [float(np.linalg.norm(w)) for w in pair]
        np.subtract(state.U.values, pair[0], out=pair[0])
        np.subtract(state.V.values, pair[1], out=pair[1])
        errs = [float(np.linalg.norm(e)) for e in pair]
        if not all(map(math.isfinite, errs + norms)):
            where = f"level {state.level} (t_{state.level} = {grid.time(state.level):.6g})"
            if all(np.isfinite(f.values).all() for f in (state.U, state.V)):
                raise InvalidSpecError(
                    f"{where} and its exact pair are finite, but a norm of them "
                    "or of their difference overflows float64"
                )
            raise InvalidSpecError(f"{where} contains NaN/Inf")
        fro = max(fro, *errs)
        if 0.0 in norms:
            if any(errs):
                raise DegenerateExactError(
                    f"exact solution vanishes identically at level {state.level}"
                )
            continue  # 0/0 convention: an exactly reproduced zero level
        rel = max(rel, errs[0] / norms[0], errs[1] / norms[1])
    if not levels:
        raise InvalidSpecError("empty trajectory")
    return ErrorReport(er=fro / grid.size, rel_er=rel)
