import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epdsys.grid
from epdsys.bench import RunConfig, grid_spec_for
from epdsys.exceptions import DegenerateExactError, InvalidSpecError
from epdsys.grid import (
    MAX_STEPS,
    CoupledState,
    Field,
    GridSpec,
    build_grid,
    discrete_errors,
    sample,
)
from epdsys.stepper import ProblemDef, run


def test_build_grid_table_row():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=24))
    assert grid.h == pytest.approx(0.8, rel=1e-15)
    assert grid.nodes.size == 26
    assert grid.l == pytest.approx(0.8**1.5, rel=1e-15)
    assert grid.l == pytest.approx(0.715542, abs=1e-6)


def test_build_grid_two_intervals():
    grid = build_grid(GridSpec(L0=0.0, L1=1.0, J=1))
    assert np.allclose(grid.nodes, [0.0, 0.5, 1.0])
    assert grid.h == 0.5


def test_build_grid_flags_axis_node():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=49))
    assert grid.h == pytest.approx(0.4)
    assert list(grid.singular) == [25]
    assert abs(grid.nodes[25]) <= grid.h / 100


def test_build_grid_nodes_uniform():
    grid = build_grid(GridSpec(L0=-3.0, L1=7.0, J=17))
    steps = np.diff(grid.nodes)
    assert np.all(steps > 0)
    assert np.allclose(steps, grid.h, rtol=1e-14)
    assert grid.sigma == pytest.approx(grid.l**2 / grid.h**2, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L0=1.0, L1=0.0, J=4),
        dict(L0=0.0, L1=1.0, J=0),
        dict(L0=0.0, L1=1.0, J=4, step_rule="independent"),  # missing l
        dict(L0=0.0, L1=1.0, J=4, step_rule="nope"),
        dict(L0=-1e308, L1=1e308, J=4),  # the width L1 - L0 overflows
        dict(L0=-1.7e308, L1=0.0, J=1),  # the coupled l = h^(3/2) overflows
        dict(L0=0.0, L1=1.0, J=4, n_steps=0),
        dict(L0=0.0, L1=1.0, J=4, alpha=-1.0),
        dict(L0=0.0, L1=1.0, J=4, alpha=math.nan),  # refused by `not alpha >= 0`
        dict(L0=0.0, L1=1.0, J=4, t0=math.nan),
        dict(L0=0.0, L1=1.0, J=4, t0=math.inf),
        dict(L0=0.0, L1=1.0, J=4, alpha=math.inf),
        dict(L0=0.0, L1=10.0, J=9.5),  # would build 12 nodes ending past L1
        dict(L0=0.0, L1=1.0, J=4, n_steps=2.5),
        dict(L0=0.0, L1=1.0, J=4, l=0.01),  # the coupled rule sets l itself
    ],
)
def test_build_grid_invalid_specs(kwargs):
    with pytest.raises(InvalidSpecError):
        build_grid(GridSpec(**kwargs))


def test_build_grid_caps_the_step_count(monkeypatch):
    # the cap refuses a run too long to finish; the memory of a kept
    # trajectory is not the grid's concern, so the reference J = 1599, which
    # a streamed run holds in two levels, is a valid mesh
    assert build_grid(grid_spec_for(RunConfig(J=1599))).n_steps == 716
    spec = GridSpec(L0=-10, L1=10, J=9, n_steps=MAX_STEPS)
    assert build_grid(spec).n_steps == MAX_STEPS == 8_388_608
    with pytest.raises(
        InvalidSpecError, match=r"^a run of 8388609 steps is above the cap of 8,388,608 steps$"
    ):
        build_grid(GridSpec(L0=-10, L1=10, J=9, n_steps=MAX_STEPS + 1))
    monkeypatch.setattr(epdsys.grid, "MAX_STEPS", 2)  # read at call time
    with pytest.raises(InvalidSpecError, match=r"^a run of 3 steps is above the cap of 2 steps$"):
        build_grid(GridSpec(L0=-10, L1=10, J=9, n_steps=3))


def test_build_grid_caps_the_work(monkeypatch):
    # the step cap admits a long run at a large J; the work cap, steps x (J+2)^3,
    # refuses it at once, after the step cap, and admits the long small-J runs
    spec = grid_spec_for(RunConfig(J=799, T=1e4))
    assert spec.n_steps == 2_529_823
    with pytest.raises(
        InvalidSpecError,
        match=r"^a run of 2529823 steps at J=799 is above the work cap: "
        r"steps x \(J\+2\)\^3 = 1\.3e\+15 > 3\.52e\+13$",
    ):
        build_grid(spec)
    for ok in (
        grid_spec_for(RunConfig(J=1599)),
        grid_spec_for(RunConfig(J=399, T=100)),
        GridSpec(L0=-10, L1=10, J=9, n_steps=MAX_STEPS),
    ):
        build_grid(ok)
    # the step cap keeps its message and comes first
    with pytest.raises(InvalidSpecError, match=r"^a run of 8388609 steps is above the cap"):
        build_grid(GridSpec(L0=-10, L1=10, J=799, n_steps=MAX_STEPS + 1))
    monkeypatch.setattr(epdsys.grid, "MAX_WORK", 3 * 5**3 - 1)  # read at call time
    build_grid(GridSpec(L0=-10, L1=10, J=3, n_steps=2))
    with pytest.raises(InvalidSpecError, match=r"^a run of 3 steps at J=3 is above the work cap"):
        build_grid(GridSpec(L0=-10, L1=10, J=3, n_steps=3))


# the grids the tier-1 suite builds, centred and not
TIER1_GRIDS = [
    (-10, 10, J) for J in (1, 3, 4, 6, 9, 24, 49, 99, 199, 399, 799)
] + [
    (-1, 1, 3), (-1, 1, 5), (-1, 1, 9), (-2, 2, 2), (-2, 2, 3), (-2, 2, 5), (-2, 2, 7),
    (-3, 7, 9), (-3, 7, 24), (-3.0, 7.0, 17), (0, 1, 1), (0, 1, 3), (0, 2, 1), (0, 3, 2),
    (0, 5, 9), (1, 8, 6),
]


@pytest.mark.parametrize("L", [1.0, 3.7, 10.0])
@pytest.mark.parametrize("J", [1, 4, 9, 24, 49, 99, 199])
def test_centred_nodes_are_exactly_mirrored(J, L):
    nodes = build_grid(GridSpec(L0=-L, L1=L, J=J)).nodes
    assert np.array_equal(nodes, -nodes[::-1])
    if J % 2:
        assert nodes[(J + 1) // 2] == 0.0


@pytest.mark.parametrize(("L0", "L1", "J"), TIER1_GRIDS)
def test_end_nodes_and_axis_nodes_of_the_tier1_grids(L0, L1, J):
    grid = build_grid(GridSpec(L0=L0, L1=L1, J=J))
    ulp = math.ulp(max(abs(L0), abs(L1)))
    assert abs(grid.nodes[0] - L0) <= 4 * ulp and abs(grid.nodes[-1] - L1) <= 4 * ulp
    # the axis nodes the grid flagged when its nodes were L0 + j h
    former = L0 + grid.h * np.arange(J + 2)
    assert np.array_equal(grid.singular, np.flatnonzero(np.abs(former) <= grid.h / 100.0))


def test_grid_near_the_float_range():
    grid = build_grid(GridSpec(L0=1e308, L1=1.7e308, J=9, step_rule="independent", l=0.01))
    assert np.isfinite(grid.nodes).all()
    assert (grid.nodes[0], grid.nodes[-1]) == (1e308, 1.7e308)
    # the last node rounds past the float range: refused by the mesh check
    with pytest.raises(InvalidSpecError, match=r"^need finite nodes"):
        build_grid(GridSpec(L0=1e308, L1=math.nextafter(math.inf, 0.0), J=9,
                            step_rule="independent", l=0.01))


@settings(max_examples=300, deadline=None)
@given(
    ends=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True
    ),
    J=st.integers(1, 60),
)
def test_grid_nodes_are_finite_or_the_mesh_is_refused(ends, J):
    L0, L1 = sorted(ends)
    try:
        with np.errstate(over="ignore"):
            grid = build_grid(GridSpec(L0=L0, L1=L1, J=J, step_rule="independent", l=0.01))
    except InvalidSpecError as exc:
        assert str(exc).startswith("need finite nodes")
        return
    assert np.isfinite(grid.nodes).all()


def test_independent_step_rule():
    grid = build_grid(GridSpec(L0=0, L1=1, J=3, step_rule="independent", l=0.125))
    assert grid.l == 0.125


def test_sample_constant_and_linear():
    grid = build_grid(GridSpec(L0=0.0, L1=1.0, J=1))
    ones, fx = sample(lambda x, y, t: (np.ones_like(x), x), grid, 0, "f")
    assert np.all(ones == 1.0)
    # row index is the x node
    assert np.allclose(fx, [[0, 0, 0], [0.5, 0.5, 0.5], [1, 1, 1]])


def test_sample_gaussian_center_adjacent():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=24))
    f, _ = sample(lambda x, y, t: (np.exp(-(x * x + y * y)), 0.0), grid, 0, "f")
    assert grid.nodes[12] == pytest.approx(-0.4)
    assert f[12, 12] == pytest.approx(0.726149, abs=1e-6)


def test_sample_failure_carries_coordinates():
    grid = build_grid(GridSpec(L0=0.0, L1=1.0, J=1))

    def bad(x, y, t):
        raise ValueError("boom")

    with pytest.raises(InvalidSpecError, match="nodes"):
        sample(bad, grid, 0, "f")


def test_sample_rejects_writes_into_the_shared_coordinates():
    # the coordinate matrices are built once per grid; a sampled function
    # that writes into them fails by name instead of corrupting later samples
    grid = build_grid(GridSpec(L0=0.0, L1=1.0, J=3))
    X, Y = grid.meshgrid()
    assert grid.meshgrid()[0] is X
    X0 = X.copy()

    def scribble(x, y, t):
        x *= 2.0
        return x, y

    with pytest.raises(InvalidSpecError, match="read-only"):
        sample(scribble, grid, 0, "f")
    assert np.array_equal(X, X0)
    assert np.array_equal(sample(lambda x, y, t: (x, y), grid, 0, "f")[0], X0)


def _traj_from(exact, grid, levels):
    X, Y = grid.meshgrid()
    out = []
    for n in levels:
        u, v = exact(X, Y, grid.time(n))
        out.append(CoupledState(Field(np.array(u)), Field(np.array(v)), n))
    return out


def test_discrete_errors_of_itself_is_zero():
    grid = build_grid(GridSpec(L0=-2, L1=2, J=5, n_steps=3))
    exact = lambda x, y, t: (np.exp(-(x * x + y * y)) * (1 + t), np.cos(x) + t * y)
    traj = _traj_from(exact, grid, [0, 1, 2, 3])
    rep = discrete_errors(traj, exact, grid)
    assert rep == (0.0, 0.0)


def test_discrete_errors_folds_a_generator_of_levels():
    # an empty stream is refused like an empty list, not reported as error 0
    grid = build_grid(GridSpec(L0=-2, L1=2, J=5, n_steps=3))
    exact = lambda x, y, t: (np.exp(-(x * x + y * y)) * (1 + t), 2.0)
    for empty in ([], iter([]), (state for state in [])):
        with pytest.raises(InvalidSpecError, match="empty trajectory"):
            discrete_errors(empty, exact, grid)
    traj = _traj_from(lambda x, y, t: (np.cos(x * y) + t, x * t), grid, [0, 1, 2, 3])
    expected = discrete_errors(traj, exact, grid)
    assert expected.er > 0.0
    assert discrete_errors((state for state in traj), exact, grid) == expected


def test_discrete_errors_degenerate_exact():
    grid = build_grid(GridSpec(L0=-2, L1=2, J=3, n_steps=2))
    zero = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
    traj = _traj_from(lambda x, y, t: (np.ones_like(x), np.ones_like(x)), grid, [0, 1])
    with pytest.raises(DegenerateExactError):
        discrete_errors(traj, zero, grid)
    # a zero trajectory against a zero exact solution is fine (0/0 -> 0)
    rep = discrete_errors(_traj_from(zero, grid, [0, 1]), zero, grid)
    assert rep.er == 0.0 and rep.rel_er == 0.0


@pytest.mark.parametrize("component", [0, 1], ids=["u", "v"])
@pytest.mark.parametrize("bad_level", [0, 2], ids=["first", "last"])
def test_discrete_errors_non_finite_exact_is_named(component, bad_level):
    # max(er, nan) keeps er, so a NaN exact value would read as zero error
    grid = build_grid(GridSpec(L0=-2, L1=2, J=3, n_steps=2))
    exact = lambda x, y, t: (np.exp(-(x * x + y * y)) * (1 + t), np.cos(x) + t * y)
    t_bad = grid.time(bad_level)

    def exact_nan(x, y, t):
        pair = list(exact(x, y, t))
        if t == t_bad:
            pair[component] = pair[component] + np.nan
        return tuple(pair)

    traj = _traj_from(exact, grid, [0, 1, 2])
    named = rf"^exact solution at level {bad_level} \(t_{bad_level} = .*\) contains NaN/Inf$"
    with pytest.raises(InvalidSpecError, match=named):
        discrete_errors(traj, exact_nan, grid)


@pytest.mark.parametrize("bad_level", [0, 2], ids=["first", "last"])
def test_discrete_errors_non_finite_level_is_named(bad_level):
    grid = build_grid(GridSpec(L0=-2, L1=2, J=3, n_steps=2))
    exact = lambda x, y, t: (np.exp(-(x * x + y * y)) * (1 + t), np.cos(x) + t * y)
    traj = _traj_from(exact, grid, [0, 1, 2])
    traj[bad_level].V.values[1, 2] = np.inf
    named = rf"^level {bad_level} \(t_{bad_level} = {grid.time(bad_level):.6g}\) contains NaN/Inf$"
    with pytest.raises(InvalidSpecError, match=named):
        discrete_errors(traj, exact, grid)


def test_discrete_errors_overflowing_norm_is_named():
    # every value is finite, but the sum of squares of 25 values of 1e160 is not
    grid = build_grid(GridSpec(L0=-2, L1=2, J=3, n_steps=2))
    big = lambda x, y, t: (np.full_like(x, 1e160), np.full_like(x, 1e160))
    traj = _traj_from(big, grid, [0, 1])
    named = r"^level 0 \(t_0 = 0\) and its exact pair are finite, but a norm .* overflows float64$"
    with np.errstate(over="ignore"), pytest.raises(InvalidSpecError, match=named):
        discrete_errors(traj, big, grid)


def _raising(x, y, t):
    return 1.0 / 0.0, y


def _misshapen(x, y, t):
    return x[:-1], y


def _three_valued(x, y, t):
    return x, y, x


@pytest.mark.parametrize("bad_exact", [_raising, _misshapen, _three_valued])
def test_discrete_errors_names_a_faulty_exact_as_run_does(bad_exact):
    # the exact pair is read through `sample`, as run's seeding reads it, so the
    # same callable is refused by name, with the same message, by both
    spec = GridSpec(L0=-2, L1=2, J=3, n_steps=2)
    grid = build_grid(spec)
    traj = _traj_from(lambda x, y, t: (x, y), grid, [0, 1, 2])
    with pytest.raises(InvalidSpecError, match="^sampling failed on nodes") as by_errors:
        discrete_errors(traj, bad_exact, grid)
    prob = ProblemDef(a=2.5, lam=0.25, gamma=0.25, p=1.5, q=1.5, exact=bad_exact)
    with pytest.raises(InvalidSpecError, match="^sampling failed on nodes") as by_run:
        run(prob, spec)
    assert str(by_errors.value) == str(by_run.value)


def test_discrete_errors_scalings():
    grid = build_grid(GridSpec(L0=-2, L1=2, J=2, n_steps=2))
    exact = lambda x, y, t: (np.ones_like(x), np.ones_like(x))
    traj = _traj_from(lambda x, y, t: (np.ones_like(x) + 0.1, np.ones_like(x)), grid, [0, 1])
    rep = discrete_errors(traj, exact, grid)
    assert rep.er == pytest.approx(0.1, rel=1e-12)  # sqrt(n^2 * 0.01) / n
    assert rep.rel_er == pytest.approx(0.1, rel=1e-12)


def test_field_validation():
    with pytest.raises(InvalidSpecError):
        Field(np.zeros((2, 3)))
    # the state owns the level, and check_finite names it, for either field
    finite, nan = np.zeros((2, 2)), np.array([[np.nan, 0.0], [0.0, 0.0]])
    assert CoupledState(Field(finite), Field(finite), 7).check_finite().level == 7
    for U, V in ((nan, finite), (finite, nan)):
        with pytest.raises(InvalidSpecError, match=r"^field at level 7 contains NaN/Inf$"):
            CoupledState(Field(U), Field(V), 7).check_finite()
    with pytest.raises(InvalidSpecError, match="share dimensions"):
        CoupledState(Field(np.zeros((2, 2))), Field(np.zeros((3, 3))))
