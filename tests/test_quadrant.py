"""Method II's quadrant stack: a plan made with `fold` over bitwise-mirrored
tridiagonal pairs also factors each pair restricted to its modes even in
both directions, and `_solve` takes that stack for a right-hand side of the
quadrant's width.  It must agree with the Kronecker oracle and with the full
stack, leave the margins alone, and give every full-width right-hand side
the full stack's result bit for bit.  `prepare` folds only a Method II run
whose work reaches `stepper.QUADRANT_MIN_WORK`, and `march` then carries the
run on the quadrant: the image of a level's corner, the weighted norms and
the run itself must match their full-size counterparts, and a forcing that
turns odd must send the run back to full size."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import epdsys.bench
from epdsys.bench import DEFAULT_BENCH_J, RunConfig, grid_spec_for, manufactured_problem, run_table1
from epdsys.exceptions import InvalidSpecError, SolvabilityError
from epdsys.grid import GridSpec, build_grid
from epdsys.operators import (
    BRANCH_SIGNS, TriDiagMatrix, _even, _norm, _unfold, assemble_step_operators,
    build_operator_set,
)
from epdsys.stepper import (
    QUADRANT_MIN_WORK, init_levels, march, plan_solves, prepare, run, step,
)
from epdsys.sylvester import (
    CoupledProblem,
    _factor,
    _fold_band,
    _mirrored,
    _solve,
    _symmetrizer,
    kronecker_solve,
)

from kronecker_bounds import agreement_bound

BRANCHES = tuple(BRANCH_SIGNS)
sizes = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
shifts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def mirrored_band(rng, n, schur=False):
    """A random TriDiagMatrix equal to its flip bitwise (diag[i] = diag[n-1-i],
    sub = sup[::-1]).  Every sub * sup > 0, so it is symmetrizable, unless
    `schur`, which flips the sign of sub[0] (n >= 3) so that it is not."""
    half = 3.0 + rng.standard_normal((n + 1) // 2)
    diag = np.concatenate([half, half[: n // 2][::-1]])
    signs = rng.choice([-1.0, 1.0], n - 1)
    sub = signs * signs[::-1] * rng.uniform(0.5, 1.5, n - 1)
    if schur:
        sub[0] = -sub[0]
    M = TriDiagMatrix(sub=sub, diag=diag, sup=sub[::-1].copy())
    assert _mirrored(M)
    return M


def even(C):
    """C summed with its flips, bitwise even in rows and columns."""
    C = C + C[..., ::-1, :]
    return C + C[..., ::-1]


@st.composite
def mirrored_stacks(draw):
    """A stack of two mirrored pairs (sum, diff), each transposed (R = L^T) or
    not and on either kernel, and a shift; None where the plan refuses it."""
    n, seed, s = draw(sizes), draw(seeds), draw(shifts)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in BRANCHES:
        schur = n >= 3 and draw(st.booleans())
        L = mirrored_band(rng, n, schur)
        R = L.T if draw(st.booleans()) else mirrored_band(rng, n, schur and draw(st.booleans()))
        pairs.append((L, R))
    return n, rng, pairs, s


def plans(pairs, s):
    """The plan of the pairs at shift s with and without its quadrant stack."""
    try:
        return _factor(pairs, BRANCHES, [s], fold=True), _factor(pairs, BRANCHES, [s])
    except SolvabilityError:
        assume(False)


def branch_oracle(L, R, C, s):
    """Method I's solution of (L + s I) X + X (R + s I) = C, as a coupled
    pair with R = S = 0, and the bound two backward-stable solves may part by."""
    n = L.size
    Z, I = np.zeros((n, n)), np.eye(n)
    p = CoupledProblem(W=L.dense() + s * I, R=Z, S=Z, C1=C, C2=C, W_right=R.dense() + s * I)
    return kronecker_solve(p)[0], agreement_bound(p)


@settings(max_examples=120, deadline=None)
@given(stack=mirrored_stacks())
def test_quadrant_solve_of_an_even_rhs_matches_kronecker_and_the_full_stack(stack):
    n, rng, pairs, s = stack
    plan, full = plans(pairs, s)
    m = (n + 1) // 2
    assert plan.quadrant is not None and full.quadrant is None
    assert plan.quadrant.QL.shape == (2, m, m)
    assert plan.quadrant.kernels == plan.kernels
    assert (plan.quadrant.QR is plan.quadrant.QL) == (plan.QR is plan.QL)
    # the margins are the full pairs', bit for bit
    assert np.array_equal(plan.margins, full.margins)
    assert np.array_equal(plan.attaining, full.attaining)
    C = even(rng.standard_normal((2, n, n)))
    # an m-wide C is the quadrant of an even one, and its solution the even
    # solution's quadrant
    Xq = _solve(plan, C[:, :m, :m].copy(), 0)
    assert Xq.shape == (2, m, m) and Xq.flags.c_contiguous
    X = _unfold(Xq, n)
    X_full = _solve(full, C, 0)
    # a full-width C takes the full stack, even or not
    assert np.array_equal(_solve(plan, C, 0), X_full)
    for (L, R), Xb, Xb_full, sign in zip(pairs, X, X_full, plan.signs.ravel()):
        X_kron, bound = branch_oracle(L, R, C[0] if sign > 0 else C[1], sign * s)
        scale = max(np.abs(X_kron).max(), 1.0)
        assert np.abs(Xb - X_kron).max() / scale <= bound
        assert np.abs(Xb - Xb_full).max() / scale <= bound


@settings(max_examples=80, deadline=None)
@given(stack=mirrored_stacks(), kind=st.sampled_from(["random", "rows only", "one bit off"]))
def test_rhs_that_is_not_even_takes_the_full_stack_bitwise(stack, kind):
    n, rng, pairs, s = stack
    plan, full = plans(pairs, s)
    C = rng.standard_normal((2, n, n))
    if kind == "rows only":
        C = C + C[:, ::-1]
    elif kind == "one bit off":
        C = even(C)
        C[1, 0, -1] = np.nextafter(C[1, 0, -1], np.inf)
    assert np.array_equal(_solve(plan, C, 0), _solve(full, C, 0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=7), seed=seeds, kind=st.sampled_from(["random", "even", "one off"]))
def test_even_compares_half_of_each_axis_as_the_whole_flips_would(n, seed, kind):
    rng = np.random.default_rng(seed)
    C = rng.integers(0, 2, (2, n, n)).astype(float)
    if kind != "random":
        C = even(C)
    if kind == "one off":
        C[tuple(rng.integers(0, [2, n, n]))] += 1.0
    for P in (C, C[0]):
        whole = np.array_equal(P, P[..., ::-1, :]) and np.array_equal(P, P[..., ::-1])
        assert _even(P) == whole


def test_a_quadrant_wide_rhs_needs_a_quadrant_stack():
    rng = np.random.default_rng(0)
    pairs = [(mirrored_band(rng, 6),) * 2 for _ in BRANCHES]
    plan = _factor(pairs, BRANCHES, [0.0])
    with pytest.raises(InvalidSpecError, match="width 3 needs a quadrant stack"):
        _solve(plan, np.ones((2, 3, 3)), 0)


@settings(max_examples=120, deadline=None)
@given(n=sizes, seed=seeds, rows=st.booleans(), schur=st.booleans())
def test_folded_band_keeps_its_kernel_and_its_even_eigenvalues(n, seed, rows, schur):
    # the fold doubles the centre's sub or moves a diagonal entry, so the
    # folded band is symmetrizable exactly when the full one is
    M = mirrored_band(np.random.default_rng(seed), n, schur and n >= 3)
    Me = _fold_band(M, rows)
    assert Me.size == (n + 1) // 2
    assert (_symmetrizer(Me) is None) == (_symmetrizer(M) is None)
    # the folded band is the restriction to even vectors, E^T-folded or folded
    # through E: its eigenvalues are among the full band's
    lams = np.linalg.eigvals(M.dense())
    for mu in np.linalg.eigvals(Me.dense()):
        assert np.abs(lams - mu).min() <= 1e-10 * max(np.abs(lams).max(), 1.0)


def long_spec(config, n_steps):
    """The config's grid spec at its own J, [t0, T] in n_steps steps."""
    l = (config.T - config.t0) / n_steps
    return dataclasses.replace(grid_spec_for(config), n_steps=n_steps, step_rule="independent", l=l)


@pytest.mark.parametrize(("lam", "gamma"), [(0.25, 0.25), (0.25, 0.3)])
def test_method_two_levels_are_exactly_even_on_a_centred_grid(lam, gamma):
    # 120 steps at J = 24 reach QUADRANT_MIN_WORK
    config = RunConfig(J=24, lam=lam, gamma=gamma, a=2.5)
    prob, _ = manufactured_problem(config)
    spec = long_spec(config, 120)
    _, _, plan = prepare(prob, spec)
    assert plan.quadrant is not None and plan.quadrant.QL.shape == (2, 13, 13)
    levels = list(march(prob, spec))
    assert len(levels) == 121
    for state, report in levels:
        for F in (state.U.values, state.V.values):
            assert np.array_equal(F, F[::-1]) and np.array_equal(F, F[:, ::-1]), state.level
        assert report is None or report.residual_coupled <= 1e-14


@pytest.mark.parametrize(("J", "n_steps"), [(24, 119), (24, 120), (49, 15), (49, 16), (99, 2), (99, 3)])
def test_a_run_folds_from_quadrant_min_work_on(J, n_steps):
    config = RunConfig(J=J)
    prob, _ = manufactured_problem(config)
    _, _, plan = prepare(prob, long_spec(config, n_steps))
    assert (plan.quadrant is not None) == (n_steps * (J + 2) ** 3 >= QUADRANT_MIN_WORK)


def test_no_table1_row_is_folded():
    # each row runs one to three steps: the quadrant would not repay its setup
    config = RunConfig(J=49)
    prob, _ = manufactured_problem(config)
    for J in DEFAULT_BENCH_J:
        _, _, plan = prepare(prob, grid_spec_for(config, J))
        assert plan.quadrant is None, J


@pytest.mark.parametrize(
    ("L0", "L1", "solver"), [(-3.0, 7.0, "sylvester"), (-10.0, 10.0, "kronecker")]
)
def test_no_quadrant_stack_off_a_centred_grid_or_for_method_one(L0, L1, solver):
    # the asymmetric grid's bands are not mirrored; Method I reads only the
    # pairs.  Both runs are long enough to fold otherwise
    config = RunConfig(J=24, L0=L0, L1=L1)
    prob, _ = manufactured_problem(config)
    spec = long_spec(config, 120)
    _, _, plan = prepare(prob, spec, solver=solver)
    assert plan.quadrant is None
    reports = [report for _, report in march(prob, spec, solver=solver)][2:]
    assert len(reports) == 119 and not any(report.quadrant for report in reports)


def horizon_spec(J, n_steps):
    """The horizon benchmark's mesh at J: t0 = 1, l = 0.005."""
    return GridSpec(L0=-10, L1=10, J=J, t0=1.0, n_steps=n_steps, step_rule="independent", l=0.005)


def full_stack_run(prob, spec):
    """The run's levels and reports, stepped by hand on a plan made without
    `fold`, so on the full stack at full size."""
    grid, ops, _ = prepare(prob, spec)
    plan = plan_solves(ops, grid, prob.a, fold=False)
    level0, level1 = init_levels(prob, grid, ops)
    states, reports, levels = [level0.state, level1.state], [], (level1, level0)
    for _ in range(1, grid.n_steps):
        level, report = step(levels, ops, prob, grid, plan)
        levels = (level, levels[0])
        states.append(level.state)
        reports.append(report)
    return states, reports


def largest_relative_difference(states, others):
    return max(
        np.abs(F - G).max() / np.abs(G).max()
        for a, b in zip(states, others, strict=True)
        for F, G in ((a.U.values, b.U.values), (a.V.values, b.V.values))
    )


# The largest relative difference of a carried run's levels from the full
# stack's, measured at 1.4e-9 (J = 24, 120 steps from t0 = 0, through its
# near-singular first steps) and 2.9e-12 (J = 48, 49; 40 steps), x 7-10.
CARRIED_BOUND = {24: 1e-8, 48: 3e-11, 49: 3e-11}


@pytest.mark.parametrize("J", [24, 48, 49])
@pytest.mark.parametrize(("lam", "gamma"), [(0.25, 0.25), (0.25, 0.3)])
def test_a_carried_run_agrees_with_the_full_stack(J, lam, gamma):
    config = RunConfig(J=J, lam=lam, gamma=gamma, a=2.5)
    prob, _ = manufactured_problem(config)
    spec = long_spec(config, 120 if J == 24 else 40)
    carried = list(march(prob, spec))
    assert all(report.quadrant for _, report in carried[2:])
    states = [state for state, _ in carried]
    for state in states:
        for F in (state.U.values, state.V.values):
            assert np.array_equal(F, F[::-1]) and np.array_equal(F, F[:, ::-1]), state.level
    full_states, full_reports = full_stack_run(prob, spec)
    assert not any(report.quadrant for report in full_reports)
    assert largest_relative_difference(states, full_states) <= CARRIED_BOUND[J]


@settings(max_examples=120, deadline=None)
@given(
    J=st.integers(min_value=1, max_value=38), seed=seeds,
    lam=st.floats(min_value=0.0, max_value=1.0), gamma=st.floats(min_value=0.0, max_value=1.0),
    sing_policy=st.sampled_from(["zero", "limit"]),
)
def test_the_quadrants_image_and_norm_are_the_full_levels(J, seed, lam, gamma, sing_policy):
    # the image of the (m+1)-corner is the full image's quadrant bit for bit,
    # and the weighted norm is the unfolded stack's within a few ulps, at
    # odd and even n
    grid = build_grid(GridSpec(L0=-10, L1=10, J=J))
    ops = assemble_step_operators(build_operator_set(grid, lam, gamma, sing_policy), grid)
    n, m = grid.size, (grid.size + 1) // 2
    rng = np.random.default_rng(seed)
    Zq = rng.standard_normal((2, m, m)) * 10.0 ** rng.integers(-3, 4)
    Z = _unfold(Zq, n)
    KZ = ops.image(Z)
    assert np.array_equal(ops.image(Zq), KZ[:, :m, :m])
    for P, Pq in ((Z, Zq), (KZ, KZ[:, :m, :m])):
        full = float(np.linalg.norm(P))
        assert _norm(P, n) == full
        assert abs(_norm(Pq, n) - full) <= 8 * np.spacing(full)


def odd_from(prob, grid, k):
    """`prob` with a forcing that gains a term odd in x from level k on."""

    def forcing(x, y, t, even=prob.forcing):
        G1, G2 = even(x, y, t)
        return (G1 + 1e-3 * x, G2) if t >= grid.time(k) else (G1, G2)

    return dataclasses.replace(prob, forcing=forcing)


def test_a_forcing_that_turns_odd_sends_the_run_to_full_size():
    # level k's forcing sample is odd: step k - 1, which forms level k, is
    # the last carried step, and step k, which reads level k's source, the
    # first full one.  The levels up to k are the all-even run's, bit for bit
    config = RunConfig(J=49)
    prob, _ = manufactured_problem(config)
    spec, k = horizon_spec(49, 20), 8
    grid = build_grid(spec)
    even_run = list(march(prob, spec))
    odd_prob = odd_from(prob, grid, k)
    odd_run = list(march(odd_prob, spec))
    assert [report.quadrant for _, report in odd_run[2:]] == [True] * (k - 1) + [False] * (20 - k)
    for (state, _), (even_state, _) in zip(odd_run[: k + 1], even_run):
        assert np.array_equal(state.U.values, even_state.U.values), state.level
        assert np.array_equal(state.V.values, even_state.V.values), state.level
    last = odd_run[-1][0].U.values
    assert not np.array_equal(last, last[::-1])
    assert max(report.residual_coupled for _, report in odd_run[2:]) <= 1e-14
    full_states, _ = full_stack_run(odd_prob, spec)
    assert largest_relative_difference([state for state, _ in odd_run], full_states) <= CARRIED_BOUND[49]


def test_every_step_of_the_horizon_run_is_carried():
    lam = 0.25
    prob, _ = manufactured_problem(RunConfig(J=49, lam=lam, gamma=lam, a=1.5 + 4 * lam))
    _, reports = run(prob, horizon_spec(49, 200))
    assert len(reports) == 199 and all(report.quadrant for report in reports)


def test_no_table1_step_is_carried(monkeypatch, tmp_path):
    reports = []

    def recording(*args, original=epdsys.bench.run, **kwargs):
        trajectory, steps = original(*args, **kwargs)
        reports.extend(steps)
        return trajectory, steps

    monkeypatch.setattr(epdsys.bench, "run", recording)
    run_table1(RunConfig(J=49), J_list=DEFAULT_BENCH_J, repeats=1, csv_path=str(tmp_path / "t.csv"))
    assert reports and not any(report.quadrant for report in reports)
