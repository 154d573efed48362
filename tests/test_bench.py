import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epdsys.bench
from epdsys.bench import (
    _FIELD_TYPES,
    _KEY_FIELDS,
    CSV_HEADER,
    RunConfig,
    check_forcing_certificate,
    emit_series_table,
    grid_spec_for,
    manufactured_problem,
    parse_config,
    read_bench_csv,
    run_convergence,
    run_table1,
)
from epdsys.cli import _run_solver
from epdsys.exceptions import ConfigError, EpdError, InvalidSpecError, ResonanceError
from epdsys.grid import build_grid
from epdsys.stepper import prepare


def test_parse_config_minimal_defaults():
    config = parse_config("J = 24\n")
    assert config.J == 24
    assert config.L0 == -10.0 and config.L1 == 10.0
    assert config.alpha == 0.25
    assert config.a == 2.5
    assert config.lam == 0.25 and config.gamma == 0.25
    assert config.p == 1.5 and config.q == pytest.approx(4 / 3)
    assert config.solver == "both"
    assert config.seed_mode == "exact"
    assert config.t0 == 0.0 and config.T == 1.0


def test_parse_config_missing_key():
    with pytest.raises(ConfigError, match="J"):
        parse_config("")


def test_parse_config_unknown_key_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("J = 24\nsolverr = x\n")
    assert err.value.line == 2


FLOAT_KEYS = ("L0", "L1", "t0", "T", "alpha", "a", "lambda", "gamma", "p", "q")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_parse_config_rejects_non_finite_floats(key, value):
    # a non-finite value would otherwise fail deep inside the mesh or the solve
    with pytest.raises(ConfigError, match=rf"line 2: '{key}' must be finite") as err:
        parse_config(f"J = 9\n{key} = {value}\n")
    assert err.value.line == 2


def test_parse_config_rejects_step_rule():
    # the time step always follows l = h^(3/2); a config cannot set l
    with pytest.raises(ConfigError, match="unknown key 'step_rule'") as err:
        parse_config("J = 9\nstep_rule = coupled\n")
    assert err.value.line == 2


def test_parse_config_comments_and_values():
    config = parse_config(
        """
        # reference run
        J = 9
        lambda = 0.5   # gradient weight
        solver = sylvester
        sing_policy = zero
        out_csv = out.csv
        """
    )
    assert config.J == 9 and config.lam == 0.5
    assert config.solver == "sylvester"
    assert config.sing_policy == "zero"
    assert config.out_csv == "out.csv"


@pytest.mark.parametrize(
    "text",
    ["J = x\n", "J = 24\nJ = 25\n", "J = 24\nsolver = turbo\n", "J 24\n", "J = 24\nsing_eps = 0.1\n"],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_grid_spec_step_count():
    spec = grid_spec_for(RunConfig(J=24))
    assert spec.n_steps == math.ceil(1.0 / 0.8**1.5) == 2
    spec49 = grid_spec_for(RunConfig(J=24), J=49)
    assert spec49.J == 49 and spec49.n_steps == 4
    with pytest.raises(InvalidSpecError, match="need a finite step count"):
        grid_spec_for(RunConfig(J=2000, T=1e308))  # (T - t0) / l overflows


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(solver="turbo"), "unknown solver 'turbo'"),
        (dict(seed_mode="Taylor"), "unknown seed_mode 'Taylor'"),
        (dict(sing_policy="nope"), "unknown sing_policy 'nope'"),
        (dict(t0=1.0), "need T > t0, got t0=1.0, T=1.0"),
        (dict(t0=1.0, T=0.5), "need T > t0, got t0=1.0, T=0.5"),
        (dict(alpha=math.nan), "'alpha' must be finite"),
        (dict(a=math.nan), "'a' must be finite"),
        (dict(T=math.inf), "'T' must be finite"),
    ],
)
def test_run_config_checks_its_values(operator_builds, kwargs, message):
    # a RunConfig built in the library raises what a config file reports
    with pytest.raises(ConfigError, match=message):
        RunConfig(J=9, **kwargs)
    with pytest.raises(ConfigError, match=message):
        parse_config("J = 9\n" + "".join(f"{key} = {val}\n" for key, val in kwargs.items()))
    assert operator_builds == []


def _config_values(field):
    """Config-file values for a RunConfig field: J in [-3, 2000] (no large
    grid), any finite float, and for a word its default, or 'turbo' once in
    four draws.  Half the draws of a number come from a small range, J in
    [-3, 24] and floats in [-20, 20], so that whole configs reach a plan."""
    kind = _FIELD_TYPES[field]
    if kind is int:
        return st.one_of(
            st.integers(min_value=-3, max_value=24), st.integers(min_value=-3, max_value=2000)
        ).map(str)
    if kind is float:
        return st.one_of(
            st.floats(min_value=-20.0, max_value=20.0),
            st.floats(allow_nan=False, allow_infinity=False),
        ).map(repr)
    (default,) = (f.default for f in dataclasses.fields(RunConfig) if f.name == field)
    return st.sampled_from([default, default, default, "turbo"])


config_texts = st.fixed_dictionaries(
    {"J": _config_values("J")},
    optional={key: _config_values(field) for key, field in _KEY_FIELDS.items() if key != "J"},
).map(lambda values: "".join(f"{key} = {val}\n" for key, val in values.items()))


@settings(max_examples=500, deadline=None)
@given(text=config_texts)
@example(text="J = 9\nL0 = -1e308\nL1 = 1e308\n")
@example(text="J = 2000\nT = 1e308\n")
@example(text="J = 1\nL0 = -2\nL1 = 3\nalpha = 0\ngamma = 3.6e307\nsing_policy = zero\n")
def test_accepted_config_text_reaches_a_grid_or_a_named_error(text):
    # never solves: the path from text to a validated grid and, on a small
    # grid, on through the setup of the run that `epdsys solve` makes
    try:
        config = parse_config(text)
        spec = grid_spec_for(config)
        grid = build_grid(spec)
    except (ConfigError, InvalidSpecError):
        return
    assert 0.0 < grid.h < math.inf and 0.0 < grid.l < math.inf
    assert np.isfinite(grid.nodes).all()
    assert spec.n_steps >= 2
    if spec.J > 24 or spec.n_steps > 64:
        return
    try:
        prob, _ = manufactured_problem(config)
        with np.errstate(all="ignore"):
            prepare(prob, grid, _run_solver(config), config.sing_policy)
    except EpdError:
        pass


def test_forcing_certificate(ref_config):
    assert check_forcing_certificate(ref_config) <= 1e-5


def _check_against_definition(config, prob, exact, x, y, t):
    """exact and forcing against their definitions, one exponential per
    term: e = t^2/2 + r^2 is rounded before exp there, so the values part by
    a few eps |e| relative, in each summand of the forcing."""
    e = 0.5 * t * t + x * x + y * y
    g = np.exp(-e)
    u, v = exact(x, y, t)
    assert u is v
    assert np.all(np.abs(u - g) <= 1e-13 * g)
    shared = (t * t - 4.0 * (x * x + y * y)) * g
    for G, s in zip(prob.forcing(x, y, t), (config.p, config.q)):
        g_s = np.exp(-s * e)
        scale = (t * t + 4.0 * (x * x + y * y)) * g + g_s
        assert np.all(np.abs(G - (shared - g_s)) <= 1e-13 * scale)


@pytest.mark.parametrize("p, q", [(1.5, 4.0 / 3.0), (1.5, 1.5)])
def test_separable_manufactured_problem_matches_its_definition(p, q):
    config = RunConfig(J=24, p=p, q=q)
    prob, exact = manufactured_problem(config)
    X, Y = build_grid(grid_spec_for(config)).meshgrid()
    for t in (0.0, 0.7, 1.9):
        # read-only grid coordinates (factors kept) and a writable copy (computed afresh)
        for x, y in ((X, Y), (X, Y), (X.copy(), Y.copy())):
            _check_against_definition(config, prob, exact, x, y, t)


def test_manufactured_problem_keeps_the_grid_factors(monkeypatch):
    # after the first level, a level on the grid's coordinates takes no
    # full-grid exponential: only the scalar time factors
    config = RunConfig(J=9)
    prob, exact = manufactured_problem(config)
    X, Y = build_grid(grid_spec_for(config)).meshgrid()
    prob.forcing(X, Y, 0.1)
    grid_exps = []
    exp = np.exp

    def counted(z, *args, **kwargs):
        if np.ndim(z):
            grid_exps.append(np.shape(z))
        return exp(z, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    for t in (0.2, 0.3):
        prob.forcing(X, Y, t)
        exact(X, Y, t)
    assert grid_exps == []
    prob.forcing(X.copy(), Y.copy(), 0.3)
    assert grid_exps == [X.shape] * 3  # exp(-r^2), exp(-p r^2), exp(-q r^2)


def test_manufactured_problem_recomputes_writable_coordinates():
    config = RunConfig(J=9)
    prob, exact = manufactured_problem(config)
    X, Y = (w.copy() for w in build_grid(grid_spec_for(config)).meshgrid())
    exact(X, Y, 0.5)
    X *= 0.5  # the same objects with new values
    Y += 1.0
    _check_against_definition(config, prob, exact, X, Y, 0.5)


def test_manufactured_problem_taylor_seeding():
    config = RunConfig(J=4, seed_mode="taylor")
    prob, exact = manufactured_problem(config)
    assert prob.data is not None and prob.exact is None
    # at t0 = 0 the initial velocities vanish, as Taylor seeding there needs
    X, Y = build_grid(grid_spec_for(config)).meshgrid()
    u0, u1, v0, v1 = prob.data
    assert not np.any(u1(X, Y)) and not np.any(v1(X, Y))


def test_emit_series_table_i0(tmp_path):
    text = emit_series_table(0.5, 0.0, 1.0, 4)
    rows = [line.split(", ") for line in text.strip().splitlines()]
    values = [float(v) for _, v in rows]
    assert values == pytest.approx([1.0, 0.0, 0.25, 0.0, 0.015625])
    path = tmp_path / "series.txt"
    emit_series_table(0.5, 0.0, 1.0, 4, path=str(path))
    assert path.read_text() == text


def test_emit_series_table_zero_k():
    text = emit_series_table(0.3, 0.0, 0.0, 6)
    values = [float(line.split(", ")[1]) for line in text.strip().splitlines()]
    assert values[2:] == [0.0] * 5


def test_emit_series_table_resonance_propagates():
    with pytest.raises(ResonanceError) as err:
        emit_series_table(-0.5, 0.0, 1.0, 8)
    assert err.value.index == 2


def test_run_table1_smoke_row(tmp_path, ref_config):
    csv_path = tmp_path / "t.csv"
    rows = run_table1(ref_config, J_list=(4,), repeats=1, csv_path=str(csv_path))
    row = rows[0]
    assert row.J == 4 and row.error == ""
    # same trajectory through both solver paths: errors agree to 1e-9
    assert row.Er_II == pytest.approx(row.Er_I, abs=1e-9, rel=1e-9)
    assert row.RelEr_II == pytest.approx(row.RelEr_I, rel=1e-9)
    assert row.time_II_ms > 0 and row.time_I_ms > 0
    assert row.ratio == pytest.approx(row.time_I_ms / row.time_II_ms)


def test_run_table1_sylvester_beats_kronecker_at_j24(ref_config):
    rows = run_table1(ref_config, J_list=(24,), repeats=1, csv_path="")
    assert rows[0].ratio > 1.0
    # solver-choice independence at J=24: same errors through both paths
    assert rows[0].Er_II == pytest.approx(rows[0].Er_I, rel=1e-9)
    assert rows[0].RelEr_II == pytest.approx(rows[0].RelEr_I, rel=1e-9)


def test_csv_round_trip_bit_exact(tmp_path, ref_config):
    csv_path = tmp_path / "t.csv"
    rows = run_table1(ref_config, J_list=(4, 9), repeats=1, csv_path=str(csv_path))
    header = csv_path.read_text().splitlines()[0]
    assert header == CSV_HEADER
    back = read_bench_csv(str(csv_path))
    for a, b in zip(rows, back):
        assert a.J == b.J
        for field in ("h", "l", "Er_II", "RelEr_II", "Er_I", "RelEr_I",
                      "time_II_ms", "time_I_ms", "ratio"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x == y) or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize(
    "text, message",
    [("J,h,l\n", "unexpected CSV header"), (CSV_HEADER + "\n4,0.5,1.0\n", "bad CSV row")],
    ids=["header", "row"],
)
def test_read_bench_csv_rejects_a_foreign_file(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        read_bench_csv(str(path))


def test_csv_header_is_the_table1_file_format():
    assert CSV_HEADER == "J,h,l,Er_II,RelEr_II,Er_I,RelEr_I,time_II_ms,time_I_ms,ratio"


@pytest.mark.parametrize(
    "solver, filled, empty",
    [
        ("sylvester", ("Er_II", "RelEr_II", "time_II_ms"), ("Er_I", "RelEr_I", "time_I_ms")),
        ("kronecker", ("Er_I", "RelEr_I", "time_I_ms"), ("Er_II", "RelEr_II", "time_II_ms")),
    ],
)
def test_run_table1_one_solver_leaves_the_other_columns_nan(tmp_path, solver, filled, empty):
    csv_path = tmp_path / "t.csv"
    (row,) = run_table1(RunConfig(J=4, solver=solver), J_list=(4,), repeats=1, csv_path=str(csv_path))
    assert row.error == ""
    assert all(math.isfinite(getattr(row, name)) for name in filled)
    assert all(math.isnan(getattr(row, name)) for name in empty + ("ratio",))
    (back,) = read_bench_csv(str(csv_path))
    assert all(math.isnan(getattr(back, name)) for name in empty + ("ratio",))
    assert all(getattr(back, name) == getattr(row, name) for name in ("J", "h", "l") + filled)


def test_error_columns_deterministic(ref_config):
    r1 = run_table1(ref_config, J_list=(4,), repeats=1, csv_path="")[0]
    r2 = run_table1(ref_config, J_list=(4,), repeats=1, csv_path="")[0]
    assert r1.Er_II == r2.Er_II
    assert r1.RelEr_II == r2.RelEr_II
    assert r1.Er_I == r2.Er_I


def test_run_table1_rejects_no_repeats_before_the_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate ran for repeats < 1")

    monkeypatch.setattr(epdsys.bench, "check_forcing_certificate", refuse)
    with pytest.raises(InvalidSpecError, match="need repeats >= 1, got 0"):
        run_table1(RunConfig(J=4), J_list=(4,), repeats=0, csv_path="")


@pytest.mark.parametrize(
    "study", [lambda c: run_table1(c, J_list=(4,), repeats=1, csv_path=""), run_convergence],
    ids=["run_table1", "run_convergence"],
)
def test_failing_certificate_is_refused_before_any_run(monkeypatch, study):
    # a = 1.3 is off the family a = 3/2 + 4 lambda on which the forcing is exact
    runs = []
    for name in ("run", "march"):
        monkeypatch.setattr(epdsys.bench, name, lambda *args, **kwargs: runs.append(args))
    with pytest.raises(EpdError, match="forcing does not produce its exact solution"):
        study(RunConfig(J=4, a=1.3))
    assert runs == []


def test_run_table1_solver_failure_recorded_not_raised(monkeypatch):
    from epdsys.exceptions import SizeGuardError
    import epdsys.stepper as stepper_mod

    def refuse(problem):
        raise SizeGuardError("refused for the test")

    monkeypatch.setattr(stepper_mod, "kronecker_solve", refuse)
    rows = run_table1(RunConfig(J=4), J_list=(4,), repeats=1, csv_path="")
    assert "kronecker" in rows[0].error
    assert math.isnan(rows[0].Er_I)
    assert math.isfinite(rows[0].Er_II)


def test_run_convergence_needs_two_grid_levels(monkeypatch):
    # a repeated J is one grid level: refused before any grid is built, also
    # next to a distinct J, where it would be run and fitted twice
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built for a J list that repeats a grid level")

    monkeypatch.setattr(epdsys.bench, "build_grid", refuse)
    monkeypatch.setattr(epdsys.bench, "march", refuse)
    for J_list, message in (
        ((4,), "need at least two grid levels (distinct J), got (4,)"),
        ((24, 24), "need at least two grid levels (distinct J), got (24, 24)"),
        ((24, 49, 24), "grid size J=24 is repeated in (24, 49, 24)"),
    ):
        with pytest.raises(InvalidSpecError, match=re.escape(message)):
            run_convergence(RunConfig(J=4), J_list=J_list)


def test_run_convergence_smoke():
    report = run_convergence(RunConfig(J=4), J_list=(4, 9))
    assert len(report.rows) == 2
    assert all(er > 0 for _, _, er in report.rows)
    assert math.isfinite(report.order)


def test_run_convergence_keeps_no_trajectory():
    # at T = 12 the J = 99 run has 136 levels, 22.2 MB of U/V that a kept
    # trajectory would hold; streamed, the study's traced peak was 5.58 MB
    # (29.1 MB when each run's trajectory was kept), so 8 MB bounds the
    # levels that are live at once, not the horizon
    config = RunConfig(J=9, T=12.0)
    spec = grid_spec_for(config, 99)
    assert 16 * (spec.n_steps + 1) * (spec.J + 2) ** 2 > 22e6
    tracemalloc.start()
    try:
        report = run_convergence(config, J_list=(49, 99))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(math.isfinite(er) for _, _, er in report.rows)
    assert peak < 8e6
