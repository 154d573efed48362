import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import epdsys.bench
import epdsys.cli
from epdsys.bench import RunConfig, grid_spec_for, manufactured_problem
from epdsys.cli import EXIT_ERROR, EXIT_OK, EXIT_VALIDATION, main
from epdsys.exceptions import SolvabilityError
from epdsys.grid import CoupledState, Field, GridSpec
from epdsys.stepper import run


@pytest.fixture
def config_file(tmp_path):
    def write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_solve_subcommand(config_file, operator_builds, capsys):
    path = config_file("J = 4\nsolver = sylvester\n")
    assert main(["solve", path]) == EXIT_OK
    assert len(operator_builds) == 1  # the run's; the stability guard builds none
    out = capsys.readouterr().out
    assert "Er=" in out and "RelEr=" in out
    # J = 4 has l = 8: the two-step minimum ends at t = 16, past T = 1
    assert " steps=2 t_end=16 " in out


def test_solve_bad_config_is_error(config_file, capsys):
    path = config_file("J = 4\nwat = 1\n")
    assert main(["solve", path]) == EXIT_ERROR
    assert "unknown key" in capsys.readouterr().err


def test_solve_non_finite_config_value_is_error(config_file, capsys):
    path = config_file("J = 4\nT = inf\n")
    assert main(["solve", path]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: 'T' must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("J = 9\nL1 = -20\n", "need L1 > L0"),
        ("J = -3\n", "need J >= 1, got J=-3"),
        ("J = -1\n", "need J >= 1, got J=-1"),
        ("J = 9\nt0 = 1\n", "need T > t0"),
        ("J = 9\nt0 = 1\nT = 0.5\n", "need T > t0"),
        ("J = 9\nalpha = -1\n", "need alpha >= 0"),
        ("J = 99\nsolver = kronecker\n", "Kronecker path refused: size 101 > guard 76"),
    ],
)
def test_solve_bad_mesh_or_window_is_error_before_any_operator(
    config_file, operator_builds, capsys, text, message
):
    assert main(["solve", config_file(text)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert operator_builds == []


def test_solve_refuses_a_trajectory_above_the_memory_budget(config_file, operator_builds, capsys):
    # T = 1e9 at J = 9 asks for 3.5e8 steps: refused at once, not run for hours
    assert main(["solve", config_file("J = 9\nT = 1e9\n")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: the trajectory of 353553391 steps at J=9 would take ")
    assert operator_builds == []


@pytest.mark.parametrize(
    "text, warns",
    [("J = 9\nsolver = sylvester\nlambda = 1.5\ngamma = 1.5\n", True), ("J = 9\n", False)],
    ids=["off-family", "reference"],
)
def test_solve_warns_when_the_forcing_certificate_fails(config_file, capsys, text, warns):
    # off the family a = 3/2 + 4 lambda the forcing does not produce the exact
    # pair; solve still runs (exit 0), as bench and converge would not
    assert main(["solve", config_file(text)]) == EXIT_OK
    out = capsys.readouterr().out
    assert ("warning: the manufactured forcing does not produce its exact solution" in out) == warns
    assert ("so Er is not a discretization error" in out) == warns
    assert "Er=" in out


def test_validate_failure_exits_2(config_file, capsys):
    # a = 1.3 is off the manufactured family: only the certificate fails
    assert main(["validate", config_file("J = 9\na = 1.3\n")]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "FAIL forcing certificate: the manufactured forcing does not produce its exact " in out
    assert out.count("FAIL ") == 1
    assert out.rstrip().endswith("1 validation failure(s)")


def _nonzero_levels(prob, spec):
    ones = np.ones((3, 3))
    yield CoupledState(Field(ones), Field(ones)), None


@pytest.mark.parametrize(
    "name, fake, check",
    [
        ("stationary_additive", lambda *args: SimpleNamespace(certificate=1.0),
         "closed-form residuals: additive certificate 1.000e+00 > 1e-8"),
        ("ode_residual", lambda *args: 1.0, "series engine residual: series residual 1.000e+00"),
        ("kronecker_solve", lambda p: (np.zeros((6, 6)), np.zeros((6, 6))),
         "solver cross-check: solver mismatch"),
        ("march", _nonzero_levels,
         "trivial zero trajectory: zero data produced nonzero trajectory (4.243e+00)"),
    ],
    ids=["closed-form", "series", "solver", "zero-trajectory"],
)
def test_validate_names_each_failing_oracle(config_file, monkeypatch, capsys, name, fake, check):
    monkeypatch.setattr(epdsys.cli, name, fake)
    assert main(["validate", config_file("J = 9\n")]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert f"FAIL {check}" in out
    assert out.count("FAIL ") == 1
    assert out.rstrip().endswith("1 validation failure(s)")


@pytest.mark.parametrize("argv", [["bench", "--J", "4,-3"], ["converge", "--J", "24,0"]])
def test_bad_grid_size_fails_before_the_first_run(
    config_file, monkeypatch, operator_builds, capsys, argv
):
    runs = []
    for name in ("run", "march"):
        monkeypatch.setattr(epdsys.bench, name, lambda *args, **kwargs: runs.append(args))
    path = config_file("J = 4\nout_csv =\n")
    assert main([argv[0], path, *argv[1:]]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: need J >= 1")
    assert runs == [] and operator_builds == []


def test_converge_refuses_a_repeated_grid_size(config_file, operator_builds, capsys):
    # J = 24 twice is one grid level: a named error, not a fit of one point;
    # next to J = 49 it would be run, printed and fitted twice
    path = config_file("J = 9\n")
    for J_text, message in (
        ("24,24", "need at least two grid levels (distinct J), got (24, 24)"),
        ("24,49,24", "grid size J=24 is repeated in (24, 49, 24)"),
    ):
        assert main(["converge", path, "--J", J_text]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == "" and operator_builds == []


def test_solve_keeps_no_trajectory(config_file, capsys):
    # at T = 12 the J = 99 run has 136 levels, 22.2 MB of U/V that a kept
    # trajectory would hold; streamed, the solve's traced peak was 5.8 MB
    # (27.2 MB when the trajectory was kept), so 8 MB bounds the levels
    # that are live at once, not the horizon
    config = RunConfig(J=99, T=12.0)
    spec = grid_spec_for(config)
    assert 16 * (spec.n_steps + 1) * (spec.J + 2) ** 2 > 22e6
    path = config_file("J = 99\nT = 12\n")
    tracemalloc.start()
    try:
        code = main(["solve", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert f" steps={spec.n_steps} " in out and "min margin=" in out
    assert peak < 8e6


def test_bench_subcommand(config_file, tmp_path, capsys):
    csv = tmp_path / "out.csv"
    path = config_file(f"J = 4\nout_csv = {csv}\n")
    assert main(["bench", path, "--J", "4", "--repeats", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("J,h,l,Er_II")
    assert csv.exists()


def test_bench_reports_a_csv_only_when_it_writes_one(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = config_file("J = 4\nsolver = sylvester\nout_csv =\n")
    assert main(["bench", path, "--J", "4", "--repeats", "1"]) == EXIT_OK
    assert "csv written" not in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    csv = tmp_path / "out.csv"
    path = config_file(f"J = 4\nsolver = sylvester\nout_csv = {csv}\n")
    assert main(["bench", path, "--J", "4", "--repeats", "1"]) == EXIT_OK
    assert f"csv written to {csv}" in capsys.readouterr().out
    assert csv.exists()


def test_bench_notes_rows_that_end_past_T(config_file, capsys):
    # J = 4 (l = 8) and J = 9 (l = 2 sqrt 2) take the two-step minimum
    path = config_file("J = 4\nout_csv =\n")
    assert main(["bench", path, "--J", "4,9", "--repeats", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("4,") and lines[2] == "  note: ends at t=16 (T=1)"
    assert lines[3].startswith("9,") and lines[4] == "  note: ends at t=5.65685 (T=1)"
    assert len(lines) == 5


def test_bench_notes_a_row_error(config_file, capsys):
    # J = 99 (n = 101) is above Method I's size guard: its row carries the
    # refusal as a note, and Method II's columns are still filled
    path = config_file("J = 4\nout_csv =\n")
    assert main(["bench", path, "--J", "4,99", "--repeats", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith("99,") and ",nan,nan," in lines[3]
    assert lines[4] == "  note: ends at t=1.07331 (T=1)"
    assert lines[5].startswith("  note: kronecker: Kronecker path refused: size 101 > guard ")
    assert len(lines) == 6


def test_converge_subcommand(config_file, capsys):
    path = config_file("J = 4\n")
    code = main(["converge", path, "--J", "24,49,99"])
    out = capsys.readouterr().out
    assert "order=" in out
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--J", "4,x"], "--J: 'x' is not an integer"),
        (["converge", "--J", "4,x"], "--J: 'x' is not an integer"),
        (["bench", "--J", ","], "--J: no grid sizes"),
        (["bench", "--repeats", "0"], "--repeats must be >= 1, got 0"),
    ],
)
def test_bad_bench_arguments_are_errors_before_any_run(
    config_file, monkeypatch, capsys, argv, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started on bad arguments")

    monkeypatch.setattr(epdsys.bench, "run_table1", refuse)
    monkeypatch.setattr(epdsys.bench, "run_convergence", refuse)
    path = config_file("J = 4\nout_csv =\n")
    assert main([argv[0], path, *argv[1:]]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_converge_off_band_exits_2(config_file, capsys):
    # coarse levels under the axis-zeroing policy sit far off the order band
    path = config_file("J = 4\nsing_policy = zero\n")
    code = main(["converge", path, "--J", "4,9"])
    out = capsys.readouterr().out
    assert code == EXIT_VALIDATION
    assert "validation failure" in out


def test_series_subcommand(capsys):
    assert main(["series", "--lambda", "0.5", "--nu", "0", "--K", "1", "--N", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0, 1"
    assert out.splitlines()[2].startswith("2, 0.25")


def test_series_to_file(tmp_path, capsys):
    out_path = tmp_path / "series.txt"
    assert main([
        "series", "--lambda", "0.5", "--nu", "0", "--K", "1", "--N", "4",
        "--out", str(out_path),
    ]) == EXIT_OK
    assert out_path.exists()


def test_series_resonance_is_error(capsys):
    code = main(["series", "--lambda", "-0.5", "--nu", "0", "--K", "1", "--N", "8"])
    assert code == EXIT_ERROR
    assert "blocked" in capsys.readouterr().err


def test_validate_subcommand(config_file, capsys):
    path = config_file("J = 4\n")
    assert main(["validate", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all validations passed" in out
    assert out.count("ok ") >= 6
    assert "ok   solvability schedule" in out and "min margin = " in out
    # J = 4 has h max |lam_j| = 1/2 and no axis node: both branches diagonalize
    schedule = next(line for line in out.splitlines() if "min margin = " in line)
    assert schedule.endswith("kernels: sum diagonal, diff diagonal")
    assert ", pair lam=" in schedule


def test_real_eigenvalue_pairs_print_as_reals(config_file, capsys):
    # both branches of the J=9 config take the diagonal kernel, whose
    # spectra are real: the pair prints without an imaginary part
    assert main(["validate", config_file("J = 9\n")]) == EXIT_OK
    schedule = next(
        line for line in capsys.readouterr().out.splitlines() if "min margin = " in line
    )
    assert schedule.endswith("kernels: sum diagonal, diff diagonal")
    pair = schedule.split(" pair ")[1].split(";")[0]
    assert pair.startswith("lam=") and ", mu=" in pair
    assert "j" not in pair
    # a diagonal-kernel solvability failure: a = 1 from rest is singular at step 1
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.0, n_steps=6, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=9, a=1.0))
    with pytest.raises(SolvabilityError) as err:
        run(prob, spec, sing_policy="limit")
    assert "eigenvalue pair lam=" in str(err.value)
    assert "j" not in str(err.value)
    assert isinstance(err.value.pair[0], complex)


def test_validate_reads_the_plan_of_schur_branches(config_file, capsys):
    # lambda = gamma = 1.5, a = 3/2 + 4 lambda is on the manufactured family:
    # the certificate passes and both branches take the Schur kernel
    path = config_file("J = 9\nlambda = 1.5\ngamma = 1.5\na = 7.5\n")
    assert main(["validate", path]) == EXIT_OK
    schedule = next(
        line for line in capsys.readouterr().out.splitlines() if "min margin = " in line
    )
    assert "min margin = 3.065e+00 at step 1, diff branch, pair lam=" in schedule
    assert schedule.endswith("kernels: sum schur, diff schur")


def test_missing_config_file_is_error(capsys):
    assert main(["solve", "/nonexistent/path.cfg"]) == EXIT_ERROR
