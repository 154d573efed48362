import pytest

from epdsys.cli import EXIT_ERROR, EXIT_OK, EXIT_VALIDATION, main


@pytest.fixture
def config_file(tmp_path):
    def write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_solve_subcommand(config_file, capsys):
    path = config_file("J = 4\nsolver = sylvester\n")
    assert main(["solve", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Er=" in out and "RelEr=" in out


def test_solve_bad_config_is_error(config_file, capsys):
    path = config_file("J = 4\nwat = 1\n")
    assert main(["solve", path]) == EXIT_ERROR
    assert "unknown key" in capsys.readouterr().err


def test_bench_subcommand(config_file, tmp_path, capsys):
    csv = tmp_path / "out.csv"
    path = config_file(f"J = 4\nout_csv = {csv}\n")
    assert main(["bench", path, "--J", "4", "--repeats", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("J,h,l,Er_II")
    assert csv.exists()


def test_converge_subcommand(config_file, capsys):
    path = config_file("J = 4\n")
    code = main(["converge", path, "--J", "24,49,99"])
    out = capsys.readouterr().out
    assert "order=" in out
    assert code == EXIT_OK


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


def test_missing_config_file_is_error(capsys):
    assert main(["solve", "/nonexistent/path.cfg"]) == EXIT_ERROR
