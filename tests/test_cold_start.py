"""A fresh interpreter runs the diagonal kernel on numpy alone.

`epdsys` imports scipy.linalg only where a Schur pair or Method I needs it,
so importing the package, checking the forcing certificate, running a
reference trajectory (both branches diagonal) and evaluating its errors
leave scipy unloaded; the Schur kernel and the Kronecker solver then load
it on first use, and `run_table1` loads it before its first timed Method I
row.  Each case runs in its own interpreter, so that every deferred import
is taken cold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import epdsys
from epdsys.bench import RunConfig, check_forcing_certificate, grid_spec_for, manufactured_problem
from epdsys.grid import build_grid, discrete_errors
from epdsys.operators import assemble_step_operators, build_operator_set
from epdsys.stepper import plan_solves, run

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def trajectory(config, solver):
    prob, exact = manufactured_problem(config)
    spec = grid_spec_for(config)
    trajectory, reports = run(prob, spec, solver=solver, sing_policy="limit")
    discrete_errors(trajectory, exact, build_grid(spec))
    return max(r.residual_coupled for r in reports)

def kernels(config):
    grid = build_grid(grid_spec_for(config))
    opset = build_operator_set(grid, config.lam, config.gamma, sing_policy="limit")
    ops = assemble_step_operators(opset, grid)
    return plan_solves(ops, grid, config.a).kernels

out = {"after_import": loaded()}
config = RunConfig(J=24)
check_forcing_certificate(config)
out["diagonal_residual"] = trajectory(config, "sylvester")
out["after_diagonal"] = loaded()
out["diagonal_kernels"] = kernels(config)
if sys.argv[1] == "schur":
    config = RunConfig(J=9, lam=1.5, gamma=1.5)
    out["residual"] = trajectory(config, "sylvester")
else:
    out["residual"] = trajectory(RunConfig(J=9), "kronecker")
out["after"] = "scipy.linalg" in sys.modules
out["kernels"] = kernels(config)
print(json.dumps(out))
"""


TABLE_SCRIPT = """
import json, sys
from epdsys.bench import RunConfig, run_table1

run_table1(RunConfig(J=4, solver="sylvester"), J_list=(4,), repeats=1, csv_path="")
out = {"sylvester_table_loads_scipy": "scipy" in sys.modules}
(row,) = run_table1(RunConfig(J=4), J_list=(4,), repeats=1, csv_path="")
out["time_I_ms"] = row.time_I_ms
print(json.dumps(out))
"""


def fresh_interpreter(script, *args):
    """The JSON object on the last line that `script` prints in a new interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("path", ["schur", "kronecker"])
def test_scipy_is_loaded_only_by_the_schur_kernel_and_method_i(path):
    out = fresh_interpreter(SCRIPT, path)
    assert out["after_import"] == []
    assert out["after_diagonal"] == []
    assert out["diagonal_residual"] <= 1e-13
    assert out["diagonal_kernels"] == ["diagonal", "diagonal"]
    assert out["after"]
    if path == "schur":
        assert out["kernels"] == ["schur", "schur"]
    assert out["residual"] <= 1e-13


def test_first_method_i_row_does_not_time_the_scipy_import():
    # with repeats=1 the first Method I row is timed cold; importing
    # scipy.linalg alone takes a few hundred ms, a J=4 run a few ms
    out = fresh_interpreter(TABLE_SCRIPT)
    assert not out["sylvester_table_loads_scipy"]
    assert out["time_I_ms"] < 50
