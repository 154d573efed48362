"""Span tracing for the traced benchmark run.

Two kinds of call are wrapped, both from outside the library:

* the numpy/scipy kernels the solver uses (``install_kernels``).  These must
  be wrapped before ``import epdsys`` so that a ``from scipy.linalg import
  schur`` inside the library binds the wrapper as well;
* every public function of the epdsys layer modules, at its definition and
  at every module that imports it (``install_epdsys``), so both calls across
  modules and calls inside one module open a span.

A span records its duration and, through a stack, the time its child spans
cover; self time is the difference.  Spans only count while ``active`` is
set, so the same process can time untraced calls for the overhead estimate.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

LAYERS = ("grid", "operators", "stepper", "sylvester", "exact", "bench")

# span name -> (module, attribute) of each wrapped kernel
KERNELS = {
    "lapack.schur": [("scipy.linalg", "schur")],
    "lapack.eigvals": [("numpy.linalg", "eigvals")],
    "lapack.banded": [("scipy.linalg", "solve_banded")],
    "lapack.triangular": [("scipy.linalg", "solve_triangular")],
    "lapack.trsyl": [("scipy.linalg.lapack", "ztrsyl"), ("scipy.linalg.lapack", "dtrsyl")],
    "lapack.dense_solve": [("numpy.linalg", "solve")],
}


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    durations: list = dataclasses.field(default_factory=list)


class Tracer:
    def __init__(self):
        self.active = False
        self._stack = []  # [start, time covered by child spans]
        self.stats: dict[str, SpanStats] = {}
        self.kronecker_bytes = 0
        self.margins: list[float] = []
        self.residuals: list[float] = []

    def reset(self):
        self.stats = {}
        self.kronecker_bytes = 0
        self.margins = []
        self.residuals = []

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                duration = time.perf_counter() - frame[0]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                stats = tracer.stats.setdefault(name, SpanStats())
                stats.calls += 1
                stats.self_s += duration - frame[1]
                stats.total_s += duration
                stats.durations.append(duration)
            tracer._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        if name == "sylvester.kronecker_solve":
            n = args[0].size
            self.kronecker_bytes += 8 * (2 * n * n) ** 2
        elif name == "sylvester.solvability_margin":
            self.margins.append(float(result))
        elif name == "sylvester.residual":
            self.residuals.append(float(result))

    def install_kernels(self):
        """Wrap the numpy/scipy kernels; call before importing epdsys."""
        for name, sites in KERNELS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
        # trsyl fetched through get_lapack_funcs is counted as well
        for module_name in ("scipy.linalg", "scipy.linalg.lapack"):
            module = importlib.import_module(module_name)
            module.get_lapack_funcs = self._wrap_lookup(module.get_lapack_funcs)

    def _wrap_lookup(self, get_lapack_funcs):
        @functools.wraps(get_lapack_funcs)
        def lookup(names, *args, **kwargs):
            funcs = get_lapack_funcs(names, *args, **kwargs)
            if isinstance(names, str):
                return self._wrap_trsyl(funcs)
            return type(funcs)(self._wrap_trsyl(f) for f in funcs)

        return lookup

    def _wrap_trsyl(self, fn):
        return self.wrap("lapack.trsyl", fn) if "trsyl" in str(getattr(fn, "__name__", "")) else fn

    def install_epdsys(self, package):
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [*modules.values(), package]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    if getattr(namespace, attr, None) is fn:
                        setattr(namespace, attr, traced)


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced workload call, by name."""
    stats = tracer.stats

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def self_s(*names):
        return sum(stats[n].self_s for n in names if n in stats)

    step_ms = [1000.0 * d for d in stats.get("stepper.step", SpanStats()).durations]
    metrics = {
        "grid.sample_calls": calls("grid.sample", "grid.sample_time"),
        "grid.sample_s": self_s("grid.sample", "grid.sample_time"),
        "grid.errors_s": self_s("grid.discrete_errors"),
        "operators.build_s": self_s("operators.build_operator_set"),
        "operators.step_ops_s": self_s("operators.assemble_step_operators"),
        "operators.apply_calls": calls("operators.apply_x", "operators.apply_y"),
        "operators.apply_s": self_s("operators.apply_x", "operators.apply_y"),
        "stepper.seed_s": self_s("stepper.init_levels"),
        "stepper.rhs_s": self_s("stepper.assemble_rhs"),
        "stepper.step_calls": calls("stepper.step"),
        "stepper.step_self_s": self_s("stepper.step"),
        "stepper.step_ms_p50": percentile(step_ms, 50),
        "stepper.step_ms_p90": percentile(step_ms, 90),
        "sylvester.solve_calls": calls("sylvester.solve_coupled"),
        "sylvester.solve_s": self_s("sylvester.solve_coupled", "sylvester.solve_sylvester"),
        "sylvester.branch_calls": calls("sylvester.solve_sylvester"),
        "sylvester.residual_s": self_s("sylvester.residual"),
        "sylvester.margin_s": self_s("sylvester.solvability_margin"),
        "sylvester.kronecker_calls": calls("sylvester.kronecker_solve"),
        "sylvester.kronecker_s": self_s("sylvester.kronecker_solve"),
        "sylvester.kronecker_bytes": tracer.kronecker_bytes,
        "sylvester.min_margin": min(tracer.margins, default=0.0),
        "sylvester.max_residual": max(tracer.residuals, default=0.0),
    }
    for kernel in KERNELS:
        metrics[f"{kernel}_calls"] = calls(kernel)
        metrics[f"{kernel}_s"] = self_s(kernel)
    # the certificate span includes the exact-solution residual it runs
    metrics["bench.certificate_s"] = stats.get("bench.check_forcing_certificate", SpanStats()).total_s
    return metrics
