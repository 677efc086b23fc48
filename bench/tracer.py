"""Outside-in tracing of the zenolab layers.

``Tracer.install`` wraps every public function of the seven layer modules
(the names in each module's ``__all__``, plus the public classmethods of
its public classes) and rebinds the wrapper at *every* module attribute
that holds the original.  zenolab modules import each other's names
directly (``crossover.zeno_rate`` is ``rates.zeno_rate``), so rebinding
only the defining module would miss those calls.  The package itself is
not modified.

Each wrapped call records a span: name, start, end, parent span and task
id, kept in flat in-memory arrays and written out with ``save``.  A
layer's self time is its spans' durations minus the time covered by
their child spans.  The integrand a caller hands to
``numerics.segmented_integral`` gets a span of its own, attributed to the
function that defined it, so quadrature bookkeeping and integrand
arithmetic are told apart.

Counters are updated at the same boundaries by small hooks that read the
call's arguments and result.  A hook that no longer fits the call (an
API change) is skipped and counted in ``trace.hook_errors``; the call
itself is never affected.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("spectral", "numerics", "rates", "crossover", "lindblad", "oracle", "cli")

FINDERS = ("crossover.find_tau_star_zeno", "crossover.find_tau_star_kick",
           "crossover.find_K_star")
MODEL_BUILDERS = ("oracle.SingleExcitationModel.qubit",
                  "oracle.SingleExcitationModel.with_ancilla")
INTEGRAND = ".<integrand>"

# per-function metrics: (metric prefix, report calls, report self time)
FUNCTION_METRICS = (
    ("spectral.thermal_density", True, True),
    ("spectral.zeno_time", False, True),
    ("numerics.segmented_integral", True, True),
    ("rates.zeno_rate", True, True),
    ("rates.kick_rate", True, True),
    ("rates.continuous_rate", True, True),
    ("rates.golden_rule_rate", True, False),
    ("lindblad.build_qubit_generator", True, True),
    ("lindblad.evolve", True, True),
    ("oracle.build_bath", False, True),
    ("oracle.kick_survival_trace", False, True),
    ("oracle.free_survival", False, True),
    ("oracle.fit_decay_rate", True, False),
    ("cli.main", True, True),
)

COUNTERS = (
    "spectral.thermal_density.points",
    "numerics.segmented_integral.passes",
    "numerics.segmented_integral.nodes",
    "numerics.segmented_integral.exhausted",
    "crossover.ratio_evals",
    "crossover.roots",
    "oracle.kick_cycles",
    "oracle.kick_flops_computed",
    "trace.hook_errors",
)
MAXIMA = (
    "rates.kick_rate.truncation_max",
    "oracle.model_dim_max",
    "oracle.fit_decay_rate.residual_max",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Span recorder and counter set for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.task = array("i")
        self._stack = [-1]
        self.task_id = -1
        self.counters = {k: 0 for k in COUNTERS}
        self.maxima = {k: 0.0 for k in MAXIMA}
        self._finder_ids = {self._name_id(f) for f in FINDERS}
        self._max_passes = 14

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name_id: int, fn, args, kwargs):
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.task.append(self.task_id)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrapper(self, qualified: str, fn):
        name_id = self._name_id(qualified)
        before = getattr(self, "_before_" + qualified.replace(".", "_"), None)
        after = getattr(self, "_after_" + qualified.replace(".", "_"), None)
        span = self._span

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = self._guard(before, args, kwargs)
            result = span(name_id, fn, args, kwargs)
            if after is not None:
                self._guard(after, args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualified)
        return traced

    def _guard(self, hook, *hook_args):
        try:
            return hook(*hook_args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.counters["trace.hook_errors"] += 1
            return (hook_args[0], hook_args[1], None) if len(hook_args) == 2 else None

    # -- installation --------------------------------------------------------

    def install(self) -> int:
        """Wrap the public functions; returns the number of rebound bindings."""
        modules = [importlib.import_module("zenolab." + layer) for layer in LAYERS]
        everywhere = [m for n, m in sys.modules.items()
                      if n == "zenolab" or n.startswith("zenolab.")]
        bound = 0
        for layer, module in zip(LAYERS, modules):
            for public in getattr(module, "__all__", ()):
                obj = getattr(module, public, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrapper = self._wrapper(f"{layer}.{public}", obj)
                    for holder in everywhere:
                        for attr, val in list(vars(holder).items()):
                            if val is obj:
                                setattr(holder, attr, wrapper)
                                bound += 1
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            wrapper = self._wrapper(f"{layer}.{public}.{attr}",
                                                    raw.__func__)
                            setattr(obj, attr, classmethod(wrapper))
                            bound += 1
        seg = getattr(modules[1], "segmented_integral", None)
        default = inspect.signature(getattr(seg, "__wrapped__", seg)).parameters.get(
            "max_passes") if seg is not None else None
        if default is not None and isinstance(default.default, int):
            self._max_passes = default.default
        return bound

    # -- hooks: before(args, kwargs) -> (args, kwargs, state); after(args, kwargs, result, state)

    def _after_spectral_thermal_density(self, args, kwargs, result, state):
        self.counters["spectral.thermal_density.points"] += int(
            np.size(_arg(args, kwargs, 1, "omega")))

    def _before_numerics_segmented_integral(self, args, kwargs):
        f_vec = _arg(args, kwargs, 0, "f_vec")
        owner = getattr(f_vec, "__qualname__", "integrand").split(".<locals>")[0]
        layer = getattr(f_vec, "__module__", "") or ""
        layer = layer.rsplit(".", 1)[-1]
        name_id = self._name_id(f"{layer}.{owner}{INTEGRAND}")
        state = {"calls": 0, "nodes": 0}

        def integrand(x):
            state["calls"] += 1
            state["nodes"] += int(np.size(x))
            return self._span(name_id, f_vec, (x,), {})

        if "f_vec" in kwargs:
            kwargs = {**kwargs, "f_vec": integrand}
        else:
            args = (integrand,) + tuple(args[1:])
        max_passes = kwargs.get("max_passes",
                                args[4] if len(args) > 4 else self._max_passes)
        state["max_passes"] = int(max_passes)
        return args, kwargs, state

    def _after_numerics_segmented_integral(self, args, kwargs, result, state):
        if state is None:
            return
        c = self.counters
        c["numerics.segmented_integral.passes"] += state["calls"] // 2
        c["numerics.segmented_integral.nodes"] += state["nodes"]
        if state["calls"] == 2 * (state["max_passes"] + 1):
            c["numerics.segmented_integral.exhausted"] += 1

    def _finder_after(self, args, kwargs, result, state):
        self.counters["crossover.roots"] += len(result.all_crossings)

    _after_crossover_find_tau_star_zeno = _finder_after
    _after_crossover_find_tau_star_kick = _finder_after
    _after_crossover_find_K_star = _finder_after

    def _count_ratio_eval(self, args, kwargs):
        # the span stack holds the callers of this kernel call
        if any(self.name[i] in self._finder_ids for i in self._stack[1:]):
            self.counters["crossover.ratio_evals"] += 1
        return args, kwargs, None

    _before_rates_zeno_rate = _count_ratio_eval
    _before_rates_continuous_rate = _count_ratio_eval
    _before_rates_kick_rate = _count_ratio_eval

    def _after_rates_kick_rate(self, args, kwargs, result, state):
        trunc = float(np.max(result.truncation_error))
        m = self.maxima
        m["rates.kick_rate.truncation_max"] = max(m["rates.kick_rate.truncation_max"], trunc)

    def _model_built(self, args, kwargs, result, state):
        m = self.maxima
        m["oracle.model_dim_max"] = max(m["oracle.model_dim_max"],
                                        float(result.eigenvalues.size))

    _after_oracle_SingleExcitationModel_qubit = _model_built
    _after_oracle_SingleExcitationModel_with_ancilla = _model_built

    def _after_oracle_kick_survival_trace(self, args, kwargs, result, state):
        model = _arg(args, kwargs, 0, "model")
        cycles = int(_arg(args, kwargs, 2, "N"))
        d = int(model.eigenvalues.size)
        self.counters["oracle.kick_cycles"] += cycles
        self.counters["oracle.kick_flops_computed"] += 4 * d * d * cycles

    def _after_oracle_fit_decay_rate(self, args, kwargs, result, state):
        m = self.maxima
        m["oracle.fit_decay_rate.residual_max"] = max(
            m["oracle.fit_decay_rate.residual_max"], float(result.residual))

    # -- results -------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        return start, end, parent, name

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span name: (calls, total duration, self time)."""
        start, end, parent, name = self._arrays()
        dur = end - start
        covered = np.zeros(dur.size)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        self_t = dur - covered
        k = len(self.names)
        return (np.bincount(name, minlength=k),
                np.bincount(name, weights=dur, minlength=k),
                np.bincount(name, weights=self_t, minlength=k))

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass, by metric name."""
        calls, total, self_t = self.self_times()
        by_name = {n: i for i, n in enumerate(self.names)}

        def calls_of(key):
            return int(calls[by_name[key]]) if key in by_name else 0

        def self_of(*keys):
            return float(sum(self_t[i] for n, i in by_name.items()
                             for key in keys if n == key or n == key + INTEGRAND))

        out: dict[str, float] = {}
        for key, want_calls, want_self in FUNCTION_METRICS:
            if want_calls:
                out[key + ".calls"] = calls_of(key)
            if want_self:
                out[key + ".self_s"] = self_of(key)
        for key in FINDERS:
            out[key + ".s"] = float(total[by_name[key]]) if key in by_name else 0.0
        out["oracle.model_build.self_s"] = self_of(*MODEL_BUILDERS)
        out.update(self.counters)
        out.update(self.maxima)
        evals, roots = self.counters["crossover.ratio_evals"], self.counters["crossover.roots"]
        out["crossover.evals_per_root"] = evals / roots if roots else 0.0
        for layer in LAYERS:
            out[layer + ".self_s"] = float(sum(
                self_t[i] for n, i in by_name.items() if n.split(".", 1)[0] == layer))
        out["trace.spans"] = len(self.start)
        return out

    def save(self, path: str) -> None:
        """Write the spans (name, start, end, parent, task id) to ``path``."""
        start, end, parent, name = self._arrays()
        np.savez(path, start=start, end=end, parent=parent, name=name,
                 task=np.frombuffer(self.task, dtype=np.int32),
                 names=np.array(json.dumps(self.names)))
