"""Counting and timing wrappers installed around thermoflow's public functions.

The wrappers live here, in the benchmark, not in the program: each one is
patched into every thermoflow module namespace that holds the original
function object, so internal calls (``work.renyi_divergence``,
``oracle.check_thermal_transition``, the names ``cli`` imports, ...) are
caught as well as the benchmark's own calls.  Spans are kept in memory and
written once, when the traced pass ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np

# Layer -> wrapped public functions.  ``verdicts`` holds only data.
TARGETS = {
    "states": ("load_state_file", "gibbs", "tensor"),
    "order": ("majorizes", "check_noisy_transition", "construct_bistochastic", "birkhoff_decompose"),
    "thermo_curve": ("curve", "dominates", "check_thermal_transition"),
    "divergence": (
        "renyi_divergence", "renyi_divergence_limit", "check_cto_transition",
        "check_cto_with_ancilla", "free_energy_alpha", "smooth_free_energy", "iid_extend",
    ),
    "work": ("work_fixed_output",),
    "engine": ("quasi_static_estimate",),
    "oracle": ("feasibility_lp", "catalyst_search"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Derived per-layer figures, beside calls/self_s per function and share per layer.
DERIVED = (
    "divergence.evals_per_decision",
    "divergence.distinct_order_ratio",
    "work.evals_per_call",
    "engine.evals_per_sweep",
    "oracle.catalyst_search.probes_per_call",
    "oracle.catalyst_search.found_ratio",
    "order.birkhoff_decompose.terms",
    "divergence.iid_extend.atoms_out",
    "bench.other_s",
    "bench.tracing_overhead",
)


# Every per-layer metric a traced run reports, in BENCHMARK.json order.
PER_LAYER_METRICS = (
    tuple(f"{f}.{k}" for f in FUNCTIONS for k in ("calls", "self_s"))
    + tuple(f"import.{p}_s" for p in ("thermoflow", "scipy", "numpy"))
    + DERIVED
    + tuple(f"{layer}.share" for layer in TARGETS)
)


def units_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", ".share", "overhead")):
        return "ratio"
    return "count"


# Cheap summaries of a return value, taken after the span closes.
_RESULT_PROBES = {
    "oracle.catalyst_search": lambda res: res is not None,
    "order.birkhoff_decompose": len,
    "divergence.iid_extend": lambda res: len(res.probabilities),
}


class Tracer:
    """Span recorder: (function index, start, end, parent span, request id)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.renyi_args: list[tuple[int, tuple, dict]] = []
        self.results: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.renyi_args.clear()
        self.results.clear()

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        spans, stack, results = self.spans, self.stack, self.results
        probe = _RESULT_PROBES.get(qualname)
        keep_args = qualname == "divergence.renyi_divergence"
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, tracer.request)
            if keep_args:
                tracer.renyi_args.append((sid, args, kwargs))
            if probe is not None:
                results[sid] = probe(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every thermoflow namespace that re-imports a target function."""
        package = importlib.import_module("thermoflow")
        modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith("thermoflow.")
        ]
        for layer, fns in TARGETS.items():
            home = importlib.import_module(f"thermoflow.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": [[self.names[i], s, e, p, r] for i, s, e, p, r in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def _nearest(self, sid: int, wanted: set[int]) -> int:
        """Nearest ancestor span of ``sid`` whose function is in ``wanted``, or -1."""
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] in wanted:
                return parent
            parent = self.spans[parent][3]
        return -1

    def calls_under(self, child: str, ancestors: tuple[str, ...]) -> int:
        wanted = {self.names.index(a) for a in ancestors}
        target = self.names.index(child)
        return sum(
            1 for sid, span in enumerate(self.spans)
            if span[0] == target and self._nearest(sid, wanted) >= 0
        )

    def calls(self, name: str) -> int:
        target = self.names.index(name)
        return sum(1 for span in self.spans if span[0] == target)

    def _distinct_renyi(self) -> int:
        """Distinct (request, p, q, counts, alpha) among the recorded divergence calls."""
        names = ("p", "q", "alpha", "counts")
        seen = set()
        for sid, args, kwargs in self.renyi_args:
            bound = dict(zip(names, args), **kwargs)
            key = [self.spans[sid][4], float(bound["alpha"])]
            for field in ("p", "q", "counts"):
                value = bound.get(field)
                raw = b"" if value is None else np.asarray(value, dtype=float).tobytes()
                key.append(hashlib.blake2b(raw, digest_size=16).digest())
            seen.add(tuple(key))
        return len(seen)

    def summary(self, wall: float) -> dict[str, float]:
        """Per-layer figures for a traced pass that took ``wall`` seconds."""
        n = len(self.names)
        calls = [0] * n
        child = [0.0] * len(self.spans)
        top_level = 0.0
        for idx, start, end, parent, _req in self.spans:
            calls[idx] += 1
            if parent >= 0:
                child[parent] += end - start
            else:
                top_level += end - start
        self_time = [0.0] * n
        for sid, (idx, start, end, _p, _r) in enumerate(self.spans):
            self_time[idx] += (end - start) - child[sid]

        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in TARGETS}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_time[i]
            layer_self[name.split(".")[0]] += self_time[i]
        for layer, value in layer_self.items():
            out[f"{layer}.share"] = value / wall

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        renyi = "divergence.renyi_divergence"
        decisions = ("divergence.check_cto_transition", "divergence.check_cto_with_ancilla")
        out["divergence.evals_per_decision"] = ratio(
            self.calls_under(renyi, decisions), sum(self.calls(d) for d in decisions)
        )
        out["divergence.distinct_order_ratio"] = ratio(self._distinct_renyi(), self.calls(renyi))
        out["work.evals_per_call"] = ratio(
            self.calls_under(renyi, ("work.work_fixed_output",)), self.calls("work.work_fixed_output")
        )
        out["engine.evals_per_sweep"] = ratio(
            self.calls_under(renyi, ("engine.quasi_static_estimate",)),
            self.calls("engine.quasi_static_estimate"),
        )
        search = "oracle.catalyst_search"
        out["oracle.catalyst_search.probes_per_call"] = ratio(
            self.calls_under("thermo_curve.check_thermal_transition", (search,)), self.calls(search)
        )
        for metric, name in (
            ("oracle.catalyst_search.found_ratio", search),
            ("order.birkhoff_decompose.terms", "order.birkhoff_decompose"),
            ("divergence.iid_extend.atoms_out", "divergence.iid_extend"),
        ):
            target = self.names.index(name)
            values = [float(v) for sid, v in self.results.items() if self.spans[sid][0] == target]
            out[metric] = ratio(sum(values), len(values))
        out["bench.other_s"] = wall - top_level
        return out
