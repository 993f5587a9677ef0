"""Spans and counts around the library's public functions.

A traced run replaces module attributes such as ``egs.transform.controls``
with wrappers that record a span (name, start, end, parent) and update
counts.  Every module of the package that holds a reference to the
wrapped function gets the wrapper, so calls between layers are recorded
too (``egs.dominance`` calls ``maximize`` through its own import of it).
Spans stay in memory, in flat integer arrays, and are written out once
the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

LAYERS = (
    "fileformat", "core", "validate", "transform", "isomorph",
    "strategy", "dominance", "lp", "generate",
)

# (span name, module, attribute); "Class.__init__" wraps a constructor.
TARGETS = (
    ("fileformat.parse", "egs.fileformat", "parse"),
    ("fileformat.serialize", "egs.fileformat", "serialize"),
    ("core.structure_build", "egs.core", "Structure.__init__"),
    ("core.relation", "egs.core", "relation"),
    ("validate.validate_structure", "egs.validate", "validate_structure"),
    ("validate.check_uo", "egs.validate", "check_uo"),
    ("transform.minimize_uo", "egs.transform", "minimize_uo"),
    ("transform.find_coalescing", "egs.transform", "find_coalescing"),
    ("transform.controls", "egs.transform", "controls"),
    ("transform.find_is", "egs.transform", "find_is"),
    ("transform.apply_coalescing", "egs.transform", "apply_coalescing"),
    ("transform.apply_is", "egs.transform", "apply_is"),
    ("transform.backward_compactify", "egs.transform", "backward_compactify"),
    ("transform.find_complete_icos", "egs.transform", "find_complete_icos"),
    ("transform.apply_tau", "egs.transform", "apply_tau"),
    ("isomorph.structure_isomorphic", "egs.isomorph", "structure_isomorphic"),
    ("strategy.plans", "egs.strategy", "plans"),
    ("strategy.play", "egs.strategy", "play"),
    ("strategy.rnf", "egs.strategy", "reduced_normal_form"),
    ("strategy.rnf_isomorphic", "egs.strategy", "rnf_isomorphic"),
    ("dominance.game_build", "egs.dominance", "Game.__init__"),
    ("dominance.bd", "egs.dominance", "bd"),
    ("dominance.strictly_dominated", "egs.dominance", "strictly_dominated"),
    ("dominance.check_monotonic", "egs.dominance", "check_monotonic"),
    ("lp.maximize", "egs.lp", "maximize"),
    ("generate.gen_random", "egs.generate", "gen_random"),
)

# Span names whose total inclusive time is reported as "<name>_s".
TIMED = {
    "fileformat.parse": "fileformat.parse_s",
    "fileformat.serialize": "fileformat.serialize_s",
    "core.structure_build": "core.structure_build_s",
    "core.relation": "core.relation_s",
    "validate.validate_structure": "validate.validate_structure_s",
    "validate.check_uo": "validate.check_uo_s",
    "transform.minimize_uo": "transform.minimize_uo_s",
    "transform.find_coalescing": "transform.find_coalescing_s",
    "transform.find_is": "transform.find_is_s",
    "transform.backward_compactify": "transform.backward_compactify_s",
    "transform.find_complete_icos": "transform.find_complete_icos_s",
    "transform.apply_tau": "transform.apply_tau_s",
    "isomorph.structure_isomorphic": "isomorph.structure_isomorphic_s",
    "strategy.plans": "strategy.plans_s",
    "strategy.rnf": "strategy.rnf_s",
    "strategy.rnf_isomorphic": "strategy.rnf_isomorphic_s",
    "dominance.game_build": "dominance.game_build_s",
    "dominance.bd": "dominance.bd_s",
    "dominance.check_monotonic": "dominance.check_monotonic_s",
    "lp.maximize": "lp.maximize_s",
    "generate.gen_random": "generate.gen_random_s",
}

# Span names whose call count is reported.
CALLS = {
    "core.structure_build": "core.structures_built",
    "core.relation": "core.relation_calls",
    "validate.check_uo": "validate.check_uo_calls",
    "transform.controls": "transform.controls_calls",
    "isomorph.structure_isomorphic": "isomorph.structure_isomorphic_calls",
    "strategy.plans": "strategy.plans_calls",
    "strategy.play": "strategy.play_calls",
    "dominance.bd": "dominance.bd_calls",
    "dominance.strictly_dominated": "dominance.strictly_dominated_calls",
    "lp.maximize": "lp.maximize_calls",
    "generate.gen_random": "generate.gen_random_calls",
}

OTHER_METRICS = (
    ("fileformat.bytes", "count"),
    ("transform.reduction_steps", "count"),
    ("transform.controls_hit_ratio", "ratio"),
    ("strategy.rnf_cells", "count"),
    ("dominance.bd_rounds", "count"),
    ("lp.tableau_cells", "count"),
    ("lp.distinct_input_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {name: "s" for name in TIMED.values()}
    units.update({name: "count" for name in CALLS.values()})
    units.update(dict(OTHER_METRICS))
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return units


def _frozen(value):
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


class Tracer:
    """Records spans and counts for wrapped calls of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self.calls: dict[str, int] = {}
        self.counts = {
            "fileformat.bytes": 0,
            "transform.reduction_steps": 0,
            "transform.controls_hits": 0,
            "strategy.rnf_cells": 0,
            "dominance.bd_rounds": 0,
            "lp.tableau_cells": 0,
        }
        self._lp_inputs: set = set()
        self.enabled = True
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = self.name_id(name)
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)
        self.calls[name] = 0
        in_minimize = self.name_id("transform.minimize_uo")
        counts_step = name in ("transform.apply_coalescing", "transform.apply_is")

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if counts_step and tracer._active.get(in_minimize):
                tracer.counts["transform.reduction_steps"] += 1
            index = tracer.open(name_id)
            tracer._active[name_id] = tracer._active.get(name_id, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._active[name_id] -= 1
                tracer.close(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded module of the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "egs" or n.startswith("egs.")) and m is not None]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if attr.endswith(".__init__"):
                cls = getattr(module, attr.split(".")[0])
                original = cls.__init__
                self._undo.append((cls, "__init__", original))
                cls.__init__ = self._wrap(name, original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- per-call observations ------------------------------------------

    def _observe_parse(self, args, kwargs, result):
        self.counts["fileformat.bytes"] += len(args[0])

    def _observe_serialize(self, args, kwargs, result):
        self.counts["fileformat.bytes"] += len(result)

    def _observe_controls(self, args, kwargs, result):
        if result is not None:
            self.counts["transform.controls_hits"] += 1

    def _observe_rnf(self, args, kwargs, result):
        self.counts["strategy.rnf_cells"] += len(result.table)

    def _observe_bd(self, args, kwargs, result):
        self.counts["dominance.bd_rounds"] += result.round_count

    def _observe_maximize(self, args, kwargs, result):
        names = ("c", "a_ub", "b_ub", "a_eq", "b_eq")
        given = dict(zip(names, args))
        given.update(kwargs)
        a_ub = given.get("a_ub") or []
        a_eq = given.get("a_eq") or []
        rows = len(a_ub) + len(a_eq)
        # phase-one tableau: one row per constraint plus the objective row;
        # structural, slack and artificial columns plus the right-hand side
        self.counts["lp.tableau_cells"] += (rows + 1) * (
            len(given["c"]) + len(a_ub) + rows + 1
        )
        key = tuple(
            _frozen([Fraction(x) for x in v] if n in ("c", "b_ub", "b_eq")
                    else [[Fraction(x) for x in row] for row in v])
            for n, v in ((n, given.get(n) or []) for n in names)
        )
        self._lp_inputs.add(key)

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.span_name)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child_ns = [0] * n
        inclusive: dict[str, int] = {}
        for i in range(n):
            duration = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child_ns[parent] += duration
        self_ns = {layer: 0 for layer in LAYERS}
        for i in range(n):
            name_id = self.span_name[i]
            duration = self.span_end[i] - self.span_start[i]
            layer = layer_of[name_id]
            if layer in self_ns:
                self_ns[layer] += duration - child_ns[i]
            # inclusive time counts only the outermost span of a name
            parent = self.span_parent[i]
            nested = False
            while parent >= 0:
                if self.span_name[parent] == name_id:
                    nested = True
                    break
                parent = self.span_parent[parent]
            if not nested:
                name = self.names[name_id]
                inclusive[name] = inclusive.get(name, 0) + duration
        out: dict[str, float] = {}
        for span_name, metric in TIMED.items():
            out[metric] = inclusive.get(span_name, 0) / 1e9
        for span_name, metric in CALLS.items():
            out[metric] = self.calls.get(span_name, 0)
        controls = self.calls.get("transform.controls", 0)
        maximize = self.calls.get("lp.maximize", 0)
        out["fileformat.bytes"] = self.counts["fileformat.bytes"]
        out["transform.reduction_steps"] = self.counts["transform.reduction_steps"]
        out["transform.controls_hit_ratio"] = (
            self.counts["transform.controls_hits"] / controls if controls else 0.0
        )
        out["strategy.rnf_cells"] = self.counts["strategy.rnf_cells"]
        out["dominance.bd_rounds"] = self.counts["dominance.bd_rounds"]
        out["lp.tableau_cells"] = self.counts["lp.tableau_cells"]
        out["lp.distinct_input_ratio"] = (
            len(self._lp_inputs) / maximize if maximize else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, start and end in ns from the first
        span, and the parent's line index (-1 for a root)."""
        base = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i] - base}"
                    f"\t{self.span_end[i] - base}\t{self.span_parent[i]}\n"
                )
