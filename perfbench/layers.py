"""Spans around calls into each layer's public functions.

``Tracer.install()`` rebinds module and class attributes of the library
to timing wrappers; the CLI and the engines look those names up at call
time, so every call into a layer passes through a wrapper. Each span
records (layer, start, end, parent span, call id) in memory. A layer's
self time is the time of its spans minus the time of their child spans.
``uninstall()`` restores the original attributes, so untraced calls run
the unmodified program.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from subadd import cli, proximity, reproduce, surface, toric

LAYERS = (
    "toric.newton",
    "toric.engine",
    "toric.product",
    "toric.certify",
    "toric.explore",
    "surface.model",
    "surface.closure",
    "proximity.sequences",
    "proximity.check",
    "rationals",
    "reproduce",
    "cli",
)


def _closure_raises(args, out) -> dict:
    model, z = args[0], args[1]
    start = {
        n: (int(q) if model.kind[n] == surface.MARKED else max(int(q), 0))
        for n, q in z.items()
    }
    return {"raises": sum(int(q) - start.get(n, 0) for n, q in out.items())}


def _sequence_steps(args, out) -> dict:
    if isinstance(out, proximity.PairedSequences):
        ext_a = len(out.a_steps) - 1 - out.k_c
        ext_b = len(out.b_steps) - 1 - out.k_c
        return {"steps": out.k_c + ext_a + ext_b}
    return {"steps": len(out.chosen)}


def _product_gens(args, out) -> dict:
    return {"gens_out": len(out.generators), "max_gens": len(out.generators)}


# (owner, attribute, layer, counter, count nested calls of the same layer)
_POINTS = (
    (toric, "newton_polyhedron", "toric.newton",
     lambda a, o: {"gens_in": len(a[0].generators), "facets": len(o.facets)}, False),
    (toric, "multiplier_monomials", "toric.engine",
     lambda a, o: {"gens_out": len(o.generators)}, False),
    (toric, "ideal_product", "toric.product", _product_gens, False),
    (toric, "ideal_power", "toric.product", _product_gens, False),
    (toric, "subadditivity_check_monomial", "toric.certify",
     lambda a, o: {"witnesses": int(o.witness is not None)}, False),
    (toric, "strong_subadd_check_monomial", "toric.certify",
     lambda a, o: {"witnesses": int(o.witness is not None)}, False),
    (toric, "explore_question33", "toric.explore", None, False),
    (surface, "build_model", "surface.model", lambda a, o: {"curves": len(o.names)}, False),
    (proximity, "build_model", "surface.model", lambda a, o: {"curves": len(o.names)}, False),
    (surface.ResolutionModel, "from_json_dict", "surface.model",
     lambda a, o: {"curves": len(o.names)}, False),
    (surface.ResolutionModel, "anti_nef_closure", "surface.closure", _closure_raises, True),
    (surface.ResolutionModel, "multiplier_cycle", "surface.closure", None, False),
    (proximity, "paired_sequences", "proximity.sequences", _sequence_steps, False),
    (proximity, "computation_sequence", "proximity.sequences", _sequence_steps, False),
    (proximity, "subadditivity_check_2d", "proximity.check", None, False),
    (surface, "solve_linear", "rationals", None, False),
    (surface, "is_negative_definite", "rationals", None, False),
    (toric, "solve_linear", "rationals", None, False),
    (toric, "matrix_rank", "rationals", None, False),
    (reproduce, "run_case", "reproduce", None, False),
    (cli, "main", "cli", None, False),
)

# Counters that are maxima over calls rather than sums.
_MAXIMA = {"toric.product.max_gens"}


class Tracer:
    def __init__(self):
        # span: [layer, start, end, parent index, call id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer, counter, count_nested):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, 0.0, 0.0, parent, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            entry = parent < 0 or spans[parent][0] != layer
            if entry:
                counts[layer + ".calls"] += 1
            if counter is not None and (entry or count_nested):
                for key, value in counter(args, out).items():
                    name = f"{layer}.{key}"
                    if name in _MAXIMA:
                        counts[name] = max(counts[name], value)
                    else:
                        counts[name] += value
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, layer, counter, nested in _POINTS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, counter, nested))
            else:
                wrapped = self._wrap(raw, layer, counter, nested)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def note_caches(self) -> None:
        """Add the engine caches' hits and misses of the call just made."""
        for layer, cache in (
            ("toric.newton", toric._newton_facets),
            ("toric.engine", toric._box_minimal_impl),
        ):
            info = cache.cache_info()
            self.counts[layer + ".cache_hits"] += info.hits
            self.counts[layer + ".cache_lookups"] += info.hits + info.misses

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        for (layer, start, end, _, _), inner in zip(self.spans, child):
            busy[layer] += end - start - inner
        return busy

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: busy_s and calls for every layer, then the
        layer counters."""
        busy = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[layer + ".busy_s"] = (busy.get(layer, 0.0), "s")
            out[layer + ".calls"] = (self.counts.get(layer + ".calls", 0), "count")
        for layer in ("toric.newton", "toric.engine"):
            lookups = self.counts.get(layer + ".cache_lookups", 0)
            hits = self.counts.get(layer + ".cache_hits", 0)
            out[layer + ".cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        for name in (
            "toric.newton.gens_in",
            "toric.newton.facets",
            "toric.engine.gens_out",
            "toric.product.gens_out",
            "toric.product.max_gens",
            "toric.certify.witnesses",
            "surface.model.curves",
            "surface.closure.raises",
            "proximity.sequences.steps",
        ):
            out[name] = (self.counts.get(name, 0), "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
