"""Tracing wrappers for the benchmark's traced run.

``Tracer.install`` replaces each traced public function of relmod by a
wrapper at every relmod module that binds it (so ``relmod.maltsev``'s
``free_algebra`` and the ``relations`` functions that ``identities`` reaches
through ``rel.`` are all seen), and ``uninstall`` puts the originals back.

Each call records a span: name, start, end and the index of its parent span.
Spans stay in memory until the run writes them out.  The hot recursive
functions (``eval_expr`` and the relation operators) are aggregated into
per-name counts and times instead of spans.  A function's self time is its
duration minus the time its traced children cover.
"""

from __future__ import annotations

import sys
import time

# layer -> (defining module, functions)
LAYERS = {
    "algebras.subuniverse": ("relmod.algebras", ("free_algebra", "generate_subuniverse")),
    "algebras.term_table": ("relmod.algebras", ("term_table",)),
    "algebras.load": ("relmod.algebras", ("load_algebra",)),
    "relations.closure": (
        "relmod.relations",
        ("refl_adm_closure", "tolerance_of", "congruence_generated", "close_to_kind"),
    ),
    "relations.enumerate": ("relmod.relations", ("enumerate_relations",)),
    "relations.ops": (
        "relmod.relations",
        ("compose", "converse", "intersect", "union", "m_compose", "power", "star", "plus"),
    ),
    "identities.parse": ("relmod.identities", ("parse_identity", "catalog", "catalog_entry", "with_sorts")),
    "identities.check": ("relmod.identities", ("check_identity",)),
    "identities.eval": ("relmod.identities", ("eval_expr",)),
    "maltsev.search": ("relmod.maltsev", ("find_directed_gumm", "find_day", "decide_modularity")),
    "maltsev.verify": ("relmod.maltsev", ("verify_directed_gumm", "verify_day")),
}
HOT_LAYERS = ("relations.ops", "identities.eval")
LAYER_OF = {fname: layer for layer, (_, names) in LAYERS.items() for fname in names}

# close_to_kind dispatches to these closers through a private table that
# holds the unwrapped functions; its calls are keyed by the closer it reaches
_KIND_CLOSER = {"REFL": "refl_adm_closure", "TOL": "tolerance_of", "CON": "congruence_generated"}


class FuncStats:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Spans and per-function aggregates for the calls made while installed."""

    def __init__(self, record_spans=True):
        self.record_spans = record_spans
        self.stats = {fname: FuncStats() for fname in LAYER_OF}
        self.spans = []  # (name, start, end, parent index)
        self.entries = {layer: 0 for layer in LAYERS}  # calls from outside the layer
        self.counts = {
            "elements": 0,
            "members": 0,
            "nodes": 0,
            "decided": 0,
            "assignments": 0,
            "closure_distinct": 0,
        }
        self._child = []  # per open call: time covered by traced children
        self._open = []  # indices of open recorded spans
        self._depth = {layer: 0 for layer in LAYERS}
        self._closure_keys = set()
        self._saved = []

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every traced function at each relmod module that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if name == "relmod" or name.startswith("relmod.")]
        for layer, (home, names) in LAYERS.items():
            for fname in names:
                original = getattr(sys.modules[home], fname)
                wrapper = self._wrap(layer, fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def end_op(self):
        """Count the distinct closure arguments of the op that just ended;
        each op loads a fresh algebra, so none carry over."""
        self.counts["closure_distinct"] += len(self._closure_keys)
        self._closure_keys = set()

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, layer, fname, fn):
        stats = self.stats[fname]
        child = self._child
        clock = time.perf_counter
        if layer in HOT_LAYERS:

            def hot(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    covered = child.pop()
                    if child:
                        child[-1] += dur
                    stats.calls += 1
                    stats.total += dur
                    stats.self += dur - covered

            hot.__wrapped__ = fn
            return hot

        observe = getattr(self, "_observe_" + layer.replace(".", "_"), None)
        depth = self._depth
        entries = self.entries
        spans = self.spans
        opened = self._open

        def traced(*args, **kwargs):
            outermost = depth[layer] == 0
            if outermost:
                entries[layer] += 1
            depth[layer] += 1
            index = -1
            if self.record_spans:
                index = len(spans)
                spans.append(None)
                opened.append(index)
            child.append(0.0)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                end = clock()
                dur = end - start
                covered = child.pop()
                if child:
                    child[-1] += dur
                stats.calls += 1
                stats.total += dur
                stats.self += dur - covered
                depth[layer] -= 1
                if index >= 0:
                    opened.pop()
                    spans[index] = (fname, start, end, opened[-1] if opened else -1)
                if observe is not None:
                    observe(fname, outermost, args, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- per-layer counters -------------------------------------------------------

    def _observe_algebras_subuniverse(self, fname, outermost, args, result, error):
        if fname != "generate_subuniverse":
            return
        if result is not None:
            self.counts["elements"] += len(result)
        elif getattr(error, "kind", None) == "closure-size":
            self.counts["elements"] += error.limit

    def _observe_relations_closure(self, fname, outermost, args, result, error):
        if not outermost:
            return
        if fname == "close_to_kind":
            alg, kind, r = args[:3]
            closer = _KIND_CLOSER[kind.value]
        else:
            alg, r = args[:2]
            closer = fname
        self._closure_keys.add((id(alg), closer, r))

    def _observe_relations_enumerate(self, fname, outermost, args, result, error):
        if result is not None:
            self.counts["members"] += len(result.members)

    def _observe_identities_check(self, fname, outermost, args, result, error):
        if result is not None:
            self.counts["assignments"] += result.checked

    def _observe_maltsev_search(self, fname, outermost, args, result, error):
        if result is None or not outermost:
            return
        self.counts["nodes"] += result.node_count
        # a search result is decided when it found terms or proved there are none
        if getattr(result, "found", False) or result.definitive:
            self.counts["decided"] += 1

    # -- summaries ---------------------------------------------------------------

    def snapshot(self):
        """Counts and times as plain data, for a child process to hand back."""
        return {
            "stats": {f: [st.calls, st.total, st.self] for f, st in self.stats.items()},
            "entries": self.entries,
            "counts": self.counts,
        }

    def merge(self, snap):
        for fname, (calls, total, self_s) in snap["stats"].items():
            st = self.stats[fname]
            st.calls += calls
            st.total += total
            st.self += self_s
        for layer, n in snap["entries"].items():
            self.entries[layer] += n
        for key, n in snap["counts"].items():
            self.counts[key] += n

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for fname, st in self.stats.items():
            out[LAYER_OF[fname]] += st.self
        return out

    def layer_calls(self):
        """Entries from outside the layer; every call for the hot layers."""
        out = dict(self.entries)
        for layer in HOT_LAYERS:
            out[layer] = sum(self.stats[f].calls for f in LAYERS[layer][1])
        return out
