"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``halin_ola`` layer wherever a
module of the package has bound them, so calls between layers (for example
``rearrange_to_halin_ola`` calling ``la_total``) become nested spans.  The
program itself is not changed: wrappers are installed from here for the
length of a traced session and removed afterwards.  Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List

LAYERS = (
    "cli", "io_formats", "graph_core", "generators", "tree_ola",
    "halin_arrange", "layout_ops", "property_suite",
)

# Public calls recorded as spans, by the layer module that defines them.
TRACED = {
    "io_formats": ("parse_instance", "parse_layout", "serialize_instance",
                   "serialize_layout", "export_dot"),
    "graph_core": ("build_embedded_tree", "halin_from_tree",
                   "EmbeddedTree.edges", "HalinGraph.edges"),
    "generators": ("gen_wheel", "gen_kary_rbt_halin", "gen_random_halin"),
    "tree_ola": ("is_recursively_balanced", "rbt_ola", "brute_force_ola"),
    "halin_arrange": ("direct_rbt_halin_ola", "rearrange_to_halin_ola", "certify"),
    "layout_ops": ("la_cost", "la_total"),
    "property_suite": ("run_suite",),
}

# Counts read off a call's arguments and result at the span boundary.
NOTES: Dict[str, Callable] = {
    "io_formats.parse_instance": lambda a, r: {"bytes": len(a[0])},
    "tree_ola.rbt_ola": lambda a, r: {"n": a[0].n},
    "tree_ola.brute_force_ola": lambda a, r: {
        "states": r.states_explored, "optima": r.optimal_count},
    "halin_arrange.rearrange_to_halin_ola": lambda a, r: {
        "n": a[0].n, "swaps": r[1].total_swaps,
        "moved": r[1].total_moved_vertices},
    "property_suite.run_suite": lambda a, r: {
        "optima_checked": sum(e.optima_checked for e in r.entries)},
}

# Arguments kept from the first traced session for the untimed counting and
# allocation pass: every ``rbt_ola`` call (touches are summed over calls),
# and only the first call of the others.
CAPTURED = ("io_formats.parse_instance", "tree_ola.rbt_ola", "layout_ops.la_cost")
CAPTURE_ALL = ("tree_ola.rbt_ola",)


class Tracer:
    """Records spans as [name, start, end, parent index, session id, notes]."""

    def __init__(self):
        self.spans: List[list] = []
        self.captured: Dict[str, list] = {name: [] for name in CAPTURED}
        self.capture = False
        self.session = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.session, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a top-level span (one per CLI command)."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.spans[idx][5] = note(args, result)
            kept = self.captured.get(name)
            if self.capture and kept is not None and (not kept or name in CAPTURE_ALL):
                kept.append(args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function in every module that binds it."""
        modules = [importlib.import_module(f"halin_ola.{m}") for m in LAYERS]
        modules.append(importlib.import_module("halin_ola"))
        for layer, names in TRACED.items():
            home = importlib.import_module(f"halin_ola.{layer}")
            for dotted in names:
                span_name = f"{layer}.{dotted.split('.')[-1]}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._patches.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(span_name, orig))
                    continue
                orig = getattr(home, dotted)
                wrapper = self._wrap(span_name, orig)
                for mod in modules:
                    if getattr(mod, dotted, None) is orig:
                        self._patches.append((mod, dotted, orig))
                        setattr(mod, dotted, wrapper)

    def uninstall(self):
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, session, notes in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "session": session, "notes": notes}) + "\n")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _n, start, end, _p, _s, _x in spans]
    for _n, start, end, parent, _s, _x in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def session_breakdown(tracer: Tracer, session: int) -> dict:
    """Per-layer figures of one traced session, derived from its spans."""
    idx = [i for i, s in enumerate(tracer.spans) if s[4] == session]
    spans = tracer.spans
    own = self_times(spans)

    def incl(name: str, top_only: bool = False) -> float:
        total = 0.0
        for i in idx:
            name_i, start, end, parent = spans[i][:4]
            if name_i != name:
                continue
            if top_only and parent is not None and spans[parent][0] == name:
                continue
            total += end - start
        return total

    def notes(name: str, key: str) -> List[int]:
        return [spans[i][5][key] for i in idx
                if spans[i][0] == name and spans[i][5] is not None]

    def under(ancestor: str, name: str) -> float:
        total = 0.0
        for i in idx:
            if spans[i][0] != name:
                continue
            p = spans[i][3]
            while p is not None and spans[p][0] != ancestor:
                p = spans[p][3]
            if p is not None:
                total += spans[i][2] - spans[i][1]
        return total

    layer_self = {layer: 0.0 for layer in LAYERS}
    commands = {}
    top = {}
    for i in idx:  # parents precede children, so a span's command is known
        layer = spans[i][0].split(".")[0]
        layer_self[layer] += own[i]
        parent = spans[i][3]
        if parent is None:
            lib = sum(spans[j][2] - spans[j][1] for j in idx if spans[j][3] == i)
            commands[spans[i][0][len("cli."):]] = {
                "inproc": spans[i][2] - spans[i][1], "lib": lib,
                "self": {layer: 0.0 for layer in LAYERS}}
            top[i] = spans[i][0][len("cli."):]
        else:
            top[i] = top[parent]
        commands[top[i]]["self"][layer] += own[i]
    return {
        "incl": incl, "notes": notes, "under": under,
        "layer_self": layer_self, "commands": commands,
        "session_s": sum(c["inproc"] for c in commands.values()),
    }


def untimed_counts(tracer: Tracer) -> dict:
    """Vertex touches and allocation peaks, from the captured arguments.

    Runs outside every timed region, so neither ``VisitCounter`` nor
    ``tracemalloc`` inflates a timed number.  Takes the captured arguments
    out of the tracer, so they are not kept alive (and walked by the garbage
    collector) while later sessions run.
    """
    import tracemalloc

    from halin_ola import Layout, VisitCounter, la_cost, parse_instance, rbt_ola

    def peak_mib(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    captured = tracer.captured
    tracer.captured = {name: [] for name in CAPTURED}
    touches = 0
    for (tree, *_rest) in captured["tree_ola.rbt_ola"]:
        counter = VisitCounter()
        rbt_ola(tree, stats=counter)
        touches += counter.touches
    out = {"touches": touches, "parse_peak_mib": 0.0,
           "edges_peak_mib": 0.0, "la_cost_peak_mib": 0.0}
    if captured["io_formats.parse_instance"]:
        data = captured["io_formats.parse_instance"][0][0]
        out["parse_peak_mib"] = peak_mib(lambda: parse_instance(data))
    if captured["layout_ops.la_cost"]:
        g, layout = captured["layout_ops.la_cost"][0][:2]
        out["edges_peak_mib"] = peak_mib(g.edges)
        fresh = Layout(layout.vertex_at)
        out["la_cost_peak_mib"] = peak_mib(lambda: la_cost(g, fresh))
    return out
