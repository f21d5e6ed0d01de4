"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around each op,
around each public call a workload makes (through ``public_api``), and
around the package functions wrapped at the module attributes the package
itself calls them through (``install_child_wraps``).  Nothing inside
``src/`` is edited.  Spans stay in memory and are written once at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from types import SimpleNamespace


class Tracer:
    """Spans as ``[name, parent index, op id, start ns, end ns]``."""

    def __init__(self):
        self.spans = []
        self.notes = defaultdict(list)
        self.op = -1
        self._stack = []

    def begin(self, name, op=None):
        if op is not None:
            self.op = op
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, self.op, time.perf_counter_ns(), 0])

    def end(self):
        self.spans[self._stack.pop()][4] = time.perf_counter_ns()

    def wrap(self, name, fn, note=None):
        """``fn`` with a span around every call.

        ``note(args, result)`` returns a ``(key, value)`` pair appended to
        ``notes[key]``; it runs after the span closes, so its cost lands in
        the caller's span, never in ``name``'s.
        """
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.op, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if note is not None:
                key, value = note(args, result)
                notes[key].append(value)
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self):
        """Per span name: ``(calls, self ns, total ns)``.  Self time is the
        span's duration minus the durations of its direct children, which
        are nested and sequential in this single-threaded run."""
        child = [0] * len(self.spans)
        for _name, parent, _op, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {}
        for i, (name, _parent, _op, start, end) in enumerate(self.spans):
            calls, self_ns, total_ns = agg.get(name, (0, 0, 0))
            agg[name] = (calls + 1, self_ns + end - start - child[i], total_ns + end - start)
        return agg

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[3] for s in self.spans), default=0)
        payload = {
            "fields": ["name", "parent", "op", "start_ns", "end_ns"],
            "names": names,
            "spans": [[index[n], p, o, s - t0, e - t0] for n, p, o, s, e in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _zero_count(poly):
    return poly.zero_count()


def _connected_multigraphs(max_vertices, max_edges):
    from nodaltheta import families

    return list(families.connected_multigraphs(max_vertices, max_edges))


# span name -> (module, attribute) of every public call a workload makes
PUBLIC_CALLS = {
    "multidegree.enumerate_semistable": ("multidegree", "enumerate_semistable"),
    "multidegree.enumerate_stable": ("multidegree", "enumerate_stable"),
    "multidegree.is_semistable": ("multidegree", "is_semistable"),
    "multidegree.is_stable": ("multidegree", "is_stable"),
    "multidegree.stabilize": ("multidegree", "stabilize"),
    "multidegree.find_stable_orientation": ("multidegree", "find_stable_orientation"),
    "strata.enumerate_picard_strata": ("strata", "enumerate_picard_strata"),
    "strata.theta_strata": ("strata", "theta_strata"),
    "strata.is_picard_irreducible": ("strata", "is_picard_irreducible"),
    "strata.is_theta_irreducible": ("strata", "is_theta_irreducible"),
    "strata.strata_poset_dot": ("strata", "strata_poset_dot"),
    "graph_curve.w_count": ("graph_curve", "w_count"),
    "graph_curve.h0": ("graph_curve", "h0"),
    "graph_curve.classify_one_node": ("graph_curve", "classify_one_node"),
    "graph_curve.abel_image": ("graph_curve", "abel_image"),
    "graph_curve.hyperelliptic_rational": ("graph_curve", "hyperelliptic_rational"),
    "graph_curve.symbolic_theta_polynomial": ("graph_curve", "symbolic_theta_polynomial"),
}


# the public calls the CLI makes
CLI_CALLS = [name for name in PUBLIC_CALLS if name.startswith(("multidegree.", "strata."))
             and name not in ("multidegree.is_semistable", "multidegree.is_stable")] + [
    "graph_curve.w_count", "graph_curve.abel_image", "graph_curve.hyperelliptic_rational"]


def _enum_note(args, result):
    return "enumerated", (args[0], len(result))


def _strata_scan_note(args, _result):
    return "edge_subsets", 2 ** args[0].num_edges


def _torus_note(_args, result):
    return "torus_points", result.total


def _zero_count_note(args, _result):
    poly = args[0]
    return "torus_points", (poly.prime - 1) ** len(poly.free_edges)


def _families_note(_args, result):
    return "families_graphs", len(result)


_NOTES = {
    "families.connected_multigraphs": _families_note,
    "multidegree.enumerate_semistable": _enum_note,
    "multidegree.enumerate_stable": _enum_note,
    "strata.enumerate_picard_strata": _strata_scan_note,
    "strata.theta_strata": _strata_scan_note,
    "strata.is_theta_irreducible": _strata_scan_note,
    "graph_curve.w_count": _torus_note,
    "graph_curve.zero_count": _zero_count_note,
}


def public_api(tracer=None):
    """Namespace of the package's public functions the workloads call,
    keyed by their bare names; span-wrapped when ``tracer`` is given."""
    import importlib

    fns = {
        name: getattr(importlib.import_module(f"nodaltheta.{mod}"), attr)
        for name, (mod, attr) in PUBLIC_CALLS.items()
    }
    fns["graph_curve.zero_count"] = _zero_count
    fns["families.connected_multigraphs"] = _connected_multigraphs
    if tracer is not None:
        fns = {n: tracer.wrap(n, f, _NOTES.get(n)) for n, f in fns.items()}
    return SimpleNamespace(**{n.split(".", 1)[1]: f for n, f in fns.items()})


def install_child_wraps(tracer):
    """Wrap the package functions at the attributes the package calls them
    through, so calls made inside the package get child spans.  Returns a
    function that restores the originals."""
    from nodaltheta import dual_graph, graph_curve, multidegree, strata

    def rank_note(args, _result):
        rows = args[0]
        return "rank_cells", len(rows) * (len(rows[0]) if rows else 0)

    def strata_enum_note(args, result):
        return "strata_enumerated", (args[0], len(result))

    targets = [
        (multidegree, "connected_subsets", "dual_graph.connected_subsets", None),
        (strata, "enumerate_stable", "multidegree.enumerate_stable", strata_enum_note),
        (graph_curve, "rank", "modp.rank", rank_note),
        (graph_curve, "h0", "graph_curve.h0", None),
        (dual_graph.DualGraph, "bridges", "dual_graph.bridges", None),
    ]
    cli = sys.modules.get("nodaltheta.cli")
    if cli is not None:
        # the CLI reaches the library through the names it imported and
        # through the graph_curve module
        for name in CLI_CALLS:
            mod, attr = PUBLIC_CALLS[name]
            targets.append((graph_curve if mod == "graph_curve" else cli, attr, name,
                            _NOTES.get(name)))
    saved = []
    for owner, attr, name, note in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, note))

    def restore():
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore
