"""Command-line front end.

Curves are read from a JSON file:

    {
      "vertices": [{"genus": 0}, {"genus": 0}],
      "edges": [[0, 1], [0, 1], [0, 1]],
      "branch_points": {"0": [[0, 1], [0, 1]], "1": [[1, 1], [1, 1]],
                        "2": [[2, 1], [2, 1]]},
      "field_prime": 11
    }

``branch_points`` maps each edge index to the pair of points where its
two half-edges attach (side order 1, 2); points are ``[a, 1]`` pairs or
``[1, 0]`` for infinity, and are reduced mod the working prime.  The
field data is required exactly by the cohomology commands (h0, wcount,
abel, hyperelliptic), which also require every genus to be 0.  Any other
field, a vertex field other than ``genus``, or a ``branch_points`` key
that names no edge is a schema error.

Exit codes: 0 success, 1 domain error (bad mathematical input, budget
refusal), 2 usage or schema error.  Output is deterministic: identical
spec, command and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import __version__
from .dual_graph import DualGraph
from .modp import BudgetExceededError, BudgetSettingError, is_prime
from .multidegree import (
    enumerate_semistable,
    enumerate_stable,
    find_stable_orientation,
    orientation_ends,
    stabilize,
)
from .strata import (
    enumerate_picard_strata,
    is_picard_irreducible,
    is_theta_irreducible,
    strata_payload,
    strata_poset_dot,
    theta_strata,
)

# graph_curve (and numpy with it) is imported only by the cohomology
# commands, so the combinatorial ones start without it
if TYPE_CHECKING:
    from .graph_curve import GraphCurve


class SpecError(ValueError):
    """Schema violation in a curve spec; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# -- curve spec parsing -------------------------------------------------

def _is_int(x) -> bool:
    """JSON integer; ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(fields: dict, known, path: str, what: str) -> None:
    for key in fields:
        if key not in known:
            raise SpecError(path, f"unknown {what} {key!r}")


def parse_graph(spec: dict) -> DualGraph:
    if not isinstance(spec, dict):
        raise SpecError("$", "curve spec must be a JSON object")
    vertices = spec.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise SpecError("vertices", "need a nonempty list")
    genera = []
    for i, v in enumerate(vertices):
        if not isinstance(v, dict) or "genus" not in v:
            raise SpecError(f"vertices[{i}]", "need an object with a genus field")
        g = v["genus"]
        if not _is_int(g) or g < 0:
            raise SpecError(f"vertices[{i}].genus", "need a nonnegative integer")
        genera.append(g)
    edges_spec = spec.get("edges", [])
    if not isinstance(edges_spec, list):
        raise SpecError("edges", "need a list of [u, v] pairs")
    edges = []
    for i, e in enumerate(edges_spec):
        if (not isinstance(e, list) or len(e) != 2
                or not all(_is_int(x) for x in e)):
            raise SpecError(f"edges[{i}]", "need a pair of vertex indices")
        u, v = e
        if not (0 <= u < len(genera) and 0 <= v < len(genera)):
            raise SpecError(f"edges[{i}]", "vertex index out of range")
        edges.append((u, v))
    _check_keys(spec, ("vertices", "edges", "branch_points", "field_prime"), "$", "field")
    for i, v in enumerate(vertices):
        _check_keys(v, ("genus",), f"vertices[{i}]", "field")
    return DualGraph(tuple(genera), tuple(edges))


def _parse_point(raw, path: str, prime: int):
    if not (isinstance(raw, list) and len(raw) == 2
            and all(_is_int(x) for x in raw)):
        raise SpecError(path, "need a point [a, 1] or [1, 0]")
    from . import graph_curve as gc

    try:
        return gc.canonical_point(tuple(raw), prime)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(path, str(exc)) from exc


def _require_prime(n: int, path: str) -> None:
    try:
        prime = is_prime(n)
    except ValueError as exc:  # past the exact primality limit
        raise SpecError(path, str(exc)) from exc
    if not prime:
        raise SpecError(path, f"{n} is not prime")


def parse_curve(spec: dict, prime: int | None = None) -> GraphCurve:
    from . import graph_curve as gc

    graph = parse_graph(spec)
    if any(g != 0 for g in graph.genera):
        raise SpecError("vertices", "branch-point curves need genus 0 everywhere")
    if prime is None:
        prime = spec.get("field_prime")
    if not _is_int(prime):
        raise SpecError("field_prime", "need a prime (or pass --primes)")
    _require_prime(prime, "field_prime")
    bp = spec.get("branch_points")
    if not isinstance(bp, dict):
        raise SpecError("branch_points", "need a map edge index -> pair of points")
    branch = {}
    for e in range(graph.num_edges):
        key = str(e)
        if key not in bp:
            raise SpecError(f"branch_points.{key}", "missing edge entry")
        pair = bp[key]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(f"branch_points.{key}", "need a pair of points")
        branch[(e, 1)] = _parse_point(pair[0], f"branch_points.{key}[0]", prime)
        branch[(e, 2)] = _parse_point(pair[1], f"branch_points.{key}[1]", prime)
    _check_keys(bp, {str(e) for e in range(graph.num_edges)}, "branch_points", "edge")
    try:
        return gc.GraphCurve(graph, prime, branch)
    except ValueError as exc:
        raise SpecError("branch_points", str(exc)) from exc


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(path, f"cannot read spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(path, f"invalid JSON: {exc}") from exc


def _parse_ints(raw: str, n: int, flag: str, order: str = "vertex"):
    """``n`` comma-separated integers given with ``flag``, one per vertex
    or per edge (``order``)."""
    try:
        values = tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise SpecError(flag, "need comma-separated integers") from exc
    if len(values) != n:
        raise SpecError(flag, f"need {n} entries in {order} order")
    return values


def _parse_points(raw: str, n: int):
    points = []
    for i, item in enumerate(raw.split(",")):
        if ":" not in item:
            raise SpecError("--points", f"entry {i}: need vertex:point")
        v, pt = item.split(":", 1)
        try:
            vertex = int(v)
        except ValueError as exc:
            raise SpecError("--points", f"entry {i}: bad vertex") from exc
        if not 0 <= vertex < n:
            raise SpecError("--points", f"entry {i}: vertex {vertex} out of range")
        if pt == "inf":
            points.append((vertex, "inf"))
        else:
            try:
                points.append((vertex, int(pt)))
            except ValueError as exc:
                raise SpecError("--points", f"entry {i}: bad point") from exc
    return points


# -- reports -------------------------------------------------------------

def _report(command: str, inputs: dict, results, fmt: str, seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "format": fmt,
        "seed": seed,
        "version": __version__,
    }


def _emit(report: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)


# -- subcommands -----------------------------------------------------------

def _cmd_genus(args) -> int:
    graph = parse_graph(load_spec(args.spec))
    comps = graph.connected_components()
    results = {
        "arithmetic_genus": graph.arithmetic_genus(),
        "vertices": graph.num_vertices,
        "nodes": graph.num_edges,
        "components": len(comps),
        "bridges": list(graph.bridges()),
    }
    report = _report("genus", {"spec": args.spec}, results, args.format)
    _emit(report, args.format, [
        f"arithmetic genus  {results['arithmetic_genus']}",
        f"vertices          {results['vertices']}",
        f"nodes             {results['nodes']}",
        f"components        {results['components']}",
        f"bridges           {results['bridges']}",
    ])
    return 0


def _cmd_multidegrees(args) -> int:
    graph = parse_graph(load_spec(args.spec))
    which = "semistable" if args.semistable else "stable"
    rows = enumerate_semistable(graph) if args.semistable else enumerate_stable(graph)
    results = {"kind": which, "count": len(rows),
               "multidegrees": [list(d) for d in rows]}
    report = _report("multidegrees", {"spec": args.spec, "kind": which},
                     results, args.format)
    _emit(report, args.format,
          [f"{which} multidegrees: {len(rows)}"]
          + ["  (" + ",".join(str(x) for x in d) + ")" for d in rows])
    return 0


def _cmd_orient(args) -> int:
    graph = parse_graph(load_spec(args.spec))
    orientation = find_stable_orientation(graph)
    if orientation is None:
        results = {"stable_orientation": None,
                   "bridges": list(graph.bridges())}
        lines = ["no stable orientation (graph has bridges: "
                 f"{results['bridges']})"]
    else:
        ends = orientation_ends(graph, orientation)
        arrows = []
        for e, (u, v) in enumerate(graph.edges):
            start = u if ends[e] == v else v
            arrows.append({"edge": e, "start": start, "end": ends[e]})
        results = {"stable_orientation": list(orientation), "arrows": arrows}
        lines = [f"edge {a['edge']}: {a['start']} -> {a['end']}" for a in arrows]
    report = _report("orient", {"spec": args.spec}, results, args.format)
    _emit(report, args.format, lines)
    return 0


def _cmd_stabilize(args) -> int:
    graph = parse_graph(load_spec(args.spec))
    d = _parse_ints(args.degree, graph.num_vertices, "--degree")
    result = stabilize(graph, d)
    results = {
        "input_degree": list(d),
        "destabilizing_nodes": list(result.destabilizing_set),
        "stable_degree": list(result.stable_degree),
        "ending_halves": {str(e): list(he) for e, he in result.ending_halves.items()},
        "degree_unique": result.degree_unique,
    }
    report = _report("stabilize", {"spec": args.spec, "degree": list(d)},
                     results, args.format)
    _emit(report, args.format, [
        f"destabilizing nodes  {results['destabilizing_nodes']}",
        f"stable multidegree   ({','.join(str(x) for x in result.stable_degree)})",
        f"degree unique        {result.degree_unique}",
    ])
    return 0


def _cmd_strata(args) -> int:
    graph = parse_graph(load_spec(args.spec))
    if args.theta:
        strata, summary = theta_strata(graph)
    else:
        strata, summary = enumerate_picard_strata(graph), None
    if args.format == "dot":
        sys.stdout.write(strata_poset_dot(graph, strata))
        return 0
    # both views grow as 2^#nodes, so each is built only for its own format
    results = strata_payload(strata, summary) if args.format == "json" else None
    report = _report("strata", {"spec": args.spec, "theta": args.theta}, results, args.format)
    _emit(report, args.format, _strata_table(strata, summary))
    return 0


def _strata_table(strata, summary):
    yield f"{'S':<16} {'degree':<16} dim"
    for s in strata:
        nodes = "{" + ",".join(str(e) for e in s.nodes) + "}"
        deg = "(" + ",".join(str(x) for x in s.degree) + ")"
        yield f"{nodes:<16} {deg:<16} {s.dim}"
    if summary is not None:
        yield (
            f"theta components: {summary.component_count} "
            f"(= {summary.pieces} pieces x {summary.stable_classes} classes; "
            f"effective {summary.effective_component_count})"
        )


def _cmd_irreducible(args) -> int:
    graph = parse_graph(load_spec(args.spec))
    results = {}
    if args.picard or not args.theta:
        results["picard_irreducible"] = is_picard_irreducible(graph)
    if args.theta or not args.picard:
        results["theta_irreducible"] = is_theta_irreducible(graph)
    report = _report("irreducible", {"spec": args.spec}, results, args.format)
    _emit(report, args.format,
          [f"{k}  {v}" for k, v in sorted(results.items())])
    return 0


def _cmd_h0(args) -> int:
    from . import graph_curve as gc

    spec = load_spec(args.spec)
    curve = parse_curve(spec)
    degrees = _parse_ints(args.degrees, curve.graph.num_vertices, "--degrees")
    gluing = _parse_ints(args.gluing, curve.graph.num_edges, "--gluing", "edge")
    bundle = gc.GluedLineBundle(degrees, gluing)
    value = gc.h0(curve, bundle)
    results = {"h0": value, "prime": curve.prime,
               "degrees": list(degrees), "gluing": list(gluing)}
    report = _report("h0", {"spec": args.spec, "degrees": list(degrees),
                            "gluing": list(gluing)}, results, args.format)
    _emit(report, args.format, [f"h0 = {value}"])
    return 0


def _cmd_wcount(args) -> int:
    from . import graph_curve as gc

    spec = load_spec(args.spec)
    if args.primes is not None:
        try:
            primes = [int(x) for x in args.primes.split(",")]
        except ValueError as exc:
            raise SpecError("--primes", "need comma-separated primes") from exc
        for i, p in enumerate(primes):
            _require_prime(p, "--primes")
            if p in primes[:i]:
                raise SpecError("--primes", f"{p} is given twice")
    else:
        primes = [spec.get("field_prime")]
    if args.r < 0:
        raise SpecError("--r", "need a nonnegative integer")
    if args.mode != "sample" and args.samples is not None:
        raise SpecError("--samples", "only sample mode takes a sample count")
    if args.mode != "sample" and args.seed is not None:
        raise SpecError("--seed", "only sample mode takes a seed")
    if args.samples is not None and args.samples < 1:
        raise SpecError("--samples", "need a positive integer")
    if args.mode == "sample" and args.samples is None:
        raise SpecError("--samples", "sample mode needs a sample count")
    if args.mode == "sample" and args.seed is None:
        raise SpecError("--seed", "sample mode is randomized and needs a seed")
    records = []
    counts = {}
    for p in primes:
        curve = parse_curve(spec, prime=p)
        degrees = _parse_ints(args.degrees, curve.graph.num_vertices, "--degrees")
        result = gc.w_count(curve, degrees, r=args.r, mode=args.mode,
                            sample_size=args.samples, seed=args.seed)
        counts[p] = result.count
        records.append({
            "prime": p,
            "count": result.count,
            "total": result.total,
            "exponent_estimate": (None if result.exponent_estimate is None
                                  else round(result.exponent_estimate, 6)),
        })
    fit = gc.fit_exponent(counts)
    results = {"records": records, "r": args.r,
               "fit": {
                   "slope": None if fit.slope is None else round(fit.slope, 6),
                   "empty": fit.empty,
               }}
    report = _report("wcount", {"spec": args.spec, "degrees": args.degrees,
                                "r": args.r, "primes": primes,
                                "mode": args.mode},
                     results, args.format, seed=args.seed)
    _emit(report, args.format,
          [f"p={rec['prime']}  count={rec['count']}/{rec['total']}  "
           f"exponent~{rec['exponent_estimate']}" for rec in records]
          + [f"fitted exponent: {results['fit']['slope']}"])
    return 0


def _cmd_abel(args) -> int:
    from . import graph_curve as gc

    curve = parse_curve(load_spec(args.spec))
    points = _parse_points(args.points, curve.graph.num_vertices)
    bundle = gc.abel_image(curve, points)
    value = gc.h0(curve, bundle)
    forced = gc.forced_vanishing_nodes(
        curve, bundle, range(curve.graph.num_edges))
    results = {
        "degrees": list(bundle.degrees),
        "gluing": list(bundle.gluing),
        "h0": value,
        "forced_vanishing_nodes": list(forced.nodes),
    }
    report = _report("abel", {"spec": args.spec, "points": args.points},
                     results, args.format)
    _emit(report, args.format, [
        f"degrees  ({','.join(str(x) for x in bundle.degrees)})",
        f"gluing   ({','.join(str(x) for x in bundle.gluing)})",
        f"h0       {value}",
        f"forced vanishing nodes  {results['forced_vanishing_nodes']}",
    ])
    return 0


def _cmd_hyperelliptic(args) -> int:
    from . import graph_curve as gc

    curve = parse_curve(load_spec(args.spec))
    value = gc.hyperelliptic_rational(curve)
    results = {"hyperelliptic": value, "prime": curve.prime}
    report = _report("hyperelliptic", {"spec": args.spec}, results, args.format)
    _emit(report, args.format, [f"hyperelliptic  {value}"])
    return 0


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    outcomes = run_selfcheck(fast=args.fast)
    failures = 0
    for name, ok, detail, seconds in outcomes:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name}  {detail}  [{seconds:.2f} s]")
    print(f"{len(outcomes) - failures}/{len(outcomes)} invariants passed")
    return 0 if failures == 0 else 1


# -- driver ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodaltheta",
        description="stability, strata and exact cohomology for nodal curves",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=("table", "json"), **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=formats, default="table")
        return p

    p = add("genus", _cmd_genus, help="arithmetic genus and basic graph data")
    p.add_argument("spec")

    p = add("multidegrees", _cmd_multidegrees,
            help="enumerate stable or semistable multidegrees")
    p.add_argument("spec")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--stable", action="store_true",
                       help="stable classes (the default)")
    group.add_argument("--semistable", action="store_true")

    p = add("orient", _cmd_orient, help="find a stable orientation")
    p.add_argument("spec")

    p = add("stabilize", _cmd_stabilize,
            help="destabilizing nodes and the stable multidegree")
    p.add_argument("spec")
    p.add_argument("--degree", required=True,
                   help="comma-separated multidegree in vertex order")

    p = add("strata", _cmd_strata, formats=("table", "json", "dot"),
            help="stratify the compactified Picard variety (or its theta divisor)")
    p.add_argument("spec")
    p.add_argument("--theta", action="store_true")

    p = add("irreducible", _cmd_irreducible, help="irreducibility predicates")
    p.add_argument("spec")
    p.add_argument("--picard", action="store_true")
    p.add_argument("--theta", action="store_true")

    p = add("h0", _cmd_h0, help="exact h0 of a glued line bundle")
    p.add_argument("spec")
    p.add_argument("--degrees", required=True)
    p.add_argument("--gluing", required=True)

    p = add("wcount", _cmd_wcount, help="count gluings with h0 >= r+1")
    p.add_argument("spec")
    p.add_argument("--degrees", required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--primes", default=None)
    p.add_argument("--mode", choices=("exhaustive", "sample"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("abel", _cmd_abel, help="line bundle of an effective divisor")
    p.add_argument("spec")
    p.add_argument("--points", required=True,
                   help="comma-separated vertex:point pairs, e.g. 0:3,1:inf")

    p = add("hyperelliptic", _cmd_hyperelliptic,
            help="pencil test for an irreducible rational curve")
    p.add_argument("spec")

    p = add("selfcheck", _cmd_selfcheck, help="run the invariant suite")
    p.add_argument("--fast", action="store_true",
                   help="smaller instance counts")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (SpecError, BudgetSettingError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # GraphTooLargeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
