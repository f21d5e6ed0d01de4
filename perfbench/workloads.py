"""The four benchmark workloads: input generators, ops and reference checks.

Each workload has a ``build(seed, smoke, refs, api)`` that makes the run's
inputs from the seed alone and returns its ops, and a ``record(api)`` that
computes the reference for every op any seed can produce (see
``record.py``).  An op is ``(kind, run, check)``: ``run(api)`` makes the
package's public calls through ``api`` and returns their output, and
``check(output)`` compares it with the recorded reference.

Seeded inputs that need a reference are drawn from fixed pools (built from
``POOL_SEED``) whose every member has a recorded reference, so any seed
can be checked exactly.  ``smoke`` keeps a few ops of each kind.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from pathlib import Path

POOL_SEED = 7074602

#: a second seed, never used while writing a change, to re-check claims on
SECOND_SEED = 271828


def digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=4).hexdigest()


def nth(hexes: str, i: int) -> str:
    """The ``i``-th 8-character digest of a concatenated digest string."""
    return hexes[8 * i:8 * i + 8]


def load_refs(ref_dir: Path, workload: str) -> dict:
    with gzip.open(ref_dir / f"{workload}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_refs(ref_dir: Path, workload: str, refs: dict) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(ref_dir / f"{workload}.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(refs, sort_keys=True, separators=(",", ":")).encode())


def _checker(want: str, canon):
    return lambda out: digest(canon(out)) == want


# -- canonical forms of outputs ------------------------------------------

def canon_degrees(rows):
    return tuple(tuple(int(x) for x in d) for d in rows)


def canon_sweep(out):
    semistable, stable = out
    return canon_degrees(semistable), canon_degrees(stable)


def canon_strata(strata):
    return tuple(
        (tuple(int(e) for e in s.nodes), tuple(int(x) for x in s.degree), int(s.dim), str(s.kind))
        for s in strata
    )


def canon_theta(out):
    strata, s = out
    return canon_strata(strata), (s.pieces, s.stable_classes, s.component_count,
                                  s.positive_genus_pieces, s.effective_component_count)


def canon_stabilize(res):
    """The parts of a stabilization that the multidegree determines; the
    witness orientation is not unique and is checked separately."""
    halves = tuple(sorted((int(e), tuple(int(x) for x in h)) for e, h in res.ending_halves.items()))
    return (tuple(int(e) for e in res.destabilizing_set),
            tuple(int(x) for x in res.stable_degree), halves, bool(res.degree_unique))


def canon_wcount(res):
    return (int(res.prime), int(res.r), int(res.count), int(res.total), str(res.mode), res.seed)


def canon_classify(rep):
    return (rep.case, rep.r, rep.h0_base, rep.h0_minus_q1, rep.h0_minus_q2, rep.h0_minus_both,
            rep.generic_h0, rep.special_h0, rep.special_gluing, rep.locus,
            tuple(tuple(int(x) for x in kv) for kv in rep.scan_histogram))


def canon_bundle(bundle):
    return (tuple(int(d) for d in bundle.degrees), tuple(int(c) for c in bundle.gluing),
            bool(bundle.tree_normalized))


def canon_theta_poly(out):
    poly, zeros = out
    terms = tuple((tuple(int(k) for k in expo), int(c)) for expo, c in poly.terms)
    return (int(poly.prime), tuple(poly.free_edges), terms, tuple(poly.variables), int(zeros))


def canon_value(out):
    return out if isinstance(out, (bool, int)) else repr(out)


# -- independent validity checks for outputs that are not unique ------------

def witness_ok(graph, d, res) -> bool:
    """The witness orientation realizes ``d`` (d_v = genus_v - 1 + ending
    half-edges at v) and ends each destabilizing node at the recorded
    half-edge."""
    o = res.witness_orientation
    if len(o) != graph.num_edges:
        return False
    ends = [0] * graph.num_vertices
    for e, (u, v) in enumerate(graph.edges):
        ends[v if o[e] == 0 else u] += 1
    if tuple(g - 1 + b for g, b in zip(graph.genera, ends)) != tuple(d):
        return False
    return all(tuple(res.ending_halves[e]) == (e, 2 if o[e] == 0 else 1)
               for e in res.destabilizing_set)


def strongly_connected(graph, o) -> bool:
    """The oriented non-loop edges of a connected graph form a strongly
    connected digraph."""
    if o is None or len(o) != graph.num_edges:
        return False
    n = graph.num_vertices
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for e, (u, v) in enumerate(graph.edges):
        if u != v:
            s, t = (u, v) if o[e] == 0 else (v, u)
            succ[s].append(t)
            pred[t].append(s)

    def reaches_all(adj):
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return reaches_all(succ) and reaches_all(pred)


# == stability-sweep =========================================================

SWEEP_MAX_VERTICES, SWEEP_MAX_EDGES, SWEEP_MAX_GENUS = 4, 7, 2
POOL_GRAPHS = 300
POOL_OPS, C8_OPS_EACH = 1200, 300
SMOKE_SWEEP, SMOKE_POOL_OPS, SMOKE_C8_OPS_EACH = 300, 40, 10


def graph_key(graph):
    return (graph.num_vertices, graph.genera, graph.edges)


def decorated_family(api):
    """Every connected multigraph within the size bounds, with every genus
    decoration up to the bound, sorted so indices do not depend on the
    order the package generates them in."""
    from nodaltheta.families import genus_decorations

    base = api.connected_multigraphs(SWEEP_MAX_VERTICES, SWEEP_MAX_EDGES)
    family = [d for g in base for d in genus_decorations(g, SWEEP_MAX_GENUS)]
    family.sort(key=graph_key)
    return base, family


def doubled_cycle(n: int):
    from nodaltheta.dual_graph import DualGraph

    edges = []
    for i in range(n):
        pair = tuple(sorted((i, (i + 1) % n)))
        edges += [pair, pair]
    return DualGraph((0,) * n, tuple(edges))


def _step_outside(rng, d):
    """A neighbour of ``d`` with the same total: +1 at one vertex, -1 at
    another (a single vertex just gains one)."""
    d = list(d)
    if len(d) == 1:
        d[0] += 1
    else:
        i, j = rng.sample(range(len(d)), 2)
        d[i] += 1
        d[j] -= 1
    return tuple(d)


def _predicate_op(rng, graph, entry, kinds):
    """One seeded per-multidegree op on a graph whose semistable and stable
    sets and stabilizations are recorded in ``entry``."""
    ss, ss_set, st, st_set = entry["ss"], entry["ss_set"], entry["st"], entry["st_set"]
    kind = rng.choice(kinds)
    if kind == "is_semistable":
        d = rng.choice(ss)
        if rng.random() < 0.5:
            d = _step_outside(rng, d)
        want = d in ss_set
        return kind, lambda api: api.is_semistable(graph, d), lambda out: out == want
    if kind == "is_stable":
        d = rng.choice(st if st and rng.random() < 0.5 else ss)
        if rng.random() < 0.5:
            d = _step_outside(rng, d)
        want = d in st_set
        return kind, lambda api: api.is_stable(graph, d), lambda out: out == want
    if kind == "stabilize":
        j = rng.randrange(len(ss))
        d, want = ss[j], nth(entry["stabilize"], j)
        return kind, lambda api: api.stabilize(graph, d), (
            lambda out: digest(canon_stabilize(out)) == want and witness_ok(graph, d, out))
    orientable = entry["orientable"]
    return kind, lambda api: api.find_stable_orientation(graph), (
        lambda out: (out is None) != orientable and (out is None or strongly_connected(graph, out)))


def _pool_entry(raw):
    ss = [tuple(d) for d in raw["semistable"]]
    st = [tuple(d) for d in raw["stable"]]
    return dict(raw, ss=ss, ss_set=set(ss), st=st, st_set=set(st))


def build_stability(seed, smoke, refs, api):
    from nodaltheta.dual_graph import DualGraph

    _, family = decorated_family(api)
    rng = random.Random(seed)
    ops = []
    order = list(range(len(family)))
    rng.shuffle(order)
    for i in order[:SMOKE_SWEEP] if smoke else order:
        g = family[i]
        ops.append(("sweep", lambda api, g=g: (api.enumerate_semistable(g), api.enumerate_stable(g)),
                    _checker(nth(refs["sweep"], i), canon_sweep)))

    pool = [(DualGraph(tuple(e["genera"]), tuple(map(tuple, e["edges"]))), _pool_entry(e))
            for e in refs["pool"]]
    kinds = ("is_semistable", "is_stable", "stabilize", "find_stable_orientation")
    pool_ops = [_predicate_op(rng, *rng.choice(pool), kinds)
                for _ in range(SMOKE_POOL_OPS if smoke else POOL_OPS)]
    rng.shuffle(pool_ops)

    c8, c8_entry = doubled_cycle(8), _pool_entry(refs["c8"])
    c8_ops = [_predicate_op(rng, c8, c8_entry, (kind,))
              for kind in ("is_semistable", "is_stable", "stabilize")
              for _ in range(SMOKE_C8_OPS_EACH if smoke else C8_OPS_EACH)]
    rng.shuffle(c8_ops)
    return ops + pool_ops + c8_ops


def _record_sets(api, graph):
    ss = api.enumerate_semistable(graph)
    st = api.enumerate_stable(graph)
    stab = "".join(digest(canon_stabilize(api.stabilize(graph, d))) for d in ss)
    return {"semistable": [list(d) for d in ss], "stable": [list(d) for d in st],
            "stabilize": stab, "orientable": api.find_stable_orientation(graph) is not None}


def record_stability(api):
    _, family = decorated_family(api)
    sweep = "".join(
        digest(canon_sweep((api.enumerate_semistable(g), api.enumerate_stable(g))))
        for g in family)
    pool = []
    for i in sorted(random.Random(POOL_SEED).sample(range(len(family)), POOL_GRAPHS)):
        g = family[i]
        pool.append(dict(_record_sets(api, g), genera=list(g.genera),
                         edges=[list(e) for e in g.edges]))
    return {"family_size": len(family), "sweep": sweep, "pool": pool,
            "c8": _record_sets(api, doubled_cycle(8))}


# == strata-lattice ===========================================================

def strata_graphs():
    from nodaltheta.dual_graph import DualGraph

    def banana(k):
        return DualGraph((0, 0), ((0, 1),) * k)

    def doubled(n, pairs):
        return DualGraph((0,) * n, tuple(p for p in pairs for _ in (0, 1)))

    return {
        "banana-6": banana(6),
        "banana-8": banana(8),
        "banana-10": banana(10),
        "banana-12": banana(12),
        "doubled-k4": doubled(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "decorated-c6-chords": DualGraph(
            (1, 0, 2, 0, 1, 0),
            ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5))),
        "doubled-triangle": doubled(3, [(0, 1), (1, 2), (0, 2)]),
    }


STRATA_SMOKE = ("banana-6", "banana-8", "doubled-triangle")
STRATA_DOT = ("banana-6", "doubled-triangle")


def strata_ops():
    """Every strata-lattice op in a fixed order, keyed by graph and call."""
    ops = []
    for name, g in strata_graphs().items():
        ops += [
            (f"{name}/enumerate_picard_strata", lambda api, g=g: api.enumerate_picard_strata(g),
             canon_strata),
            (f"{name}/theta_strata", lambda api, g=g: api.theta_strata(g), canon_theta),
            (f"{name}/is_picard_irreducible", lambda api, g=g: api.is_picard_irreducible(g),
             canon_value),
            (f"{name}/is_theta_irreducible", lambda api, g=g: api.is_theta_irreducible(g),
             canon_value),
        ]
        if name in STRATA_DOT:
            ops.append((f"{name}/strata_poset_dot",
                        lambda api, g=g: api.strata_poset_dot(g, api.enumerate_picard_strata(g)),
                        canon_value))
    return ops


def build_strata(seed, smoke, refs, api):
    ops = [(key.split("/")[1], run, _checker(refs["digests"].get(key, ""), canon))
           for key, run, canon in strata_ops()
           if not smoke or key.split("/")[0] in STRATA_SMOKE]
    random.Random(seed).shuffle(ops)
    return ops


def record_strata(api):
    return {"digests": {key: digest(canon(run(api))) for key, run, canon in strata_ops()}}


# == torus-scan ================================================================

HYPERELLIPTIC_PAIRS = [(1, -1), (2, -2), (3, -3), (4, -4)]
GENERIC_PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7)]
SCAN_PRIMES = (11, 13, 17)
BANANA_PRIME = 17
SAMPLE_SEEDS = (3, 5, 8, 13, 21, 34, 55, 89)
SAMPLE_SIZE = 4096  # as many points as the exhaustive banana scan
SMALL_POOL, IRRED_POOL = 1500, 300
SMALL_PICK, IRRED_PICK = 400, 100
SMOKE_SMALL_PICK, SMOKE_IRRED_PICK = 20, 5
INF = (1, 0)


def large_scans(smoke=False):
    """``(key, pairs, r, p)`` of the exhaustive genus-4 scans."""
    return [(f"{name}-r{r}-p{p}", pairs, r, p)
            for p in (SCAN_PRIMES[:1] if smoke else SCAN_PRIMES)
            for name, pairs, r in (("hyperelliptic", HYPERELLIPTIC_PAIRS, 1),
                                   ("generic", GENERIC_PAIRS, 0),
                                   ("generic", GENERIC_PAIRS, 1))]


def banana4_curve():
    """Two rational components meeting in four nodes (genus 3); degrees
    (1, 1) make the gluing system square."""
    from nodaltheta.dual_graph import DualGraph
    from nodaltheta.graph_curve import GraphCurve

    branch = {}
    for e in range(4):
        branch[(e, 1)] = (e, 1)
        branch[(e, 2)] = (e + 1, 1)
    return GraphCurve(DualGraph((0, 0), ((0, 1),) * 4), BANANA_PRIME, branch)


def _free_points(points, used):
    return [pt for pt in points if pt not in used]


def small_pool():
    """Specs of the seeded small systems, as plain data: random connected
    rational curves (at most 3 components and 4 nodes, p in {11, 13}) with
    an h0 bundle, a one-node case and an effective divisor each, and
    irreducible rational curves with 3 or 4 nodes for the pencil test."""
    rng = random.Random(POOL_SEED)
    curves = []
    for _ in range(SMALL_POOL):
        p = rng.choice((11, 13))
        points = [(a, 1) for a in range(p)] + [INF]
        n = rng.randrange(1, 4)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randrange(0 if edges else 1, 4 - len(edges) + 1)):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append((min(u, v), max(u, v)))
        used = [set() for _ in range(n)]
        branch = {}
        for e, (u, v) in enumerate(edges):
            for side, vert in ((1, u), (2, v)):
                pt = rng.choice(_free_points(points, used[vert]))
                used[vert].add(pt)
                branch[(e, side)] = pt

        def bundle():
            return (tuple(rng.randrange(-1, 3) for _ in range(n)),
                    tuple(rng.randrange(1, p) for _ in edges))

        abel = []
        for _ in range(rng.randrange(1, 4)):
            v = rng.randrange(n)
            abel.append((v, rng.choice(_free_points(points, used[v]))))
        curves.append({"p": p, "n": n, "edges": edges, "branch": branch, "h0": bundle(),
                       "node": (rng.randrange(len(edges)), bundle(), rng.randrange(2)),
                       "abel": abel})
    irreducible = []
    for _ in range(IRRED_POOL):
        p = rng.choice((11, 13))
        k = rng.choice((3, 4))
        if rng.random() < 0.3:
            pairs = [(x, p - x) for x in rng.sample(range(1, (p - 1) // 2 + 1), k)]
        else:
            pts = rng.sample(range(p), 2 * k)
            pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
        irreducible.append((p, pairs))
    return curves, irreducible


def _small_ops(spec):
    """The h0, one-node and Abel ops of one pool curve."""
    from nodaltheta.dual_graph import DualGraph
    from nodaltheta.graph_curve import GluedLineBundle, GraphCurve

    curve = GraphCurve(DualGraph((0,) * spec["n"], tuple(spec["edges"])), spec["p"], spec["branch"])
    h0_bundle = GluedLineBundle(*spec["h0"])
    edge, node_bundle, r = spec["node"]
    node_bundle = GluedLineBundle(*node_bundle)
    points = spec["abel"]
    return [
        ("h0", lambda api: api.h0(curve, h0_bundle), canon_value),
        ("classify_one_node", lambda api: api.classify_one_node(curve, edge, node_bundle, r),
         canon_classify),
        ("abel_image", lambda api: api.abel_image(curve, points), canon_bundle),
    ]


def _hyperelliptic_op(p, pairs):
    from nodaltheta.graph_curve import rational_curve

    curve = rational_curve(p, pairs)
    return "hyperelliptic_rational", lambda api: api.hyperelliptic_rational(curve), canon_value


def _torus_fixed_ops(sample_seed, smoke):
    """``(key, kind, run, canon)`` of the large scans and the banana ops."""
    from nodaltheta.graph_curve import rational_curve

    ops = []
    for key, pairs, r, p in large_scans(smoke):
        curve = rational_curve(p, pairs)
        ops.append((key, "w_count", lambda api, c=curve, r=r: api.w_count(c, (3,), r=r),
                    canon_wcount))
    banana = banana4_curve()
    ops += [
        ("banana4-wcount", "w_count", lambda api: api.w_count(banana, (1, 1), r=0), canon_wcount),
        ("banana4-theta", "symbolic_theta_polynomial", lambda api: (
            lambda poly: (poly, api.zero_count(poly)))(api.symbolic_theta_polynomial(banana, (1, 1))),
         canon_theta_poly),
        (f"banana4-sample-s{sample_seed}", "w_count", lambda api: api.w_count(
            banana, (1, 1), r=0, mode="sample", sample_size=SAMPLE_SIZE, seed=sample_seed),
         canon_wcount),
    ]
    return ops


def build_torus(seed, smoke, refs, api):
    rng = random.Random(seed)
    sample_seed = rng.choice(SAMPLE_SEEDS)
    ops = [(kind, run, _checker(refs["digests"].get(key, ""), canon))
           for key, kind, run, canon in _torus_fixed_ops(sample_seed, smoke)]
    curves, irreducible = small_pool()
    small = []
    for i in rng.sample(range(len(curves)), SMOKE_SMALL_PICK if smoke else SMALL_PICK):
        for kind, run, canon in _small_ops(curves[i]):
            small.append((kind, run, _checker(nth(refs["small"][kind], i), canon)))
    for i in rng.sample(range(len(irreducible)), SMOKE_IRRED_PICK if smoke else IRRED_PICK):
        kind, run, canon = _hyperelliptic_op(*irreducible[i])
        small.append((kind, run, _checker(nth(refs["irreducible"], i), canon)))
    # interleaved, so the small systems sample the whole pass, not its end
    ops += small
    rng.shuffle(ops)
    return ops


def record_torus(api):
    digests = {}
    for s in SAMPLE_SEEDS:
        for key, _kind, run, canon in _torus_fixed_ops(s, smoke=False):
            if key not in digests:
                digests[key] = digest(canon(run(api)))
    curves, irreducible = small_pool()
    small = {"h0": [], "classify_one_node": [], "abel_image": []}
    for spec in curves:
        for kind, run, canon in _small_ops(spec):
            small[kind].append(digest(canon(run(api))))
    irred = []
    for p, pairs in irreducible:
        _kind, run, canon = _hyperelliptic_op(p, pairs)
        irred.append(digest(canon(run(api))))
    return {"digests": digests, "small": {k: "".join(v) for k, v in small.items()},
            "irreducible": "".join(irred)}


# == cli-session ==================================================================

CLI_ROUNDS = 3

#: name -> argv after ``python -m nodaltheta``; spec paths are relative to
#: the repository root, which is the working directory of every invocation
CLI_INVOCATIONS = {
    "genus": ["genus", "perfbench/specs/kite.json"],
    "genus-json": ["genus", "perfbench/specs/kite.json", "--format", "json"],
    "multidegrees-stable": ["multidegrees", "perfbench/specs/kite.json", "--stable"],
    "multidegrees-semistable": ["multidegrees", "perfbench/specs/kite.json", "--semistable",
                                "--format", "json"],
    "orient": ["orient", "perfbench/specs/kite.json"],
    "orient-bridge": ["orient", "perfbench/specs/bridge.json", "--format", "json"],
    "stabilize": ["stabilize", "perfbench/specs/kite.json", "--degree", "0,2,2"],
    "strata-table": ["strata", "perfbench/specs/kite.json"],
    "strata-json": ["strata", "perfbench/specs/kite.json", "--format", "json"],
    "strata-dot": ["strata", "perfbench/specs/kite.json", "--format", "dot"],
    "strata-theta": ["strata", "perfbench/specs/kite.json", "--theta"],
    "irreducible": ["irreducible", "perfbench/specs/kite.json"],
    "h0": ["h0", "perfbench/specs/theta.json", "--degrees", "0,1", "--gluing", "1,6,2"],
    "wcount": ["wcount", "perfbench/specs/theta.json", "--degrees", "0,1", "--r", "0",
               "--primes", "5,7,11"],
    "wcount-sample": ["wcount", "perfbench/specs/theta.json", "--degrees", "0,1", "--mode",
                      "sample", "--samples", "500", "--seed", "7", "--format", "json"],
    "abel": ["abel", "perfbench/specs/theta.json", "--points", "0:5,1:inf"],
    "hyperelliptic": ["hyperelliptic", "perfbench/specs/rational4.json"],
    "refuse-budget": ["wcount", "perfbench/specs/big.json", "--degrees", "4", "--r", "0"],
    "refuse-schema": ["genus", "perfbench/specs/bad.json"],
}
CLI_SMOKE = ("genus", "strata-table", "wcount", "refuse-schema")


def build_cli(seed, smoke, refs, api):
    rng = random.Random(seed)
    names = [n for n in CLI_INVOCATIONS if not smoke or n in CLI_SMOKE]
    ops = []
    for _ in range(1 if smoke else CLI_ROUNDS):
        rng.shuffle(names)
        for name in names:
            argv, want = CLI_INVOCATIONS[name], refs["goldens"].get(name)
            ops.append(("cli", lambda api, argv=argv: api.cli(argv),
                        lambda out, want=want: want is not None and list(out) == [
                            want["exit"], want["stdout"], want["stderr"]]))
    return ops


def record_cli(api):
    goldens = {}
    for name, argv in CLI_INVOCATIONS.items():
        code, out, err = api.cli(argv)
        goldens[name] = {"exit": code, "stdout": out, "stderr": err}
    return {"goldens": goldens}
