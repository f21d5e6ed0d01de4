"""Invariant registry behind the ``selfcheck`` command and the test suite.

``INVARIANTS`` maps each invariant's name to a function of ``fast`` that
returns ``(ok, detail)``.  Each one pits an operation against an
independent brute-force oracle or a second implementation, exhaustively
on a small family or on seeded random instances, at sizes small enough
for a fresh checkout to finish in seconds (``fast=True``) or somewhat
larger ones.  Every seeded entry makes its own ``random.Random``, so an
entry draws the same instances whether it runs alone or among the
others, in any order.  ``nodaltheta selfcheck`` runs the registry, and
``tests/test_invariants.py`` runs it at full size.  A failure means a
bug, never bad user input.
"""

from __future__ import annotations

import itertools
import random
import time

from . import multidegree as md
from . import strata as st
from . import graph_curve as gc
from .dual_graph import DualGraph
from .families import (
    connected_multigraphs,
    genus_decorations,
    orientation_multidegree_sets,
    translate,
)
from .graph_curve import INFINITY, GraphCurve


def brute_component_count(graph: DualGraph) -> int:
    """Component count by path search, independent of union-find."""
    n = graph.num_vertices
    seen = set()
    count = 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for u, w in graph.edges:
                if u == v and w not in seen:
                    stack.append(w)
                elif w == v and u not in seen:
                    stack.append(u)
    return count


def brute_bridges(graph: DualGraph):
    """Bridges by removing each edge in turn and recounting components."""
    base = brute_component_count(graph)
    out = []
    for e in range(graph.num_edges):
        if brute_component_count(graph.delete_edges({e})) > base:
            out.append(e)
    return tuple(out)


def brute_node_scan(curve, edge: int, bundle):
    """h^0 at every gluing scalar of one node, the others fixed.

    Returns the ascending (h^0, count) histogram and the special scalar,
    or ``None``: the scalar whose h^0 exceeds that of every other point
    of the node's line of gluings, the limits c = 0 and c = infinity
    included, where the gluing row degenerates to vanishing at q2 and at
    q1.  The limits let the single scalar of p = 2 be judged as well.
    """
    gluing = list(bundle.gluing)
    values = []
    for c in range(1, curve.prime):
        gluing[edge] = c
        values.append(gc.h0(curve, gc.GluedLineBundle(bundle.degrees, tuple(gluing))))
    histogram = tuple((val, values.count(val)) for val in sorted(set(values)))
    separated = gc.delete_edges(curve, {edge})
    restricted = gc.restrict_bundle(curve, bundle, {edge})
    limits = [gc.h0(separated, restricted, vanishing=[(w, curve.branch[(edge, side)], 1)])
              for side, w in enumerate(curve.graph.edges[edge], 1)]
    top = max(values)
    if values.count(top) == 1 and top > max(limits):
        return histogram, values.index(top) + 1
    return histogram, None


def brute_torus_h0(curve, degrees) -> list:
    """h^0 of the tree-normalized gluing at each point of the torus over the
    free edges (forest scalars 1), by one ``h0`` per point."""
    free = gc.free_gluing_edges(curve)
    values = []
    for scalars in itertools.product(range(1, curve.prime), repeat=len(free)):
        gluing = [1] * curve.graph.num_edges
        for e, c in zip(free, scalars):
            gluing[e] = c
        values.append(gc.h0(curve, gc.GluedLineBundle(degrees, tuple(gluing))))
    return values


def brute_torus_count(curve, degrees, r: int = 0) -> int:
    """Tree-normalized gluings with h^0 >= r + 1, by ``brute_torus_h0``."""
    return sum(value >= r + 1 for value in brute_torus_h0(curve, degrees))


# -- curve builders -----------------------------------------------------

def cycle_curve(length: int, prime: int) -> GraphCurve:
    edges = tuple((i, (i + 1) % length) for i in range(length))
    graph = DualGraph((0,) * length, edges)
    branch = {}
    for e in range(length):
        branch[(e, 1)] = (0, 1)
        branch[(e, 2)] = (1, 1)
    return GraphCurve(graph, prime, branch)


def random_rational_curve(rng: random.Random, prime=11, max_v=3, max_e=4) -> GraphCurve:
    """Random small connected all-rational curve with distinct branch points."""
    while True:
        n = rng.randrange(1, max_v + 1)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randrange(0 if edges else 1, max_e - len(edges) + 1)):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.append((min(u, v), max(u, v)))
        if not edges:
            continue
        graph = DualGraph((0,) * n, tuple(edges))
        if any(graph.valency(v) > prime for v in range(n)):
            continue
        branch = {}
        used = [set() for _ in range(n)]
        ok = True
        for e, (u, v) in enumerate(graph.edges):
            for side, vert in ((1, u), (2, v)):
                free = [(a, 1) for a in range(prime) if (a, 1) not in used[vert]]
                if INFINITY not in used[vert]:
                    free.append(INFINITY)
                if not free:
                    ok = False
                    break
                pt = rng.choice(free)
                used[vert].add(pt)
                branch[(e, side)] = pt
            if not ok:
                break
        if ok:
            return GraphCurve(graph, prime, branch)


def square_degrees(rng: random.Random, graph: DualGraph):
    """Random degrees with ``sum(max(d + 1, 0)) == number of edges``, so the
    gluing system is square: the edges are split among the vertices, and a
    vertex given none gets degree -1 or -2."""
    cuts = sorted(rng.randrange(graph.num_edges + 1) for _ in range(graph.num_vertices - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [graph.num_edges])]
    return tuple(k - 1 if k else -1 - rng.randrange(2) for k in parts)


def _random_bundle(rng: random.Random, curve) -> gc.GluedLineBundle:
    degrees = tuple(rng.randrange(-1, 3) for _ in range(curve.graph.num_vertices))
    gluing = tuple(rng.randrange(1, curve.prime) for _ in range(curve.graph.num_edges))
    return gc.GluedLineBundle(degrees, gluing)


def _decorated(max_v, max_e):
    for g in connected_multigraphs(max_v, max_e):
        yield from genus_decorations(g, 1)


# -- dual graphs --------------------------------------------------------

def _check_genus_identities(fast):
    checked = 0
    for g in _decorated(3 if fast else 4, 4 if fast else 5):
        genus, pieces = g.arithmetic_genus(), brute_component_count(g)
        if g.arithmetic_genus(range(g.num_vertices)) != genus:
            return False, f"full-subcurve genus mismatch on {g}"
        for k in range(g.num_edges + 1):
            for subset in itertools.combinations(range(g.num_edges), k):
                split = g.delete_edges(subset)
                if split.arithmetic_genus() != genus - k:
                    return False, f"genus drop failed on {g} at {subset}"
                if len(split.connected_components()) != brute_component_count(split):
                    return False, f"component count vs path search on {g} at {subset}"
                blown, exceptional = g.blow_up(subset)
                if blown.arithmetic_genus() != genus or len(exceptional) != k:
                    return False, f"blow-up changed the genus on {g} at {subset}"
                if brute_component_count(blown) != pieces:
                    return False, f"blow-up changed the component count on {g} at {subset}"
                checked += 1
    return True, f"{checked} decorated graphs and edge subsets"


def _interleaved_union(a: DualGraph, b: DualGraph) -> DualGraph:
    """Disjoint union whose vertices alternate between the two graphs
    (``a`` at even labels, ``b`` at odd ones, while both last)."""
    slots = sorted([(v, 0) for v in range(a.num_vertices)]
                   + [(v, 1) for v in range(b.num_vertices)])
    label = {slot: i for i, slot in enumerate(slots)}
    genera = tuple((a, b)[side].genera[v] for v, side in slots)
    edges = tuple((label[u, side], label[v, side])
                  for side, g in enumerate((a, b)) for u, v in g.edges)
    return DualGraph(genera, edges)


def _check_bridges(fast):
    # connected graphs, and disjoint unions with interleaved labels, so the
    # depth-first search restarts in the middle of the vertex order
    family = list(connected_multigraphs(3 if fast else 4, 4 if fast else 6))
    small = list(connected_multigraphs(2 if fast else 3, 3 if fast else 4))
    family += [_interleaved_union(a, b) for a, b in itertools.product(small, repeat=2)]
    for g in family:
        if g.bridges() != brute_bridges(g):
            return False, f"bridge mismatch on {g.edges}"
    return True, f"{len(family)} graphs vs removal oracle, {len(small) ** 2} disconnected"


def _check_spanning_forest(fast):
    checked = 0
    for g in connected_multigraphs(3 if fast else 4, 4 if fast else 5):
        forest = g.spanning_forest()
        sub = DualGraph(g.genera, tuple(g.edges[e] for e in forest))
        # a maximal acyclic set on k vertices and c components has k - c edges
        if len(forest) != g.num_vertices - brute_component_count(sub):
            return False, f"forest has a cycle on {g.edges}"
        if brute_component_count(sub) != brute_component_count(g):
            return False, f"forest does not span {g.edges}"
        if any(u == v for u, v in sub.edges):
            return False, f"forest contains a loop on {g.edges}"
        checked += 1
    return True, f"{checked} graphs"


# -- multidegrees -------------------------------------------------------

def _definition_equivalence_family(fast):
    max_v, max_e, max_genus = (3, 5, 1) if fast else (4, 6, 2)
    for g in connected_multigraphs(max_v, max_e):
        all_d, stable_d = orientation_multidegree_sets(g)
        for dec in genus_decorations(g, max_genus):
            yield dec, all_d, stable_d


def _check_definition_equivalence(fast):
    checked = 0
    for dec, all_d, stable_d in _definition_equivalence_family(fast):
        genera = dec.genera
        if sorted(translate(d, genera) for d in all_d) != md.enumerate_semistable(dec):
            return False, f"semistable sets differ on {dec}"
        if sorted(translate(d, genera) for d in stable_d) != md.enumerate_stable(dec):
            return False, f"stable sets differ on {dec}"
        checked += 1
    return True, f"{checked} decorated graphs"


def _check_single_predicates(fast):
    # the scalar predicates against the enumerations on every decorated
    # graph of the small family, plus a 5% sample of the larger one in full
    # mode, over the degree box widened by one on each side
    rng = random.Random(20260810)
    family = _definition_equivalence_family(True)
    if not fast:
        sample = (x for x in _definition_equivalence_family(False) if rng.random() < 0.05)
        family = itertools.chain(family, sample)
    checked = 0
    for dec, all_d, stable_d in family:
        genera = dec.genera
        ss = {translate(d, genera) for d in all_d}
        stable = {translate(d, genera) for d in stable_d}
        box = md.degree_box(dec)
        g1 = dec.arithmetic_genus() - 1
        for d in itertools.product(*(range(lo - 1, hi + 2) for lo, hi in box)):
            if sum(d) != g1:
                continue
            if md.is_semistable(dec, d) != (d in ss):
                return False, f"is_semistable disagrees at {d} on {dec}"
            if md.is_stable(dec, d) != (d in stable):
                return False, f"is_stable disagrees at {d} on {dec}"
            checked += 1
    return True, f"{checked} widened-box points"


def _check_bridge_dichotomy(fast):
    checked = 0
    for dec in _decorated(3 if fast else 4, 5 if fast else 6):
        empty = not md.enumerate_stable(dec)
        if empty != bool(dec.bridges()):
            return False, f"stable classes vs bridges on {dec}"
        checked += 1
    return True, f"{checked} decorated graphs"


def _check_stable_nonnegative(fast):
    # the one exception is the trivial curve: a single genus-0 vertex has
    # the lone stable class (-1,), so the claim needs arithmetic genus >= 1
    checked = 0
    for dec in _decorated(3 if fast else 4, 5 if fast else 6):
        if dec.arithmetic_genus() < 1:
            continue
        for d in md.enumerate_stable(dec):
            if any(x < 0 for x in d):
                return False, f"negative stable degree {d} on {dec}"
            checked += 1
    return True, f"{checked} stable classes"


def _check_orientation_totals(fast):
    checked = 0
    for dec in _decorated(3 if fast else 4, 4 if fast else 5):
        for orientation in itertools.product((0, 1), repeat=dec.num_edges):
            d = md.multidegree_of_orientation(dec, orientation)
            if sum(d) != dec.arithmetic_genus() - 1:
                return False, f"orientation total off on {dec}"
            checked += 1
    return True, f"{checked} orientations"


def _check_stabilize(fast):
    # stabilize and the predicates share the orientation core, so the
    # oracle is the subcurve-bound enumeration
    checked = 0
    for dec in _decorated(3, 4 if fast else 5):
        stable = set(md.enumerate_stable(dec))
        for d in md.enumerate_semistable(dec):
            result = md.stabilize(dec, d)
            normalized = dec.delete_edges(result.destabilizing_set)
            if result.stable_degree not in md.enumerate_stable(normalized):
                return False, f"stabilize output not stable on {dec}, {d}"
            if sum(result.stable_degree) != sum(d) - len(result.destabilizing_set):
                return False, f"stabilize total off on {dec}, {d}"
            if bool(result.destabilizing_set) == (d in stable):
                return False, f"destabilizing set vs stability on {dec}, {d}"
            if (md.destabilizing_nodes(dec, d) == ()) != (d in stable):
                return False, f"destabilizing_nodes vs stability on {dec}, {d}"
            if md.multidegree_of_orientation(dec, result.witness_orientation) != d:
                return False, f"witness orientation does not realize {d} on {dec}"
            checked += 1
    return True, f"{checked} semistable classes"


# -- strata -------------------------------------------------------------

def _check_irreducibility_predicates(fast):
    checked = 0
    for dec in _decorated(3 if fast else 4, 5 if fast else 6):
        tilde = dec.delete_edges(dec.bridges())
        b = len(md.enumerate_stable(tilde))
        c = len(tilde.connected_components())
        if st.is_picard_irreducible(dec) != (b == 1):
            return False, f"picard predicate vs class count on {dec}"
        if st.is_theta_irreducible(dec) != (c == 1 and b == 1):
            return False, f"theta predicate vs counting on {dec}"
        # the valency shortcuts are sufficient conditions
        if st.picard_valency_criterion(dec) and b != 1:
            return False, f"valency shortcut overclaims on {dec}"
        if st.theta_valency_criterion(dec) and not (c == 1 and b == 1):
            return False, f"theta valency shortcut overclaims on {dec}"
        checked += 1
    return True, f"{checked} decorated graphs, both predicates"


def _check_theta_bookkeeping(fast):
    checked = 0
    for dec in _decorated(3, 4 if fast else 5):
        strata, summary = st.theta_strata(dec)
        bridges = dec.delete_edges(dec.bridges())
        b = len(md.enumerate_stable(bridges))
        c = len(bridges.connected_components())
        if summary.component_count != c * b:
            return False, f"component count off on {dec}"
        if st.is_theta_irreducible(dec) != (summary.pieces == summary.stable_classes == 1):
            return False, f"theta predicate vs strata summary on {dec}"
        # the summary skips the strata; the ones at the bridges must match it
        separating = dec.bridges()
        top = [s for s in strata if s.nodes == separating]
        if len(top) != summary.stable_classes:
            return False, f"theta strata at the bridges vs summary on {dec}"
        if top != [st.Stratum(s.nodes, s.degree, s.dim - 1, "theta")
                   for s in st.smooth_locus_strata(dec)]:
            return False, f"theta strata at the bridges vs smooth locus on {dec}"
        # each node subset's strata are its normalization's stable classes
        g_total, expected = dec.arithmetic_genus(), []
        for k in range(dec.num_edges + 1):
            for nodes in itertools.combinations(range(dec.num_edges), k):
                normalized = dec.delete_edges(nodes)
                dim = g_total - k + brute_component_count(normalized) - 1
                expected += [(nodes, d, dim) for d in md.enumerate_stable(normalized)]
        picard = st.enumerate_picard_strata(dec)
        if [(s.nodes, s.degree, s.dim) for s in picard] != expected:
            return False, f"picard strata vs each normalization's stable classes on {dec}"
        if strata != [st.Stratum(s.nodes, s.degree, s.dim - 1, "theta") for s in picard]:
            return False, f"theta strata vs picard strata one dimension down on {dec}"
        checked += 1
    return True, f"{checked} decorated graphs"


# -- cohomology of glued line bundles -----------------------------------

def _check_cycle_uniqueness(fast):
    checked = 0
    for p in (5, 7) if fast else (5, 7, 11, 13):
        for length in range(2, 6):
            curve = cycle_curve(length, p)
            result = gc.w_count(curve, (0,) * length)
            if (result.count, result.total) != (1, p - 1):
                return False, (f"cycle length {length}, p={p}: count {result.count} "
                               f"of {result.total}")
            if gc.h0(curve, gc.trivial_bundle(curve)) != 1:
                return False, f"cycle length {length}, p={p}: trivial bundle h0 != 1"
            checked += 1
    return True, f"{checked} cycle curves, trivial bundle unique"


def _check_h0_bounds_and_blowup(fast):
    rng = random.Random(20260811)
    n_instances, blown_up = (100 if fast else 400), 0
    for _ in range(n_instances):
        curve = random_rational_curve(rng)
        E = curve.graph.num_edges
        bundle = _random_bundle(rng, curve)
        value = gc.h0(curve, bundle)
        upper = gc.normalization_h0(bundle.degrees)
        if not (upper - E <= value <= upper):
            return False, f"h0 bounds violated: {value} vs {upper}, {E}"
        subset = tuple(e for e in range(E) if rng.random() < 0.5)
        exc = {e: (rng.randrange(1, curve.prime), rng.randrange(1, curve.prime))
               for e in subset}
        blown = gc.h0_blowup(curve, subset, bundle, exc)
        direct = gc.h0(gc.delete_edges(curve, subset),
                       gc.restrict_bundle(curve, bundle, subset))
        if blown != direct:
            return False, f"blow-up h0 {blown} != normalization h0 {direct}"
        blown_up += len(subset)
    return True, f"{n_instances} random curve/bundle pairs, {blown_up} nodes blown up"


def _check_torus_invariance(fast):
    rng = random.Random(20260812)
    n_instances, sections = (100 if fast else 400), 0
    for _ in range(n_instances):
        curve = random_rational_curve(rng)
        bundle = _random_bundle(rng, curve)
        scalars = tuple(rng.randrange(1, curve.prime) for _ in range(curve.graph.num_vertices))
        value = gc.h0(curve, bundle)
        if value != gc.h0(curve, gc.torus_rescale(curve, bundle, scalars)):
            return False, "h0 changed under a torus rescale"
        sections += value
    return True, f"{n_instances} random rescalings, total h0 {sections}"


def _check_semistable_h0_identity(fast):
    # on all-rational curves, a semistable multidegree of total g-1 has
    # normalization h0 equal to the number of nodes
    checked = 0
    for g in connected_multigraphs(3, 5):
        for d in md.enumerate_semistable(g):
            if gc.normalization_h0(d) != g.num_edges:
                return False, f"sum(d+1) != nodes for {d} on {g.edges}"
            checked += 1
    return True, f"{checked} semistable classes"


def _check_theta_zero_count(fast):
    # the determinant's zeros on the torus, and the gluings with h0 >= 2
    # that w_count ranks among the g = h = 0 points, against one h0 per
    # torus point; an identically zero determinant (every gluing has a
    # section) is all g = h = 0 in zero_count's split f = x*g + h
    rng = random.Random(20260815)
    n_instances, zeros, w1_points, vanishing = (60 if fast else 200), 0, 0, 0
    for i in range(n_instances):
        curve = random_rational_curve(rng, prime=(2, 3, 5, 7, 11)[i % 5])
        degrees = square_degrees(rng, curve.graph)
        values = brute_torus_h0(curve, degrees)
        expected = sum(value >= 1 for value in values)
        expected_w1 = sum(value >= 2 for value in values)
        poly = gc.symbolic_theta_polynomial(curve, degrees)
        counts = (poly.zero_count(), gc.w_count(curve, degrees).count,
                  gc.w_count(curve, degrees, r=1).count)
        if counts != (expected, expected, expected_w1):
            return False, (f"zero_count, w_count and w_count r=1 gave {counts}, one h0 per "
                           f"point {expected} and {expected_w1}, for {degrees} on "
                           f"{curve.graph.edges} at p={curve.prime}")
        zeros += expected
        w1_points += expected_w1
        vanishing += bool(poly.variables) and poly.is_identically_zero
    return True, (f"{n_instances} square systems, {zeros} zeros, {w1_points} with h0 >= 2, "
                  f"{vanishing} identically zero")


def _check_one_node_cases(fast):
    rng = random.Random(20260813)
    attempts = 250
    seen: dict[str, int] = {}
    for _ in range(attempts):
        curve = random_rational_curve(rng, 13)
        edge = rng.randrange(curve.graph.num_edges)
        bundle = _random_bundle(rng, curve)
        report = gc.classify_one_node(curve, edge, bundle, r=0)
        scanned = brute_node_scan(curve, edge, bundle)
        if (report.scan_histogram, report.special_gluing) != scanned:
            return False, (f"{report.case}: predicted {report.scan_histogram} with "
                           f"gluing {report.special_gluing}, scanned {scanned}")
        seen[report.case] = seen.get(report.case, 0) + 1
    if len(seen) < 3:
        return False, f"random search hit too few cases: {sorted(seen)}"
    return True, f"{attempts} instances, by case {dict(sorted(seen.items()))}"


def _check_abel_images(fast):
    rng = random.Random(20260814)
    n_instances, checked = (60 if fast else 200), 0
    for _ in range(n_instances):
        curve = random_rational_curve(rng)
        stable = md.enumerate_stable(curve.graph)
        if not stable:
            continue
        d = rng.choice(stable)
        if any(x < 0 for x in d):
            continue
        points = []
        for v, dv in enumerate(d):
            avail = curve.smooth_points_of(v)
            if len(avail) < dv:
                break
            points.extend((v, pt) for pt in rng.sample(avail, dv))
        else:
            bundle = gc.abel_image(curve, points)
            if gc.h0(curve, bundle) < 1:
                return False, "Abel image without sections"
            forced = gc.forced_vanishing_nodes(curve, bundle,
                                               range(curve.graph.num_edges))
            if forced.nodes:
                return False, f"stable Abel image with forced vanishing {forced.nodes}"
            checked += 1
    return True, f"{checked} Abel images from {n_instances} sampled curves"


INVARIANTS = {
    "genus-identities": _check_genus_identities,
    "bridges-vs-removal-oracle": _check_bridges,
    "spanning-forest": _check_spanning_forest,
    "definition-equivalence": _check_definition_equivalence,
    "scalar-predicates": _check_single_predicates,
    "stable-empty-iff-bridge": _check_bridge_dichotomy,
    "stable-nonnegative": _check_stable_nonnegative,
    "orientation-totals": _check_orientation_totals,
    "stabilization": _check_stabilize,
    "irreducibility-predicates": _check_irreducibility_predicates,
    "theta-bookkeeping": _check_theta_bookkeeping,
    "cycle-trivial-bundle-unique": _check_cycle_uniqueness,
    "h0-bounds-and-blowup": _check_h0_bounds_and_blowup,
    "torus-invariance": _check_torus_invariance,
    "semistable-h0-identity": _check_semistable_h0_identity,
    "theta-zero-count": _check_theta_zero_count,
    "one-node-case-oracle": _check_one_node_cases,
    "abel-images": _check_abel_images,
}


def run_selfcheck(fast: bool = False):
    """Run every invariant; returns (name, ok, detail, seconds) tuples."""
    results = []
    for name, check in INVARIANTS.items():
        start = time.perf_counter()
        try:
            ok, detail = check(fast)
        except Exception as exc:  # a raised invariant is a failure, not a crash
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail, time.perf_counter() - start))
    return results
