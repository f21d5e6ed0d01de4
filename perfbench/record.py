#!/usr/bin/env python3
"""Record the reference output of every op the benchmark can run.

    python3 perfbench/record.py [--workload NAME ...]

Runs every op of every pool once on the current code and writes
``perfbench/reference/<workload>.json.gz``.  Before writing, each
reference is cross-checked once against an independent oracle where one
exists; any disagreement aborts without writing:

* multidegree sets: exhaustive orientations (``orientation_multidegree_sets``);
* exhaustive ``w_count`` scans: the frozen criterion-12 counts;
* the square banana curve: zeros of the symbolic determinant equal the
  ``w_count`` count;
* CLI goldens: the expected exit codes of the refusals.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

import probe
import run
import tracing
import workloads as W

# criterion 12, genus 4: p -> count of gluings with h0 >= r + 1
FROZEN_COUNTS = {
    "hyperelliptic-r1": {11: 4, 13: 6, 17: 10},
    "generic-r0": {11: 920, 13: 1636, 17: 3946},
}


def check_stability(refs, api):
    from nodaltheta.families import orientation_multidegree_sets, translate

    base, family = W.decorated_family(api)
    index = {W.graph_key(g): i for i, g in enumerate(family)}
    pool = {(len(e["genera"]), tuple(e["genera"]), tuple(map(tuple, e["edges"]))): e
            for e in refs["pool"]}
    checked = 0
    for g in base:
        all_deg, stable_deg = orientation_multidegree_sets(g)
        for genera in itertools.product(range(W.SWEEP_MAX_GENUS + 1), repeat=g.num_vertices):
            key = (g.num_vertices, genera, g.edges)
            ss = sorted(translate(d, genera) for d in all_deg)
            st = sorted(translate(d, genera) for d in stable_deg)
            if W.digest(W.canon_sweep((ss, st))) != W.nth(refs["sweep"], index[key]):
                raise SystemExit(f"sweep reference disagrees with orientations on {key}")
            if key in pool and ([list(d) for d in ss], [list(d) for d in st]) != (
                    pool[key]["semistable"], pool[key]["stable"]):
                raise SystemExit(f"pool reference disagrees with orientations on {key}")
            checked += 1
    all_deg, stable_deg = orientation_multidegree_sets(W.doubled_cycle(8))
    if ([list(d) for d in sorted(all_deg)], [list(d) for d in sorted(stable_deg)]) != (
            refs["c8"]["semistable"], refs["c8"]["stable"]):
        raise SystemExit("doubled 8-cycle reference disagrees with orientations")
    return (f"{checked} decorated graphs and the doubled 8-cycle "
            f"({len(all_deg)} semistable) match orientation enumeration")


def check_torus(refs, api):
    for name, counts in FROZEN_COUNTS.items():
        r = name.rsplit("-r", 1)[1]
        for p, count in counts.items():
            want = W.digest((p, int(r), count, (p - 1) ** 4, "exhaustive", None))
            if refs["digests"][f"{name}-p{p}"] != want:
                raise SystemExit(f"{name} at p={p}: reference is not the frozen count {count}")
    banana = W.banana4_curve()
    count = api.w_count(banana, (1, 1), r=0).count
    zeros = api.zero_count(api.symbolic_theta_polynomial(banana, (1, 1)))
    if count != zeros:
        raise SystemExit(f"banana: w_count {count} != determinant zeros {zeros}")
    return f"frozen criterion-12 counts match; banana w_count {count} = determinant zeros"


def check_cli(refs, _api):
    goldens = refs["goldens"]
    expected = {"refuse-budget": (1, "budget refusal"), "refuse-schema": (2, "edges[1]")}
    for name, golden in goldens.items():
        code, needle = expected.get(name, (0, ""))
        if golden["exit"] != code or needle not in golden["stderr"]:
            raise SystemExit(f"cli golden {name}: exit {golden['exit']}, stderr {golden['stderr']!r}")
    return f"{len(goldens)} goldens, refusals exit 1 and 2 with their messages"


RECORDERS = {
    "stability-sweep": (W.record_stability, check_stability),
    "strata-lattice": (W.record_strata, None),
    "torus-scan": (W.record_torus, check_torus),
    "cli-session": (W.record_cli, check_cli),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(RECORDERS))
    args = parser.parse_args(argv)
    if not run.prepare():
        return 2
    api = tracing.public_api()
    api.cli = run.subprocess_cli(run.child_env(), probe.Sampler(active=False))
    for name in args.workload or RECORDERS:
        record, check = RECORDERS[name]
        t0 = time.perf_counter()
        refs = record(api)
        verdict = check(refs, api) if check else "no independent oracle"
        W.save_refs(run.HERE / "reference", name, refs)
        print(f"{name}: recorded in {time.perf_counter() - t0:.1f} s; {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
