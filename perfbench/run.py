#!/usr/bin/env python3
"""Benchmark of the nodaltheta package and its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file).  The package is imported from ``src/``; nothing is installed.

One run is one process on one workload.  It sets up several times (a cold
import in a fresh interpreter plus the seeded input generation, timed in
this process) and reports the median as ``setup_s``.  It then runs the
workload's fixed work list ("a pass"), closed loop and single-threaded,
with the ``connected_subsets`` cache cleared before each pass, up to the
workload's pass count and only while the median pass still fits in
``--seconds`` of corrected time.  Every timing is corrected for slowdowns of the shared
host by a probe timed next to it, on the one CPU the run is pinned to
(``probe.py``).  ``wall_s`` is the median pass, the sum of its ops'
latencies; ``op_p50_ms`` and ``op_tail_ms`` are taken over the ops of
the work list, each at its lower median over the passes.  Every op's
output is checked against the recorded reference; the check time is left
out of ``wall_s``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs,
without the probe, an untraced pass, a traced pass and another untraced
pass, and reports the
per-layer metrics of the traced pass, with the tracing overhead as its
``wall_s`` over that of the untraced pass after it.  The last stdout
line is the JSON result; a full record (environment, tail percentile, op
counts, failures) and, when traced, the spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import probe
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

class Workload(NamedTuple):
    build: Callable
    import_target: str   # module imported cold in a fresh interpreter at set-up
    setup_repeats: int
    passes: int          # fixed, so every run mixes first and later passes alike
    cold_ops: bool       # clear the cache before every op, not just every pass


WORKLOADS = {
    "stability-sweep": Workload(W.build_stability, "nodaltheta", 3, 1, False),
    # each stratification reuses the cache heavily within itself; starting
    # every op cold keeps its cost independent of the seeded op order
    "strata-lattice": Workload(W.build_strata, "nodaltheta", 5, 3, True),
    "torus-scan": Workload(W.build_torus, "nodaltheta", 5, 2, False),
    # every invocation is a fresh process (and a cold in-process run when traced)
    "cli-session": Workload(W.build_cli, "nodaltheta.cli", 5, 1, True),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

_TIMED_CALLS = [
    "dual_graph.connected_subsets", "dual_graph.bridges",
    "multidegree.enumerate_semistable", "multidegree.enumerate_stable",
    "multidegree.is_semistable", "multidegree.is_stable", "multidegree.stabilize",
    "multidegree.find_stable_orientation",
    "strata.enumerate_picard_strata", "strata.theta_strata", "strata.is_picard_irreducible",
    "strata.is_theta_irreducible", "strata.strata_poset_dot",
    "modp.rank",
    "graph_curve.w_count", "graph_curve.h0", "graph_curve.classify_one_node",
    "graph_curve.symbolic_theta_polynomial", "graph_curve.zero_count",
]

PER_LAYER = {
    **{f"{n}.{k}": u for n in _TIMED_CALLS for k, u in (("calls", "count"), ("self_s", "s"))},
    "dual_graph.connected_subsets.misses": "count",
    "dual_graph.connected_subsets.hit_ratio": "ratio",
    "multidegree.box_points": "count",
    "multidegree.yield_ratio": "ratio",
    "strata.edge_subsets": "count",
    "strata.stratum_yield": "ratio",
    "modp.rank.mean_us": "us",
    "modp.rank.cells": "count",
    "graph_curve.torus_points": "count",
    "graph_curve.torus_points_per_s": "1/s",
    "families.connected_multigraphs.self_s": "s",
    "families.graphs": "count",
    "cli.import_s": "s",
    "cli.run.self_s": "s",
    "cli.output_bytes": "bytes",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


class CacheStats:
    """Hits and misses of the ``connected_subsets`` LRU cache, read from
    ``cache_info()`` and accumulated across clears."""

    def __init__(self):
        self.hits = self.misses = 0

    def take(self):
        """Add the cache's counters to the totals and clear it cold."""
        mod = sys.modules.get("nodaltheta.dual_graph")
        if mod is None:
            return
        info = mod.connected_subsets.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        mod.connected_subsets.cache_clear()


class Pass(NamedTuple):
    wall: float        # corrected by the probe when the pass was probed, else raw
    latencies: list
    failures: list
    raw_wall: float
    raw_latencies: list


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest latency, as ``(value, percentile)``."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_pass(ops, api, sampler, tracer=None, before_op=None):
    """Run every op once.  Latencies leave out the probes ``sampler`` ran
    inside them (``probe.py``) and are returned raw and corrected; the
    pass's wall time is the sum of its latencies, so it leaves out the
    benchmark's own work between ops: the reference checks and
    ``before_op``."""
    clock = time.perf_counter
    latencies, intervals, failures = [], [], []
    for i, (kind, run, check) in enumerate(ops):
        if before_op is not None:
            before_op()
        t0 = clock()
        s0 = sampler.spent
        if tracer is not None:
            tracer.begin("bench.op", i)
        try:
            out, err = run(api), None
        except Exception as exc:  # an op that raises is a failed op, never a crash
            out, err = None, exc
        if tracer is not None:
            tracer.end()
        s1 = sampler.spent
        t1 = clock()
        latencies.append(t1 - t0 - (s1 - s0))
        intervals.append((t0, t1))
        if err is None:
            try:
                ok = bool(check(out))
            except Exception as exc:
                ok, err = False, exc
        else:
            ok = False
        if not ok:
            failures.append((i, kind, repr(err) if err else "output differs from the reference"))
    corrected = [lat * sampler.factor(t0, t1) for lat, (t0, t1) in zip(latencies, intervals)]
    return Pass(sum(corrected), corrected, failures, sum(latencies), latencies)


def prepare():
    """Run from the repository root against ``src/``, with the package at
    its defaults (no ``THETA_STRATA_BUDGET``) and single-threaded numeric
    libraries.  False when there is no package source to run."""
    if not (SRC / "nodaltheta" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return False
    os.chdir(ROOT)
    os.environ.pop("THETA_STRATA_BUDGET", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_import_s(module, env):
    """Import time of ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True,
                          preexec_fn=probe.yield_to_probe)
    return float(proc.stdout)


def subprocess_cli(env, sampler):
    def cli(argv):
        proc = subprocess.run([sys.executable, "-m", "nodaltheta", *argv], cwd=ROOT,
                              env=env, capture_output=True, timeout=120,
                              preexec_fn=probe.yield_to_probe)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    return cli


def inprocess_cli(run, output_bytes):
    """``nodaltheta.cli.run`` in this process with captured output."""

    def cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        out, err = out.getvalue(), err.getvalue()
        output_bytes.append(len(out.encode()) + len(err.encode()))
        return code, out, err

    return cli


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from the files
    (no git process, which could walk out of the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, traced, nproc):
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": nproc,
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "second_seed": W.SECOND_SEED,
        "traced": traced,
    }


def op_latencies(passes):
    """Each op's lower median latency over the passes, so the latency
    percentiles do not depend on how many passes a run made, and a one-time
    cost of the first pass (such as the package's lazy import of sympy)
    does not count with two passes."""
    return [statistics.median_low(lats) for lats in zip(*(p.latencies for p in passes))]


def end_to_end_metrics(setups, passes, peak_rss_mb, failed):
    per_op = op_latencies(passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail(per_op)[0] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - failed / (len(per_op) * len(passes)),
    }


def layer_metrics(tracer, traced, untraced, lookups, extra):
    from nodaltheta.multidegree import degree_box

    agg = tracer.aggregate()
    m = {}
    for name in _TIMED_CALLS:
        calls, self_ns, _ = agg.get(name, (0, 0, 0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_ns / 1e9
    hits, misses = lookups
    m["dual_graph.connected_subsets.misses"] = misses
    m["dual_graph.connected_subsets.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    enumerated = tracer.notes["enumerated"] + tracer.notes["strata_enumerated"]
    box = sum(math.prod(hi - lo + 1 for lo, hi in degree_box(g)) for g, _ in enumerated)
    m["multidegree.box_points"] = box
    m["multidegree.yield_ratio"] = sum(k for _, k in enumerated) / box if box else 0.0
    m["strata.edge_subsets"] = sum(tracer.notes["edge_subsets"])
    scanned = tracer.notes["strata_enumerated"]
    m["strata.stratum_yield"] = (sum(1 for _, k in scanned if k) / len(scanned)) if scanned else 0.0
    rank_calls = m["modp.rank.calls"]
    m["modp.rank.mean_us"] = m["modp.rank.self_s"] / rank_calls * 1e6 if rank_calls else 0.0
    m["modp.rank.cells"] = sum(tracer.notes["rank_cells"])
    torus = sum(tracer.notes["torus_points"])
    scan_ns = sum(agg.get(n, (0, 0, 0))[2] for n in ("graph_curve.w_count", "graph_curve.zero_count"))
    m["graph_curve.torus_points"] = torus
    m["graph_curve.torus_points_per_s"] = torus / (scan_ns / 1e9) if scan_ns else 0.0
    m["families.connected_multigraphs.self_s"] = agg.get(
        "families.connected_multigraphs", (0, 0, 0))[1] / 1e9
    m["families.graphs"] = sum(tracer.notes["families_graphs"])
    m["cli.import_s"] = extra.get("cli.import_s", 0.0)
    m["cli.run.self_s"] = agg.get("cli.run", (0, 0, 0))[1] / 1e9
    m["cli.output_bytes"] = sum(extra.get("cli.output_bytes", ()))
    m["bench.self_s"] = agg.get("bench.op", (0, 0, 0))[1] / 1e9
    m["trace.wall_s"] = traced.wall
    m["trace.overhead_ratio"] = traced.wall / untraced.wall
    # every span of the pass nests in an op span, so the ops' durations are
    # the sum of all self times
    m["trace.coverage"] = agg.get("bench.op", (0, 0, 0))[2] / 1e9 / traced.wall
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops of each kind, one set-up (for the benchmark's own tests)")
    parser.add_argument("--refs", type=Path, default=HERE / "reference",
                        help="directory of recorded references")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not prepare():
        return 2
    nproc = len(os.sched_getaffinity(0))
    cpu = probe.pin_one_cpu()
    env = child_env()
    workload = WORKLOADS[args.workload]
    refs = W.load_refs(args.refs, args.workload)
    traced = bool(args.trace)
    library = args.workload != "cli-session"
    tracer = tracing.Tracer() if traced else None
    cache = CacheStats()
    extra = {}

    if library:
        import nodaltheta

        if not Path(nodaltheta.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"perfbench: nodaltheta imported from {nodaltheta.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
    build_api = tracing.public_api(tracer) if library else None
    with probe.Sampler(active=not traced) as sampler:
        setups, raw_setups = [], []
        for _ in range(1 if args.smoke or traced else workload.setup_repeats):
            start = time.perf_counter()
            import_s = cold_import_s(workload.import_target, env)
            t0, s0 = time.perf_counter(), sampler.spent
            ops = workload.build(args.seed, args.smoke, refs, build_api)
            t1, s1 = time.perf_counter(), sampler.spent
            raw_setups.append(import_s + t1 - t0 - (s1 - s0))
            setups.append(raw_setups[-1] * sampler.factor(start, t1))

        # the inputs, references and ops live for the whole run; keep them out of
        # the collector's scans so they add nothing to the package's GC pauses
        gc.collect()
        gc.freeze()
        if library:
            api = tracing.public_api()
        else:
            api = SimpleNamespace(cli=subprocess_cli(env, sampler))
        before_op = cache.take if workload.cold_ops else None
        passes = []
        if not traced:
            # the budget is counted in corrected seconds, so that how many
            # passes a run makes does not depend on how busy the host is
            while True:
                cache.take()
                passes.append(run_pass(ops, api, sampler, before_op=before_op))
                walls = [p.wall for p in passes]
                if (len(passes) == workload.passes
                        or sum(walls) + statistics.median(walls) > args.seconds):
                    break
        else:
            # a first untraced pass pays the one-time costs (lazy imports such as
            # sympy's), so the traced pass and the untraced pass after it compare
            # like with like
            cache.take()
            passes.append(run_pass(ops, api, sampler, before_op=before_op))
            if library:
                traced_api = tracing.public_api(tracer)
            else:
                t0 = time.perf_counter()
                import nodaltheta.cli

                extra["cli.import_s"] = time.perf_counter() - t0
                extra["cli.output_bytes"] = []
                traced_api = SimpleNamespace(cli=inprocess_cli(
                    tracer.wrap("cli.run", nodaltheta.cli.run), extra["cli.output_bytes"]))
            restore = tracing.install_child_wraps(tracer)
            cache.take()
            cache.hits = cache.misses = 0
            try:
                traced_pass = run_pass(ops, traced_api, sampler, tracer, before_op)
            finally:
                restore()
            cache.take()
            traced_lookups = (cache.hits, cache.misses)
            untraced = run_pass(ops, api, sampler, before_op=before_op)
            passes += [traced_pass, untraced]

    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p.failures]
    who = resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if traced:
        metrics = layer_metrics(tracer, traced_pass, untraced, traced_lookups, extra)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setups, passes, peak_rss_mb, len(failures))
        units = END_TO_END
        # the same metrics from the uncorrected timings, for the record
        raw_passes = [p._replace(wall=p.raw_wall, latencies=p.raw_latencies) for p in passes]
        raw_metrics = end_to_end_metrics(raw_setups, raw_passes, peak_rss_mb, len(failures))

    tail_pct = tail(op_latencies(passes))[1]
    record = {
        "workload": args.workload,
        "environment": environment(args.seed, traced, nproc),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_tail_percentile": tail_pct,
        "cpu": cpu,
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "pass_wall_s": [p.wall for p in passes],
        "raw_pass_wall_s": [p.raw_wall for p in passes],
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": [{"op": i, "kind": k, "reason": r} for i, k, r in failures[:50]],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    if not traced:
        record["raw_metrics"] = raw_metrics
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if traced:
        tracer.dump(OUT / f"{stem}-spans.json")

    print(f"workload {args.workload}  seed {args.seed}  traced {int(traced)}  "
          f"passes {len(passes)}  ops/pass {len(ops)}")
    for name, value in metrics.items():
        raw = f"  (uncorrected {raw_metrics[name]:.6g})" if not traced else ""
        print(f"  {name:<44} {value:>14.6g} {units[name]}{raw}")
    print(f"  op_tail is p{tail_pct:.3f} of {len(ops)} op medians over {len(passes)} passes; "
          f"failed {len(failures)}/{attempted} (failed_ratio {record['failed_ratio']:.6g})")
    for i, kind, reason in failures[:10]:
        print(f"  FAILED op {i} ({kind}): {reason}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
