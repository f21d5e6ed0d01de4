import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from nodaltheta import multidegree
from nodaltheta.cli import run


THETA_SPEC = {
    "vertices": [{"genus": 0}, {"genus": 0}],
    "edges": [[0, 1], [0, 1], [0, 1]],
    "branch_points": {
        "0": [[0, 1], [0, 1]],
        "1": [[1, 1], [1, 1]],
        "2": [[2, 1], [2, 1]],
    },
    "field_prime": 11,
}

BRIDGE_SPEC = {"vertices": [{"genus": 1}, {"genus": 2}], "edges": [[0, 1]]}

LOOPS_SPEC = {
    "vertices": [{"genus": 0}],
    "edges": [[0, 0], [0, 0], [0, 0]],
    "branch_points": {
        "0": [[1, 1], [10, 1]],
        "1": [[2, 1], [9, 1]],
        "2": [[3, 1], [8, 1]],
    },
    "field_prime": 11,
}


@pytest.fixture
def theta_spec(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(THETA_SPEC))
    return str(path)


@pytest.fixture
def bridge_spec(tmp_path):
    path = tmp_path / "bridge.json"
    path.write_text(json.dumps(BRIDGE_SPEC))
    return str(path)


@pytest.fixture
def loops_spec(tmp_path):
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(LOOPS_SPEC))
    return str(path)


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCommands:
    def test_genus(self, capsys, theta_spec):
        code, report = run_json(capsys, ["genus", theta_spec])
        assert code == 0
        assert report["results"]["arithmetic_genus"] == 2
        assert report["results"]["bridges"] == []
        assert report["version"]

    def test_multidegrees_stable(self, capsys, theta_spec):
        code, report = run_json(capsys, ["multidegrees", theta_spec, "--stable"])
        assert code == 0
        assert report["results"]["multidegrees"] == [[0, 1], [1, 0]]

    def test_multidegrees_semistable(self, capsys, theta_spec):
        code, report = run_json(capsys,
                                ["multidegrees", theta_spec, "--semistable"])
        assert report["results"]["count"] == 4

    def test_orient(self, capsys, theta_spec, bridge_spec):
        code, report = run_json(capsys, ["orient", theta_spec])
        assert code == 0 and report["results"]["stable_orientation"] is not None
        code, report = run_json(capsys, ["orient", bridge_spec])
        assert code == 0 and report["results"]["stable_orientation"] is None

    def test_stabilize(self, capsys, bridge_spec):
        code, report = run_json(capsys,
                                ["stabilize", bridge_spec, "--degree", "0,2"])
        assert code == 0
        assert report["results"]["stable_degree"] == [0, 1]
        assert report["results"]["destabilizing_nodes"] == [0]

    def test_stabilize_beyond_subset_cap(self, capsys, tmp_path):
        # a doubled 16-cycle: more vertices than any subcurve scan accepts
        edges = [sorted((i, (i + 1) % 16)) for i in range(16) for _ in (0, 1)]
        path = tmp_path / "cycle16.json"
        path.write_text(json.dumps({"vertices": [{"genus": 0}] * 16, "edges": edges}))
        degree = ",".join(map(str, (-1, 2) + (1,) * 13 + (2,)))
        code, report = run_json(capsys, ["stabilize", str(path), f"--degree={degree}"])
        assert code == 0
        assert report["results"]["destabilizing_nodes"] == [0, 1, 30, 31]
        assert report["results"]["stable_degree"] == [-1, 0] + [1] * 13 + [0]

    def test_strata_table_and_counts(self, capsys, theta_spec):
        code = run(["strata", theta_spec])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("{}") == 2  # two top strata

    def test_strata_theta_json(self, capsys, theta_spec):
        code, report = run_json(capsys, ["strata", theta_spec, "--theta"])
        assert code == 0
        assert report["results"]["theta_summary"]["component_count"] == 2

    def test_strata_dot(self, capsys, theta_spec):
        code = run(["strata", theta_spec, "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph strata {")
        assert "->" in out

    def test_irreducible(self, capsys, theta_spec):
        code, report = run_json(capsys, ["irreducible", theta_spec])
        assert report["results"] == {
            "picard_irreducible": False, "theta_irreducible": False,
        }

    def test_irreducible_beyond_edge_subset_cap(self, capsys, tmp_path):
        # 21 nodes between two rational components: past the strata cap
        path = tmp_path / "banana21.json"
        path.write_text(json.dumps({"vertices": [{"genus": 0}] * 2, "edges": [[0, 1]] * 21}))
        code, report = run_json(capsys, ["irreducible", str(path)])
        assert code == 0
        assert report["results"] == {
            "picard_irreducible": False, "theta_irreducible": False,
        }

    def test_irreducible_beyond_vertex_subset_cap(self, capsys, tmp_path):
        # a path of 15 rational curves: its bridges leave 15 single vertices
        path = tmp_path / "path15.json"
        path.write_text(json.dumps({"vertices": [{"genus": 0}] * 15,
                                    "edges": [[i, i + 1] for i in range(14)]}))
        code, report = run_json(capsys, ["irreducible", str(path)])
        assert code == 0
        assert report["results"] == {
            "picard_irreducible": True, "theta_irreducible": False,
        }

    def test_h0(self, capsys, theta_spec):
        code, report = run_json(
            capsys, ["h0", theta_spec, "--degrees", "0,0", "--gluing", "1,1,1"])
        assert code == 0
        assert report["results"]["h0"] == 1

    def test_wcount_multi_prime(self, capsys, theta_spec):
        code, report = run_json(
            capsys,
            ["wcount", theta_spec, "--degrees", "0,1", "--r", "0",
             "--primes", "5,7,11"],
        )
        assert code == 0
        records = report["results"]["records"]
        assert [(r["prime"], r["count"]) for r in records] == \
            [(5, 3), (7, 5), (11, 9)]
        for r in records:
            assert set(r) == {"prime", "count", "total", "exponent_estimate"}
        assert abs(report["results"]["fit"]["slope"] - 1.0) <= 0.35

    def test_abel(self, capsys, theta_spec):
        code, report = run_json(
            capsys, ["abel", theta_spec, "--points", "1:5"])
        assert code == 0
        assert report["results"]["h0"] == 1
        assert report["results"]["degrees"] == [0, 1]

    def test_hyperelliptic(self, capsys, loops_spec):
        code, report = run_json(capsys, ["hyperelliptic", loops_spec])
        assert code == 0
        assert report["results"]["hyperelliptic"] is True


GOLDEN_STABILIZE = """\
{
  "command": "stabilize",
  "format": "json",
  "inputs": {
    "degree": [
      0,
      2
    ],
    "spec": "SPEC"
  },
  "results": {
    "degree_unique": true,
    "destabilizing_nodes": [
      0
    ],
    "ending_halves": {
      "0": [
        0,
        2
      ]
    },
    "input_degree": [
      0,
      2
    ],
    "stable_degree": [
      0,
      1
    ]
  },
  "seed": null,
  "version": "0.1.0"
}
"""


class TestGoldenReport:
    def test_stabilize_report_bytes(self, capsys, bridge_spec):
        run(["stabilize", bridge_spec, "--degree", "0,2", "--format", "json"])
        out = capsys.readouterr().out
        assert out == GOLDEN_STABILIZE.replace("SPEC", bridge_spec)


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, theta_spec):
        run(["wcount", theta_spec, "--degrees", "0,1", "--primes", "5,7",
             "--format", "json"])
        first = capsys.readouterr().out
        run(["wcount", theta_spec, "--degrees", "0,1", "--primes", "5,7",
             "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_sампle_seed_reproducible(self, capsys, theta_spec):
        args = ["wcount", theta_spec, "--degrees", "0,1", "--mode", "sample",
                "--samples", "50", "--seed", "9", "--format", "json"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["seed"] == 9


SRC = Path(__file__).resolve().parent.parent / "src"

# a fresh interpreter reports, after each step, whether numpy and the
# cohomology module have been loaded
BOUNDARY_PROBE = textwrap.dedent("""\
    import contextlib, io, json, sys
    spec = sys.argv[1]
    loaded = lambda: [m in sys.modules for m in ("numpy", "nodaltheta.graph_curve")]
    import nodaltheta.cli
    steps = {"import": loaded()}
    for name, argv in [("genus", ["genus", spec]),
                       ("strata-theta", ["strata", spec, "--theta"]),
                       ("h0", ["h0", spec, "--degrees", "0,1", "--gluing", "1,6,2"])]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert nodaltheta.cli.run(argv) == 0
        steps[name] = loaded()
    print(json.dumps(steps))
""")


class TestImportBoundary:
    def test_only_cohomology_commands_load_numpy(self, theta_spec):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", BOUNDARY_PROBE, theta_spec],
                                env=env, capture_output=True, text=True, check=True)
        assert json.loads(result.stdout) == {
            "import": [False, False],
            "genus": [False, False],
            "strata-theta": [False, False],
            "h0": [True, True],
        }


class TestErrors:
    def test_schema_error_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [{"genus": -1}], "edges": []}))
        assert run(["genus", str(path)]) == 2
        assert "vertices[0].genus" in capsys.readouterr().err

    def test_edge_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [{"genus": 0}],
                                    "edges": [[0, 1]]}))
        assert run(["genus", str(path)]) == 2
        assert "edges[0]" in capsys.readouterr().err

    def test_prime_below_branch_capacity(self, tmp_path, capsys):
        spec = json.loads(json.dumps(THETA_SPEC))
        spec["field_prime"] = 2  # the three points 0, 1, 2 collide mod 2
        path = tmp_path / "small.json"
        path.write_text(json.dumps(spec))
        assert run(["h0", str(path), "--degrees", "0,0",
                    "--gluing", "1,1,1"]) == 2
        assert "collision" in capsys.readouterr().err

    def test_missing_branch_points(self, tmp_path, capsys):
        path = tmp_path / "nobranch.json"
        path.write_text(json.dumps(BRIDGE_SPEC))
        assert run(["h0", str(path), "--degrees", "0,0", "--gluing", "1"]) == 2

    def test_domain_error_exit_one(self, capsys, theta_spec):
        # a non-semistable multidegree is a domain error, not usage
        assert run(["stabilize", theta_spec, "--degree=-2,3"]) == 1
        assert "not semistable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["stabilize", "SPEC", "--degree", "0"], "--degree: need 2 entries in vertex order"),
        (["stabilize", "SPEC", "--degree", "0,x"], "--degree: need comma-separated integers"),
        (["h0", "SPEC", "--degrees", "0", "--gluing", "1,1,1"],
         "--degrees: need 2 entries in vertex order"),
        (["wcount", "SPEC", "--degrees", "0,1,2"], "--degrees: need 2 entries in vertex order"),
        (["wcount", "SPEC", "--degrees", "a"], "--degrees: need comma-separated integers"),
    ])
    def test_degree_flag_field_path(self, capsys, theta_spec, argv, message):
        argv = [theta_spec if a == "SPEC" else a for a in argv]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"spec error: {message}\n"

    def test_budget_refusal(self, capsys, theta_spec, monkeypatch):
        monkeypatch.setenv("THETA_STRATA_BUDGET", "5")
        assert run(["wcount", theta_spec, "--degrees", "0,1"]) == 1
        err = capsys.readouterr().err
        assert "budget" in err and "100" in err

    @pytest.mark.parametrize("raw", ["abc", "-5", "0"])
    def test_bad_budget_setting(self, capsys, theta_spec, monkeypatch, raw):
        monkeypatch.setenv("THETA_STRATA_BUDGET", raw)
        assert run(["wcount", theta_spec, "--degrees", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: THETA_STRATA_BUDGET:") and repr(raw) in err

    @pytest.mark.parametrize("raw, message", [
        ("5,4", "4 is not prime"),
        ("5,7,5", "5 is given twice"),
        ("", "need comma-separated primes"),
    ])
    def test_bad_primes_flag(self, capsys, theta_spec, raw, message):
        assert run(["wcount", theta_spec, "--degrees", "0,1", "--primes", raw]) == 2
        assert capsys.readouterr().err == f"spec error: --primes: {message}\n"

    def test_sample_mode_needs_seed(self, capsys, theta_spec):
        assert run(["wcount", theta_spec, "--degrees", "0,1",
                    "--mode", "sample", "--samples", "10"]) == 2

    @pytest.mark.parametrize("extra, path", [
        (["--mode", "sample", "--samples", "-3", "--seed", "1"], "--samples"),
        (["--mode", "sample", "--samples", "0", "--seed", "1"], "--samples"),
        (["--mode", "sample", "--seed", "1"], "--samples"),
        (["--r", "-2"], "--r"),
    ])
    def test_wcount_bad_counts(self, capsys, theta_spec, extra, path):
        assert run(["wcount", theta_spec, "--degrees", "0,1"] + extra) == 2
        assert f"spec error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, path", [
        ("genus", "vertices[1].genus"),
        ("edge", "edges[2]"),
        ("point", "branch_points.1[0]"),
    ])
    def test_json_booleans_rejected(self, tmp_path, capsys, field, path):
        spec = json.loads(json.dumps(THETA_SPEC))
        if field == "genus":
            spec["vertices"][1]["genus"] = True
        elif field == "edge":
            spec["edges"][2] = [0, True]
        else:
            spec["branch_points"]["1"][0] = [True, 1]
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(spec))
        assert run(["h0", str(bad), "--degrees", "0,0", "--gluing", "1,1,1"]) == 2
        assert f"spec error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["genus"], ["multidegrees"], ["orient"], ["stabilize", "--degree", "0,1"],
        ["irreducible"], ["h0", "--degrees", "0,0", "--gluing", "1,1,1"],
        ["wcount", "--degrees", "0,1"], ["abel", "--points", "1:5"],
        ["hyperelliptic"],
    ])
    def test_dot_format_only_on_strata(self, capsys, theta_spec, argv):
        assert run([argv[0], theta_spec] + argv[1:] + ["--format", "dot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--format" in captured.err


class TestSelfcheckCommand:
    def test_fresh_checkout_passes(self, capsys):
        assert run(["selfcheck", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_mutated_predicate_is_caught(self, capsys, monkeypatch):
        # swap the strictness convention: the definition-equivalence
        # invariants must notice
        monkeypatch.setattr(multidegree, "is_semistable", multidegree.is_stable)
        assert run(["selfcheck", "--fast"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
