import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import abelian, algebras, cayley_dickson, cli, grid, heyting, jets
from hyperlab.abelian import FGAbelianGroup
from hyperlab.algebras import BASE_ALGEBRAS
from hyperlab.cayley_dickson import CDElement
from hyperlab.cli import main, run
from hyperlab.heyting import FiniteTopology
from hyperlab.polynomials import MAX_TERM_DEGREE

from fixtures import pentagon_lattice


# the coordinates of a small well-formed system file
COORDS = {"independents": ["x", "y"], "dependents": ["u"], "order": 1}


def with_files(argv, tmp_path):
    """``argv`` with each dict or list replaced by an input file holding it."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, (dict, list)):
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(arg))
            argv[i] = str(path)
    return argv


def payload(argv):
    result = run(argv)
    # every payload must survive a JSON round trip
    assert json.loads(result.to_json()) == json.loads(result.to_json())
    return result


class TestTable:
    def test_octonion_compare_clean(self):
        result = payload(["table", "--level", "3", "--compare"])
        assert result.code == 0
        assert result.payload["mismatches"] == []

    def test_sedenion_compare_is_diagnostic(self):
        result = payload(["table", "--level", "4", "--compare"])
        assert result.code == 0
        cells = result.payload["diagnostics"]["mismatched_cells"]
        assert len(cells) == 6

    def test_dense_export(self):
        result = payload(["table", "--level", "1", "--dense"])
        table = result.payload["table"]
        assert table["kind"] == "structure_constants"
        assert table["gamma"][1][1][0] == -1

    def test_unsupported_compare_level(self):
        result = payload(["table", "--level", "2", "--compare"])
        assert result.code == 2


class TestProps:
    def test_level4_exhaustive(self):
        result = payload(["props", "--level", "4", "--mode", "exhaustive-basis"])
        assert result.code == 0
        verdicts = {v["identity"]: v for v in result.payload["identities"]}
        assert verdicts["associative"]["passed"] is False
        assert verdicts["flexible"]["passed"] is True
        witness = verdicts["associative"]["witness"]
        elements = [CDElement.from_json_dict(w) for w in witness]
        a, b, c = elements
        assert (a * b) * c != a * (b * c)

    @pytest.mark.parametrize("level", [6, 7, 8])
    def test_exhaustive_levels_6_to_8_answer_quickly(self, level):
        start = time.perf_counter()
        result = payload(["props", "--level", str(level)])
        assert time.perf_counter() - start < 2.0
        assert result.code == 0
        verdicts = {v["identity"]: v for v in result.payload["identities"]}
        dim = 1 << level
        assert verdicts["flexible"] == {"identity": "flexible", "passed": True,
                                        "checked": dim * dim}
        assert verdicts["power_associative"] == {
            "identity": "power_associative", "passed": True, "checked": dim}
        assert [CDElement.from_json_dict(w) for w in verdicts["associative"]["witness"]] \
            == [CDElement.basis(level, k) for k in (1, 2, 4)]

    def test_random_sample_at_the_level_and_count_caps_in_a_fresh_process(self):
        # the operators are written into buffers the battery keeps: a fresh
        # 512 KiB level-8 operator per product was freed and mapped again
        # each time, about 850,000 minor page faults in a new process
        child = ("import resource, sys, time\n"
                 "from hyperlab import cli\n"
                 "start = time.perf_counter()\n"
                 "result = cli.run(sys.argv[1:])\n"
                 "result.to_json()\n"
                 "print(result.code, time.perf_counter() - start,\n"
                 "      resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

        def fresh(*argv):
            out = subprocess.run([sys.executable, "-c", child, "props", *argv, "--json"],
                                 env=env, capture_output=True, text=True, timeout=60)
            assert out.returncode == 0, out.stderr
            code, wall, faults = out.stdout.split()
            return int(code), float(wall), int(faults)

        code, wall, faults = fresh("--level", "8", "--mode", "random-sample",
                                   "--count", "1000")
        baseline = fresh("--level", "0")[2]
        assert code == 0
        assert faults - baseline < 100_000
        assert wall < 4.0

    def test_seed_determines_output(self):
        a = payload(["props", "--level", "4", "--mode", "random-sample",
                     "--count", "50", "--seed", "5"])
        b = payload(["props", "--level", "4", "--mode", "random-sample",
                     "--count", "50", "--seed", "5"])
        assert a.payload == b.payload


class TestZerodiv:
    def test_level4_contains_canonical_pair(self):
        result = payload(["zerodiv", "--level", "4"])
        assert result.code == 0
        target_a = CDElement.basis(4, 3) + CDElement.basis(4, 10)
        target_b = CDElement.basis(4, 6) - CDElement.basis(4, 15)
        found = False
        for pair in result.payload["pairs"]:
            a = CDElement.from_json_dict(pair["a"])
            b = CDElement.from_json_dict(pair["b"])
            assert (a * b).is_zero()
            if a == target_a and b == target_b:
                found = True
        assert found

    def test_level3_empty(self):
        result = payload(["zerodiv", "--level", "3"])
        assert result.payload["count"] == 0


class TestQalg:
    def test_centre_of_quaternions(self):
        result = payload(["qalg", "--base", "real", "--level", "2",
                          "--op", "centre"])
        assert result.payload["centre_dimension"] == 1

    def test_nucleus_of_octonions(self):
        result = payload(["qalg", "--base", "real", "--level", "3",
                          "--op", "nucleus"])
        assert result.payload["nucleus_dimension"] == 1

    def test_embeddings_verified(self):
        result = payload(["qalg", "--base", "mat2", "--level", "2",
                          "--op", "tensor"])
        assert result.code == 0
        assert all(result.payload["embeddings"].values())

    def test_embeddings_at_the_cap(self):
        # mat2 (x) A5, cd_dim^2 * dim = 2^17, the last mat2 level the cap lets
        # through: about 0.1 s on int coefficients, 0.7 s on Fractions
        start = time.perf_counter()
        result = payload(["qalg", "--base", "mat2", "--level", "5", "--op", "tensor"])
        assert time.perf_counter() - start < 0.35
        assert result.code == 0
        assert list(result.payload["embeddings"].values()) == [True] * 4

    def test_classic_limit_of_unit(self):
        result = payload(["qalg", "--base", "mat2", "--level", "1",
                          "--op", "classic-limit"])
        assert result.payload["classic_limit"] == "1"

    def test_unknown_base(self):
        cached = cli._base_algebra.cache_info().currsize
        result = payload(["qalg", "--base", "nonesuch", "--op", "centre"])
        assert result.code == 2
        assert result.payload == {"error": "unknown base algebra 'nonesuch'; choose from "
                                           "['complex', 'mat2', 'real', 'upper2']"}
        assert cli._base_algebra.cache_info().currsize == cached

    def test_base_algebra_is_built_once_per_process(self, monkeypatch):
        build = BASE_ALGEBRAS["mat2"]
        built = []
        monkeypatch.setitem(BASE_ALGEBRAS, "mat2", lambda: built.append(1) or build())
        cli._base_algebra.cache_clear()
        answers = {run(["qalg", "--base", "mat2", "--level", "1", "--op", op]).code
                   for op in ("tensor", "centre", "nucleus", "classic-limit", "tensor")}
        assert answers == {0} and built == [1]
        cli._base_algebra.cache_clear()

    def test_centre_cap(self):
        # mat2 (x) A5 (dim 128) is the largest centre; A6 (dim 256) is refused
        # before any table is built
        result = payload(["qalg", "--base", "mat2", "--level", "5", "--op", "centre"])
        assert result.code == 0 and result.payload["centre_dimension"] == 1
        start = time.perf_counter()
        result = payload(["qalg", "--base", "mat2", "--level", "6", "--op", "centre"])
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert result.payload == {
            "error": "DimTooLarge: centre capped at dimension 128, got 256"}


class TestHeyting:
    def test_build_chain(self):
        result = payload(["heyting", "build", "--chain", "3"])
        assert result.code == 0
        assert result.payload["classification"]["is_boolean"] is False

    def test_laws_pass_on_chain(self):
        result = payload(["heyting", "laws", "--chain", "5"])
        assert result.code == 0

    def test_quotient(self):
        result = payload(["heyting", "quotient", "--chain", "3",
                          "--filter", "1"])
        assert result.payload["quotient"]["size"] == 2

    def test_topology_file(self, tmp_path):
        topo = FiniteTopology.from_subsets(["a", "b"], [[], ["a"], ["a", "b"]])
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(topo.to_json_dict()))
        result = payload(["heyting", "build", "--input", str(path)])
        assert result.payload["size"] == 3

    def test_lattice_rejection(self, tmp_path):
        meet, join = pentagon_lattice()
        path = tmp_path / "n5.json"
        path.write_text(json.dumps({"meet": meet, "join": join}))
        result = payload(["heyting", "build", "--input", str(path)])
        assert result.code == 1
        assert result.payload["accepted"] is False
        assert "witness" in result.payload

    def test_missing_source(self):
        result = payload(["heyting", "build"])
        assert result.code == 2

    @pytest.mark.parametrize("name", ["a,b", "{a}", "b}", "{", ","])
    @pytest.mark.parametrize("kind", ["topology", "poset"])
    def test_point_names_that_break_the_labels_are_refused(self, name, kind, tmp_path):
        # labels join point names as "{a,b}": the discrete topology on
        # a, b and "a,b" gave two elements labelled {a,b}
        points = ["a", "b", name]
        if kind == "topology":
            opens = [list(s) for k in range(4) for s in itertools.combinations(points, k)]
            data = {"points": points, "opens": opens}
        else:
            data = {"elements": points, "le": [["a", name]]}
        for action in ("build", "laws"):
            result = payload(with_files(["heyting", action, "--input", data], tmp_path))
            assert result.code == 2
            assert result.payload["error"] == (
                "InvalidTopology: point names must not hold ',', '{' or '}'")

    def test_point_names_beside_the_label_characters_still_build(self, tmp_path):
        data = {"points": ["a", "b", "a b", "(a)"], "opens": [[], ["a b"], ["a b", "(a)"],
                                                             ["a", "b", "a b", "(a)"]]}
        result = payload(with_files(["heyting", "build", "--input", data], tmp_path))
        assert result.code == 0
        assert result.payload["labels"] == ["{}", "{a b}", "{a b,(a)}", "{a,b,a b,(a)}"]


class TestAbelian:
    def test_snf(self):
        result = payload(["abelian", "snf", "--matrix", "[[2,0],[0,3]]"])
        assert result.payload["factors"] == [1, 6]

    def test_ext(self):
        result = payload(["abelian", "ext", "--g", "Z28", "--h", "Z2"])
        group = FGAbelianGroup.from_json_dict(result.payload["ext"])
        assert group == FGAbelianGroup.from_divisors(2)

    def test_homology(self):
        result = payload(["abelian", "homology", "--order", "28", "--degree", "1"])
        assert result.payload["group"] == {"rank": 0, "torsion": [28]}

    def test_sphere(self):
        result = payload(["abelian", "sphere", "--n", "7", "--p", "7"])
        assert result.payload["group"] == {"rank": 1, "torsion": []}
        assert result.payload["euler_characteristic"] == 0

    def test_extension_count(self):
        result = payload(["abelian", "extension-count",
                          "--base", "Z28", "--fiber", "Z2"])
        assert result.payload["ext_order"] == 2
        assert result.payload["direct_sum_order"] == 56

    def test_bad_matrix(self):
        result = payload(["abelian", "snf", "--matrix", "not json"])
        assert result.code == 2

    @pytest.mark.parametrize("argv, key, expected", [
        (["ext", "--g", "Z1000000000000000003", "--h", "Z2"], "ext",
         {"rank": 0, "torsion": []}),
        (["homology", "--order", "1000000000000000003", "--degree", "1"], "group",
         {"rank": 0, "torsion": [1000000000000000003]}),
        (["extension-count", "--base", "Z1000000000000000003", "--fiber", "Z2"],
         "ext_group", {"rank": 0, "torsion": []}),
    ])
    def test_large_prime_order_needs_no_factoring(self, argv, key, expected):
        # trial division of the 19-digit prime would run for minutes
        start = time.perf_counter()
        result = payload(["abelian", *argv])
        assert time.perf_counter() - start < 1.0
        assert result.code == 0
        assert result.payload[key] == expected


class TestPde:
    def test_jacobian(self):
        result = payload(["pde", "jacobian", "--system", "r1"])
        assert result.payload["jacobian"][0][4] == "2*u1_x*(2*u1_x^2 - 1)" or \
            "u1_x" in result.payload["jacobian"][0][4]

    def test_minors(self):
        result = payload(["pde", "minors", "--system", "r1", "--size", "2"])
        assert result.payload["nonzero"] == 4

    def test_scan(self, tmp_path):
        points = [
            {"u1_x": 0.0, "u1_y": 0.0, "u2_x": 0.0, "u2_y": 0.0},
            {"u1_x": 1.0, "u2_y": 0.0, "u2_x": 2 ** -0.25, "u1_y": 2 ** -0.25},
        ]
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points))
        result = payload(["pde", "scan", "--system", "r1",
                          "--points", str(path), "--minor-size", "2"])
        scan = result.payload["scan"]
        assert scan[0]["classification"] == "Singular"
        assert scan[1]["classification"] == "Regular"

    def test_input_file_is_read_instead_of_the_default_system(self, tmp_path):
        system = {"name": "mine", "coordinates": COORDS,
                  "equations": [[{"coeff": "1", "powers": {"u_x": 2}}]]}
        result = payload(with_files(["pde", "jacobian", "--input", system], tmp_path))
        assert result.code == 0
        assert result.payload["system"] == "mine"
        assert result.payload["jacobian"] == [["0", "0", "0", "2*u_x", "0"]]

    def test_minor_cap_reaches_scan(self, tmp_path):
        # nine equations in 27 variables: the default minor size is 9
        system = {"coordinates": {"independents": [], "order": 0,
                                  "dependents": [f"u{i}" for i in range(27)]},
                  "equations": [[{"coeff": "1", "powers": {f"u{j}": 1}}
                                 for j in range(i, 27, 9)] for i in range(9)]}
        start = time.perf_counter()
        result = payload(with_files(["pde", "scan", "--input", system, "--points", [{}]],
                                    tmp_path))
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert "cofactor products" in result.payload["error"]

    def test_scan_flags_off_variety(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps([{"u1_x": 1.0, "u2_y": 1.0}]))
        result = payload(["pde", "scan", "--system", "r1", "--points", str(path)])
        assert result.code == 1
        assert result.payload["scan"][0]["classification"] == "OffVariety"

    def test_scalar_in_an_element_point_has_exact_zeros_off_the_unit(self, tmp_path):
        # -u_x is the minor at column 4: its coefficient off the unit is an
        # exact zero, which no sign can make -0.0
        point = [{"u": {"level": 1, "coeffs": [1, 2]}, "u_x": 0.5}]
        result = payload(with_files(["pde", "scan", "--system", "dalembert", "--points",
                                     point], tmp_path))
        minors = {tuple(m["cols"]): m["value"]["coeffs"]
                  for m in result.payload["scan"][0]["minor_diagnostics"]}
        assert minors[(4,)] == ["-0.5", "0"]
        assert "-0.0" not in result.to_json()

    def test_malformed_point_error_is_short(self, tmp_path):
        # the whole point was echoed: 1,488,942 bytes of JSON for this file
        for points in ([list(range(200_000))], [{"u" * 100_000: 10 ** 400}]):
            result = payload(with_files(["pde", "scan", "--system", "r1", "--points",
                                         points], tmp_path))
            assert result.code == 2
            assert len(result.to_json()) < 200

    def test_heat(self):
        result = payload(["pde", "heat", "--nodes", "32", "--steps", "10",
                          "--level", "2", "--seed", "1"])
        assert result.code == 0
        assert result.payload["componentwise_decoupling"] is True

    def test_dalembert(self):
        result = payload(["pde", "dalembert", "--level", "3", "--nodes", "5"])
        assert result.payload["commutative_subalgebra"] is False
        assert result.payload["max_residual"] > 0

    def test_dalembert_default_nodes_within_bound(self):
        # 64 nodes give 256 samples, so 256^3 sample triples to check
        start = time.perf_counter()
        result = payload(["pde", "dalembert", "--level", "3", "--f-axis", "3",
                          "--g-axis", "3", "--json"])
        assert time.perf_counter() - start < 30.0
        assert result.code == 0
        assert result.payload["nodes_checked"] == 64 * 64
        assert result.payload["commutative_subalgebra"] is True

    def test_algebra_exact_scans_match_the_benchmark_fingerprints(
            self, monkeypatch, tmp_path):
        # integer points load as ints; every scan payload must still equal
        # the benchmark's reference answer byte for byte
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import checks
        import workloads

        expected = json.loads(
            (Path(checks.__file__).parent / "fingerprints.json").read_text())
        scans = [r for r in workloads.pool("algebra-exact") if "scan" in r.argv]
        assert len(scans) == 31
        path = tmp_path / "points.json"
        for req in scans:
            path.write_text(req.file)
            result = run(req.command(str(path)))
            got = checks.fingerprint(result.code, result.to_json(), result.payload, False)
            assert got == expected[req.key]

    def test_unknown_system(self):
        result = payload(["pde", "jacobian", "--system", "nonesuch"])
        assert result.code == 2

    @pytest.mark.parametrize("action", [["jacobian"], ["minors"],
                                        ["scan", "--points", "nothere.json"]])
    def test_unknown_system_lists_the_builtins(self, action):
        cached = cli._stock_system.cache_info().currsize
        result = payload(["pde", action[0], "--system", "nonesuch", *action[1:]])
        assert result.code == 2
        assert result.payload == {"error": "unknown system 'nonesuch'; builtins: "
                                           "['dalembert', 'heat', 'r1', 's1', 't1']"}
        assert cli._stock_system.cache_info().currsize == cached

    @staticmethod
    def _refuse_builders(monkeypatch):
        """Make every stock system's builder raise, with the CLI's cache
        empty, so that any system a command builds shows."""
        def refuse(name):
            raise RuntimeError(f"builtin system {name} built")

        cli._stock_system.cache_clear()
        for name in jets.BUILTIN_SYSTEMS:
            monkeypatch.setitem(jets.BUILTIN_SYSTEMS, name, lambda name=name: refuse(name))

    def test_heat_and_dalembert_build_no_systems(self, monkeypatch):
        self._refuse_builders(monkeypatch)
        assert run(["pde", "heat", "--nodes", "8", "--steps", "2",
                    "--level", "1"]).code == 0
        assert run(["pde", "dalembert", "--nodes", "4", "--level", "1"]).code == 0
        with pytest.raises(RuntimeError, match="builtin system r1 built"):
            run(["pde", "jacobian", "--system", "r1"])

    @pytest.mark.parametrize("name", sorted(jets.BUILTIN_SYSTEMS))
    def test_a_command_builds_only_the_system_it_names(self, name, monkeypatch):
        build = jets.BUILTIN_SYSTEMS[name]
        self._refuse_builders(monkeypatch)
        built = []
        monkeypatch.setitem(jets.BUILTIN_SYSTEMS, name,
                            lambda: built.append(name) or build())
        for action in (["jacobian"], ["minors", "--size", "1"]):
            assert run(["pde", *action, "--system", name]).code == 0
        assert built == [name]
        cli._stock_system.cache_clear()

    def test_a_second_scan_reuses_the_minors(self, monkeypatch, tmp_path):
        # the all-zero point satisfies r1, so the first scan computes minors
        argv = with_files(["pde", "scan", "--system", "r1", "--minor-size", "2",
                           "--points", [{}, {"u2_y": 1}]], tmp_path)
        cli._stock_system.cache_clear()
        calls = []
        original = jets.minor_determinants

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(jets, "minor_determinants", counted)
        first = run(argv)
        assert first.code == 1 and len(calls) == 1
        calls.clear()
        second = run(argv)
        assert calls == []
        assert (second.code, second.to_json()) == (first.code, first.to_json())

    @pytest.mark.parametrize("action", ["heat", "dalembert"])
    def test_level_cap(self, action):
        # the same cap as zerodiv, checked before any sample array is built
        result = payload(["pde", action, "--level", "9", "--nodes", "2"])
        assert result.code == 2
        assert result.payload == {"error": "LevelTooLarge: level 9 exceeds cap 8 (dim 512)"}
        assert run(["zerodiv", "--level", "9"]).payload == result.payload


class TestDispatch:
    def test_usage_error_exit_code(self):
        assert run(["no-such-command"]).code == 2

    def test_only_a_zero_exit_is_the_help(self, monkeypatch):
        # a SystemExit other than the help's exit 0 is no success
        monkeypatch.setitem(cli._HANDLERS, "zerodiv", lambda args: sys.exit(3))
        assert run(["zerodiv", "--level", "1"]) == cli.CommandResult(2, {"error": "usage"})

    @pytest.mark.parametrize("argv", [
        ["abelian", "snf", "--matrix", "[[1,2],[3]]"],  # ragged rows
        ["abelian", "snf", "--matrix", "[[1.5,2]]"],  # non-integer entry
        ["abelian", "hom", "--g", "Z4"],  # missing --h
        ["pde", "heat", "--nodes", "0"],
        ["heyting", "quotient", "--chain", "3", "--filter", "7"],
        ["props", "--level", "2", "--mode", "random-sample", "--count", "-5"],
        # a dict stands for an input file holding it
        ["heyting", "build", "--input",
         {"meet": [[0, 0], [0]], "join": [[0, 1], [1, 1]]}],  # ragged
        ["heyting", "build", "--input",
         {"meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]],
          "impl": [[1, 1], [0, 1]], "bottom": 0, "top": 7}],
        ["heyting", "laws", "--input",
         {"meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]],
          "impl": [[1, 1], [-1, 1]], "bottom": 0, "top": 1}],
        ["heyting", "build", "--input",
         {"meet": [[0, 0], [0, True]], "join": [[0, 1], [1, 1]]}],
        # a list stands for an input file too
        ["pde", "scan", "--system", "r1", "--points", [1]],
        ["pde", "scan", "--system", "r1", "--points", [{"u": [1, 2]}]],
        ["pde", "scan", "--system", "r1", "--points",
         [{"u": {"level": 1, "coeffs": [None, 1]}}]],
        ["pde", "scan", "--system", "r1"],  # missing --points
        ["qalg", "--op", "classic-limit", "--input", [1, 2]],
        ["abelian", "sphere", "--p", "1"],  # missing --n
        ["abelian", "homology", "--order", "3"],  # missing --degree
        ["abelian", "extension-count", "--base", "Z2"],  # missing --fiber
        # integer point names
        ["heyting", "build", "--input", {"points": [1, 2], "opens": [[], [1], [1, 2]]}],
        ["heyting", "build", "--input", {"elements": [1, 2], "le": [[1, 2]]}],
        # order pairs and opens of the wrong shape
        ["heyting", "build", "--input", {"elements": ["a"], "le": 5}],
        ["heyting", "build", "--input", {"elements": ["a"], "le": [5]}],
        ["heyting", "build", "--input", {"elements": ["a", "b"], "le": [["a"]]}],
        ["heyting", "build", "--input", {"elements": ["a", "b"], "le": [[["a"], "b"]]}],
        ["heyting", "build", "--input", {"elements": [["a"]], "le": []}],
        ["heyting", "build", "--input", {"points": ["a"], "opens": 5}],
        ["heyting", "build", "--input", {"points": ["a"], "opens": [5]}],
        ["heyting", "build", "--input", {"points": ["a"], "opens": [[["a"]]]}],
        ["heyting", "build", "--input", {"points": 5, "opens": []}],
        # repeated names: four elements labelled {}, {a}, {a}, {a,a}, and
        # a topology refused for the wrong reason
        ["heyting", "build", "--input", {"elements": ["a", "a"], "le": []}],
        ["heyting", "build", "--input", {"points": ["a", "a"], "opens": [[], ["a"]]}],
        # --chain 0 is an empty chain, not a missing --chain
        ["heyting", "build", "--chain", "0"],
        # --chain and --input exclude each other, --chain 0 included
        ["heyting", "build", "--chain", "0", "--input", {"points": ["a"], "opens": [[], ["a"]]}],
        # PDE system files of the wrong shape
        ["pde", "jacobian", "--input", {"coordinates": 5, "equations": []}],
        ["pde", "jacobian", "--input",
         {"coordinates": COORDS, "equations": [[{"coeff": "1", "powers": 3}]]}],
        ["pde", "jacobian", "--input", {"coordinates": COORDS, "equations": 7}],
        ["pde", "jacobian", "--input", {"coordinates": COORDS, "equations": [5]}],
        ["pde", "jacobian", "--input",
         {"coordinates": COORDS, "equations": [[{"coeff": None, "powers": {"u": 1}}]]}],
        ["pde", "jacobian", "--input",
         {"coordinates": COORDS, "equations": [[{"coeff": 1e999, "powers": {"u": 1}}]]}],
        ["pde", "jacobian", "--input",
         {"coordinates": COORDS, "equations": [[{"coeff": "1", "powers": {"u": -1}}]]}],
        ["pde", "jacobian", "--input",
         {"coordinates": COORDS, "equations": [[{"coeff": "1", "powers": {"u": 1.5}}]]}],
        ["pde", "jacobian", "--input", {"coordinates": COORDS, "equations": [],
                                        "algebra": 5}],
        ["pde", "jacobian", "--input", {"coordinates": COORDS, "equations": [],
                                        "algebra": {"level": "2"}}],
        ["pde", "jacobian", "--input",
         {"coordinates": {**COORDS, "order": -1}, "equations": []}],
        ["pde", "jacobian", "--input",
         {"coordinates": {**COORDS, "order": "1"}, "equations": []}],
        ["pde", "jacobian", "--input",
         {"coordinates": {**COORDS, "symmetric": "no"}, "equations": []}],
        ["pde", "jacobian", "--input",
         {"coordinates": {**COORDS, "independents": "xy"}, "equations": []}],
        # jet variables x, x, x_x: the Jacobian had two columns named x
        ["pde", "jacobian", "--input",
         {"coordinates": {**COORDS, "independents": ["x"], "dependents": ["x"]},
          "equations": []}],
        # JSON booleans are no numbers: true used to count as 1
        ["pde", "scan", "--system", "r1", "--points", [{"u1_x": True}]],
        ["pde", "scan", "--system", "r1", "--points",
         [{"u1_x": {"level": 1, "coeffs": ["0", True]}}]],
        ["qalg", "--op", "classic-limit", "--input", {"coeffs": [True]}],
        # an exact coefficient past the float range times a float point value
        ["pde", "scan", "--points", [{"u": 0.5}], "--input",
         {"coordinates": {"independents": ["x"], "dependents": ["u"], "order": 1},
          "equations": [[{"coeff": "1e400", "powers": {"u": 1}}]]}],
    ])
    def test_malformed_input_is_a_json_error(self, argv, tmp_path):
        result = payload(with_files(argv, tmp_path))
        assert result.code == 2
        assert "error" in result.payload

    @pytest.mark.parametrize("argv", [
        ["abelian", "hom", "--g", "Z2^-1", "--h", "Z2"],
        ["abelian", "tensor", "--g", "Z2^1000", "--h", "Z2^1000"],
        ["abelian", "tensor", "--g", "Z2^1000000000000", "--h", "Z2"],
        ["abelian", "hom", "--g", "Z^60+Z3^41", "--h", "Z2"],
        ["pde", "heat", "--steps", "-1"],
        ["pde", "heat", "--steps", "1001"],
        ["pde", "heat", "--steps", "1000000000000"],
        ["pde", "heat", "--dt", "-1"],
        ["pde", "heat", "--dt", "0"],
        ["pde", "heat", "--dt", "nan"],
        ["pde", "heat", "--nodes", "1025"],
        ["pde", "heat", "--nodes", "1000000000000"],
        ["pde", "dalembert", "--nodes", "65"],
        ["pde", "dalembert", "--f-axis", "-1"],
        ["pde", "dalembert", "--g-axis", "-2"],
        ["props", "--level", "2", "--mode", "random-sample", "--count", "1001"],
        ["props", "--level", "2", "--mode", "random-sample", "--count",
         "1000000000000"],
        ["pde", "dalembert", "--level", "2", "--nodes", "4", "--tolerance", "inf"],
        ["pde", "dalembert", "--tolerance", "nan"],
        ["pde", "heat", "--tolerance", "-1"],
        ["pde", "scan", "--system", "r1", "--points", [{}], "--tolerance", "-1e-12"],
        ["pde", "jacobian", "--tolerance", "inf"],  # jacobian reads no --tolerance
        # 2^41 + 1 jet variables
        ["pde", "jacobian", "--input", {"coordinates": {
            "independents": ["x", "y"], "dependents": ["u"], "order": 40,
            "symmetric": False}, "equations": []}],
        ["pde", "minors", "--input", {"coordinates": {
            "independents": ["x", "y"], "dependents": ["u"], "order": 10 ** 12},
            "equations": []}],
        # C(27, 9), about 4.7 M, cofactor determinants of size 9
        ["pde", "minors", "--size", "9", "--input", {
            "coordinates": {"independents": [], "dependents": [f"u{i}" for i in range(27)],
                            "order": 0},
            "equations": [[{"coeff": "1", "powers": {f"u{j}": 1}}
                           for j in range(i, 27, 9)] for i in range(9)]}],
        # Fraction("1e999999999") would build a billion-digit power of ten: a
        # point value, an element coefficient, a system coefficient and a
        # classic-limit coefficient, with either exponent sign
        *[argv for t in ("1e999999999", "1e-999999999") for argv in (
            ["pde", "scan", "--system", "r1", "--points", [{"u1_x": t}]],
            ["pde", "scan", "--system", "r1", "--points",
             [{"u1_x": {"level": 1, "coeffs": ["0", t]}}]],
            ["pde", "jacobian", "--input", {
                "coordinates": COORDS, "equations": [[{"coeff": t, "powers": {"u": 1}}]]}],
            ["qalg", "--op", "classic-limit", "--input", {"coeffs": [t]}])],
    ])
    def test_caps_and_signs_checked_before_any_work(self, argv, tmp_path):
        argv = with_files(argv, tmp_path)
        start = time.perf_counter()
        result = payload(argv)
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert "error" in result.payload

    @pytest.mark.parametrize("argv, message", [
        # a flag the action does not read
        (["pde", "jacobian", "--nodes", "999999", "--points", "nothere.json"],
         "unrecognized arguments: --nodes 999999 --points nothere.json"),
        (["pde", "dalembert", "--steps", "5000"], "unrecognized arguments: --steps"),
        (["pde", "heat", "--f-axis", "-1"], "unrecognized arguments: --f-axis"),
        (["pde", "jacobian", "--system", "r1", "--tolerance", "1e-9"],
         "unrecognized arguments: --tolerance"),
        (["heyting", "build", "--chain", "3", "--filter", "1"],
         "unrecognized arguments: --filter"),
        (["abelian", "snf", "--matrix", "[[1]]", "--g", "Z2"], "unrecognized arguments: --g"),
        (["abelian", "hom", "--g", "Z2", "--h", "Z2", "--p", "1"],
         "unrecognized arguments: --p"),
        # flags follow the action: the heyting parser reads 3 as the action
        (["heyting", "--chain", "3", "build"], "argument action: invalid choice: '3'"),
        (["heyting", "frobnicate"], "argument action: invalid choice: 'frobnicate'"),
        # a missing required flag, or two that exclude each other
        (["abelian", "hom", "--g", "Z4"], "the following arguments are required: --h"),
        (["abelian", "homology", "--order", "3"],
         "the following arguments are required: --degree"),
        (["abelian", "snf"], "one of the arguments --matrix --input is required"),
        (["heyting", "laws"], "one of the arguments --chain --input is required"),
        (["pde", "scan", "--system", "r1"], "the following arguments are required: --points"),
        (["pde", "minors", "--system", "r1", "--input", "system.json"],
         "argument --input: not allowed with argument --system"),
        # --tolerance is checked by its argparse type
        (["pde", "heat", "--tolerance", "-1"],
         "argument --tolerance: must be finite and >= 0, got -1"),
        (["pde", "scan", "--system", "r1", "--points", "nothere.json", "--tolerance", "nan"],
         "argument --tolerance: must be finite and >= 0, got nan"),
    ])
    def test_usage_error_carries_the_argparse_message(self, argv, message, capsys):
        result = payload(argv)
        assert result.code == 2
        assert message in result.payload["error"]
        usage = capsys.readouterr().err
        assert usage.startswith("usage: hyperlab")
        if message.startswith("unrecognized"):
            # the action's own parser names a flag it does not read
            prog = "hyperlab " + " ".join(argv[:2])
            assert result.payload["error"].startswith(f"{prog}: unrecognized arguments")
            assert usage.startswith(f"usage: {prog} ")

    def test_term_degree_is_capped(self, tmp_path):
        # u^100 at the all-ones level-8 element, whose coefficients grow with
        # every product; fractional or long coefficients cost more per
        # product, and no cap bounds that yet (README.md)
        def scan(degree):
            system = {"coordinates": {"independents": [], "dependents": ["u"], "order": 0},
                      "equations": [[{"coeff": "1", "powers": {"u": degree}}]]}
            points = [{"u": {"level": 8, "coeffs": ["1"] * 256}}]
            start = time.perf_counter()
            result = payload(with_files(["pde", "scan", "--input", system,
                                         "--points", points], tmp_path))
            return result, time.perf_counter() - start

        result, elapsed = scan(MAX_TERM_DEGREE + 1)
        assert elapsed < 1.0 and result.code == 2
        assert f"cap of {MAX_TERM_DEGREE}" in result.payload["error"]
        result, elapsed = scan(MAX_TERM_DEGREE)
        assert result.code == 1 and result.payload["scan"][0]["satisfied"] is False
        assert elapsed < 5.0

    @pytest.mark.parametrize("argv", [
        ["abelian", "tensor", "--g", "Z2^100", "--h", "Z2^100"],
        ["props", "--level", "0", "--mode", "random-sample", "--count", "1000"],
        ["pde", "heat", "--level", "0", "--nodes", "1024", "--steps", "1000"],
        ["pde", "dalembert", "--level", "2", "--nodes", "4", "--tolerance", "0"],
    ])
    def test_values_at_the_caps_are_accepted(self, argv):
        start = time.perf_counter()
        assert payload(argv).code == 0
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("point", [
        {"u": 0.5},
        # an element elsewhere makes u the float multiple 0.5 e0
        {"u": 0.5, "x": {"level": 1, "coeffs": ["0", "0"]}},
    ])
    def test_scan_past_the_float_range_is_a_value_error(self, point, tmp_path):
        # 10^400 * 0.5 has no float: the evaluation refuses it
        system = {"coordinates": {"independents": ["x"], "dependents": ["u"], "order": 1},
                  "equations": [[{"coeff": "1e400", "powers": {"u": 1}}]]}
        result = payload(with_files(["pde", "scan", "--input", system,
                                     "--points", [point]], tmp_path))
        assert result.code == 2
        assert result.payload["error"].startswith(
            "ValueError: evaluation leaves the float range")

    def test_heat_at_the_level_cap(self):
        # one full evolution and one batched run of every component alone:
        # 7.3 s when each component was evolved on its own
        start = time.perf_counter()
        result = payload(["pde", "heat", "--level", "8", "--nodes", "1024", "--steps", "1000"])
        assert time.perf_counter() - start < 4.0
        assert result.code == 0 and result.payload["componentwise_decoupling"] is True

    @pytest.mark.parametrize("points", [9, 14, 400, 2000])
    def test_oversized_poset_rejected_before_the_upsets(self, points, tmp_path):
        # 2^points up-sets, over the 256-element cap; past 16 elements the
        # file is refused before the order's n^3 closure and checks
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps({"elements": [f"p{i}" for i in range(points)],
                                    "le": []}))
        start = time.perf_counter()
        result = payload(["heyting", "build", "--input", str(path)])
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        cap = "256" if points <= 16 else "at most 16 elements"
        assert cap in result.payload["error"]

    @pytest.mark.parametrize("points", [11, 16])
    def test_oversized_topology_rejected_before_the_closure_check(
            self, points, tmp_path):
        # the discrete topology: 2^points opens, over the 256-element cap
        names = [f"p{i}" for i in range(points)]
        opens = [[p for i, p in enumerate(names) if mask >> i & 1]
                 for mask in range(1 << points)]
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps({"points": names, "opens": opens}))
        start = time.perf_counter()
        result = payload(["heyting", "build", "--input", str(path)])
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert result.payload == {"error": "InvalidLattice: size capped at 256"}

    def test_oversized_chain_rejected_before_allocation(self):
        # 3000^2-entry tables would take seconds and hundreds of MB
        start = time.perf_counter()
        result = payload(["heyting", "build", "--chain", "3000"])
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert "256" in result.payload["error"]

    @pytest.mark.parametrize("action", ["snf", "decompose"])
    @pytest.mark.parametrize("rows, cols", [(60, 60), (41, 1), (1, 41)])
    def test_oversized_matrix_rejected_before_elimination(
            self, action, rows, cols, tmp_path):
        # 60x60 with entries in [-9, 9] used to run for 16 s, then fail to
        # print transforms of more than 4300 digits
        rng = random.Random(0)
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps([[rng.randint(-9, 9) for _ in range(cols)]
                                    for _ in range(rows)]))
        start = time.perf_counter()
        result = payload(["abelian", action, "--input", str(path)])
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert result.payload == {"error": f"ValueError: matrix is {rows}x{cols}; at "
                                           "most 40 rows and 40 columns are accepted"}

    def test_unprintable_snf_entry_is_a_json_error(self, capsys):
        # 100-digit entries give transforms of about 12,000 digits, past
        # Python's default limit of 4300 for printing an int
        rng = random.Random(1)
        matrix = [[rng.randrange(10 ** 99, 10 ** 100) for _ in range(3)]
                  for _ in range(3)]
        argv = ["abelian", "snf", "--matrix", json.dumps(matrix), "--json"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
        finally:
            sys.set_int_max_str_digits(limit)
        assert elapsed < 1.0
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith("ValueError: Exceeds the limit (4300 digits)")

    def test_main_prints_json(self, capsys):
        code = main(["abelian", "ext", "--g", "Z28", "--h", "Z2", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["name"] == "Z2"

    def test_main_prints_text(self, capsys):
        code = main(["heyting", "laws", "--chain", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seven_conditions" in out

    @pytest.mark.parametrize("argv", [["--help"], ["table", "--help"],
                                      ["props", "-h", "--json"]])
    def test_main_prints_only_the_help(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("usage: hyperlab")
        # the help ends with its options listing, nothing printed after it
        assert out.rstrip().splitlines()[-1].lstrip().startswith("-")
        assert "error" not in out

    def test_reader_closing_stdout_keeps_the_exit_code(self):
        # 0.85 MB of JSON overfills the pipe, so the write after the reader
        # has gone fails; exit 1 stays reserved for a failed verification
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperlab.cli", "zerodiv", "--level", "4", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in stderr


# One row per input rule the library owns: the library call and the argv
# that reach it with the same bad input
_CHAIN3 = heyting.heyting_from_chain(3)
_RULES = [
    *[pytest.param(lambda c=count: cayley_dickson.RandomSample(count=c),
                   ["props", "--level", "2", "--mode", "random-sample", "--count", str(count)],
                   id=f"count {count}")
      for count in (0, -5, 1001)],
    *[pytest.param(lambda m=matrix: abelian.smith_normal_form(m),
                   ["abelian", "snf", "--matrix", json.dumps(matrix)], id=f"snf {name}")
      for name, matrix in [("41x41", [[1] * 41] * 41), ("ragged", [[1, 2], [3]]),
                           ("bool", [[True, 2]]), ("float", [[2.7, 0], [0, 3]])]],
    *[pytest.param(lambda g=g: heyting.filter_generate(_CHAIN3, [g]),
                   ["heyting", "quotient", "--chain", "3", "--filter", str(g)],
                   id=f"filter {g}")
      for g in (-1, _CHAIN3.n)],
    pytest.param(lambda: cayley_dickson.structure_constants(8).dense_gamma(),
                 ["table", "--level", "8", "--dense"], id="dense level 8"),
    pytest.param(lambda: algebras.verify_embeddings(
                     algebras.tensor_algebra(algebras.matrix2_algebra(), 6)),
                 ["qalg", "--base", "mat2", "--level", "6", "--op", "tensor"],
                 id="embeddings mat2 level 6"),
]


class TestLibraryRules:
    @pytest.mark.parametrize("call, argv", _RULES)
    def test_library_and_cli_refuse_alike(self, call, argv):
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            call()
        result = payload(argv)
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert result.payload == {
            "error": f"{type(refused.value).__name__}: {refused.value}"}

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_unprintable_answer_is_one_json_error(self, flags, capsys):
        # Ext has order P^4: the 3,002-digit P parses, its powers do not print
        group = f"Z{10 ** 3001 + 7}+Z{10 ** 3001 + 7}"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main(["abelian", "extension-count", "--base", group,
                         "--fiber", group, *flags])
        finally:
            sys.set_int_max_str_digits(limit)
        out = capsys.readouterr().out
        assert code == 2
        assert list(json.loads(out)) == ["error"]


# A document nested deeper than ``json`` decodes, a lattice without its join
# and the r1 point (1, 2^(-1/4), 2^(-1/4)) in (u1_x, u2_x, u1_y), which is
# Regular, with u1_x misspelled
_DEEP = "[" * 100_000 + "]" * 100_000
_LATTICE = {"meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]]}
_MISSPELLED = [{"u1x": 1, "u2_x": 2 ** -0.25, "u1_y": 2 ** -0.25}]
_MIXED = [{"u1_x": {"level": 1, "coeffs": [1, 0]}, "u2_y": 0.5}]
_HUGE = 10 ** 9

# One row per reader of a document: the reader's call on the document and the
# file that holds it, the document (raw text, or a value written as JSON), the
# argv that reaches the reader (FILE names the file) and the class of the
# refusal
_READERS = [
    pytest.param(lambda doc, path: cli._decode(doc, "--matrix"), _DEEP,
                 ["abelian", "snf", "--matrix", _DEEP], cli.InputError, id="deep --matrix"),
    pytest.param(lambda doc, path: cli._load_json(path, dict), _DEEP,
                 ["heyting", "build", "--input", "FILE"], cli.InputError, id="deep --input"),
    pytest.param(lambda doc, path: cli._load_json(path, list), _DEEP,
                 ["pde", "scan", "--points", "FILE"], cli.InputError, id="deep --points"),
    *[pytest.param(lambda doc, path, read=read: read(doc), doc,
                   ["heyting", "build", "--input", "FILE"], refusal, id=name)
      for name, read, doc, refusal in [
          ("topology without points", FiniteTopology.from_json_dict, {"opens": [[]]},
           heyting.InvalidTopology),
          ("unknown point", FiniteTopology.from_json_dict,
           {"points": ["a"], "opens": [[], ["a"], ["b"]]}, heyting.InvalidTopology),
          ("poset without elements", heyting.FinitePoset.from_json_dict, {"le": []},
           heyting.InvalidPoset),
          ("unknown element", heyting.FinitePoset.from_json_dict,
           {"elements": ["a"], "le": [["a", "b"]]}, heyting.InvalidPoset),
          ("algebra without bottom", heyting.HeytingAlgebra.from_json_dict,
           {**_LATTICE, "impl": [[1, 1], [0, 1]], "top": 1}, heyting.InvalidLattice),
      ]],
    pytest.param(lambda doc, path: cli._heyting_from_args(
                     argparse.Namespace(chain=None, input=path, direction="up")),
                 {"meet": _LATTICE["meet"]}, ["heyting", "build", "--input", "FILE"],
                 heyting.InvalidLattice, id="lattice without join"),
    pytest.param(lambda doc, path: jets.scan_points(jets.builtin_systems()["r1"], doc),
                 _MISSPELLED, ["pde", "scan", "--system", "r1", "--points", "FILE"],
                 ValueError, id="misspelled scan name"),
    pytest.param(lambda doc, path: jets.load_point(doc[0]),
                 [{"u1_x": {"level": 1.5, "coeffs": [1, 0]}}],
                 ["pde", "scan", "--points", "FILE"], cayley_dickson.LevelTooLarge,
                 id="element level 1.5"),
    pytest.param(lambda doc, path: jets.PDESystem.from_json_dict(doc),
                 {"coordinates": COORDS, "equations": [], "algebra": {"level": 99}},
                 ["pde", "jacobian", "--input", "FILE"], cayley_dickson.LevelTooLarge,
                 id="system level 99"),
    *[pytest.param(lambda doc, path, call=call: call(), None, [*command, "--level", str(_HUGE)],
                   cayley_dickson.LevelTooLarge, id=f"{' '.join(command)} level 10^9")
      for command, call in [
          (["table"], lambda: cayley_dickson.structure_constants(_HUGE)),
          (["props"], lambda: cayley_dickson.identity_battery(
              _HUGE, cayley_dickson.ExhaustiveBasis())),
          (["zerodiv"], lambda: cayley_dickson.find_zero_divisors(_HUGE)),
          (["qalg"], lambda: algebras.tensor_algebra(BASE_ALGEBRAS["real"](), _HUGE)),
          (["pde", "heat"], lambda: grid.heat_decoupling_check(_HUGE, 64, 100, None, 0)),
          (["pde", "dalembert"], lambda: grid.cos_sin_dalembert_check(_HUGE, 64, 1, 2)),
      ]],
]


# Readers the CLI does not reach: (reader, document, class of the refusal)
_LIBRARY_READERS = [
    *[pytest.param(FGAbelianGroup.from_json_dict, doc, ValueError, id=f"group {doc}")
      for doc in [{}, {"rank": 0}, {"rank": 0, "torsion": 5}, {"rank": -1, "torsion": []},
                  {"rank": 1.5, "torsion": []}, {"rank": True, "torsion": []},
                  {"rank": 0, "torsion": ["6"]}]],
    *[pytest.param(algebras.StructureAlgebra.from_json_dict, doc, algebras.InvalidAlgebra,
                   id=f"algebra {doc}")
      for doc in [{}, {"gamma": 3, "unit": [1]}, {"gamma": [[1]], "unit": [1]},
                  {"gamma": [[[1]]]}, {"gamma": [[[1]]], "unit": 1},
                  {"gamma": [[[1, 0]]], "unit": [1]}]],
]


class TestReaders:
    """Each reader refuses a bad document with its own ValueError, and
    ``cli.run`` answers that refusal, an InputError or an OSError with exit 2
    and nothing else."""

    @pytest.mark.parametrize("read, document, refusal", _LIBRARY_READERS)
    def test_library_reader_refuses(self, read, document, refusal):
        with pytest.raises(refusal) as refused:
            read(document)
        assert type(refused.value) is refusal

    def test_group_reader_normalizes_torsion(self):
        read = FGAbelianGroup.from_json_dict
        assert read({"rank": 1, "torsion": [0, -4, 6, 1]}) == FGAbelianGroup(2, (2, 12))
        # a rank past any list of divisors the reader could build
        assert read({"rank": 10 ** 12, "torsion": []}).rank == 10 ** 12

    @pytest.mark.parametrize("read, document, argv, refusal", _READERS)
    def test_reader_and_cli_refuse_alike(self, read, document, argv, refusal, tmp_path):
        path = tmp_path / "document.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
        start = time.perf_counter()
        with pytest.raises(refusal) as refused:
            read(document, str(path))
        result = payload(argv)
        assert time.perf_counter() - start < 1.0
        assert type(refused.value) is refusal
        assert result.code == 2
        prefix = "" if refusal is cli.InputError else f"{refusal.__name__}: "
        assert result.payload == {"error": f"{prefix}{refused.value}"}

    def test_level_messages_name_the_dimension(self):
        for level in (9, 10, 12, 20):
            with pytest.raises(cayley_dickson.LevelTooLarge) as refused:
                cayley_dickson.check_level(level)
            assert str(refused.value) == f"level {level} exceeds cap 8 (dim {2 ** level})"
        for level in (2.0, True, "2", None, -1):
            with pytest.raises(cayley_dickson.LevelTooLarge, match="an integer in 0..8"):
                cayley_dickson.check_level(level)

    @staticmethod
    def _outcome(system, raw):
        """classify_point's answer at the point, or its residuals off the
        variety."""
        try:
            return jets.classify_point(system, jets.load_point(raw))
        except jets.OffVariety as exc:
            return exc.residuals

    @pytest.mark.parametrize("name, mixed, key", [
        ("r1", _MIXED[0], "u2_y"),  # off the variety
        ("dalembert", {"u": {"level": 1, "coeffs": [1, 2]}, "u_x": 0.5}, "u_x"),  # Regular
    ])
    def test_mixed_point_classifies_like_its_element_form(self, name, mixed, key):
        system = jets.builtin_systems()[name]
        element = {**mixed, key: {"level": 1, "coeffs": [mixed[key], 0]}}
        assert self._outcome(system, mixed) == self._outcome(system, element)
        assert self._outcome(system, mixed) not in ({}, None)

    def test_mixed_point_answers_its_scan(self, tmp_path):
        result = payload(with_files(["pde", "scan", "--system", "r1", "--points", _MIXED],
                                    tmp_path))
        assert result.code in (0, 1)
        assert [entry["point"] for entry in result.payload["scan"]] == _MIXED

    def test_a_library_key_error_is_a_fault(self, monkeypatch):
        def fault(matrix):
            raise KeyError("fault")

        monkeypatch.setattr(abelian, "smith_normal_form", fault)
        with pytest.raises(KeyError):
            run(["abelian", "snf", "--matrix", "[[2]]"])


# Values as JSON text, each with the exact value it names, or None where the
# number rule refuses it
_NUMBERS = [
    ('"3"', 3), ('"-1/2"', Fraction(-1, 2)), ('"2.0"', 2), ('"0.25"', Fraction(1, 4)),
    ("3", 3), ("0.5", Fraction(1, 2)), (str(10 ** 400), 10 ** 400),
    ("true", None), ("null", None), ('"inf"', None), ('"nan"', None), ('"abc"', None),
    ("1e999", None), ("NaN", None), ('"1e999999999"', None),
]


def _number_site(site: str, text: str, tmp_path: Path):
    """The argv that reads the JSON text ``text`` at ``site``, and a function
    that finds the value it read in the payload: a residual of the system
    u = 0, or the classic limit of a real number.  At the "scan" site the
    text is a point value, numeric text or a JSON number."""
    def file(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    if site == "classic-limit":
        return (["qalg", "--op", "classic-limit", "--input",
                 file("element.json", '{"coeffs": [%s]}' % text)],
                lambda result: result["classic_limit"])
    coords = json.dumps({"independents": [], "dependents": ["u"], "order": 0})
    coeff, points = '"1"', '[{"u": %s}]' % text
    if site == "system":
        coeff, points = text, '[{"u": "0"}]'
    elif site == "element":
        points = '[{"u": {"level": 0, "coeffs": [%s]}}]' % text
    power = "{}" if site == "system" else '{"u": 1}'
    system = '{"coordinates": %s, "equations": [[{"coeff": %s, "powers": %s}]]}' % (
        coords, coeff, power)
    return (["pde", "scan", "--input", file("system.json", system),
             "--points", file("points.json", points)],
            lambda result: result["scan"][0]["residuals"]["equation_0"])


class TestNumberRule:
    """Every input number is read by ``exact.parse_number``: the same value
    means the same number, or the same refusal, at every site."""

    @pytest.mark.parametrize("site", ["scan", "element", "system", "classic-limit"])
    @pytest.mark.parametrize("text, value", _NUMBERS, ids=[t[:12] for t, _ in _NUMBERS])
    def test_every_site_reads_a_value_alike(self, site, text, value, tmp_path):
        argv, read = _number_site(site, text, tmp_path)
        result = payload(argv)
        # a JSON number as a scan value is read as a float, so past the
        # float range it is refused too
        as_float = site == "scan" and not text.startswith('"')
        if value is None or as_float and value == 10 ** 400:
            assert result.code == 2
            assert "error" in result.payload
            return
        assert result.code in (0, 1)
        if as_float:
            expected = str(float(value))
        elif site == "element":
            expected = str(CDElement(0, [value]))
        else:
            expected = str(value)
        assert read(result.payload) == expected


def _write_inputs(directory: Path) -> dict:
    """Input files the CLI reads, by the token that stands for them in an
    argv; "@missing" names a file that does not exist."""
    meet, join = pentagon_lattice()
    files = {
        "@n5": {"meet": meet, "join": join},
        "@topology": {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]},
        "@poset": {"elements": ["a", "b", "c"], "le": [["a", "b"], ["a", "c"]]},
        "@points": [{"u1_x": 0.0, "u1_y": 0.0, "u2_x": 0.0, "u2_y": 0.0},
                    {"u1_x": 1.0, "u2_y": 1.0}],
        "@element": {"level": 1, "coeffs": ["1", "2"]},
        "@matrix": [[2, 0], [0, 3]],
        "@badshape": {"elements": ["a"], "le": 5},
        "@nopoints": {"opens": [[]]},
        "@noelements": {"le": []},
        "@nojoin": {"meet": _LATTICE["meet"]},
        "@nobottom": {**_LATTICE, "impl": [[1, 1], [0, 1]], "top": 1},
        "@unknownpoint": {"points": ["a"], "opens": [[], ["a"], ["b"]]},
        "@unknownelement": {"elements": ["a"], "le": [["a", "b"]]},
        "@misspelled": _MISSPELLED,
        "@mixed": _MIXED,
    }
    paths = {"@missing": str(directory / "missing.json"),
             "@notjson": str(directory / "notjson.json"),
             "@deep": str(directory / "deep.json")}
    (directory / "notjson.json").write_text("{")
    (directory / "deep.json").write_text(_DEEP)
    for token, data in files.items():
        path = directory / f"{token[1:]}.json"
        path.write_text(json.dumps(data))
        paths[token] = str(path)
    return paths


def _resolve(argv, paths):
    return [paths.get(arg, arg) for arg in argv]


def _captured(argv):
    """``run(argv)`` and what it printed: (result, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run(argv)
    return result, out.getvalue(), err.getvalue()


def _answers(argv) -> tuple:
    """(exit code, JSON text, stdout, stderr) of ``run(argv)``."""
    result, out, err = _captured(argv)
    return result.code, result.to_json(), out, err


def _tree_answers(argv) -> tuple:
    """``_answers(argv)`` with a fresh ``build_parser()`` reading argv, where
    ``run`` reads it with a leaf parser when argv names one."""
    with mock.patch.object(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv)):
        return _answers(argv)


def _leaf_of(argv):
    """The (command, action) of the leaf parser that reads ``argv``, or None
    where the tree reads it."""
    actions = cli._COMMANDS[argv[0]][1] if argv and argv[0] in cli._COMMANDS else ()
    if actions is None:
        return argv[0], None
    return (argv[0], argv[1]) if argv[1:2] and argv[1] in actions else None


class TestRepeatedRuns:
    # one success per subcommand, an exit-1 witness, an unknown command,
    # --help, a usage error inside a subcommand, an InputError and a
    # ValueError
    MIXED = [
        ["table", "--level", "3", "--compare"],
        ["props", "--level", "2", "--mode", "random-sample", "--count", "5"],
        ["zerodiv", "--level", "3", "--json"],
        ["qalg", "--base", "complex", "--level", "1", "--op", "centre"],
        ["heyting", "laws", "--input", "@poset"],
        ["abelian", "ext", "--g", "Z28", "--h", "Z2"],
        ["pde", "minors", "--system", "r1", "--size", "2"],
        ["pde", "heat", "--nodes", "8", "--steps", "3", "--level", "2"],
        ["heyting", "build", "--input", "@n5"],
        ["no-such-command"],
        ["--help"],
        ["pde", "heat", "--nodes", "x"],
        ["abelian", "hom", "--g", "Z4"],
        ["heyting", "quotient", "--chain", "3", "--filter", "x"],
    ]

    @staticmethod
    def _count_builds(monkeypatch):
        """Record each build of the tree and of a leaf parser from now on:
        (tree builds, (command, action) of each leaf built)."""
        built, leaves = [], []
        build, leaf = cli.build_parser, cli._leaf.__wrapped__

        def counted():
            built.append(1)
            return build()

        def counted_leaf(command, action):
            leaves.append((command, action))
            return leaf(command, action)

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_leaf", functools.cache(counted_leaf))
        cli._parser.cache_clear()
        return built, leaves

    def test_one_parser_answers_every_order_alike(
            self, monkeypatch, capsys, tmp_path):
        paths = _write_inputs(tmp_path)
        built, leaves = self._count_builds(monkeypatch)
        answers = {}
        for order in (self.MIXED, self.MIXED[::-1], self.MIXED[1::2] + self.MIXED[::2]):
            for argv in order:
                result = run(_resolve(argv, paths))
                out = capsys.readouterr()
                answers.setdefault(tuple(argv), []).append(
                    (result.code, result.to_json(), out.out, out.err))
        # the tree for no-such-command and --help only; one parser per leaf
        assert len(built) == 1
        assert sorted(leaves) == sorted({_leaf_of(argv) for argv in self.MIXED} - {None})
        for argv, seen in answers.items():
            assert len(seen) == 3 and seen.count(seen[0]) == 3, argv
        codes = {argv: seen[0][0] for argv, seen in answers.items()}
        assert sorted(codes.values()) == [0] * 9 + [1] + [2] * 4
        assert codes[("heyting", "build", "--input", "@n5")] == 1
        assert answers[("pde", "heat", "--nodes", "x")][0][3].startswith(
            "usage: hyperlab pde")
        assert answers[("--help",)][0][2].startswith("usage: hyperlab")
        assert answers[("--help",)][0][1] == "{}"

    @staticmethod
    def _stock_argvs(tmp_path):
        """jacobian of every stock system, minors and scan at size 1 and at
        its number of equations, and every qalg op over every base algebra."""
        argvs = []
        for name, system in jets.builtin_systems().items():
            variables = system.coords.variables
            # on the variety, off it (mostly), and an algebra-valued point
            points = tmp_path / f"{name}.json"
            points.write_text(json.dumps([
                {}, {variables[-1]: "1"},
                {system.coords.dependents[0]: {"level": 2, "coeffs": [1, 0, 0, 1]}}]))
            for size in sorted({1, len(system.equations)}):
                argvs += [["pde", "minors", "--system", name, "--size", str(size)],
                          ["pde", "scan", "--system", name, "--minor-size", str(size),
                           "--points", str(points)]]
            argvs.append(["pde", "jacobian", "--system", name])
        for base in BASE_ALGEBRAS:
            argvs += [["qalg", "--base", base, "--level", "1", "--op", op]
                      for op in ("tensor", "centre", "nucleus", "classic-limit")]
        return argvs

    def test_stock_systems_and_base_algebras_answer_every_order_alike(self, tmp_path):
        argvs = self._stock_argvs(tmp_path)
        first = {}
        for argv in argvs:
            cli._stock_system.cache_clear()
            cli._base_algebra.cache_clear()
            result = run(argv)
            first[tuple(argv)] = (result.code, result.to_json())
        assert {code for code, _ in first.values()} == {0, 1}
        cli._stock_system.cache_clear()
        cli._base_algebra.cache_clear()
        for order in (argvs, argvs[::-1]):
            for argv in order:
                result = run(argv)
                assert (result.code, result.to_json()) == first[tuple(argv)], argv
        assert cli._stock_system.cache_info().currsize == len(jets.BUILTIN_SYSTEMS)
        assert cli._base_algebra.cache_info().currsize == len(BASE_ALGEBRAS)
        assert cli._stock_system("r1") is cli._stock_system("r1")
        assert cli._base_algebra("mat2") is cli._base_algebra("mat2")

    def test_requests_that_name_a_leaf_build_no_tree(self, monkeypatch, input_files):
        built, leaves = self._count_builds(monkeypatch)
        argvs = [*VALID.values(), *(argv for argv in self.MIXED if _leaf_of(argv))]
        for argv in argvs + argvs[::-1]:
            assert run(_resolve(argv, input_files)).code in (0, 1, 2)
        assert built == []
        assert sorted(leaves) == sorted(VALID)

    # edges of the leaf route: help after the action, "--", "--flag=value",
    # an abbreviated flag, a flag before the action, empty argv, a command
    # without its action and an unknown action
    EDGES = [
        ["pde", "dalembert", "-h"], ["table", "--help"], ["abelian", "hom", "-h", "--g"],
        ["table", "--", "--level", "2"], ["pde", "heat", "--nodes", "2", "--"],
        ["zerodiv", "--level=2"], ["zerodiv", "--lev", "2"], ["pde", "heat", "--st", "2"],
        ["abelian", "hom", "--g", "Z4", "--h"], ["abelian", "sphere", "--n=2", "--p", "x"],
        ["heyting", "--chain", "3", "build"], ["pde", "--level", "2", "heat"], [],
        ["pde"], ["pde", "-h"], ["pde", "frobnicate"], ["--help", "table"], ["table"],
        ["qalg", "extra"], ["pde", "heat", "--level", "2", "--nodes", "2", "--json"],
    ]

    def test_cached_parser_parses_like_a_fresh_one(self, input_files):
        # the cached leaf parsers answer as a fresh tree does: exit code,
        # JSON text, stdout and stderr
        for argv in [*VALID.values(), *self.MIXED, *self.EDGES]:
            argv = _resolve(argv, input_files)
            assert _answers(argv) == _tree_answers(argv), argv

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()



def _dumps(value) -> str:
    """The oracle of ``cli._to_json``."""
    return json.dumps(value, indent=2, sort_keys=True)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300,
                     "", "\x00\x1f\x7f\n", "\u00e9\u2028\U0001f600", '"\\/']))


def _dicts(children):
    # one kind of key per dict, so that the keys sort: text, numbers with
    # bools among them, or None
    numbers = st.one_of(st.integers(), st.floats(), st.booleans())
    return st.one_of(st.dictionaries(st.text(max_size=4), children, max_size=4),
                     st.dictionaries(numbers, children, max_size=4),
                     st.dictionaries(st.none(), children, max_size=1))


def _shared(children):
    # one dict held at two depths, and twice at the first
    return st.tuples(_dicts(children), children).map(
        lambda drawn: [drawn[0], {"deeper": [drawn[0], drawn[1]]}, drawn[0]])


class _Int(int):
    """An int subclass; json writes it with ``int.__repr__``."""

    def __repr__(self):
        return "not JSON"


# lists of one kind of scalar, which the encoder writes as one join when the
# kind is exactly int or exactly str; bools among ints, and int subclasses,
# must not take that path
_UNIFORM = st.one_of(
    st.lists(st.integers(), min_size=1, max_size=6),
    st.lists(st.integers(), min_size=1, max_size=6).map(tuple),
    st.lists(st.text(max_size=4), min_size=1, max_size=6),
    st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=6),
    st.lists(st.integers().map(_Int), min_size=1, max_size=4),
    st.lists(st.one_of(st.integers(), st.text(max_size=2)), min_size=1, max_size=4))


_JSON = st.recursive(st.one_of(_SCALARS, _UNIFORM), lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    _dicts(children), _shared(children)), max_leaves=30)


class TestEncoder:
    """``cli._to_json`` writes the bytes of ``json.dumps(value, indent=2,
    sort_keys=True)`` and raises its errors."""

    @settings(max_examples=300, deadline=None)
    @given(value=_JSON)
    @example(value=[[], {}, [[]], {"a": {}}, ((),), {"": [{}, ()]}])
    @example(value={1: True, True: 2, 2.5: [False, 0, 1]})
    @example(value=[[1, True], [True, 1], [_Int(3), 4], ("a", "\u2028"), [10 ** 300, -1]])
    def test_equals_json_dumps(self, value):
        assert cli._to_json(value) == _dumps(value)

    @pytest.mark.parametrize("value", [
        {"a": object()}, [1, {2, 3}], Fraction(1, 2), {1: "a", "b": 2},
        {None: 0, "a": 1}, {(1, 2): 3}, [10 ** 4999], [1, 2, 10 ** 4999],
        [True, 10 ** 4999], {10 ** 4999: 0},
    ], ids=["object", "set", "Fraction", "int and str keys", "None and str keys",
            "tuple key", "5,000-digit int", "5,000-digit int among ints",
            "5,000-digit int after a bool", "5,000-digit key"])
    def test_refuses_like_json_dumps(self, value):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises((TypeError, ValueError)) as expected:
                _dumps(value)
            with pytest.raises((TypeError, ValueError)) as got:
                cli._to_json(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_every_mixed_run_equals_json_dumps(self, input_files, capsys):
        for argv in TestRepeatedRuns.MIXED:
            result = run(_resolve(argv, input_files))
            assert result.to_json() == _dumps(result.payload), argv

    @pytest.mark.parametrize("level", range(6))
    def test_zerodiv_equals_json_dumps(self, level):
        result = run(["zerodiv", "--level", str(level)])
        assert result.to_json() == _dumps(result.payload)


# One valid argv per action (per command where there are no actions), chosen
# so that the handler reaches every flag the action declares; "@" tokens
# stand for the input files of _write_inputs.
VALID = {
    ("table", None): ["table", "--level", "3", "--compare", "--dense"],
    ("props", None): ["props", "--level", "2", "--mode", "random-sample",
                      "--count", "5", "--seed", "1"],
    ("zerodiv", None): ["zerodiv", "--level", "2"],
    ("qalg", None): ["qalg", "--base", "real", "--level", "1", "--op", "classic-limit",
                     "--input", "@element"],
    ("heyting", "build"): ["heyting", "build", "--input", "@poset", "--direction", "down"],
    ("heyting", "laws"): ["heyting", "laws", "--input", "@poset"],
    ("heyting", "quotient"): ["heyting", "quotient", "--input", "@poset", "--filter", "1"],
    ("abelian", "snf"): ["abelian", "snf", "--matrix", "[[2,0],[0,3]]"],
    ("abelian", "decompose"): ["abelian", "decompose", "--matrix", "[[2,0],[0,3]]"],
    ("abelian", "hom"): ["abelian", "hom", "--g", "Z4", "--h", "Z2"],
    ("abelian", "ext"): ["abelian", "ext", "--g", "Z4", "--h", "Z2"],
    ("abelian", "tensor"): ["abelian", "tensor", "--g", "Z4", "--h", "Z2"],
    ("abelian", "homology"): ["abelian", "homology", "--order", "4", "--degree", "1"],
    ("abelian", "sphere"): ["abelian", "sphere", "--n", "3", "--p", "3"],
    ("abelian", "extension-count"): ["abelian", "extension-count", "--base", "Z4",
                                     "--fiber", "Z2"],
    ("pde", "jacobian"): ["pde", "jacobian", "--system", "s1"],
    ("pde", "minors"): ["pde", "minors", "--system", "r1", "--size", "1"],
    ("pde", "scan"): ["pde", "scan", "--system", "r1", "--points", "@points",
                      "--minor-size", "2", "--tolerance", "1e-9"],
    ("pde", "heat"): ["pde", "heat", "--nodes", "8", "--steps", "2", "--dt", "0.001",
                      "--level", "1", "--seed", "1", "--tolerance", "0"],
    ("pde", "dalembert"): ["pde", "dalembert", "--nodes", "4", "--level", "2",
                           "--f-axis", "1", "--g-axis", "2", "--tolerance", "1e-9"],
}


def _subparsers(parser) -> dict:
    """The parsers of ``parser``'s subcommands or actions, by name."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _action_parsers() -> dict:
    """(command, action or None) -> the parser that reads its flags."""
    out = {}
    for command, parser in _subparsers(cli.build_parser()).items():
        actions = _subparsers(parser)
        out.update({(command, a): p for a, p in actions.items()} if actions
                   else {(command, None): parser})
    return out


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            self.__dict__.setdefault("_reads", set()).add(name)
        return super().__getattribute__(name)


# Flags an action declares that its handler never reads: ``pde heat`` only
# checks --tolerance, through the flag's argparse type (a bad value is a row
# of test_caps_and_signs_checked_before_any_work), because the benchmark
# sends one with every heat request.
CHECKED_ONLY = {("pde", "heat"): {"tolerance"}}


class TestGrammar:
    def test_every_action_has_a_valid_argv(self):
        assert set(VALID) == set(_action_parsers())

    @pytest.mark.parametrize("key", sorted(VALID, key=str), ids=str)
    def test_handler_reads_every_flag_its_action_declares(self, key, input_files):
        # --json is read by main from the argv, not by the handler
        declared = {a.dest for a in _action_parsers()[key]._actions} - {"help", "json"}
        declared -= CHECKED_ONLY.get(key, set())
        args = cli._parser().parse_args(_resolve(VALID[key], input_files),
                                        namespace=_ReadRecorder())
        handler = cli._HANDLERS[vars(args)["command"]]
        vars(args)["_reads"] = set()
        assert handler(args).code in (0, 1)
        assert declared - vars(args)["_reads"] == set()


# The grammar of the fuzz test, with cheap values: per command, each action
# (None for a command without actions) and, per flag it reads, a strategy for
# the flag's value (None for a switch).  Unknown actions, flags of a sibling
# action, bad values and input files of every kind are part of it.
def _ints(low, high):
    return st.integers(low, high).map(str)


_LEVEL = _ints(-1, 3)
_FILES = st.sampled_from(["@n5", "@topology", "@poset", "@points", "@element",
                          "@matrix", "@badshape", "@missing", "@notjson", "@deep",
                          "@nopoints", "@noelements", "@nojoin", "@nobottom",
                          "@unknownpoint", "@unknownelement", "@misspelled", "@mixed"])
_GROUPS = st.sampled_from(["Z28", "Z2", "Z^2+Z4", "Z", "0", "Z2^3", "Z2^-1",
                           "Zx", "Z0", "+", ""])
_FLOATS = st.sampled_from(["1e-9", "0.001", "0", "-1", "nan", "inf", "x"])
_HEYTING = {"--chain": _ints(-1, 6), "--input": _FILES,
            "--direction": st.sampled_from(["up", "down"])}
_MATRIX = {"--matrix": st.sampled_from(["[[2,0],[0,3]]", "[[4]]", "[]", "[[]]",
                                        "[[1],[2,3]]", "[[1.5]]", "{", "5", _DEEP]),
           "--input": _FILES}
_GROUP_PAIR = {"--g": _GROUPS, "--h": _GROUPS}
_SYSTEM = {"--system": st.sampled_from(sorted(jets.builtin_systems()) + ["nonesuch"]),
           "--input": _FILES}
_GRID = {"--nodes": _ints(-1, 8), "--level": _LEVEL, "--tolerance": _FLOATS}
_GRAMMAR = {
    "table": {None: {"--level": _LEVEL, "--compare": None, "--dense": None}},
    "props": {None: {"--level": _LEVEL,
                     "--mode": st.sampled_from(["exhaustive-basis", "random-sample"]),
                     "--count": _ints(-1, 20), "--seed": _ints(0, 9)}},
    "zerodiv": {None: {"--level": _LEVEL}},
    "qalg": {None: {"--base": st.sampled_from(sorted(BASE_ALGEBRAS) + ["quux"]),
                    "--level": _ints(-1, 2),
                    "--op": st.sampled_from(["tensor", "centre", "nucleus",
                                             "classic-limit"]),
                    "--input": _FILES}},
    "heyting": {"build": _HEYTING, "laws": _HEYTING, "quotient": {
        **_HEYTING, "--filter": st.sampled_from(["0", "1", "0,2", "9", "-1", "x", ""])}},
    "abelian": {"snf": _MATRIX, "decompose": _MATRIX, "hom": _GROUP_PAIR,
                "ext": _GROUP_PAIR, "tensor": _GROUP_PAIR,
                "homology": {"--order": _ints(-2, 30), "--degree": _ints(-1, 4)},
                "sphere": {"--n": _ints(-1, 5), "--p": _ints(-1, 5)},
                "extension-count": {"--base": _GROUPS, "--fiber": _GROUPS}},
    "pde": {"jacobian": _SYSTEM, "minors": {**_SYSTEM, "--size": _ints(-1, 3)},
            "scan": {**_SYSTEM, "--points": _FILES, "--minor-size": _ints(-1, 3),
                     "--tolerance": _FLOATS},
            "heat": {**_GRID, "--steps": _ints(-1, 20), "--dt": _FLOATS,
                     "--seed": _ints(0, 9)},
            "dalembert": {**_GRID, "--f-axis": _ints(-1, 9), "--g-axis": _ints(-1, 9)}},
}
_JUNK = st.sampled_from(["--json", "--level", "-1", "x", "--", "--nodes=3",
                         "[[1]]", "", "-h", "table", "--no-such-flag"])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR) + ["bogus"]))
    actions = _GRAMMAR.get(command, {None: {}})
    action = draw(st.sampled_from(list(actions) + ([] if None in actions else ["bogus"])))
    argv = [command] + ([] if action is None else [action])
    values = {flag: value for options in actions.values() for flag, value in options.items()}
    # each flag the action reads, most of the time, and mostly one flag of an
    # exclusive pair, so that the handlers run
    own = actions.get(action, {})
    flags = [flag for flag in draw(st.permutations(sorted(own))) if draw(st.integers(0, 7))]
    pair = [flag for flag in flags if flag in ("--input", "--chain", "--matrix", "--system")]
    if len(pair) == 2 and draw(st.integers(0, 3)):
        flags.remove(pair[0])
    siblings = sorted(set(values) - set(own))
    if siblings and not draw(st.integers(0, 3)):
        flags.append(draw(st.sampled_from(siblings)))
    for flag in flags:
        argv.append(flag)
        if values[flag] is not None:
            argv.append(draw(values[flag]))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _names_its_failure(payload: dict) -> bool:
    """Whether an exit-1 payload carries the witness or verdict that
    failed."""
    return bool(
        payload.get("accepted") is False and payload.get("witness")
        or payload.get("mismatches")
        or payload.get("laws", {}).get("witness")
        or not all(payload.get("embeddings", {}).values())
        or any(p["satisfied"] is False for p in payload.get("scan", []))
        or payload.get("componentwise_decoupling") is False)


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("inputs"))


# each action that reads a file, with the document nested too deep and the
# scan point that mixes an element and a number
_FILE_READERS = [["heyting", "build", "--input"], ["abelian", "snf", "--input"],
                 ["pde", "scan", "--points"], ["pde", "jacobian", "--input"],
                 ["qalg", "--op", "classic-limit", "--input"]]


def _with_every_reader(test):
    for reader in _FILE_READERS:
        for token in ("@deep", "@mixed"):
            test = example(argv=[*reader, token])(test)
    return test


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_argvs())
    @_with_every_reader
    def test_run_answers_every_argv(self, argv, input_files):
        argv = _resolve(argv, input_files)
        start = time.perf_counter()
        result, out, err = _captured(argv)
        elapsed = time.perf_counter() - start
        assert result.code in (0, 1, 2)
        json.loads(result.to_json())
        if result.code == 1:
            assert _names_its_failure(result.payload), result.payload
        if result.code == 2:
            assert "error" in result.payload
        assert elapsed < 5.0
        # a leaf parser answers as the tree does
        assert (result.code, result.to_json(), out, err) == _tree_answers(argv)
