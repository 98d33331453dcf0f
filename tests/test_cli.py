import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import cli, jets
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

    def test_classic_limit_of_unit(self):
        result = payload(["qalg", "--base", "mat2", "--level", "1",
                          "--op", "classic-limit"])
        assert result.payload["classic_limit"] == "1"

    def test_unknown_base(self):
        result = payload(["qalg", "--base", "nonesuch", "--op", "centre"])
        assert result.code == 2

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

    def test_heat_and_dalembert_build_no_systems(self, monkeypatch):
        def refuse():
            raise RuntimeError("builtin systems built")

        monkeypatch.setattr(jets, "builtin_systems", refuse)
        assert run(["pde", "heat", "--nodes", "8", "--steps", "2",
                    "--level", "1"]).code == 0
        assert run(["pde", "dalembert", "--nodes", "4", "--level", "1"]).code == 0
        with pytest.raises(RuntimeError, match="builtin systems built"):
            run(["pde", "jacobian", "--system", "r1"])

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
        # JSON booleans are no numbers: true used to count as 1
        ["pde", "scan", "--system", "r1", "--points", [{"u1_x": True}]],
        ["pde", "scan", "--system", "r1", "--points",
         [{"u1_x": {"level": 1, "coeffs": ["0", True]}}]],
        ["qalg", "--op", "classic-limit", "--input", {"coeffs": [True]}],
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
        assert capsys.readouterr().err.startswith("usage: hyperlab")

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

    @pytest.mark.parametrize("points", [9, 14])
    def test_oversized_poset_rejected_before_the_upsets(self, points, tmp_path):
        # 2^points up-sets, over the 256-element cap
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps({"elements": [f"p{i}" for i in range(points)],
                                    "le": []}))
        start = time.perf_counter()
        result = payload(["heyting", "build", "--input", str(path)])
        assert time.perf_counter() - start < 1.0
        assert result.code == 2
        assert "256" in result.payload["error"]

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
        assert result.payload == {"error": f"matrix is {rows}x{cols}; at most 40 "
                                           "rows and 40 columns are accepted"}

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
        assert json.loads(capsys.readouterr().out) == {
            "error": "SNF entries exceed 4300 decimal digits"}

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
    }
    paths = {"@missing": str(directory / "missing.json"),
             "@notjson": str(directory / "notjson.json")}
    (directory / "notjson.json").write_text("{")
    for token, data in files.items():
        path = directory / f"{token[1:]}.json"
        path.write_text(json.dumps(data))
        paths[token] = str(path)
    return paths


def _resolve(argv, paths):
    return [paths.get(arg, arg) for arg in argv]


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

    def test_one_parser_answers_every_order_alike(
            self, monkeypatch, capsys, tmp_path):
        paths = _write_inputs(tmp_path)
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        answers = {}
        for order in (self.MIXED, self.MIXED[::-1], self.MIXED[1::2] + self.MIXED[::2]):
            for argv in order:
                result = run(_resolve(argv, paths))
                out = capsys.readouterr()
                answers.setdefault(tuple(argv), []).append(
                    (result.code, result.to_json(), out.out, out.err))
        assert len(built) == 1
        for argv, seen in answers.items():
            assert len(seen) == 3 and seen.count(seen[0]) == 3, argv
        codes = {argv: seen[0][0] for argv, seen in answers.items()}
        assert sorted(codes.values()) == [0] * 9 + [1] + [2] * 4
        assert codes[("heyting", "build", "--input", "@n5")] == 1
        assert answers[("pde", "heat", "--nodes", "x")][0][3].startswith(
            "usage: hyperlab pde")
        assert answers[("--help",)][0][2].startswith("usage: hyperlab")
        assert answers[("--help",)][0][1] == "{}"

    def test_cached_parser_parses_like_a_fresh_one(self):
        for argv in self.MIXED[:8]:
            assert vars(cli._parser().parse_args(argv)) == \
                vars(cli.build_parser().parse_args(argv))

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


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
                          "@matrix", "@badshape", "@missing", "@notjson"])
_GROUPS = st.sampled_from(["Z28", "Z2", "Z^2+Z4", "Z", "0", "Z2^3", "Z2^-1",
                           "Zx", "Z0", "+", ""])
_FLOATS = st.sampled_from(["1e-9", "0.001", "0", "-1", "nan", "inf", "x"])
_HEYTING = {"--chain": _ints(-1, 6), "--input": _FILES,
            "--direction": st.sampled_from(["up", "down"])}
_MATRIX = {"--matrix": st.sampled_from(["[[2,0],[0,3]]", "[[4]]", "[]", "[[]]",
                                        "[[1],[2,3]]", "[[1.5]]", "{", "5"]),
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


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_argvs())
    def test_run_answers_every_argv(self, argv, input_files):
        start = time.perf_counter()
        result = run(_resolve(argv, input_files))
        elapsed = time.perf_counter() - start
        assert result.code in (0, 1, 2)
        json.loads(result.to_json())
        if result.code == 1:
            assert _names_its_failure(result.payload), result.payload
        if result.code == 2:
            assert "error" in result.payload
        assert elapsed < 5.0
