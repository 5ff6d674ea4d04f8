import argparse
import json
import os
import subprocess
import sys

import pytest

import trinomial_orbits
from trinomial_orbits import strata
from trinomial_orbits.cli import build_parser, run_cli

SHAPE_A_JSON = '{"groups": [[1,2],[3],[3]], "aliases": {"T0_1":"x","T0_2":"y","T1_1":"z","T2_1":"s"}}'


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestClassify:
    def test_shape_a_report(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(SHAPE_A_JSON)
        code, data = run_json(capsys, "classify", "--shape", str(path))
        assert code == 0
        assert data["rigidity"]["tag"] == "nonrigid_other"
        assert data["family"]["kind"] == "F1"
        assert data["ml"] == {"status": "proven", "generators": ["T0_2"]}
        assert data["torus_rank"] == 2
        assert any("torus rank" in note for note in data["notes"])

    def test_report_includes_catalog(self, capsys):
        code, data = run_json(capsys, "report", "--shape", "[[1,2],[3],[3]]")
        assert code == 0
        assert set(data["catalog"]) == {"gamma:1,1", "gamma:2,1", "D:1", "E:1"}
        assert data["singular_components"] == [["T0_2", "T1_1", "T2_1"]]

    def test_f2_banner(self, capsys):
        code, data = run_json(capsys, "classify", "--shape", "[[1,1,2],[3],[3]]")
        assert code == 0
        assert any("conjecture" in note.lower() for note in data["notes"])

    def test_invalid_shape_exit_1(self, capsys):
        code, data = run_json(capsys, "classify", "--shape", "[[1,2],[0],[3]]")
        assert code == 1 and data["error"] == "usage"

    def test_degenerate_exit_2(self, capsys):
        code, data = run_json(capsys, "classify", "--shape", "[[1],[3],[3]]")
        assert code == 2 and data["error"] == "degenerate_shape"

    @pytest.mark.parametrize("sub", ["all", "partition"])
    def test_degenerate_census_exit_2(self, capsys, sub):
        # X is an affine space: refused before any census work, not
        # counted as classification errors
        code, data = run_json(capsys, "verify", sub, "--shape", "[[],[1],[2]]", "--field", "Fp:3")
        assert code == 2 and data["error"] == "degenerate_shape"


class TestLnd:
    def test_list(self, capsys):
        code, data = run_json(
            capsys, "lnd", "list", "--shape", "[[2,2],[2,2],[5]]", "--field", "Fp:13"
        )
        assert code == 0
        assert [d["designator"] for d in data["derivations"]] == ["delta+:1", "delta-:1"]

    def test_list_notes_obstruction_over_q(self, capsys):
        code, data = run_json(capsys, "lnd", "list", "--shape", "[[2,2],[2,2],[5]]")
        assert code == 0 and data["derivations"] == []
        assert any("square root of -1" in n for n in data["notes"])

    def test_list_over_qi(self, capsys):
        # Q(i) holds the square root of -1 that Q lacks
        code, data = run_json(
            capsys, "lnd", "list", "--shape", "[[2,2],[2,2],[5]]", "--field", "Qi"
        )
        assert code == 0 and data["field"] == "Qi"
        assert [d["designator"] for d in data["derivations"]] == ["delta+:1", "delta-:1"]
        assert "5*i*T0_2*T2_1^4" in data["derivations"][0]["images"]["T1_1"]

    def test_check_over_qi_is_exact(self, capsys):
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[2,2],[2,2],[5]]", "--field", "Qi"
        )
        assert code == 0 and data["field"] == "Qi"
        assert [c["designator"] for c in data["checks"]] == ["delta+:1", "delta-:1"]
        for entry in data["checks"]:
            assert entry["well_defined"] and entry["derives_equation_to_zero"]
            assert entry["nilpotency_index"] == {
                "T0_1": 6, "T0_2": 1, "T1_1": 6, "T1_2": 1, "T2_1": 2,
            }

    def test_check_custom_over_qi(self, capsys):
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]", "--field", "Qi",
            "--custom", '{"T0_1": "-3/2*T2_1^2", "T2_1": "1/2*T0_2^2"}',
        )
        assert code == 0
        (entry,) = data["checks"]
        assert entry["well_defined"] and entry["nilpotency_index"]["T0_1"] == 4

    def test_check_single(self, capsys):
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]",
            "--derivation", "D:1",
        )
        assert code == 0
        (entry,) = data["checks"]
        assert entry["well_defined"] and entry["derives_equation_to_zero"]
        assert entry["nilpotency_index"]["T0_1"] == 4

    def test_check_unknown_derivation(self, capsys):
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]",
            "--derivation", "D:9",
        )
        assert code == 1

    def test_check_padded_designator(self, capsys):
        # the command line looks a designator up as catalog_derivation does
        _, single = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]", "--derivation", "D:1")
        code, padded = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]", "--derivation", " D:1 ")
        assert code == 0 and padded == single

    def test_check_custom_rejected(self, capsys):
        # s -> 1 does not descend: the equation derivative has remainder 3s^2
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]",
            "--custom", '{"T2_1": "1"}',
        )
        assert code == 0
        (entry,) = data["checks"]
        assert entry["well_defined"] is False

    def test_check_custom_semisimple_diverges(self, capsys):
        # a scaling direction: well-defined, never locally nilpotent
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]",
            "--custom",
            '{"T0_1": "3*T0_1", "T1_1": "T1_1", "T2_1": "T2_1"}',
        )
        assert code == 0
        (entry,) = data["checks"]
        assert entry["well_defined"] is True
        assert entry["nilpotency_index"] is None
        assert "nilpotency_error" in entry

    def test_check_custom_with_aliases(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(SHAPE_A_JSON)
        code, data = run_json(
            capsys, "lnd", "check", "--shape", str(path),
            "--custom", '{"x": "3*z^2", "z": "-y^2"}',
        )
        assert code == 0
        (entry,) = data["checks"]
        assert entry["well_defined"] and entry["derives_equation_to_zero"]
        assert entry["nilpotency_index"]["T0_1"] == 4


class TestStrata:
    def test_components(self, capsys):
        code, data = run_json(capsys, "strata", "--shape", "[[1,1,2],[3],[3]]")
        assert code == 0
        assert data["singular_components"] == [
            ["T0_3", "T1_1", "T2_1"],
            ["T0_1", "T0_2", "T1_1", "T2_1"],
        ]

    def test_point_support(self, capsys):
        code, data = run_json(
            capsys, "strata", "--shape", "[[1,2],[3],[3]]",
            "--point", "[3,0,0,0]",
        )
        assert code == 0
        assert data["support"] == {"vars": ["T0_2", "T1_1", "T2_1"]}
        assert data["singular"] is True
        assert data["containing_components"] == [["T0_2", "T1_1", "T2_1"]]

    def test_set_witness(self, capsys):
        code, data = run_json(
            capsys, "strata", "--shape", "[[1,1,2],[3],[3]]",
            "--field", "Fp:7", "--set", '{"vars": ["T0_2","T0_3","T1_1","T2_1"]}',
        )
        assert code == 0
        assert data["containing_components"] == [["T0_3", "T1_1", "T2_1"]]
        assert len(data["witness_point"]) == 5

    def test_empty_stratum_exit_2(self, capsys):
        code, data = run_json(
            capsys, "strata", "--shape", "[[1,2],[3],[3]]",
            "--set", '{"vars": ["T1_1","T2_1"]}',
        )
        assert code == 2 and data["error"] == "empty_stratum"

    def test_set_witness_without_a_root(self, capsys):
        code, data = run_json(
            capsys, "strata", "--shape", "[[2],[3],[3]]",
            "--field", "Fp:7", "--set", '{"vars": []}',
        )
        assert code == 0
        assert data["witness_point"] == ["3", "3", "3"]

    def test_set_builds_one_witness(self, capsys, monkeypatch):
        # -2 is no square or sixth power mod 99991: the witness comes from
        # the F_p fallback, the costly path, so it is built once
        calls = []
        real = strata.stratum_point
        monkeypatch.setattr(strata, "stratum_point", lambda *a: calls.append(a) or real(*a))
        code, out = run(
            capsys, "strata", "--shape", "[[2],[2],[6]]", "--field", "Fp:99991", "--set", "[]",
        )
        assert code == 0 and len(calls) == 1
        # the text output keeps the payload's key order
        keys = [line.split(": ", 1)[0] for line in out.splitlines()]
        assert keys == ["singular_components", "set", "containing_components", "witness_point"]
        witness = json.loads(out.splitlines()[-1].split(": ", 1)[1])
        assert len(witness) == 3 and "0" not in witness

    def test_set_as_bare_list(self, capsys):
        args = ("strata", "--shape", "[[1,1,2],[3],[3]]", "--field", "Fp:7")
        code, listed = run_json(capsys, *args, "--set", '["T0_2","T0_3","T1_1","T2_1"]')
        assert code == 0
        _, wrapped = run_json(
            capsys, *args, "--set", '{"vars": ["T0_2","T0_3","T1_1","T2_1"]}'
        )
        assert listed == wrapped

    @pytest.mark.parametrize("bad", ['"T0_1"', "{bad", "3", '{"vars": 5}', "[[1]]"])
    def test_bad_set_is_a_usage_error(self, capsys, bad):
        code, data = run_json(capsys, "strata", "--shape", "[[1,2],[3],[3]]", "--set", bad)
        assert code == 1 and data["error"] == "usage"


# shapes outside the power-one family: (groups, family kind, a point of X
# over F_13)
NON_F1 = [
    ("[[2],[3],[3]]", "rigid", "[0,1,12]"),
    ("[[2,2],[2,2],[5]]", "flexible_h", "[0,1,0,1,0]"),
    ("[[1,1,2],[3],[3]]", "F2", "[0,0,0,1,12]"),
    ("[[2,4],[2,4],[3]]", "other", "[0,1,0,1,0]"),
]


class TestOrbits:
    def test_count_shape_d(self, capsys):
        code, data = run_json(capsys, "orbits", "count", "--shape", "[[1,2,2],[3],[3]]")
        assert code == 0
        assert (data["aut_alg"], data["aut"]) == (16, 7)

    def test_classify_point(self, capsys):
        code, data = run_json(
            capsys, "orbits", "classify", "--shape", "[[1,2],[3],[3]]",
            "--point", "[-2,1,1,1]",
        )
        assert code == 0
        assert data == {"descriptor": {"type": "O"}, "dimension": 3}

    def test_classify_alias_object_point(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(SHAPE_A_JSON)
        code, data = run_json(
            capsys, "orbits", "classify", "--shape", str(path),
            "--point", '{"x": "5", "y": "0", "z": "-1", "s": "1"}',
        )
        assert code == 0
        assert data["descriptor"] == {"type": "OMeps", "M": [1], "r": "-1"}

    def test_f2_without_flag_exit_2(self, capsys):
        code, data = run_json(
            capsys, "orbits", "classify", "--shape", "[[1,1,2],[3],[3]]",
            "--field", "Fp:7", "--point", "[0,0,1,1,5]",
        )
        assert code == 2 and data["error"] == "conjecture_not_assumed"

    def test_transport(self, capsys):
        code, data = run_json(
            capsys, "orbits", "transport", "--shape", "[[1,2],[3],[3]]",
            "--field", "Q", "--from", "[-2,1,1,1]", "--to", "[-9,1,2,1]",
        )
        assert code == 0
        assert data["maps_src_to_dst"] is True
        assert data["word"]["steps"] == [
            {"step": "flow", "derivation": "D:1", "u": "-1"}
        ]

    def test_transport_refuses_other_families_by_name(self, capsys):
        # an F2 shape is refused before either point is classified, so no
        # advice to pass a conjecture flag that transport does not read
        code, data = run_json(
            capsys, "orbits", "transport", "--shape", "[[1,1,2],[3],[3]]",
            "--field", "Fp:7", "--from", "[5,1,1,1,1]", "--to", "[5,1,1,1,1]",
        )
        assert code == 2
        assert data == {
            "error": "unsupported_family",
            "detail": "transport is implemented for the power-one family F1, not F2",
        }

    @pytest.mark.parametrize("groups,kind,point", NON_F1)
    @pytest.mark.parametrize(
        "argv,detail",
        [
            (["orbits", "count"], "orbit counting is stated for the power-one family"),
            (
                ["orbits", "saut", "--field", "Fp:13", "--point", "{point}"],
                "flow-orbit shapes are stated for the power-one family",
            ),
            (
                ["orbits", "transport", "--field", "Fp:13", "--from", "{point}",
                 "--to", "{point}"],
                "transport is implemented for the power-one family F1, not {kind}",
            ),
        ],
    )
    def test_power_one_refusals(self, capsys, groups, kind, point, argv, detail):
        argv = [a.format(point=point) for a in argv]
        code, data = run_json(capsys, *argv, "--shape", groups)
        assert code == 2
        assert data == {"error": "unsupported_family", "detail": detail.format(kind=kind)}

    @pytest.mark.parametrize("groups,kind,point", NON_F1)
    def test_verify_transport_skips_other_families(self, capsys, groups, kind, point):
        code, data = run_json(
            capsys, "verify", "transport", "--shape", groups, "--field", "Fp:13"
        )
        assert code == 0 and data["failures"] == 0
        assert [c["details"] for c in data["checks"]] == 2 * [
            {
                "code": "unsupported_family",
                "message": "transport is implemented for the power-one family",
            }
        ]

    def test_saut_checks_the_point_before_the_family(self, capsys):
        code, data = run_json(
            capsys, "orbits", "saut", "--shape", "[[2],[3],[3]]", "--point", "[1,1,1]"
        )
        assert code == 2 and data["error"] == "point_not_on_variety"

    def test_saut(self, capsys):
        code, data = run_json(
            capsys, "orbits", "saut", "--shape", "[[1,2],[3],[3]]",
            "--point", "[3,0,0,0]",
        )
        assert code == 0 and data["saut_orbit"] == {"type": "FixedPoint"}


class TestEnumerateVerify:
    def test_enumerate(self, capsys):
        code, data = run_json(
            capsys, "enumerate", "--shape", "[[1,2],[3],[3]]", "--field", "Fp:3"
        )
        assert code == 0 and data["count"] == 27 and len(data["points"]) == 27

    def test_verify_all_green(self, capsys):
        code, data = run_json(
            capsys, "verify", "all", "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:7", "--trials", "100", "--seed", "42",
        )
        assert code == 0 and data["failures"] == 0

    def test_verify_deterministic(self, capsys):
        args = (
            "verify", "all", "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:7", "--trials", "60", "--seed", "5",
        )
        _, first = run(capsys, *args, "--json")
        _, second = run(capsys, *args, "--json")
        assert first == second

    def test_verify_all_f3_reports_skipped_transport(self, capsys):
        args = ("verify", "all", "--shape", "[[1,2,2],[3],[3]]", "--field", "Fp:3")
        code, data = run_json(capsys, *args)
        assert code == 0 and data["failures"] == 0
        skipped = {c["name"] for c in data["checks"] if c.get("status") == "skipped"}
        assert skipped == {"transport_roundtrip", "transport_negative"}
        code, text = run(capsys, *args)
        assert code == 0 and "SKIP transport_roundtrip" in text

    def test_verify_all_reports_refused_classification(self, capsys):
        args = ("verify", "all", "--shape", "[[1,1,2],[3],[3]]", "--field", "Fp:5")
        code, data = run_json(capsys, *args)
        assert code == 3 and data["failures"] == 1  # the partition errors
        checks = {c["name"]: c for c in data["checks"]}
        for name in ("flow_invariance", "torus_invariance"):
            assert checks[name]["status"] == "skipped"
            assert checks[name]["details"]["code"] == "conjecture_not_assumed"
        assert checks["component_membership"]["passed"]
        code, text = run(capsys, *args)
        assert code == 3 and "SKIP flow_invariance" in text
        code, data = run_json(capsys, *args, "--assume-conjecture")
        assert code == 0 and data["failures"] == 0

    def test_verify_all_compares_around_refused_points(self, capsys):
        args = ("verify", "all", "--shape", "[[1,3],[2],[2,2]]", "--field", "Fp:5")
        code, data = run_json(capsys, *args)
        assert code == 3 and data["failures"] == 1  # the partition errors
        checks = {c["name"]: c for c in data["checks"]}
        for name in ("flow_invariance", "torus_invariance"):
            assert checks[name]["passed"] and "status" not in checks[name]
            assert checks[name]["details"]["refused"] > 0

    def test_fully_skipped_invariance_exits_zero(self, capsys):
        args = ("verify", "invariance", "--shape", "[[1,1,2],[3],[3]]", "--field", "Fp:5")
        code, data = run_json(capsys, *args)
        assert code == 0 and data["failures"] == 0
        skipped = {c["name"] for c in data["checks"] if c.get("status") == "skipped"}
        assert skipped == {"flow_invariance", "torus_invariance"}

    @pytest.mark.parametrize("sub", ["all", "invariance"])
    @pytest.mark.parametrize("shape", ["[[2,2],[2,2],[5]]", "[[2],[2],[6]]"])
    def test_flows_leaving_the_variety_are_reported(self, capsys, in_field_delta, sub, shape):
        code, data = run_json(capsys, "verify", sub, "--shape", shape, "--field", "Fp:5")
        assert code in (0, 3) and "error" not in data
        flows = next(c for c in data["checks"] if c["name"] == "flow_invariance")
        assert flows["details"]["refused"] > 0

    @pytest.mark.parametrize("sub", ["all", "invariance", "transport", "partition"])
    def test_negative_trials_is_a_usage_error(self, capsys, sub):
        code, data = run_json(
            capsys, "verify", sub, "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:7", "--trials", "-1",
        )
        assert code == 1 and data["error"] == "usage"

    def test_verify_flows_quadratic_pair(self, capsys):
        args = ("verify", "flows", "--shape", "[[2],[2],[3]]", "--field", "Fp:13")
        code, data = run_json(capsys, *args)
        assert code == 0 and data["failures"] == 0
        details = data["checks"][0]["details"]
        assert details["runs"] == details["points"] * 13 * 2
        code, text = run(capsys, *args)
        assert code == 0 and "PASS flow_regularity" in text

    def test_verify_flows_failure_exits_3(self, capsys, in_field_delta):
        code, data = run_json(
            capsys, "verify", "flows", "--shape", "[[2,2],[2,2],[5]]", "--field", "Fp:5"
        )
        assert code == 3 and data["failures"] == 1
        assert data["checks"][0]["details"]["off_variety"] == 2560

    @pytest.mark.parametrize(
        "shape,points,evaluations",
        [("[[2,2],[2,2],[5]]", 625, 190), ("[[2],[2],[6]]", 25, 70)],
    )
    def test_delta_flows_over_f5_stay_on_the_variety(self, capsys, shape, points, evaluations):
        code, data = run_json(capsys, "verify", "flows", "--shape", shape, "--field", "Fp:5")
        assert code == 0 and data["failures"] == 0
        details = data["checks"][0]["details"]
        assert details["off_variety"] == 0 and details["points"] == points
        assert details["flow_evaluations"] == evaluations  # p per T-orbit
        code, data = run_json(capsys, "verify", "all", "--shape", shape, "--field", "Fp:5")
        flows = next(c for c in data["checks"] if c["name"] == "flow_invariance")
        assert flows["passed"] and "refused" not in flows["details"]

    def test_verify_flows_over_q_is_a_domain_error(self, capsys):
        code, data = run_json(capsys, "verify", "flows", "--shape", "[[2],[2],[3]]")
        assert code == 2 and data["error"] == "too_large"

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate"],
            ["verify", "flows"],
            ["verify", "all"],
            ["verify", "partition"],
            ["verify", "invariance"],
            ["verify", "transport"],
        ],
    )
    def test_point_commands_refuse_qi_as_they_refuse_q(self, capsys, argv):
        # Q(i) has no F_p points to enumerate, exactly like Q
        shape = ["--shape", "[[1,2],[3],[3]]"]
        over_q = run_json(capsys, *argv, *shape, "--field", "Q")
        over_qi = run_json(capsys, *argv, *shape, "--field", "Qi")
        assert over_qi == over_q and over_q[0] == 2
        assert over_q[1]["error"] == "too_large"

    @pytest.mark.parametrize(
        "argv",
        [
            ["strata"],
            ["strata", "--point", "[0,1,-1,1]"],
            ["orbits", "count"],
            ["orbits", "classify", "--point", "[0,1,-1,1]"],
        ],
    )
    def test_strata_and_orbits_refuse_qi_as_usage(self, capsys, argv):
        code, data = run_json(capsys, *argv, "--shape", "[[1,2],[3],[3]]", "--field", "Qi")
        assert code == 1 and data["error"] == "usage" and "Qi" in data["detail"]

    def test_human_mode_matches_json_numbers(self, capsys):
        code, text = run(
            capsys, "verify", "partition", "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:3",
        )
        assert code == 0 and "PASS partition" in text
        code, data = run_json(
            capsys, "verify", "partition", "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:3",
        )
        details = next(c for c in data["checks"] if c["name"] == "partition")
        assert str(details["details"]["points"]) in text


class TestPointParsing:
    def test_wrong_length(self, capsys):
        code, data = run_json(
            capsys, "orbits", "classify", "--shape", "[[1,2],[3],[3]]",
            "--point", "[1,2,3]",
        )
        assert code == 1

    def test_unknown_key(self, capsys):
        code, data = run_json(
            capsys, "orbits", "classify", "--shape", "[[1,2],[3],[3]]",
            "--point", '{"nope": 1}',
        )
        assert code == 1

    @pytest.mark.parametrize("bad", ["1/0", "7/7", "a/2"])
    def test_bad_element_is_a_usage_error(self, capsys, bad):
        code, data = run_json(
            capsys, "orbits", "classify", "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:7", "--point", json.dumps([bad, 0, 0, 0]),
        )
        assert code == 1 and data["error"] == "usage"

    def test_bad_transport_endpoint_is_a_usage_error(self, capsys):
        code, data = run_json(
            capsys, "orbits", "transport", "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:7", "--from", "[0,1,1,6]", "--to", '["1/0",1,1,6]',
        )
        assert code == 1 and data["error"] == "usage"

    def test_bad_custom_coefficient_is_a_usage_error(self, capsys):
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]",
            "--field", "Fp:7", "--custom", '{"T0_1": "1/7"}',
        )
        assert code == 1 and data["error"] == "usage"

    @pytest.mark.parametrize("option", ["--derivation", "--custom"])
    def test_empty_derivation_is_a_usage_error(self, capsys, option):
        # an empty value is a value, not an absent option checking the catalog
        code, data = run_json(
            capsys, "lnd", "check", "--shape", "[[1,2],[3],[3]]", "--field", "Q",
            option, "",
        )
        assert code == 1 and data["error"] == "usage"


class TestShapeAliases:
    @pytest.mark.parametrize("aliases", [7, {"T0_1": ["x"]}, {"T0_1": 5}, ["x"]])
    def test_malformed_aliases_are_a_usage_error(self, capsys, aliases):
        shape = json.dumps({"groups": [[1, 2], [3], [3]], "aliases": aliases})
        code, data = run_json(capsys, "classify", "--shape", shape)
        assert code == 1 and data["error"] == "usage"


class TestShapeFile:
    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00bad"], ids=["directory", "non_utf8"])
    def test_unreadable_file_is_a_usage_error(self, capsys, tmp_path, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "shape.json"
            path.write_bytes(content)
        code, data = run_json(capsys, "strata", "--shape", str(path), "--field", "Fp:5")
        assert code == 1 and data["error"] == "usage"
        assert str(path) in data["detail"]


class TestParserReuse:
    """The parser is built once per process and serves every run_cli call."""

    COMMANDS = [
        ["verify", "partition", "--shape", "[[1,2],[3],[3]]", "--field", "Fp:5", "--json"],
        ["classify", "--shape", "[[1,2,2],[3],[3]]", "--json"],
        ["verify", "all", "--field", "Fp:5"],  # usage error: no --shape
        ["orbits", "classify", "--shape", "[[1,2],[3],[3]]", "--field", "Fp:7",
         "--point", "[0,1,3,4]", "--json"],
        ["verify", "partition", "--shape", "[[1,2],[3],[3]]", "--field", "Fp:5", "--json"],
    ]

    def test_in_process_runs_match_fresh_processes(self, capsys):
        src = os.path.dirname(os.path.dirname(trinomial_orbits.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        in_process = []
        for argv in self.COMMANDS:
            code = run_cli(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        fresh = []
        for argv in self.COMMANDS:
            done = subprocess.run(
                [sys.executable, "-m", "trinomial_orbits.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0]
        assert build_parser() is build_parser()


# each command's options besides --shape and --json
INTERFACE = {
    ("classify",): set(),
    ("report",): set(),
    ("orbits", "count"): set(),
    ("lnd", "list"): {"--field"},
    ("enumerate",): {"--field"},
    ("verify", "flows"): {"--field"},
    ("lnd", "check"): {"--field", "--derivation", "--custom"},
    ("strata",): {"--field", "--point", "--set"},
    ("orbits", "classify"): {"--field", "--point", "--assume-conjecture"},
    ("orbits", "saut"): {"--field", "--point"},
    ("orbits", "transport"): {"--field", "--from", "--to"},
    ("verify", "all"): {"--field", "--assume-conjecture", "--seed", "--trials"},
    ("verify", "invariance"): {"--field", "--assume-conjecture", "--seed", "--trials"},
    ("verify", "partition"): {"--field", "--assume-conjecture"},
    ("verify", "transport"): {"--field", "--seed", "--trials"},
}
# the options a command requires besides --shape, with valid values
REQUIRED = {
    ("orbits", "classify"): ["--point", "[0,1,-1,1]"],
    ("orbits", "saut"): ["--point", "[0,1,-1,1]"],
    ("orbits", "transport"): ["--from", "[0,1,-1,1]", "--to", "[0,1,-1,1]"],
}
SHARED = {"--field": ["Q"], "--seed": ["1"], "--trials": ["5"], "--assume-conjecture": []}


def leaves(parser, path=()):
    """(command words, parser) for every command the parser runs."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [leaf for name, p in subs[0].choices.items() for leaf in leaves(p, path + (name,))]


def fresh_run(argv):
    src = os.path.dirname(os.path.dirname(trinomial_orbits.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "trinomial_orbits.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    return done.returncode, done.stdout, done.stderr


class TestInterface:
    """Each command takes --shape, --json and only the options its handler reads."""

    def test_options_follow_the_table(self):
        got = {
            path: {opt for a in p._actions for opt in a.option_strings}
            for path, p in leaves(build_parser())
        }
        assert got == {
            path: options | {"-h", "--help", "--shape", "--json"}
            for path, options in INTERFACE.items()
        }
        required = {
            path: {opt for a in p._actions if a.required for opt in a.option_strings}
            for path, p in leaves(build_parser())
        }
        assert required == {path: {"--shape", *REQUIRED.get(path, [])[::2]} for path in INTERFACE}

    @pytest.mark.parametrize(
        "cmd,option",
        [(cmd, opt) for cmd, opts in INTERFACE.items() for opt in SHARED if opt not in opts],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
    )
    def test_undeclared_options_are_refused(self, capsys, cmd, option):
        extra = [option, *SHARED[option]]
        argv = [*cmd, "--shape", "[[1,2],[3],[3]]", *REQUIRED.get(cmd, []), *extra]
        code, data = run_json(capsys, *argv)
        assert code == 1
        assert data == {
            "error": "usage",
            "detail": f"trinomial-orbits: unrecognized arguments: {' '.join(extra)}",
        }

    @pytest.mark.parametrize(
        "argv,detail",
        [
            # report reads no field: it would print Q's empty catalog
            (["report", "--shape", "[[2,2],[2,2],[5]]", "--field", "Fp:13"],
             "unrecognized arguments: --field Fp:13"),
            # transport reads no conjecture flag: it would refuse the F2 point
            (["orbits", "transport", "--shape", "[[1,1,2],[3],[3]]", "--field", "Fp:7",
              "--from", "[5,1,1,1,1]", "--to", "[5,1,1,1,1]", "--assume-conjecture"],
             "unrecognized arguments: --assume-conjecture"),
            # --custom would drop --derivation, --point would drop --set
            (["lnd", "check", "--shape", "[[1,2],[3],[3]]", "--derivation", "D:1",
              "--custom", '{"T2_1": "1"}'],
             "argument --custom: not allowed with argument --derivation"),
            (["strata", "--shape", "[[1,2],[3],[3]]", "--field", "Fp:7",
              "--point", "[5,1,1,1]", "--set", '["T0_2"]'],
             "argument --set: not allowed with argument --point"),
        ],
    )
    def test_options_a_command_would_drop_are_refused(self, capsys, argv, detail):
        code, data = run_json(capsys, *argv)
        assert code == 1 and data["error"] == "usage" and data["detail"].endswith(detail)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "all", "--field", "Fp:5"],
            ["classify", "--shape", "[[1,2],[3],[3]]", "--nope"],
            ["verify", "all", "--shape", "[[1,2],[3],[3]]", "--field", "Fp:7", "--trials", "x"],
            ["survey", "--shape", "[[1,2],[3],[3]]"],
            ["lnd", "check", "--shape", "[[1,2],[3],[3]]", "--custom", '{"T2_1": "T0_1^3/4"}',
             "--json"],
            ["classify", "--shape", '"abc"', "--json"],
        ],
        ids=["missing-shape", "unknown-option", "bad-trials", "unknown-command",
             "rational-exponent", "string-shape"],
    )
    def test_malformed_command_lines_are_json_usage_errors(self, capsys, argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        in_process = (code, captured.out, captured.err)
        assert fresh_run(argv) == in_process
        code, out, err = in_process
        (line,) = out.splitlines()
        assert code == 1 and err == "" and json.loads(line)["error"] == "usage"

    def test_help_exits_zero(self, capsys):
        assert run_cli(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: trinomial-orbits verify")

    def test_key_error_detail_is_its_message(self, capsys):
        code, data = run_json(
            capsys, "strata", "--shape", "[[1,2],[3],[3]]", "--field", "Fp:7", "--set", "[1]"
        )
        assert (code, data) == (1, {"error": "usage", "detail": "unknown variable 1"})
