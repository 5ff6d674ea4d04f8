import json

import pytest

from trinomial_orbits import (
    CharacteristicTooSmall,
    DifferentOrbits,
    DlogUnsolvable,
    PrimeField,
    RootUnavailable,
    TooLarge,
    enumerate_points,
    partition_selftest,
    validate_shape,
    verify_all,
    verify_invariance,
    verify_partition,
    verify_transport,
)
from trinomial_orbits import oracle, orbits
from trinomial_orbits.oracle import build_census, random_points, verify_flow_regularity
from trinomial_orbits.derivations import lnd_catalog
from conftest import SHAPE_A, SHAPE_D, SHAPE_E


def check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestEnumeration:
    def test_shape_b_f2(self, shape_b):
        pts = enumerate_points(shape_b, PrimeField(2))
        assert len(pts) == 4  # y + z + s = 0 by Fermat

    def test_shape_a_f2(self, shape_a):
        assert len(enumerate_points(shape_a, PrimeField(2))) == 8

    def test_shape_a_f3(self, shape_a, f3):
        pts = enumerate_points(shape_a, f3)
        assert len(pts) == 27  # cubing is the identity: s is determined
        assert pts == sorted(pts)
        assert all(shape_a.on_variety(f3, pt) for pt in pts)

    def test_solved_and_scanned_paths_agree(self, shape_a, f3):
        solved = enumerate_points(shape_a, f3)
        old = oracle.SOLVED_SCAN_CAP
        oracle.SOLVED_SCAN_CAP = 0  # force the full scan
        try:
            scanned = enumerate_points(shape_a, f3)
        finally:
            oracle.SOLVED_SCAN_CAP = old
        assert solved == scanned

    def test_too_large(self, shape_a):
        with pytest.raises(TooLarge):
            enumerate_points(shape_a, PrimeField(997))

    def test_random_points_on_variety(self, shape_h2):
        import random

        fld = PrimeField(101)
        pts = random_points(shape_h2, fld, 25, random.Random(0))
        assert len(pts) == 25
        assert all(shape_h2.on_variety(fld, pt) for pt in pts)


class TestPartition:
    def test_shape_a_f3_census(self, shape_a, f3):
        report = verify_partition(shape_a, f3)
        assert report.failures == 0
        details = check(report, "partition").details
        assert details["points"] == 27
        counts = {
            json.loads(k)["type"]: v for k, v in details["counts"].items()
        }
        assert counts == {"O": 18, "OMeps": 6, "O1": 2, "O2": 1}

    def test_shape_e_f2_all_regular(self, shape_e):
        report = verify_partition(shape_e, PrimeField(2))
        details = check(report, "partition").details
        kinds = {json.loads(k)["type"] for k in details["counts"]}
        assert "O1" not in kinds and "O2" not in kinds

    def test_shape_b_torus_strata(self, shape_b):
        report = verify_partition(shape_b, PrimeField(2))
        assert report.failures == 0
        details = check(report, "partition").details
        kinds = {json.loads(k)["type"] for k in details["counts"]}
        assert kinds == {"TorusStratum"} and details["points"] == 4

    def test_census_matches_formula_f7(self, shape_a, f7):
        report = verify_partition(shape_a, f7)
        census = check(report, "descriptor_census")
        assert census.passed and census.details == {"realized": 6, "expected": 6}

    def test_selftest_catches_planted_merge(self, shape_a, f7):
        report = partition_selftest(shape_a, f7)
        assert check(report, "selftest_planted_merge_caught").passed
        # and the planted run itself shows the census failing
        assert not check(report, "descriptor_census").passed

    def test_selftest_on_free_term_merges_components(self, shape_e):
        # no singular strata to conflate: the plant must target the
        # root-ratio components and still be caught
        report = partition_selftest(shape_e, PrimeField(7))
        assert check(report, "selftest_planted_merge_caught").passed

    def test_verify_all_free_term_green(self, shape_e):
        report = verify_all(shape_e, PrimeField(7), trials=150, seed=4)
        assert report.failures == 0
        assert any(
            c.name == "selftest_planted_merge_caught" for c in report.checks
        )


class TestInvariance:
    def test_shape_a_f7(self, shape_a, f7):
        report = verify_invariance(shape_a, f7, trials=500, seed=42)
        assert report.failures == 0
        assert check(report, "flow_invariance").details["runs"] == 500

    def test_exhaustive_f3(self, shape_a, f3):
        report = verify_invariance(shape_a, f3, exhaustive=True)
        assert report.failures == 0
        details = check(report, "flow_invariance").details
        assert details["runs"] == 27 * 4 * 3  # points x derivations x parameters

    def test_f2_singular_flows_stay_in_component_class(self, shape_c, f3):
        # exhaustive over X(F_3): points never leave their N(S)-intersection
        report = verify_invariance(
            shape_c, f3, seed=1, assume_conjecture=True, exhaustive=True
        )
        assert report.failures == 0
        assert check(report, "component_membership").details["runs"] > 0

    def test_reports_deterministic(self, shape_a, f7):
        a = verify_invariance(shape_a, f7, trials=100, seed=9).dumps()
        b = verify_invariance(shape_a, f7, trials=100, seed=9).dumps()
        assert a == b


class TestTransportOracle:
    def test_shape_a_f7(self, shape_a, f7):
        report = verify_transport(shape_a, f7, pairs=50, seed=0)
        assert report.failures == 0
        rt = check(report, "transport_roundtrip").details
        assert rt == {"pairs": 50, "exact": 50, "max_word": rt["max_word"]}
        neg = check(report, "transport_negative").details
        assert neg["expected"] > 0 and neg["surfaced"] == neg["expected"]

    def test_shape_d_f13(self, shape_d):
        report = verify_transport(shape_d, PrimeField(13), pairs=50, seed=7)
        assert report.failures == 0


class TestFlowRegularity:
    def test_h2_f3_has_no_delta(self, shape_h2, f3):
        # sqrt(-1) missing: the delta catalog is empty over F_3
        cat, notes = lnd_catalog(shape_h2, f3, with_notes=True)
        assert cat == [] and notes

    def test_small_quadratic_pair_exhaustive(self):
        # the five-variable run lives in the acceptance suite; this is the
        # same exhaustive check on the smallest quadratic-pair shape
        shape = validate_shape([[2], [2], [3]])
        fld = PrimeField(13)
        cat = lnd_catalog(shape, fld)
        assert {d.designator for d in cat} == {"delta+:1", "delta-:1"}
        report = verify_flow_regularity(shape, fld, cat)
        result = check(report, "flow_regularity")
        assert result.passed
        assert result.details["runs"] == result.details["points"] * 13 * 2


class TestClosedFormCensus:
    @pytest.mark.parametrize("p", [3, 7, 13])
    def test_shape_a_stratum_cardinalities(self, shape_a, p):
        # independent oracle: on x*y^2 + z^3 + s^3 the stratum sizes over
        # F_p are exact closed forms (x is determined when y != 0; s ranges
        # over the gcd(3, p-1) cube roots of -z^3 when y = 0)
        from math import gcd

        g = gcd(3, p - 1)
        expected = {
            "O": (p - 1) * p * p,
            "OMeps": (p - 1) * g * p,
            "O1": p - 1,
            "O2": 1,
        }
        fld = PrimeField(p)
        report = verify_partition(shape_a, fld)
        assert report.failures == 0
        counts = {}
        for key, v in check(report, "partition").details["counts"].items():
            kind = json.loads(key)["type"]
            counts[kind] = counts.get(kind, 0) + v
        assert counts == expected

    def test_shape_e_census_f7(self, shape_e):
        # free term: all ten descriptors realized over F_7 (7 = 1 mod 2d)
        report = verify_partition(shape_e, PrimeField(7))
        assert report.failures == 0
        census = check(report, "descriptor_census")
        assert census.details == {"realized": 10, "expected": 10}


class TestVerifyAll:
    def test_shape_a_f7_green(self, shape_a, f7):
        report = verify_all(shape_a, f7, trials=200, seed=42)
        assert report.failures == 0
        names = {c.name for c in report.checks}
        assert {"partition", "descriptor_census", "flow_invariance",
                "transport_roundtrip", "selftest_planted_merge_caught"} <= names

    def test_report_json_shape(self, shape_a, f7):
        report = verify_all(shape_a, f7, trials=50, seed=1)
        data = json.loads(report.dumps())
        assert data["field"] == "Fp:7" and data["failures"] == 0
        assert data["totals"]["points"] == 427

    def test_free_term_transport(self, shape_e, f7):
        report = verify_transport(shape_e, f7, pairs=30, seed=3)
        assert report.failures == 0
        assert check(report, "transport_roundtrip").details["exact"] == 30

    def test_f2_verify_all_with_conjecture(self, shape_c, f3):
        report = verify_all(shape_c, f3, trials=150, seed=9, assume_conjecture=True)
        assert report.failures == 0

    def test_flexible_verify_all(self, shape_h2, f3):
        report = verify_all(shape_h2, f3, trials=150, seed=9)
        assert report.failures == 0


class TestCensus:
    def test_counts_and_buckets(self, shape_a, f7):
        census = build_census(shape_a, f7)
        assert census.points == enumerate_points(shape_a, f7)
        assert census.errors == 0
        assert sum(census.counts.values()) == len(census.points)
        for desc, bucket in census.buckets.items():
            assert isinstance(desc, (orbits.BigO, orbits.OMeps))
            assert len(bucket) == census.counts[desc]
        assert all(orbits.classify_point(shape_a, f7, pt) == desc
                   for desc, bucket in census.buckets.items() for pt in bucket)

    def test_verify_all_enumerates_and_classifies_once(self, monkeypatch, shape_a):
        calls = {"enumerate": 0, "classify": 0}
        real_enumerate = oracle.enumerate_points
        real_classify = orbits.classify_point

        def counted_enumerate(*args, **kwargs):
            calls["enumerate"] += 1
            return real_enumerate(*args, **kwargs)

        def counted_classify(*args, **kwargs):
            calls["classify"] += 1
            return real_classify(*args, **kwargs)

        monkeypatch.setattr(oracle, "enumerate_points", counted_enumerate)
        monkeypatch.setattr(orbits, "classify_point", counted_classify)
        trials, fld = 100, PrimeField(13)
        report = verify_all(shape_a, fld, trials=trials, seed=2)
        assert report.failures == 0
        assert check(report, "selftest_planted_merge_caught").passed
        assert calls["enumerate"] == 1
        points = check(report, "partition").details["points"]
        pairs = check(report, "transport_roundtrip").details["pairs"]
        negatives = check(report, "transport_negative").details["expected"]
        # once per point, two per flow and per torus trial, two per transport
        assert calls["classify"] <= points + 4 * trials + 2 * (pairs + negatives)

    @pytest.mark.parametrize("groups,p", [(SHAPE_A, 7), (SHAPE_D, 13), (SHAPE_E, 7)])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_verify_all_checks_equal_standalone(self, groups, p, seed):
        shape, fld, trials = validate_shape(groups), PrimeField(p), 100
        combined = verify_all(shape, fld, trials=trials, seed=seed)
        standalone = (
            verify_partition(shape, fld).checks
            + verify_invariance(shape, fld, trials=trials, seed=seed).checks
            + verify_transport(shape, fld, pairs=max(10, trials // 10), seed=seed).checks
            + [check(partition_selftest(shape, fld), "selftest_planted_merge_caught")]
        )

        def dump(checks):
            return [json.dumps(c.to_json(), sort_keys=True) for c in checks]

        assert dump(combined.checks) == dump(standalone)

    @pytest.mark.parametrize("groups", [SHAPE_A, SHAPE_E])
    def test_selftest_relabel_equals_pointwise_plant(self, groups):
        # the plant is a function of the descriptor: relabelling the census
        # counts must give what classifying each point with the plant gives
        shape, fld = validate_shape(groups), PrimeField(7)
        counts = {}
        for pt in enumerate_points(shape, fld):
            desc = oracle._planted(shape, fld, orbits.classify_point(shape, fld, pt))
            key = oracle._desc_key(shape, fld, desc)
            counts[key] = counts.get(key, 0) + 1
        report = partition_selftest(shape, fld)
        assert check(report, "partition").details["counts"] == dict(sorted(counts.items()))


class TestSkipped:
    @pytest.mark.parametrize("groups", [SHAPE_A, SHAPE_D, SHAPE_E])
    def test_transport_skipped_over_f3(self, groups, f3):
        report = verify_all(validate_shape(groups), f3)
        assert check(report, "partition").passed
        for name in ("transport_roundtrip", "transport_negative"):
            c = check(report, name)
            assert c.skipped and not c.passed
            assert c.details["code"] == "characteristic_too_small"
            assert c.to_json()["status"] == "skipped"
        assert report.failures == 0
        assert json.loads(report.dumps())["failures"] == 0

    def test_status_only_on_skipped_checks(self, shape_a, f7):
        data = json.loads(verify_all(shape_a, f7, trials=20, seed=1).dumps())
        assert all("status" not in c for c in data["checks"])

    def test_transport_skipped_outside_power_one_family(self, monkeypatch, shape_b):
        def no_census(*args, **kwargs):
            raise AssertionError("census built for a shape transport refuses")

        monkeypatch.setattr(oracle, "build_census", no_census)
        report = verify_transport(shape_b, PrimeField(7), pairs=5)
        assert report.failures == 0
        assert {c.details["code"] for c in report.checks} == {"unsupported_family"}

    @pytest.mark.parametrize("error", [DifferentOrbits, RootUnavailable, DlogUnsolvable])
    def test_transport_disagreement_is_a_failure(self, monkeypatch, shape_a, f7, error):
        # a same-descriptor pair that transport cannot join is exactly what
        # the roundtrip check exists to catch: it fails, it is not skipped
        real = orbits.transport

        def refuse(shape, fld, src, dst):
            if orbits.classify_point(shape, fld, src) != orbits.classify_point(shape, fld, dst):
                return real(shape, fld, src, dst)
            raise error("injected")

        monkeypatch.setattr(orbits, "transport", refuse)
        report = verify_transport(shape_a, f7, pairs=10, seed=0)
        rt = check(report, "transport_roundtrip")
        assert not rt.passed and not rt.skipped
        assert rt.details["pairs"] == 10 and rt.details["exact"] == 0
        assert check(report, "transport_negative").passed
        assert report.failures == 1

    def test_late_refusal_keeps_earlier_failure(self, monkeypatch, shape_a, f7):
        real = orbits.transport
        injected = iter([DifferentOrbits("injected"), CharacteristicTooSmall("injected")])

        def flaky(*args, **kwargs):
            exc = next(injected, None)
            if exc is not None:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(orbits, "transport", flaky)
        report = verify_transport(shape_a, f7, pairs=10, seed=0)
        rt = check(report, "transport_roundtrip")
        assert not rt.passed and not rt.skipped
        assert rt.details["pairs"] == 1 and rt.details["exact"] == 0
        assert check(report, "transport_negative").passed
        assert report.failures == 1
