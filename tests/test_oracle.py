import json
import math
import random
import time
from collections.abc import Sequence
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from trinomial_orbits import (
    CharacteristicTooSmall,
    ConjectureNotAssumed,
    Derivation,
    DifferentOrbits,
    DlogUnsolvable,
    MathDomainError,
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
from trinomial_orbits import oracle, orbits, strata
from trinomial_orbits.oracle import build_census, verify_flow_regularity
from trinomial_orbits.derivations import lnd_catalog
from trinomial_orbits.shapes import torus_lattice, torus_scaling
from conftest import SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_H2, random_points, small_shapes

SHAPE_H2_POWER_ONE = [[1, 3], [2], [2, 2]]  # flexible, exponent-1 variable


def check(report, name):
    return next(c for c in report.checks if c.name == name)


def scanned_points(shape, p):
    """Every point of F_p^n on the hypersurface, by a full scan."""
    exps = shape.exponents
    groups = [shape.group_indices(g) for g in range(3)]  # empty group: 1

    def equation(pt):
        return sum(math.prod(pow(pt[i], exps[i], p) for i in idx) for idx in groups)

    return [pt for pt in product(range(p), repeat=shape.n) if equation(pt) % p == 0]


def convolved_count(shape, p):
    """The number of points from the per-group value distributions, each
    the convolution of its variables' power tables: the O(p^2) reference
    for oracle.point_count."""

    def values(exps):
        counts = {1: 1}
        for e in exps:
            powers = {}
            for x in range(p):
                w = pow(x, e, p)
                powers[w] = powers.get(w, 0) + 1
            nxt = {}
            for v, c in counts.items():
                for w, k in powers.items():
                    vw = v * w % p
                    nxt[vw] = nxt.get(vw, 0) + c * k
            counts = nxt
        return counts

    c0, c1, c2 = (values(grp) for grp in shape.groups)
    return sum(
        a * b * c2.get(-(m0 + m1) % p, 0) for m0, a in c0.items() for m1, b in c1.items()
    )


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

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=80, deadline=None)
    def test_value_tables_match_full_scan(self, shape, p):
        assume(p**shape.n <= 3000)
        scanned = scanned_points(shape, p)
        assert enumerate_points(shape, PrimeField(p)) == scanned
        assert oracle.point_count(shape, p) == len(scanned)

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7, 11, 13, 31, 37, 41]))
    @settings(max_examples=200, deadline=None)
    def test_point_count_equals_the_convolution(self, shape, p):
        assert oracle.point_count(shape, p) == convolved_count(shape, p)

    @pytest.mark.parametrize("groups", [SHAPE_A, SHAPE_H2])
    def test_point_count_at_the_field_cap_is_quick(self, groups):
        # an O(p^2) count of the residues would take over an hour here
        shape = validate_shape(groups)
        start = time.perf_counter()
        count = oracle.point_count(shape, 99991)
        assert time.perf_counter() - start < 5
        assert count > oracle.POINT_CAP

    def test_over_cap_at_the_field_cap_is_refused(self, shape_a):
        fld = PrimeField(99991)
        with pytest.raises(TooLarge, match="exceed the enumeration cap"):
            enumerate_points(shape_a, fld)
        with pytest.raises(TooLarge, match="exceed the enumeration cap"):
            verify_all(shape_a, fld)

    @pytest.mark.parametrize(
        "groups,p,joined",
        [
            (SHAPE_E, 7, (1, 7**3)),  # free term: groups 0 and 1 head group 2
            ([[1, 2], [2, 2], [2, 3]], 5, (5**2, 5**2)),  # groups 1 and 2 are the tails
            ([[2], [1, 2, 2], [2, 3]], 5, (5, 5**3)),  # group 2 is larger than group 0
            (SHAPE_H2, 5, (5**2, 5)),
        ],
    )
    def test_both_splits_match_full_scan(self, monkeypatch, groups, p, joined):
        # the join is of the two groups with fewer rows between them
        sizes = []
        real_join = oracle._join

        def join(heads, tails, p):
            sizes.append((len(heads), len(tails)))
            return real_join(heads, tails, p)

        monkeypatch.setattr(oracle, "_join", join)
        shape = validate_shape(groups)
        pts = enumerate_points(shape, PrimeField(p))
        assert sizes == [joined]
        assert pts == sorted(pts) == scanned_points(shape, p)

    def test_too_large(self, monkeypatch, shape_a):
        def no_tables(*args):
            raise AssertionError("tables built for a refused enumeration")

        monkeypatch.setattr(oracle, "_group_rows", no_tables)
        with pytest.raises(TooLarge, match="993012997 points"):
            enumerate_points(shape_a, PrimeField(997))

    @pytest.mark.parametrize(
        "groups,p,points",
        [
            (SHAPE_A, 211, 9482551),  # just under the cap; 211^4 > 10^8
            ([[1, 2, 2], [2, 2], [2, 3]], 13, 4877509),  # 13^6 solved scan
            ([[1, 2], [2, 2], [2, 3]], 19, 2482597),  # 19^5 solved scan
        ],
    )
    def test_counts_under_the_cap_enumerate(self, monkeypatch, groups, p, points):
        class Tabulating(Exception):
            pass

        def tables_reached(*args):
            raise Tabulating

        shape = validate_shape(groups)
        assert oracle.point_count(shape, p) == points <= oracle.POINT_CAP
        monkeypatch.setattr(oracle, "_group_rows", tables_reached)
        with pytest.raises(Tabulating):
            enumerate_points(shape, PrimeField(p))

    def test_count_just_over_the_cap_is_refused(self, monkeypatch, shape_a):
        def no_tables(*args):
            raise AssertionError("tables built for a refused enumeration")

        monkeypatch.setattr(oracle, "_group_rows", no_tables)
        assert oracle.POINT_CAP < oracle.point_count(shape_a, 223) == 11188579
        with pytest.raises(TooLarge, match="11188579 points"):
            enumerate_points(shape_a, PrimeField(223))

    def test_cap_counts_points_not_p_to_the_n(self, shape_a):
        # 101^4 exceeds the cap on F_p^n; the 101^3 points themselves do not
        fld = PrimeField(101)
        pts = enumerate_points(shape_a, fld)
        assert len(pts) == 101**3 <= oracle.POINT_CAP
        assert all(shape_a.on_variety(fld, pt) for pt in pts[::9973])

    def test_random_points_on_variety(self, shape_h2):
        import random

        fld = PrimeField(101)
        pts = random_points(shape_h2, fld, 25, random.Random(0))
        assert len(pts) == 25
        assert all(shape_h2.on_variety(fld, pt) for pt in pts)

    def test_random_points_on_an_empty_variety_refuse_at_once(self):
        # fourth powers mod 5 are 0 or 1, so 1 + y^4 + z^4 is 1, 2 or 3
        shape, fld = validate_shape([[], [4], [4]]), PrimeField(5)
        assert oracle.point_count(shape, 5) == 0

        class NoDraws:
            def randrange(self, *args):
                raise AssertionError("a coordinate was drawn")

            choice = randrange

        with pytest.raises(MathDomainError, match="no points over F_5"):
            random_points(shape, fld, 1, NoDraws())


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
        report = verify_invariance(shape_a, f3, trials=324)
        assert report.failures == 0
        details = check(report, "flow_invariance").details
        assert details["runs"] == 27 * 4 * 3  # points x derivations x parameters

    def test_trials_rule(self, shape_a, f3):
        # 27 points x 4 derivations x 3 parameters = 324 flow cases
        full = check(verify_invariance(shape_a, f3, trials=324), "flow_invariance")
        assert full.details["runs"] == 324 and full.details["exhaustive"]
        drawn = check(verify_invariance(shape_a, f3, trials=323), "flow_invariance")
        assert drawn.details["runs"] == 323 and not drawn.details["exhaustive"]

    def test_f2_singular_flows_stay_in_component_class(self, shape_c, f3):
        # exhaustive over X(F_3): points never leave their N(S)-intersection
        report = verify_invariance(
            shape_c, f3, trials=1458, seed=1, assume_conjecture=True
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
        # one step image per point and derivation, not one per parameter
        assert result.details["flow_evaluations"] == result.details["points"] * 2

    @pytest.mark.parametrize(
        "groups,p",
        [
            ([[2], [2], [3]], 5),
            ([[2], [2], [3]], 13),
            ([[2], [2], [3]], 17),
            (SHAPE_D, 7),
            (SHAPE_E, 7),
            (SHAPE_C, 5),
            (SHAPE_H2_POWER_ONE, 5),
            (SHAPE_H2, 5),
        ],
    )
    def test_orbit_walk_equals_pointwise(self, monkeypatch, groups, p):
        shape, fld = validate_shape(groups), PrimeField(p)
        cat = lnd_catalog(shape, fld)
        walked = check(verify_flow_regularity(shape, fld, cat), "flow_regularity")
        # a failing law check sends every derivation down the pointwise loop
        monkeypatch.setattr(Derivation, "flow_group_law", lambda self: False)
        pointwise = check(verify_flow_regularity(shape, fld, cat), "flow_regularity")
        assert pointwise.details["flow_evaluations"] == pointwise.details["runs"]
        # every derivation here is walked: one image per point
        assert walked.details["flow_evaluations"] == walked.details["points"] * len(cat)
        assert walked.passed == pointwise.passed
        walked.details.pop("flow_evaluations")
        pointwise.details.pop("flow_evaluations")
        assert walked.details == pointwise.details

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7, 13]))
    @settings(max_examples=60, deadline=None)
    def test_orbit_walk_equals_pointwise_generated(self, shape, p):
        # every catalog derivation whose law holds is walked in full, with
        # the pointwise loop's failures and no image off the variety
        assume(oracle.point_count(shape, p) <= 600)
        fld = PrimeField(p)
        pts = enumerate_points(shape, fld)
        sing = oracle.singular_set(shape, fld, pts)
        for delta in lnd_catalog(shape, fld):
            if not delta.flow_group_law():
                continue
            try:
                orbit = oracle._flow_orbit(delta, p)
            except MathDomainError:
                continue
            off, failures = oracle._pointwise_flows(orbit, pts, set(pts), sing)
            assert off == 0, delta
            assert oracle._orbit_walk(orbit, pts, sing, p) == failures, delta

    def test_step_leaving_the_variety_falls_back(self, monkeypatch, shape_h2):
        # twinless copies of the deltas take their divided powers in F_5,
        # where they are no flow and leave X; even under a claimed law the
        # walk stops at the first such image and the pointwise loop counts
        # every one of them, the refused walk's reads uncounted
        fld = PrimeField(5)
        raw = [Derivation(shape_h2, fld, dict(d.images)) for d in lnd_catalog(shape_h2, fld)]
        monkeypatch.setattr(Derivation, "flow_group_law", lambda self: True)
        result = check(verify_flow_regularity(shape_h2, fld, raw), "flow_regularity")
        assert not result.passed
        assert (result.details["off_variety"], result.details["runs"]) == (2560, 6250)
        assert result.details["flow_evaluations"] == result.details["runs"]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_cycle_tally_matches_brute_force(self, p):
        rng = random.Random(p)
        mismatched = 0
        for _ in range(25):
            pts = [(i,) for i in range(rng.randrange(1, 40))]
            order = rng.sample(pts, len(pts))
            step = {}
            while order:
                length = p if len(order) >= p and rng.random() < 0.7 else 1
                cycle, order = order[:length], order[length:]
                step.update(zip(cycle, cycle[1:] + cycle[:1]))
            sing = {pt for pt in pts if rng.random() < 0.3}

            def orbit(x):  # [step^u(x) for u = 0 .. p-1]
                images = [x]
                for _ in range(p - 1):
                    images.append(step[images[-1]])
                return images

            brute = 0
            for x in pts:
                img = x
                for _ in range(p):  # img = step^u(x), u = 0 .. p-1
                    brute += (img in sing) != (x in sing)
                    img = step[img]
            walked = oracle._orbit_walk(orbit, pts, sing, p)
            assert walked == brute
            mismatched += brute > 0
        assert mismatched

    def test_walk_refuses_non_permutations(self):
        pts = [(0,), (1,), (2,)]
        # an image outside the points
        outside = oracle._orbit_walk(
            lambda pt: [(pt[0] + u,) for u in range(5)], pts, set(), 5
        )
        assert outside is None
        # an image another cycle already read
        revisit = {(0,): [(0,), (1,)], (2,): [(2,), (1,)]}.__getitem__
        assert oracle._orbit_walk(revisit, pts, set(), 2) is None
        # a cycle of length 2 is not of order 3
        two = oracle._orbit_walk(
            lambda pt: [((pt[0] + u) % 2,) for u in range(3)], pts[:2], set(), 3
        )
        assert two is None
        # an orbit list that does not start at its point
        shifted = oracle._orbit_walk(
            lambda pt: [((pt[0] + u + 1) % 4,) for u in range(3)],
            pts + [(3,)], set(), 3,
        )
        assert shifted is None
        # back at its start at u = 1, then moving on: no fixed point
        restless = oracle._orbit_walk(
            lambda pt: [pt, pt, ((pt[0] + 1) % 3,)], pts, set(), 3
        )
        assert restless is None

    @staticmethod
    def assert_orbit_kernel(shape, fld, sample):
        """_flow_orbit equals the flow polynomials at every u, on sample, for
        every catalog derivation; returns (fixed points met, derivations
        whose first divided powers decide fixedness, derivations whose do
        not).  A derivation the characteristic refuses is refused by both."""
        p = fld.modulus
        fixed = screened = unscreened = 0
        for delta in lnd_catalog(shape, fld):
            try:
                flows = [
                    [delta.flow_polynomial(v, u) for v in range(shape.n)]
                    for u in range(p)
                ]
            except CharacteristicTooSmall:
                with pytest.raises(CharacteristicTooSmall):
                    oracle._flow_orbit(delta, p)
                continue
            orbit = oracle._flow_orbit(delta, p)
            lengths = [len(delta.divided_power_series(v)) for v in delta.moving_variables()]
            if max(lengths, default=1) <= p:
                screened += 1
            else:
                unscreened += 1
            for pt in sample:
                expected = [tuple(f.eval(pt) for f in row) for row in flows]
                assert orbit(pt) == expected, (delta, pt)
                fixed += expected == [pt] * p
        return fixed, screened, unscreened

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7, 13]))
    @settings(max_examples=60, deadline=None)
    def test_flow_orbit_equals_flow_polynomials(self, shape, p):
        # every point, every catalog derivation
        assume(oracle.point_count(shape, p) <= 600)
        fld = PrimeField(p)
        self.assert_orbit_kernel(shape, fld, enumerate_points(shape, fld))

    @pytest.mark.parametrize(
        "groups,p,screened",
        [
            (SHAPE_H2, 5, False),  # series of length 6 > 5
            ([[2], [2], [6]], 5, False),  # length 7 > 5
            ([[2], [2], [3]], 5, True),  # length 4
            ([[2], [2], [3]], 13, True),
            (SHAPE_A, 7, True),
            (SHAPE_A, 2, False),  # every catalog series of A reaches P_3
        ],
    )
    def test_flow_orbit_every_point_first_powers_on_and_off(self, groups, p, screened):
        shape, fld = validate_shape(groups), PrimeField(p)
        fixed, on, off = self.assert_orbit_kernel(shape, fld, enumerate_points(shape, fld))
        assert (on, off) == ((on + off, 0) if screened else (0, on + off))
        assert on + off >= 2 and fixed >= 1

    @pytest.mark.parametrize("groups", [SHAPE_H2, [[2], [2], [3]]])
    def test_flow_orbit_fixed_cases(self, groups):
        shape, fld = validate_shape(groups), PrimeField(13)
        pts = enumerate_points(shape, fld)
        sample = pts[:1] + random.Random(13).sample(pts, 60)
        # the origin is a fixed point of both delta flows
        fixed, screened, unscreened = self.assert_orbit_kernel(shape, fld, sample)
        assert fixed >= 2 and (screened, unscreened) == (2, 0)


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
        assert list(census.points) == enumerate_points(shape_a, f7)
        assert census.errors == 0
        assert sum(census.counts.values()) == len(census.points)
        for desc, bucket in census.buckets.items():
            assert isinstance(desc, (orbits.BigO, orbits.OMeps))
            assert len(bucket) == census.counts[desc]
        assert all(orbits.classify_point(shape_a, f7, pt) == desc
                   for desc, bucket in census.buckets.items() for pt in bucket)

    def test_verify_all_enumerates_and_classifies_once(self, monkeypatch, shape_a):
        calls = {"tables": 0, "classify": 0}
        real_enumerate = oracle.enumerate_points
        real_rows = oracle._residue_rows
        real_classify = orbits.classify_point
        trials, fld = 100, PrimeField(13)
        # a point's residue key is its zero pattern, plus r on the component
        # strata: the distinct (zero pattern, descriptor) pairs
        keys = len({
            (tuple(x == 0 for x in pt), real_classify(shape_a, fld, pt))
            for pt in real_enumerate(shape_a, fld)
        })

        def counted_rows(*args, **kwargs):
            calls["tables"] += 1
            return real_rows(*args, **kwargs)

        def counted_classify(*args, **kwargs):
            calls["classify"] += 1
            return real_classify(*args, **kwargs)

        monkeypatch.setattr(oracle, "_residue_rows", counted_rows)
        monkeypatch.setattr(orbits, "classify_point", counted_classify)
        build_census(shape_a, fld)
        assert calls["classify"] == keys
        calls.update(tables=0, classify=0)
        report = verify_all(shape_a, fld, trials=trials, seed=2)
        assert report.failures == 0
        assert check(report, "selftest_planted_merge_caught").passed
        assert calls["tables"] == 1
        pairs = check(report, "transport_roundtrip").details["pairs"]
        negatives = check(report, "transport_negative").details["expected"]
        # once per key, two per transport; invariance reads the census classes
        assert calls["classify"] <= keys + 2 * (pairs + negatives)

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7, 13]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_standalone_invariance_classifies_once_per_key(self, shape, p, assume_conjecture):
        # verify_invariance builds a census, which classifies one point per
        # residue key of X; the checks on it read every class by key
        assume(0 < oracle.point_count(shape, p) <= 3000)
        fld = PrimeField(p)
        keys = len(build_census(shape, fld, assume_conjecture).classes)
        real_classify, real_checks = orbits.classify_point, oracle._invariance_checks
        calls = {"classify": 0, "checks": 0}

        def counted_classify(*args):
            calls["classify"] += 1
            return real_classify(*args)

        def no_classify(*args):
            raise AssertionError("_invariance_checks classified a point")

        def checks_classifying_nothing(*args):
            calls["checks"] += 1
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(orbits, "classify_point", no_classify)
                return real_checks(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "classify_point", counted_classify)
            mp.setattr(oracle, "_invariance_checks", checks_classifying_nothing)
            verify_invariance(shape, fld, trials=60, seed=3, assume_conjecture=assume_conjecture)
        assert calls == {"classify": keys, "checks": 1}

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


def listed(buckets):
    """The (descriptor, points) pairs of census buckets, each view as a list."""
    return [(desc, list(same)) for desc, same in buckets.items()]


def pointwise_census(shape, fld, assume_conjecture):
    """The census by classifying every point: counts, buckets, errors."""
    counts, buckets, errors = {}, {}, 0
    for pt in enumerate_points(shape, fld):
        try:
            desc = orbits.classify_point(shape, fld, pt, assume_conjecture)
        except MathDomainError:
            errors += 1
            continue
        counts[desc] = counts.get(desc, 0) + 1
        if isinstance(desc, (orbits.BigO, orbits.OMeps)):
            buckets.setdefault(desc, []).append(pt)
    return counts, buckets, errors


def ref_invariance_checks(shape, fld, pts, trials, seed, assume_conjecture):
    """The invariance checks classifying both sides of every pair with
    classify_point: the loop the residue-key map replaced."""
    p = fld.modulus
    rng = random.Random(seed)
    catalog = lnd_catalog(shape, fld)
    basis = torus_lattice(shape).vectors

    def classify(pt):
        """The descriptor of pt, or the MathDomainError that refused it."""
        try:
            return orbits.classify_point(shape, fld, pt, assume_conjecture)
        except MathDomainError as exc:
            return exc

    flows = oracle._DescriptorTally()
    exhaustive = p * len(pts) * len(catalog) <= trials
    nset_fail = nset_runs = 0
    if exhaustive:
        cases = ((pt, d, u) for d in catalog for pt in pts for u in range(p))
    else:
        cases = (
            (rng.choice(pts), rng.choice(catalog), rng.randrange(p))
            for _ in range(trials)
        )
    for pt, delta, u in cases:
        try:
            img = delta.exp_flow(u, pt)
        except CharacteristicTooSmall as exc:
            flows.refuse(exc)
            continue
        flows.compare(classify(img), classify(pt))
        support = strata.support_zero_set(shape, fld, pt)
        if strata.n_set(shape, support):
            nset_runs += 1
            img_support = strata.support_zero_set(shape, fld, img)
            before = {c.generators for c in strata.n_set(shape, support)}
            after = {c.generators for c in strata.n_set(shape, img_support)}
            if before != after:
                nset_fail += 1

    torus = oracle._DescriptorTally()
    if basis and pts:
        for _ in range(trials):
            pt = rng.choice(pts)
            mus = [rng.randrange(1, p) for _ in basis]
            step = orbits.TorusStep(torus_scaling(shape, fld, mus))
            torus.compare(classify(step.apply(fld, pt)), classify(pt))

    return [
        flows.result("flow_invariance", exhaustive=exhaustive),
        oracle.CheckResult(
            "component_membership",
            nset_fail == 0,
            {"runs": nset_runs, "failures": nset_fail},
        ),
        torus.result("torus_invariance"),
    ]


class TestKeyedInvariance:
    """_invariance_checks reads descriptors from the census classes by
    residue key; it must equal the reference that classifies both sides of
    every pair."""

    @staticmethod
    def assert_keyed_equals_reference(shape, fld, trials, seed, assume_conjecture):
        census = build_census(shape, fld, assume_conjecture)
        want = ref_invariance_checks(shape, fld, census.points, trials, seed, assume_conjecture)
        got = oracle._invariance_checks(shape, fld, census, trials, seed)
        assert [c.to_json() for c in got] == [c.to_json() for c in want]
        return want

    @given(
        small_shapes(),
        st.sampled_from([2, 3, 5, 7, 13]),
        st.booleans(),
        st.sampled_from([1, 6]),
    )
    @settings(max_examples=80, deadline=None)
    def test_keyed_equals_reference(self, shape, p, assume_conjecture, seed):
        assume(0 < oracle.point_count(shape, p) <= 3000)
        self.assert_keyed_equals_reference(shape, PrimeField(p), 60, seed, assume_conjecture)

    @staticmethod
    def refusal_codes(checks):
        """The codes of the skipped checks, and whether any check counted
        refused pairs."""
        codes = {c.details["code"] for c in checks if c.skipped}
        return codes, any(c.details.get("refused") for c in checks)

    @pytest.mark.parametrize(
        "groups,assume_conjecture,refused",
        [
            (SHAPE_C, False, True),  # every pair refused: conjecture_not_assumed
            (SHAPE_C, True, False),
            (SHAPE_H2_POWER_ONE, False, True),  # singular points: unsupported_family
        ],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_refusing_shapes_equal_reference(self, groups, assume_conjecture, refused, seed):
        shape, f5 = validate_shape(groups), PrimeField(5)
        want = self.assert_keyed_equals_reference(shape, f5, 200, seed, assume_conjecture)
        codes, counted = self.refusal_codes(want)
        assert bool(codes or counted) == refused

    @pytest.mark.parametrize("groups", [SHAPE_H2, [[2], [2], [6]]])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_flows_leaving_the_variety_equal_reference(self, twinless_delta, groups, seed):
        # over F_5 the twinless delta flows leave X: CharacteristicTooSmall
        shape, f5 = validate_shape(groups), PrimeField(5)
        want = self.assert_keyed_equals_reference(shape, f5, 200, seed, False)
        assert want[0].details["refused"] > 0 and want[0].details["runs"] > 0

    def test_planted_descriptor_change_is_caught(self, monkeypatch, shape_a, f7):
        # z -> 2z keeps x*y^2 + z^3 + s^3 (2^3 = 1 mod 7) but multiplies r by
        # 2: a planted step that moves OMeps points to another component
        # stratum with the same zero pattern, which only the r in the key
        # tells apart
        def twisted(self, fld, pt):
            return (*pt[:2], 2 * pt[2] % fld.modulus, pt[3])

        monkeypatch.setattr(orbits.TorusStep, "apply", twisted)
        want = self.assert_keyed_equals_reference(shape_a, f7, 300, 2, False)
        assert want[2].details["failures"] > 0

    def test_planted_component_change_is_caught(self, monkeypatch, shape_a, f7):
        # every flow sends its source to (0, 1, 0, 0), on X with y != 0: a
        # source on the singular line y = z = s = 0 leaves the component
        # containing it, which component_membership must count as the
        # reference does
        monkeypatch.setattr(Derivation, "flow_image", lambda self, u, pt: (0, 1, 0, 0))
        want = self.assert_keyed_equals_reference(shape_a, f7, 1000, 3, False)
        membership = want[1].details
        assert membership["failures"] == membership["runs"] > 0

    def test_images_off_the_variety_are_refused(self, monkeypatch, shape_a, f7):
        # an image off X whose zero pattern is a census key still raises
        # PointNotOnVariety: the key map never answers for it
        def shifted(self, fld, pt):
            return ((pt[0] + 1) % fld.modulus, *pt[1:])

        monkeypatch.setattr(orbits.TorusStep, "apply", shifted)
        want = self.assert_keyed_equals_reference(shape_a, f7, 100, 2, False)
        torus = want[2].details
        assert torus["refused"] > 0 and torus["runs"] > 0

    def test_each_image_is_evaluated_once(self, monkeypatch, shape_d):
        # the sources are census points, on X by construction: only the
        # images go through on_variety, once each, and the census map holds
        # every key, so classify_point evaluates none
        fld, trials = PrimeField(13), 200
        census = build_census(shape_d, fld)
        real_on_variety = type(shape_d).on_variety
        calls = {"on_variety": 0}

        def counted(self, fld, pt):
            calls["on_variety"] += 1
            return real_on_variety(self, fld, pt)

        def no_support(*args):
            raise AssertionError("support_zero_set evaluates the equation again")

        monkeypatch.setattr(type(shape_d), "on_variety", counted)
        monkeypatch.setattr(strata, "support_zero_set", no_support)
        checks = oracle._invariance_checks(shape_d, fld, census, trials, 5)
        flows, membership, torus = (c.details for c in checks)
        assert flows["runs"] == torus["runs"] == trials and membership["runs"] > 0
        assert calls["on_variety"] == 2 * trials


class TestResidueKey:
    """build_census classifies one point per residue key, singular_set
    decides one point per zero mask; both must equal the pointwise scans."""

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7, 11, 13]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_census_equals_pointwise(self, shape, p, assume_conjecture):
        # 7 and 13 are 1 (mod 3): d = 3 shapes carry several r labels per M
        assume(oracle.point_count(shape, p) <= 3000)
        fld = PrimeField(p)
        census = build_census(shape, fld, assume_conjecture)
        assert list(census.points) == enumerate_points(shape, fld)
        counts, buckets, errors = pointwise_census(shape, fld, assume_conjecture)
        assert list(census.counts.items()) == list(counts.items())
        assert listed(census.buckets) == list(buckets.items())
        assert census.errors == errors

    @pytest.mark.parametrize(
        "groups,p",
        [
            ([[3], [3], [1, 2]], 13),  # heads join the z and s groups: factors vary
            ([[3], [3], [1, 3]], 7),
            (SHAPE_E, 7),  # a free term: the heads are groups 0 and 1 joined
        ],
    )
    def test_census_equals_pointwise_fixed(self, groups, p):
        shape, fld = validate_shape(groups), PrimeField(p)
        census = build_census(shape, fld)
        counts, buckets, errors = pointwise_census(shape, fld, False)
        assert list(census.counts.items()) == list(counts.items())
        assert listed(census.buckets) == list(buckets.items())
        assert census.errors == errors

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=80, deadline=None)
    def test_singular_set_equals_jacobian_scan(self, shape, p):
        assume(oracle.point_count(shape, p) <= 3000)
        fld = PrimeField(p)
        pts = enumerate_points(shape, fld)
        scanned = {pt for pt in pts if strata.is_singular(shape, fld, pt)}
        assert oracle.singular_set(shape, fld, pts) == scanned

    def test_root_ratio_splits_component_strata(self, shape_d):
        # d = 3 and 13 = 1 (mod 3): r^3 = -1 has three roots, so each
        # vanishing set M carries three OMeps labels, told apart only by r
        fld = PrimeField(13)
        census = build_census(shape_d, fld)
        labels = {}
        for desc in census.counts:
            if isinstance(desc, orbits.OMeps):
                labels.setdefault(desc.M, set()).add(desc.r)
        assert sorted(map(sorted, labels)) == [[1], [1, 2], [2]]
        assert all(len(rs) == 3 for rs in labels.values())
        counts, buckets, errors = pointwise_census(shape_d, fld, False)
        assert census.counts == counts and census.errors == errors == 0
        assert listed(census.buckets) == list(buckets.items())


class TestJoinView:
    """census.points and the buckets are index views over the join; read
    any way, they must equal the pointwise lists."""

    @staticmethod
    def assert_view_equals(view, pts):
        # a Sequence, so Hypothesis's sampled_from draws from it directly
        assert isinstance(view, Sequence)
        assert list(view) == pts and len(view) == len(pts)
        assert [view[i] for i in range(len(pts))] == pts
        assert view[-1] == pts[-1] and view[-len(pts)] == pts[0]
        for i in (len(pts), -len(pts) - 1):
            with pytest.raises(IndexError):
                view[i]
        for seed in range(5):
            assert random.Random(seed).choice(view) == random.Random(seed).choice(pts)

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7, 13]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_views_equal_pointwise_lists(self, shape, p, assume_conjecture):
        assume(0 < oracle.point_count(shape, p) <= 3000)
        fld = PrimeField(p)
        census = build_census(shape, fld, assume_conjecture)
        self.assert_view_equals(census.points, enumerate_points(shape, fld))
        _, buckets, _ = pointwise_census(shape, fld, assume_conjecture)
        assert list(census.buckets) == list(buckets)
        for desc, view in census.buckets.items():
            self.assert_view_equals(view, buckets[desc])

    def test_empty_view(self):
        view = oracle._JoinView()
        assert len(view) == 0 and list(view) == []
        with pytest.raises(IndexError):
            view[0]
        with pytest.raises(IndexError):
            random.Random(0).choice(view)


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

    def test_all_pairs_refused_skips_invariance(self):
        report = verify_all(validate_shape(SHAPE_C), PrimeField(5))
        for name in ("flow_invariance", "torus_invariance"):
            c = check(report, name)
            assert c.skipped and c.details["code"] == "conjecture_not_assumed"
        membership = check(report, "component_membership")
        assert membership.passed and not membership.skipped
        assert membership.details["runs"] > 0
        partition = check(report, "partition")
        assert not partition.passed and partition.details["errors"] == 625
        assert report.failures == 1

    @pytest.mark.parametrize("assume_conjecture", [False, True])
    def test_standalone_invariance_passes_the_conjecture_on(self, assume_conjecture):
        # verify_invariance classifies through its own census, built with
        # the caller's assume_conjecture: C is refused without it
        shape, f5 = validate_shape(SHAPE_C), PrimeField(5)
        combined = verify_all(shape, f5, assume_conjecture=assume_conjecture)
        standalone = verify_invariance(shape, f5, assume_conjecture=assume_conjecture)
        assert [c.to_json() for c in standalone.checks] == [
            c.to_json() for c in combined.checks
            if c.name in ("flow_invariance", "component_membership", "torus_invariance")
        ]
        assert check(standalone, "flow_invariance").skipped != assume_conjecture

    def test_refused_pairs_skip_only_themselves(self):
        # the singular points of this shape refuse; the regular ones compare
        report = verify_all(validate_shape(SHAPE_H2_POWER_ONE), PrimeField(5))
        for name in ("flow_invariance", "torus_invariance"):
            c = check(report, name)
            assert c.passed and not c.skipped
            assert c.details["runs"] > 0 and c.details["refused"] > 0
        partition = check(report, "partition")
        assert not partition.passed and partition.details["errors"] == 45
        assert report.failures == 1
        standalone = verify_invariance(validate_shape(SHAPE_H2_POWER_ONE), PrimeField(5))
        assert [c.to_json() for c in standalone.checks] == [
            c.to_json() for c in report.checks
            if c.name in ("flow_invariance", "component_membership", "torus_invariance")
        ]

    @pytest.mark.parametrize("groups", [SHAPE_H2, [[2], [2], [6]]])
    def test_flows_leaving_the_variety_are_refused(self, twinless_delta, groups):
        # without their twins some delta images leave X over F_5: those
        # trials are refused and make no component-membership run, the
        # others still compare
        shape, f5 = validate_shape(groups), PrimeField(5)
        report = verify_all(shape, f5)
        flows = check(report, "flow_invariance")
        assert flows.passed and not flows.skipped
        assert flows.details["refused"] > 0
        membership = check(report, "component_membership").details["runs"]
        assert flows.details["runs"] + flows.details["refused"] == 200
        assert membership <= flows.details["runs"]
        standalone = verify_invariance(shape, f5)
        assert [c.to_json() for c in standalone.checks] == [
            c.to_json() for c in report.checks
            if c.name in ("flow_invariance", "component_membership", "torus_invariance")
        ]

    def test_tally_skips_when_every_trial_is_refused(self):
        tally = oracle._DescriptorTally()
        tally.refuse(CharacteristicTooSmall("first"))
        tally.refuse(RootUnavailable("second"))
        result = tally.result("flow_invariance")
        assert result.skipped and result.details["code"] == "characteristic_too_small"
        tally.compare("O", "O")
        result = tally.result("flow_invariance")
        assert result.passed and not result.skipped
        assert result.details == {"runs": 1, "failures": 0, "refused": 2}

    def test_tally_compares_around_refusals(self):
        image, source = ConjectureNotAssumed("image"), RootUnavailable("source")
        tally = oracle._DescriptorTally()
        for a, b in [(image, source), ("O1", "O"), ("O", source), ("O", "O")]:
            tally.compare(a, b)
        result = tally.result("flow_invariance")
        assert not result.passed and not result.skipped
        assert result.details == {"runs": 2, "failures": 1, "refused": 2}
        # the first refusal, in (image, source) order, refuses the pair
        assert tally.refusal is image

    def test_tally_without_refusals_has_no_refused_key(self):
        tally = oracle._DescriptorTally()
        tally.compare("O", "O")
        assert tally.result("torus_invariance").details == {"runs": 1, "failures": 0}

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
