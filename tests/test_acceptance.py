"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain pytest shows them only on failure.  Time limits are asserted
where stated.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from trinomial_orbits import (
    PrimeField,
    QQ,
    RootUnavailable,
    classify_point,
    containing_components,
    enumerate_points,
    family_of,
    lnd_catalog,
    linked,
    orbit_count,
    rigidity_classify,
    singular_components,
    support_zero_set,
    torus_lattice,
    transport,
    validate_shape,
    verify_invariance,
    verify_partition,
    verify_transport,
)
from trinomial_orbits.derivations import catalog_derivation, delta_obstruction
from trinomial_orbits.intlinalg import mat_vec, smith_normal_form
from trinomial_orbits.oracle import verify_flow_regularity
from trinomial_orbits.orbits import SingTorus
from trinomial_orbits.shapes import constraint_rows

from conftest import (
    SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_H2, random_points, singular_set,
)

TABLE_SHAPES = [SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_H2,
                [[1, 1], [1, 1, 4], [7]], [[1, 2], [1, 3], [4]]]


def announce(number, message):
    print(f"[criterion {number}] PASS: {message}")


def test_criterion_1_classification_table():
    t0 = time.perf_counter()
    b = rigidity_classify(validate_shape(SHAPE_B))
    assert b.tag == "rigid" and b.witnesses == ()

    a = rigidity_classify(validate_shape(SHAPE_A))
    assert a.tag == "nonrigid_other"
    assert ("power_one", 0, 1) in a.witnesses
    assert family_of(validate_shape(SHAPE_A)).kind == "F1"

    h2 = rigidity_classify(validate_shape(SHAPE_H2))
    assert (h2.tag, h2.h_type) == ("flexible", "H2")
    assert ("even_pair", 0, 1, 1, 1) in h2.witnesses

    h1 = rigidity_classify(validate_shape([[1, 1], [1, 1, 4], [7]]))
    assert (h1.tag, h1.h_type) == ("flexible", "H1")
    assert ("power_one", 0, 1) in h1.witnesses

    h3 = rigidity_classify(validate_shape([[1, 2], [1, 3], [4]]))
    assert (h3.tag, h3.h_type) == ("flexible", "H3")

    c = family_of(validate_shape(SHAPE_C))
    assert c.kind == "F2" and c.f2.k == 2

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"classification table exact, witnesses reported ({elapsed:.3f}s)")


def test_criterion_2_singular_strata_of_x1x2y2_example():
    shape = validate_shape(SHAPE_C)
    comps = singular_components(shape)
    V1 = frozenset([2, 3, 4])  # y = z = s = 0
    V2 = frozenset([0, 1, 3, 4])  # x1 = x2 = z = s = 0
    assert {c.generators for c in comps} == {V1, V2}

    strata = {
        "origin": frozenset([0, 1, 2, 3, 4]),
        "O2": frozenset([1, 2, 3, 4]),   # x1 free
        "O3": frozenset([0, 2, 3, 4]),   # x2 free
        "O4": frozenset([2, 3, 4]),      # x1, x2 free
        "O5": frozenset([0, 1, 3, 4]),   # y free
    }
    expected_nsets = {
        "O2": {V1}, "O3": {V1}, "O4": {V1}, "O5": {V2}, "origin": {V1, V2},
    }
    for name, S in strata.items():
        got = {c.generators for c in containing_components(shape, QQ, S)}
        assert got == expected_nsets[name], name

    trio = [strata["O2"], strata["O3"], strata["O4"]]
    for x in trio:
        for y in trio:
            assert linked(shape, x, y)
    for outsider in (strata["origin"], strata["O5"]):
        for member in trio:
            assert not linked(shape, outsider, member)
    announce(2, "X3 example: components {V1,V2}, N-sets, linked trio reproduced")


def test_criterion_3_orbit_counts_and_listings():
    d_count = orbit_count(validate_shape(SHAPE_D))
    assert (d_count.aut_alg, d_count.aut) == (16, 7)
    assert {frozenset(cls) for cls in d_count.listing} == {
        frozenset({"O"}),
        frozenset({"O(M={1})", "O(M={2})"}),
        frozenset({"O(M={1,2})"}),
        frozenset({"O1(M={1},P={1},Q={1})", "O1(M={2},P={1},Q={1})"}),
        frozenset({"O2(M={1},P={1},Q={1})", "O2(M={2},P={1},Q={1})"}),
        frozenset({"O1(M={1,2},P={1},Q={1})"}),
        frozenset({"O2(M={1,2},P={1},Q={1})"}),
    }

    e_count = orbit_count(validate_shape(SHAPE_E))
    assert (e_count.aut_alg, e_count.aut) == (10, 3)
    assert {frozenset(cls) for cls in e_count.listing} == {
        frozenset({"O"}),
        frozenset({"O(M={1})", "O(M={2})"}),
        frozenset({"O(M={1,2})"}),
    }

    a_count = orbit_count(validate_shape(SHAPE_A))
    assert (a_count.aut_alg, a_count.aut) == (6, 4)
    announce(3, "orbit counts (16,7), (10,3), (6,4) with the glued listings")


def test_criterion_4_derivation_suite():
    t0 = time.perf_counter()
    fld = PrimeField(101)
    rng = random.Random(41)
    total = 0
    for raw in (SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_H2):
        shape = validate_shape(raw)
        catalog = lnd_catalog(shape, fld)
        assert catalog, raw
        pts = random_points(shape, fld, 100, rng)
        for delta in catalog:
            ok, exact = delta.well_defined()
            assert ok and exact, delta.designator
            for v in range(shape.n):
                assert delta.nilpotency_index(v) <= 50
            for pt in pts:
                img = delta.exp_flow(rng.randrange(101), pt)
                assert shape.on_variety(fld, img)
            for _ in range(50):
                pt = rng.choice(pts)
                u, w = rng.randrange(101), rng.randrange(101)
                assert delta.exp_flow(u, delta.exp_flow(w, pt)) == delta.exp_flow(
                    (u + w) % 101, pt
                )
            total += 1
    # the pinned exact index: D:1 on x for x*y^2 + z^3 + s^3
    D1 = catalog_derivation(validate_shape(SHAPE_A), QQ, "D:1")
    assert D1.nilpotency_index(0) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(4, f"{total} catalog derivations verified over F_101 ({elapsed:.2f}s)")


def test_criterion_5_exhaustive_f3_partition_and_flows():
    t0 = time.perf_counter()
    shape = validate_shape(SHAPE_A)
    f3 = PrimeField(3)
    report = verify_partition(shape, f3)
    assert report.failures == 0
    details = next(c for c in report.checks if c.name == "partition").details
    assert details["points"] == 27
    counts = {json.loads(k)["type"]: v for k, v in details["counts"].items()}
    assert counts == {"O": 18, "OMeps": 6, "O1": 2, "O2": 1}
    omeps_classes = [k for k in details["counts"] if json.loads(k)["type"] == "OMeps"]
    assert len(omeps_classes) == 1  # the single r = -1 component over F_3

    inv = verify_invariance(shape, f3, trials=324, seed=0)
    assert inv.failures == 0
    flows = next(c for c in inv.checks if c.name == "flow_invariance").details
    assert flows["runs"] == 27 * 4 * 3 and flows["exhaustive"]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(5, f"27 points, census (18,6,2,1), 324 exhaustive flows ({elapsed:.3f}s)")


def test_criterion_6_transporter():
    f7, f13 = PrimeField(7), PrimeField(13)
    rep_a = verify_transport(validate_shape(SHAPE_A), f7, pairs=50, seed=6)
    assert rep_a.failures == 0
    rep_d = verify_transport(validate_shape(SHAPE_D), f13, pairs=50, seed=6)
    assert rep_d.failures == 0

    word_q = transport(
        validate_shape(SHAPE_A), QQ,
        (F(-2), F(1), F(1), F(1)), (F(-9), F(1), F(2), F(1)),
    )
    assert word_q.to_json(QQ) == {
        "steps": [{"step": "flow", "derivation": "D:1", "u": "-1"}]
    }
    word_7 = transport(validate_shape(SHAPE_A), f7, (5, 0, 6, 1), (0, 0, 6, 1))
    assert word_7.to_json(f7) == {
        "steps": [{"step": "flow", "derivation": "D:1", "u": "3"}]
    }
    announce(6, "100 random transports exact; both hand-computed words verbatim")


def test_criterion_7_lattice_suite():
    for raw in TABLE_SHAPES:
        shape = validate_shape(raw)
        lattice = torus_lattice(shape)
        assert lattice.rank == shape.n - 2, raw
        rows = constraint_rows(shape)
        for vec in lattice.vectors:
            assert all(x == 0 for x in mat_vec(rows, list(vec)))
        D, _, _, _ = smith_normal_form([list(v) for v in lattice.vectors])
        assert all(D[i][i] == 1 for i in range(len(D)))  # saturated

    # realized component count per M over F_7 equals d = 3 for shape A
    shape = validate_shape(SHAPE_A)
    f7 = PrimeField(7)
    report = verify_partition(shape, f7)
    assert report.failures == 0
    details = next(c for c in report.checks if c.name == "partition").details
    omeps_r = {
        json.loads(k)["r"] for k in details["counts"]
        if json.loads(k)["type"] == "OMeps"
    }
    assert len(omeps_r) == 3
    assert all(pow(int(r), 3, 7) == 6 for r in omeps_r)  # r^d = -1
    announce(7, "rank n-2, constraints, saturation on all table shapes; 3 components over F_7")


def test_criterion_8_quadratic_pair_substitute():
    shape = validate_shape(SHAPE_H2)
    f3 = PrimeField(3)

    # (a) over F_3, singular strata are exactly the torus strata cut out by
    # supports, and no two distinct ones are linked (every exponent >= 2)
    pts = enumerate_points(shape, f3)
    sing = singular_set(shape, f3, pts)
    assert len(pts) == 81 and len(sing) == 25
    supports = set()
    for pt in sing:
        desc = classify_point(shape, f3, pt)
        S = support_zero_set(shape, f3, pt)
        assert desc == SingTorus(S)
        supports.add(S)
    for x in supports:
        for y in supports:
            assert linked(shape, x, y) == (x == y)

    # (b) the two sign-variant derivations need sqrt(-1), which F_3 lacks:
    # the obstruction must surface rather than a fake catalog
    assert delta_obstruction(shape, f3) is not None
    with pytest.raises(RootUnavailable):
        from trinomial_orbits.derivations import _build_delta

        _build_delta(shape, f3)

    # (c) the flow check runs pointwise-exhaustively over the smallest
    # usable prime with sqrt(-1) and exponents alive: F_13
    f13 = PrimeField(13)
    catalog = lnd_catalog(shape, f13)
    assert {d.designator for d in catalog} == {"delta+:1", "delta-:1"}
    report = verify_flow_regularity(shape, f13, catalog)
    result = next(c for c in report.checks if c.name == "flow_regularity")
    assert result.passed
    assert result.details["runs"] == result.details["points"] * 13 * 2
    assert result.details == {
        "runs": 742586,
        "failures": 0,
        "off_variety": 0,
        "points": 28561,
        "singular": 625,
        "flow_evaluations": 702,  # p images per T-orbit and derivation
        "torus_orbits": 27,
    }
    announce(
        8,
        "F_3 singular strata = torus strata, no links; delta obstruction "
        f"surfaced over F_3; {result.details['runs']} exhaustive flows over F_13",
    )
