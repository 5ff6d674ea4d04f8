import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from trinomial_orbits import (
    BigO,
    ConjectureNotAssumed,
    DifferentOrbits,
    MathDomainError,
    OMeps,
    O1,
    O2,
    PointNotOnVariety,
    PrimeField,
    TrinomialShape,
    UnsupportedFamily,
    classify_point,
    descriptor_dim,
    descriptor_from_json,
    descriptor_to_json,
    family_of,
    ml_generators,
    orbit_count,
    saut_descriptor,
    transport,
    validate_shape,
)
from trinomial_orbits.orbits import (
    DD,
    DDBigO,
    DDOMeps,
    FixedPoint,
    FlowStep,
    LineOrbit,
    RegularFlex,
    Sheet,
    SingTorus,
    TorusStep,
    TorusStratum,
    AutWord,
)
from trinomial_orbits.oracle import build_census, enumerate_points, point_count
from trinomial_orbits.shapes import symmetry_group
from conftest import power_one_shapes, small_shapes


class TestFamilies:
    def test_shape_a(self, shape_a):
        tag = family_of(shape_a)
        assert tag.kind == "F1"
        v = tag.f1
        assert (v.m, v.p, v.q, v.a, v.b, v.c, v.d) == (1, 1, 1, (2,), (3,), (3,), 3)

    def test_shape_e_free_term(self, shape_e):
        tag = family_of(shape_e)
        assert tag.kind == "F1"
        v = tag.f1
        assert (v.m, v.p, v.q, v.d) == (2, 2, 0, 3)

    def test_shape_c_f2(self, shape_c):
        tag = family_of(shape_c)
        assert tag.kind == "F2"
        v = tag.f2
        assert (v.k, v.m, v.p, v.q) == (2, 1, 1, 1)

    def test_rigid_and_flexible(self, shape_b, shape_h2):
        assert family_of(shape_b).kind == "rigid"
        assert family_of(shape_h2).kind == "flexible_h"

    def test_other_family(self):
        # non-rigid through the even-pair condition but matching no table row
        tag = family_of(validate_shape([[2, 4], [2, 4], [3]]))
        assert tag.kind == "other"


class TestML:
    def test_f1_proven(self, shape_a):
        v = ml_generators(shape_a)
        assert v.status == "proven"
        assert v.generators == (1,)  # the y variable

    def test_f2_conjectural(self, shape_c):
        assert ml_generators(shape_c).status == "conjectural"

    def test_rigid_whole_ring(self, shape_b):
        v = ml_generators(shape_b)
        assert v.status == "whole_ring" and len(v.generators) == 3

    def test_flexible_constants(self, shape_h2):
        assert ml_generators(shape_h2).status == "constants"


class TestClassify:
    def test_big_o(self, shape_a, qq):
        assert classify_point(shape_a, qq, (F(-2), F(1), F(1), F(1))) == BigO()

    def test_component_stratum(self, shape_a, qq):
        desc = classify_point(shape_a, qq, (F(5), F(0), F(-1), F(1)))
        assert desc == OMeps(frozenset([1]), F(-1))
        assert desc.r ** 3 == F(-1)

    def test_singular_split_by_x(self, shape_a, qq):
        one = frozenset([1])
        assert classify_point(shape_a, qq, (F(3), F(0), F(0), F(0))) == O1(one, one, one)
        assert classify_point(shape_a, qq, (F(0),) * 4) == O2(one, one, one)

    def test_off_variety(self, shape_a, qq):
        with pytest.raises(PointNotOnVariety):
            classify_point(shape_a, qq, (F(1),) * 4)

    def test_f2_needs_flag(self, shape_c, f7):
        pt = (0, 0, 1, 1, 5)
        with pytest.raises(ConjectureNotAssumed):
            classify_point(shape_c, f7, pt)
        assert classify_point(shape_c, f7, pt, assume_conjecture=True) == DDBigO()

    def test_f2_descriptors(self, shape_c, f7):
        cl = lambda pt: classify_point(shape_c, f7, pt, assume_conjecture=True)
        # y = 0, z and s alive: component stratum, any x pattern
        assert cl((0, 1, 0, 6, 1)) == DDOMeps(frozenset([1]), f7.div(6, 1))
        assert cl((1, 1, 0, 6, 1)).M == frozenset([1])
        # origin: everything vanishes
        desc = cl((0,) * 5)
        assert desc == DD(frozenset([1, 2]), frozenset([1]), frozenset([1]), frozenset([1]))
        # two x's zero with z, s zero but y alive
        desc = cl((0, 0, 3, 0, 0))
        assert desc == DD(frozenset([1, 2]), frozenset(), frozenset([1]), frozenset([1]))

    def test_rigid_torus_strata(self, shape_b, f7):
        desc = classify_point(shape_b, f7, (0, 0, 0))
        assert isinstance(desc, TorusStratum) and desc.S == frozenset([0, 1, 2])

    def test_flexible_h2(self, shape_h2, f3):
        pts = enumerate_points(shape_h2, f3)
        kinds = {type(classify_point(shape_h2, f3, pt)) for pt in pts}
        assert kinds == {RegularFlex, SingTorus}

    def test_flexible_with_exponent_one_singular_unsupported(self, f3):
        h1 = validate_shape([[2], [2], [1, 1]])
        origin_like = (0, 0, 0, 0)
        assert h1.on_variety(f3, origin_like)
        with pytest.raises(UnsupportedFamily):
            classify_point(h1, f3, origin_like)

    def test_descriptor_json(self, shape_a, qq):
        desc = classify_point(shape_a, qq, (F(5), F(0), F(-1), F(1)))
        assert descriptor_to_json(desc, shape_a, qq) == {
            "type": "OMeps", "M": [1], "r": "-1",
        }

    def test_descriptor_json_roundtrip(self, shape_a, shape_b, shape_c, shape_h2, f7, f3):
        cases = [
            (shape_a, f7, {}),
            (shape_b, f3, {}),
            (shape_c, f3, {"assume_conjecture": True}),
            (shape_h2, f3, {}),
        ]
        for shape, fld, kw in cases:
            for pt in enumerate_points(shape, fld):
                desc = classify_point(shape, fld, pt, **kw)
                data = descriptor_to_json(desc, shape, fld)
                assert descriptor_from_json(data, shape, fld) == desc

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=60, deadline=None)
    def test_descriptor_json_roundtrip_generated(self, shape, p):
        assume(p**shape.n <= 3000)
        fld = PrimeField(p)
        for pt in enumerate_points(shape, fld):
            try:
                desc = classify_point(shape, fld, pt, assume_conjecture=True)
            except MathDomainError:
                continue
            data = json.loads(json.dumps(descriptor_to_json(desc, shape, fld)))
            assert descriptor_from_json(data, shape, fld) == desc

    def test_descriptor_json_uses_canonical_names(self, qq):
        # the aliases swap two canonical names; the JSON keeps canonical ones
        shape = TrinomialShape.from_json(
            {"groups": [[2], [3], [3]], "aliases": {"T0_1": "T1_1", "T1_1": "T0_1"}}
        )
        desc = TorusStratum(frozenset([0]))
        data = descriptor_to_json(desc, shape, qq)
        assert data == {"type": "TorusStratum", "vars": ["T0_1"]}
        assert descriptor_from_json(data, shape, qq) == desc

    def test_descriptor_from_json_unknown_type(self):
        with pytest.raises(ValueError, match="unknown descriptor type 'bogus'"):
            descriptor_from_json({"type": "bogus"})


class TestDimensions:
    def test_shape_a(self, shape_a, qq):
        one = frozenset([1])
        assert descriptor_dim(shape_a, BigO()) == 3
        assert descriptor_dim(shape_a, OMeps(one, F(-1))) == 2
        assert descriptor_dim(shape_a, O1(one, one, one)) == 1
        assert descriptor_dim(shape_a, O2(one, one, one)) == 0

    def test_dimension_orders_o1_above_o2(self, shape_d):
        for M in (frozenset([1]), frozenset([1, 2])):
            one = frozenset([1])
            assert (
                descriptor_dim(shape_d, O1(M, one, one))
                == descriptor_dim(shape_d, O2(M, one, one)) + 1
            )


class TestSAut:
    def test_sheet(self, shape_a, qq):
        desc = saut_descriptor(shape_a, qq, (F(-2), F(1), F(1), F(1)))
        assert desc == Sheet((F(1),))

    def test_line(self, shape_a, qq):
        desc = saut_descriptor(shape_a, qq, (F(5), F(0), F(-1), F(1)))
        assert isinstance(desc, LineOrbit)

    def test_fixed_point(self, shape_a, qq):
        assert saut_descriptor(shape_a, qq, (F(3), F(0), F(0), F(0))) == FixedPoint()

    def test_singular_points_are_flow_fixed(self, shape_a, shape_d, f7):
        # every singular point is literally fixed by every catalog flow
        from trinomial_orbits.derivations import lnd_catalog
        from trinomial_orbits.oracle import singular_set

        f13 = PrimeField(13)
        for shape, fld in ((shape_a, f7), (shape_d, f13)):
            pts = enumerate_points(shape, fld)
            sing = singular_set(shape, fld, pts)
            assert sing
            for delta in lnd_catalog(shape, fld):
                for pt in sing:
                    for u in range(fld.modulus):
                        assert delta.exp_flow(u, pt) == pt


class TestCounts:
    def test_shape_d_sixteen_seven(self, shape_d):
        oc = orbit_count(shape_d)
        assert (oc.aut_alg, oc.aut) == (16, 7)
        expected = {
            frozenset({"O"}),
            frozenset({"O(M={1})", "O(M={2})"}),
            frozenset({"O(M={1,2})"}),
            frozenset({"O1(M={1},P={1},Q={1})", "O1(M={2},P={1},Q={1})"}),
            frozenset({"O2(M={1},P={1},Q={1})", "O2(M={2},P={1},Q={1})"}),
            frozenset({"O1(M={1,2},P={1},Q={1})"}),
            frozenset({"O2(M={1,2},P={1},Q={1})"}),
        }
        assert {frozenset(cls) for cls in oc.listing} == expected

    def test_shape_e_ten_three(self, shape_e):
        oc = orbit_count(shape_e)
        assert (oc.aut_alg, oc.aut) == (10, 3)
        expected = {
            frozenset({"O"}),
            frozenset({"O(M={1})", "O(M={2})"}),
            frozenset({"O(M={1,2})"}),
        }
        assert {frozenset(cls) for cls in oc.listing} == expected

    def test_shape_a_six_four(self, shape_a):
        oc = orbit_count(shape_a)
        assert (oc.aut_alg, oc.aut) == (6, 4)

    def test_gluing_never_merges_o1_with_o2_or_distinct_sizes(self, shape_d):
        for cls in orbit_count(shape_d).listing:
            kinds = {lbl.split("(")[0] for lbl in cls}
            assert len(kinds) == 1  # O1 never glued with O2, etc.
            m_parts = {
                lbl.split("M={")[1].split("}")[0] for lbl in cls if "M={" in lbl
            }
            assert len({m.count(",") for m in m_parts}) <= 1  # |M| preserved

    def test_unsupported_for_rigid(self, shape_b):
        with pytest.raises(UnsupportedFamily):
            orbit_count(shape_b)


def _symmetry_classes(shape, labels):
    """The classes of listing labels under every symmetry group element,
    acting on the variables each label names."""
    view = family_of(shape).f1
    slots = {"M": view.ys, "P": view.zs, "Q": view.ss}

    def variables(label):
        parts = re.findall(r"([MPQ])=\{([\d,]+)\}", label)
        names = frozenset(
            slots[name][int(k) - 1] for name, body in parts for k in body.split(",")
        )
        return label.split("(")[0], names

    by_variables = {variables(label): label for label in labels}
    classes = set()
    for label in labels:
        kind, names = variables(label)
        classes.add(
            frozenset(
                by_variables[kind, frozenset(perm[v] for v in names)]
                for perm in symmetry_group(shape).elements
            )
        )
    return classes


class TestGluingUnderSymmetries:
    """orbit_count's listing equals the label classes of the whole
    symmetry group, computed here from the labels' variables."""

    @staticmethod
    def check_listing(shape):
        oc, view = orbit_count(shape), family_of(shape).f1
        labels = [label for cls in oc.listing for label in cls]
        # one O(M) label stands for the d component strata of each M
        assert len(labels) == oc.aut_alg - (2**view.m - 1) * (view.d - 1)
        assert {frozenset(cls) for cls in oc.listing} == _symmetry_classes(shape, labels)

    @given(power_one_shapes())
    @settings(max_examples=80, deadline=None)
    def test_generated_power_one_shapes(self, shape):
        self.check_listing(shape)

    @pytest.mark.parametrize(
        "groups",
        [
            [[1, 2], [3, 3], [3, 3]],
            [[1, 2, 2], [2, 3], [3, 2]],
            [[3, 3], [1, 2], [3, 3]],
            [[1, 2, 2], [3, 3, 5], [5, 3, 3]],
        ],
    )
    def test_z_s_swap_shapes(self, groups):
        shape = validate_shape(groups)
        view = family_of(shape).f1
        gens = symmetry_group(shape).generators
        assert any(perm[view.zs[0]] in view.ss for perm in gens)
        self.check_listing(shape)


class TestTransport:
    def test_hand_word_rational(self, shape_a, qq):
        src = (F(-2), F(1), F(1), F(1))
        dst = (F(-9), F(1), F(2), F(1))
        word = transport(shape_a, qq, src, dst)
        assert word.to_json(qq) == {
            "steps": [{"step": "flow", "derivation": "D:1", "u": "-1"}]
        }
        assert word.apply(shape_a, qq, src) == dst

    def test_hand_word_f7(self, shape_a, f7):
        word = transport(shape_a, f7, (5, 0, 6, 1), (0, 0, 6, 1))
        assert word.to_json(f7) == {
            "steps": [{"step": "flow", "derivation": "D:1", "u": "3"}]
        }

    def test_identity(self, shape_a, qq):
        src = (F(-2), F(1), F(1), F(1))
        assert transport(shape_a, qq, src, src).steps == ()

    def test_different_orbits_rejected(self, shape_a, f7):
        # r = 6 vs r = 3 components over F_7
        src = (1, 0, 6, 1)
        dst = (1, 0, 3, 1)
        assert shape_a.on_variety(f7, src) and shape_a.on_variety(f7, dst)
        with pytest.raises(DifferentOrbits):
            transport(shape_a, f7, src, dst)

    def test_singular_stratum_unsupported(self, shape_a, f7):
        with pytest.raises(UnsupportedFamily):
            transport(shape_a, f7, (3, 0, 0, 0), (5, 0, 0, 0))

    def test_rational_torus_step(self, shape_a, qq):
        # y rescaled by 2 needs a genuine rational torus solution
        src = (F(-2), F(1), F(1), F(1))
        dst = (F(-1, 2), F(2), F(1), F(1))
        assert shape_a.on_variety(qq, dst)
        word = transport(shape_a, qq, src, dst)
        assert word.apply(shape_a, qq, src) == dst

    def test_random_pairs_f7(self, shape_a, f7):
        rng = random.Random(2)
        pts = enumerate_points(shape_a, f7)
        buckets = {}
        for pt in pts:
            desc = classify_point(shape_a, f7, pt)
            if isinstance(desc, (BigO, OMeps)):
                buckets.setdefault(desc, []).append(pt)
        for _ in range(50):
            bucket = rng.choice(list(buckets.values()))
            src, dst = rng.choice(bucket), rng.choice(bucket)
            word = transport(shape_a, f7, src, dst)
            assert word.apply(shape_a, f7, src) == dst

    def test_torus_steps_on_neutral_component(self, shape_d):
        # every emitted torus step satisfies the lattice constraints:
        # coordinates multiply each monomial of the equation equally
        f13 = PrimeField(13)
        rng = random.Random(4)
        pts = enumerate_points(shape_d, f13)
        buckets = {}
        for pt in pts:
            desc = classify_point(shape_d, f13, pt)
            if isinstance(desc, (BigO, OMeps)):
                buckets.setdefault(desc, []).append(pt)
        seen_torus = 0
        for _ in range(40):
            bucket = rng.choice(list(buckets.values()))
            src, dst = rng.choice(bucket), rng.choice(bucket)
            word = transport(shape_d, f13, src, dst)
            assert word.apply(shape_d, f13, src) == dst
            for step in word.steps:
                if hasattr(step, "coords"):
                    seen_torus += 1
                    scales = [
                        shape_d.monomial_value(f13, step.coords, g) for g in range(3)
                    ]
                    assert scales[0] == scales[1] == scales[2] != 0
        assert seen_torus > 0

    @staticmethod
    def inverse_word(word, fld):
        """The steps undone in reverse order: exp(-u delta) undoes
        exp(u delta), the inverse torus element undoes a torus step."""
        steps = []
        for step in reversed(word.steps):
            if isinstance(step, TorusStep):
                steps.append(TorusStep(tuple(fld.inv(c) for c in step.coords)))
            else:
                assert isinstance(step, FlowStep), step
                steps.append(FlowStep(step.designator, fld.neg(step.u)))
        return AutWord(tuple(steps))

    @given(power_one_shapes(), st.sampled_from([7, 13]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_generated(self, shape, p, data):
        assume(point_count(shape, p) <= 30000)
        fld = PrimeField(p)
        buckets = list(build_census(shape, fld).buckets.values())
        bucket = data.draw(st.sampled_from(buckets))
        src = data.draw(st.sampled_from(bucket))
        dst = data.draw(st.sampled_from(bucket))
        word = transport(shape, fld, src, dst)
        assert word.apply(shape, fld, src) == dst
        assert self.inverse_word(word, fld).apply(shape, fld, dst) == src
        assert transport(shape, fld, dst, src).apply(shape, fld, dst) == src

    def test_word_json_roundtrip(self, shape_a, f7):
        word = transport(shape_a, f7, (5, 0, 6, 1), (0, 0, 6, 1))
        again = AutWord.from_json(f7, word.to_json(f7))
        assert again.apply(shape_a, f7, (5, 0, 6, 1)) == (0, 0, 6, 1)

    def test_catalog_built_once_per_call(self, monkeypatch, shape_d):
        from trinomial_orbits import derivations

        f13 = PrimeField(13)
        builds = []
        real = derivations.lnd_catalog

        def counted(shape, fld=derivations.QQ, *args, **kwargs):
            builds.append(fld)
            return real(shape, fld, *args, **kwargs)

        monkeypatch.setattr(derivations, "lnd_catalog", counted)
        # open stratum, x solved from x*y1^2*y2^2 + z^3 + s^3 = 0
        src = (11, 1, 1, 1, 1)
        dst = (f13.div(f13.neg(f13.add(64, 125)), 4), 1, 2, 4, 5)
        assert shape_d.on_variety(f13, src) and shape_d.on_variety(f13, dst)
        word = transport(shape_d, f13, src, dst)
        flows = sum(1 for s in word.steps if hasattr(s, "designator"))
        assert flows >= 2 and builds.count(f13) == 1
        builds.clear()
        assert word.apply(shape_d, f13, src) == dst
        assert builds.count(f13) == 1

    def test_perm_step_applies(self, shape_a, f7):
        from trinomial_orbits.orbits import PermStep
        from trinomial_orbits.shapes import symmetry_group

        perm = symmetry_group(shape_a).generators[0]  # z <-> s swap
        word = AutWord((PermStep(perm),))
        assert word.apply(shape_a, f7, (5, 0, 6, 1)) == (5, 0, 1, 6)


class TestGluingOracle:
    """Brute-force cross-check of the full-group gluing over F_13.

    The finite diagonal stabilizer and the equation symmetries are
    enumerated directly as automorphisms of X(F_13); the orbit classes they
    generate on descriptor classes must coincide with the abstract listing
    (component labels merged by the cyclic part, then symmetry action)."""

    def test_shape_d_listing_matches_h_action(self, shape_d):
        from itertools import product

        from trinomial_orbits.orbits import _UnionFind
        from trinomial_orbits.shapes import (
            apply_permutation_to_point,
            symmetry_group,
        )

        fld = PrimeField(13)
        p = 13
        units = range(1, p)

        # all diagonal stabilizer elements: equal scaling of the monomials
        stabilizer = []
        for ty1, ty2, tz in product(units, repeat=3):
            zscale = pow(tz, 3, p)
            tx = zscale * pow(ty1, -2, p) * pow(ty2, -2, p) % p
            for ts in units:
                if pow(ts, 3, p) == zscale:
                    stabilizer.append((tx, ty1, ty2, tz, ts))
        assert len(stabilizer) == 12**3 * 3  # three cube-root cosets

        # one representative point per realized descriptor (all 16 realized
        # since 13 = 1 mod 2d); gluing is derived purely by brute force
        pts = enumerate_points(shape_d, fld)
        reps = {}
        for pt in pts:
            reps.setdefault(classify_point(shape_d, fld, pt), pt)
        oc = orbit_count(shape_d)
        assert len(reps) == oc.aut_alg

        uf = _UnionFind(list(reps))
        for desc, pt in reps.items():
            for t in stabilizer:
                image = tuple(fld.mul(c, v) for c, v in zip(t, pt))
                uf.union(desc, classify_point(shape_d, fld, image))
            for perm in symmetry_group(shape_d).elements:
                image = apply_permutation_to_point(perm, pt)
                uf.union(desc, classify_point(shape_d, fld, image))
        oracle = {
            frozenset(_abstract_label(shape_d, fld, d) for d in cls)
            for cls in uf.classes()
        }
        assert oracle == {frozenset(cls) for cls in oc.listing}


def _abstract_label(shape, fld, desc):
    """Descriptor to the abstract listing label (component labels merged)."""
    from trinomial_orbits.orbits import label_str

    if isinstance(desc, BigO):
        return "O"
    if isinstance(desc, OMeps):
        return label_str(("O(M)", tuple(sorted(desc.M))))
    kind = "O1" if isinstance(desc, O1) else "O2"
    return label_str(
        (kind, tuple(sorted(desc.M)), tuple(sorted(desc.P)), tuple(sorted(desc.Q)))
    )
