import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from trinomial_orbits import (
    BigO,
    CharacteristicTooSmall,
    ConjectureNotAssumed,
    Derivation,
    DifferentOrbits,
    DlogUnsolvable,
    MathDomainError,
    MissingCoordinate,
    OMeps,
    O1,
    O2,
    PointNotOnVariety,
    PrimeField,
    QQ,
    RootUnavailable,
    TrinomialShape,
    UnsupportedFamily,
    catalog_derivation,
    classify_point,
    descriptor_dim,
    descriptor_from_json,
    descriptor_to_json,
    family_of,
    lnd_catalog,
    ml_generators,
    orbit_count,
    orbits,
    parse_field,
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
    _solve_torus,
)
from trinomial_orbits.derivations import eta_grading
from trinomial_orbits.fields import FieldError, QI
from trinomial_orbits.intlinalg import smith_normal_form
from trinomial_orbits.oracle import _orbit_draw, build_census, enumerate_points, point_count
from trinomial_orbits.shapes import SymmetryGroup, symmetry_group, torus_lattice, torus_scaling
from conftest import (
    SHAPE_A, SHAPE_D, power_one_shapes, singular_set, small_shapes, symmetry_closure,
)


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

    @pytest.mark.parametrize(
        "groups,kind",
        [
            ([[2], [3], [3]], "rigid"),
            ([[2, 2], [2, 2], [5]], "flexible_h"),
            ([[1, 1, 2], [3], [3]], "F2"),
            ([[2, 4], [2, 4], [3]], "other"),
        ],
    )
    def test_power_one_refusals(self, groups, kind):
        shape = validate_shape(groups)
        with pytest.raises(UnsupportedFamily) as exc:
            descriptor_dim(shape, BigO())
        assert str(exc.value) == "dimensions are stated for the power-one family"
        with pytest.raises(UnsupportedFamily) as exc:
            eta_grading(shape, 1)
        assert str(exc.value) == f"family {kind} where the power-one family is needed"


class TestSAut:
    def test_sheet(self, shape_a, qq):
        desc = saut_descriptor(shape_a, qq, (F(-2), F(1), F(1), F(1)))
        assert desc == Sheet((F(1),))

    def test_line(self, shape_a, qq):
        desc = saut_descriptor(shape_a, qq, (F(5), F(0), F(-1), F(1)))
        assert isinstance(desc, LineOrbit)

    def test_fixed_point(self, shape_a, qq):
        assert saut_descriptor(shape_a, qq, (F(3), F(0), F(0), F(0))) == FixedPoint()

    @given(power_one_shapes(), st.sampled_from([2, 3, 5, 7, 13]))
    @settings(max_examples=40, deadline=None)
    def test_orbit_type_follows_the_vanishing_coordinates(self, shape, p):
        # a sheet where no y vanishes, a line where some y but no z or s
        # does, a fixed point otherwise: on one point of every T-orbit
        fld, view = PrimeField(p), family_of(shape).f1
        try:
            census = build_census(shape, fld)
        except MathDomainError:
            assume(False)
        for pt, _, _ in census.orbits:
            desc = saut_descriptor(shape, fld, pt)
            if all(pt[i] for i in view.ys):
                assert desc == Sheet(tuple(pt[i] for i in view.ys))
            elif all(pt[i] for i in view.zs + view.ss):
                assert desc == LineOrbit(pt)
            else:
                assert desc == FixedPoint()

    def test_singular_points_are_flow_fixed(self, shape_a, shape_d, f7):
        # every singular point is literally fixed by every catalog flow
        from trinomial_orbits.derivations import lnd_catalog

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
                for perm in symmetry_closure(shape)
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

    def test_every_shape_whose_y_classes_glue(self):
        # x's group [1, a, a] (m = 2, so M classes glue) beside z and s
        # groups of sizes 1-3 and exponents 2-4, or beside a free term;
        # mirror images (z and s groups exchanged) are skipped
        sides = [
            list(g) for k in (1, 2, 3)
            for g in itertools.combinations_with_replacement((2, 3, 4), k)
        ]
        checked = 0
        for a in (2, 3, 4):
            raws = [[[1, a, a], z, s] for z, s in itertools.combinations_with_replacement(sides, 2)]
            raws += [[[], [1, a, a], z] for z in sides]
            for raw in raws:
                shape = validate_shape(raw)
                if family_of(shape).kind == "F1":
                    assert family_of(shape).f1.m == 2
                    self.check_listing(shape)
                    checked += 1
        assert checked > 500

    def test_generator_moving_a_y_with_a_z_is_refused(self):
        shape = TrinomialShape(((1, 2, 2), (3,), (3,)))  # no facts from other tests
        view = family_of(shape).f1
        perm = list(range(shape.n))
        perm[view.ys[0]], perm[view.zs[0]] = view.zs[0], view.ys[0]
        key = f"{symmetry_group.__module__}.{symmetry_group.__name__}"
        shape.__dict__[key] = SymmetryGroup((tuple(perm),), 2)
        assert symmetry_group(shape).generators == (tuple(perm),)
        with pytest.raises(AssertionError, match="moved a y together with a z or s"):
            orbit_count(shape)


def same_orbit_pairs(shape, fld, count, seed):
    """Seeded pairs of points in one open or component orbit of a shape
    whose z and s groups are single cubes (A and D).  An open pair has
    every y nonzero and x solved from the equation; a component pair has y
    zero on a nonempty M, the other ys nonzero, any x, and s = w z for one
    cube root w of -1 per pair."""
    rng = random.Random(seed)
    view = family_of(shape).f1
    gx = shape.group_of(view.x)
    (z,), (s,) = view.zs, view.ss
    roots = sorted(fld.kth_roots(fld.neg(fld.one), 3))

    def unit():
        if fld.modulus is None:
            return F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        return rng.randrange(1, fld.modulus)

    def point(M, w):
        pt = [unit() for _ in range(shape.n)]
        if M:
            for k in M:
                pt[view.ys[k]] = fld.zero
            pt[s] = fld.mul(w, pt[z])
        else:
            x_one = pt[:view.x] + [fld.one] + pt[view.x + 1:]
            rest = fld.add(*(shape.monomial_value(fld, pt, g) for g in range(3) if g != gx))
            pt[view.x] = fld.div(fld.neg(rest), shape.monomial_value(fld, x_one, gx))
        return tuple(pt)

    pairs = []
    for _ in range(count):
        M = [k for k in range(view.m) if rng.random() < 0.5] if rng.random() < 0.5 else []
        w = rng.choice(roots)
        pairs.append((point(M, w), point(M, w)))
    return pairs


def census_pairs(shape, fld, count, seed):
    """Seeded pairs of points in one open or component census bucket over
    F_p, sampled as the oracle's transport check samples them: an orbit
    drawn by its size, and each point its representative moved by a
    uniform torus element."""
    rng = random.Random(seed)
    rank = len(torus_lattice(shape).vectors)
    draws = [_orbit_draw(b, rng) for b in build_census(shape, fld).buckets.values()
             if sum(size for _, size in b) >= 2]

    def point(draw):
        rep, _ = draw()
        mus = [rng.randrange(1, fld.modulus) for _ in range(rank)]
        return TorusStep(torus_scaling(shape, fld, mus)).apply(fld, rep)

    pairs = []
    for _ in range(count):
        draw = rng.choice(draws)
        pairs.append((point(draw), point(draw)))
    return pairs


def transport_digest(shape, fld, pairs):
    """sha256 of the JSON list of transport outputs over the pairs: each
    word, checked to map src to dst, or the refusal's class and message."""
    outs = []
    for src, dst in pairs:
        try:
            word = transport(shape, fld, src, dst)
        except MathDomainError as exc:
            outs.append([type(exc).__name__, str(exc)])
            continue
        assert word.apply(shape, fld, src) == dst
        outs.append(word.to_json(fld))
    return hashlib.sha256(json.dumps(outs).encode()).hexdigest()


# sha256 of the JSON list of words for same_orbit_pairs(shape, field, 40,
# "<name>/<field>"), recorded from the per-prime integer and discrete-log
# solvers that the solve in K^* replaced: the words must not change
PINNED_WORDS = {
    ("A", "Q"): "8dee19d88099f8e82c84f9fb20617c36b9bc813b9681aab4276a0a7a37faa26e",
    ("A", "Fp:13"): "34bbe9735943c7bb1c969fee930668d41a24b942470b51f4bd0c6bde21abf993",
    ("A", "Fp:101"): "b5bb507870ad24b8b296c56f0de30874049ac749ea727d6682ee916d50109aa5",
    ("D", "Q"): "fe68beec76293c1fcf2dd1c65626faf03dadabe63844f4d50d47e750ed0b2391",
    ("D", "Fp:13"): "9ccc11065ce4cb93624056ba9ddd7da7dc6e99d2fec973f96accaf0652eaa7bb",
    ("D", "Fp:101"): "34f48087171eddcbda4e071a9f93acacfca189192a97647413aca5c46955becf",
}

# transport_digest of census_pairs(shape, field, 40, "<shape>/<field>"),
# recorded from the transporter with separate open and component recipes:
# several zs, a free term, and a characteristic where D:1 cannot move x
PINNED_CENSUS_WORDS = {
    ("[[],[1,3,3],[3,3]]", "Fp:7"): "97f2a4316fbf6f4bdd4bd880621a3a3f6e3f4059b8626b1e8a123c06ad56bc4f",
    ("[[],[1,3,3],[3,3]]", "Fp:13"): "6f07f66b049f5b6688f3c936cffe34c25f9717645f6337b8f829cb9c0de047ca",
    ("[[1,2],[3,3],[3]]", "Fp:7"): "b7021d40f311662c8af4570a7739c979f18919a1a30d9a965c60eb7a6d856efd",
    ("[[1,2],[3,3],[3]]", "Fp:13"): "b3cf3f1d2115eb65509dec4511d756893e91f343ea42b32aaab25155f642a16d",
    ("[[1,2],[3,5],[3]]", "Fp:3"): "2626b8be10d85d505db1cf2e331f2042ea57a49165aab00762b68cc8b1e6483c",
}


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

    def test_plain_int_points_rational(self, shape_a, qq):
        # ints are valid coordinates over Q: the torus ratios must stay exact
        src, dst = (-1, 3, 1, 2), (-9, 1, 1, 2)
        word = transport(shape_a, qq, src, dst)
        assert word.to_json(qq) == {"steps": [{"step": "torus", "coords": ["9", "1/3", "1", "1"]}]}
        assert word.apply(shape_a, qq, src) == dst
        assert word == transport(shape_a, qq, tuple(map(F, src)), tuple(map(F, dst)))

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
        rank = len(torus_lattice(shape).vectors)
        multipliers = st.lists(st.integers(1, p - 1), min_size=rank, max_size=rank)

        def point():
            """Any point of the bucket: an orbit's representative, moved by
            a torus element."""
            rep, _ = data.draw(st.sampled_from(bucket))
            step = TorusStep(torus_scaling(shape, fld, data.draw(multipliers)))
            return step.apply(fld, rep)

        src, dst = point(), point()
        word = transport(shape, fld, src, dst)
        assert word.apply(shape, fld, src) == dst
        assert self.inverse_word(word, fld).apply(shape, fld, dst) == src
        assert transport(shape, fld, dst, src).apply(shape, fld, dst) == src

    def test_torus_step_miss_is_an_error(self, monkeypatch, shape_a):
        monkeypatch.setattr(orbits, "torus_scaling", lambda shape, fld, mus: (fld.one,) * shape.n)
        with pytest.raises(AssertionError, match="torus step missed a matched coordinate"):
            transport(shape_a, PrimeField(13), (11, 1, 1, 1), (3, 2, 3, 0))

    def test_torus_step_miss_is_an_error_under_optimize(self):
        # python -O strips assert statements; the library's checks must stay
        code = """if True:
            import sys
            sys.path.insert(0, sys.argv[1])
            from trinomial_orbits import PrimeField, orbits, validate_shape
            orbits.torus_scaling = lambda shape, fld, mus: (fld.one,) * shape.n
            try:
                orbits.transport(validate_shape([[1, 2], [3], [3]]), PrimeField(13),
                                 (11, 1, 1, 1), (3, 2, 3, 0))
            except AssertionError as exc:
                print(exc)
        """
        src = os.path.dirname(os.path.dirname(orbits.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code, src], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "torus step missed a matched coordinate"

    def test_word_json_roundtrip(self, shape_a, f7):
        word = transport(shape_a, f7, (5, 0, 6, 1), (0, 0, 6, 1))
        again = AutWord.from_json(f7, word.to_json(f7))
        assert again.apply(shape_a, f7, (5, 0, 6, 1)) == (0, 0, 6, 1)
        with pytest.raises(ValueError, match="unknown step kind"):
            AutWord.from_json(f7, {"steps": [{"step": "swap", "perm": [0, 1, 3, 2]}]})

    def test_catalog_built_once_per_call(self, monkeypatch, shape_d):
        from trinomial_orbits import derivations

        f13 = PrimeField(13)
        builds = []
        real = derivations._build_power_one
        monkeypatch.setattr(
            derivations, "_build_power_one",
            lambda shape, fld, partials, view: builds.append(fld)
            or real(shape, fld, partials, view),
        )
        # open stratum, x solved from x*y1^2*y2^2 + z^3 + s^3 = 0
        src = (11, 1, 1, 1, 1)
        dst = (f13.div(f13.neg(f13.add(64, 125)), 4), 1, 2, 4, 5)
        assert shape_d.on_variety(f13, src) and shape_d.on_variety(f13, dst)
        word = transport(shape_d, f13, src, dst)
        flows = sum(1 for s in word.steps if hasattr(s, "designator"))
        assert flows >= 2 and builds == [f13]
        # the word's flows are read from the catalog the transport built
        assert word.apply(shape_d, f13, src) == dst
        assert builds == [f13]

    def test_perm_step_applies(self, shape_a, f7):
        from trinomial_orbits.orbits import PermStep
        from trinomial_orbits.shapes import symmetry_group, torus_lattice, torus_scaling

        perm = symmetry_group(shape_a).generators[0]  # z <-> s swap
        word = AutWord((PermStep(perm),))
        assert word.apply(shape_a, f7, (5, 0, 6, 1)) == (5, 0, 1, 6)
        data = word.to_json(f7)
        assert data == {"steps": [{"step": "perm", "perm": [0, 1, 3, 2]}]}
        again = AutWord.from_json(f7, json.loads(json.dumps(data)))
        assert again == word and again.apply(shape_a, f7, (5, 0, 6, 1)) == (5, 0, 1, 6)
        with pytest.raises(TypeError, match="unknown step"):
            AutWord((perm,)).apply(shape_a, f7, (5, 0, 6, 1))

    def test_height_of_points_costs_no_factoring(self, shape_a, qq):
        # y scaled by the Mersenne prime 2^61 - 1: factoring the ratios by
        # trial division would not finish
        Y = F(2**61 - 1)
        src, dst = (F(-9), F(1), F(1), F(2)), (F(-9) / Y**2, Y, F(1), F(2))
        start = time.perf_counter()
        word = transport(shape_a, qq, src, dst)
        assert time.perf_counter() - start < 1.0
        assert word.apply(shape_a, qq, src) == dst

    @pytest.mark.parametrize("name, field", sorted(PINNED_WORDS))
    def test_words_pinned(self, name, field):
        shape = validate_shape({"A": SHAPE_A, "D": SHAPE_D}[name])
        fld = parse_field(field)
        pairs = same_orbit_pairs(shape, fld, 40, f"{name}/{field}")
        assert transport_digest(shape, fld, pairs) == PINNED_WORDS[name, field]

    @pytest.mark.parametrize("groups, field", sorted(PINNED_CENSUS_WORDS))
    def test_census_words_pinned(self, groups, field):
        shape, fld = validate_shape(json.loads(groups)), parse_field(field)
        pairs = census_pairs(shape, fld, 40, f"{groups}/{field}")
        assert transport_digest(shape, fld, pairs) == PINNED_CENSUS_WORDS[groups, field]

    def test_slopes_come_from_the_catalog(self, monkeypatch):
        # every flow parameter is read from a catalog derivation's image,
        # never from a shape monomial evaluated on the side
        cases = []
        for name, field in sorted(PINNED_WORDS):
            shape = validate_shape({"A": SHAPE_A, "D": SHAPE_D}[name])
            fld = parse_field(field)
            cases.append((shape, fld, same_orbit_pairs(shape, fld, 40, f"{name}/{field}"), name, field))

        def refuse(*args):
            raise AssertionError("transport evaluated a shape monomial")

        monkeypatch.setattr(TrinomialShape, "monomial_value", refuse)
        for shape, fld, pairs, name, field in cases:
            assert transport_digest(shape, fld, pairs) == PINNED_WORDS[name, field]


# the transport cases of CI on shape A, each joined by a word with flows:
# (field, src, dst), coordinates as the command line takes them
CI_TRANSPORTS_A = [
    ("Q", ["-1/2", "2", "1", "1"], ["7/72", "3", "1/2", "-1"]),
    ("Fp:13", ["11", "1", "1", "1"], ["3", "2", "3", "0"]),
    ("Fp:13", ["5", "0", "1", "12"], ["7", "0", "3", "10"]),
    ("Q", ["5", "0", "1", "-1"], ["-2/3", "0", "2", "-2"]),
]


class TestOneCheckPerPoint:
    """The transport path checks each point on X once: the endpoints when
    classified, every flow image by its flow, and a flow source only when
    nothing has checked it yet.  Every refusal stays where it was."""

    @staticmethod
    def counted_on_variety(monkeypatch):
        calls = []
        real = TrinomialShape.on_variety

        def counted(self, fld, pt):
            calls.append(tuple(pt))
            return real(self, fld, pt)

        monkeypatch.setattr(TrinomialShape, "on_variety", counted)
        return calls

    @pytest.mark.parametrize("field, src, dst", CI_TRANSPORTS_A)
    def test_transport_and_apply_check_each_point_once(self, monkeypatch, shape_a, field, src, dst):
        # transport: both endpoints, then one image per flow; apply: the
        # first flow's source, then one image per flow.  A re-check of a
        # point already on X fails here.
        fld = parse_field(field)
        src, dst = tuple(map(fld.parse, src)), tuple(map(fld.parse, dst))
        calls = self.counted_on_variety(monkeypatch)
        word = transport(shape_a, fld, src, dst)
        k = sum(1 for step in word.steps if isinstance(step, FlowStep))
        assert k >= 1 and len(calls) == 2 + k
        calls.clear()
        assert word.apply(shape_a, fld, src) == dst
        assert len(calls) == 1 + k

    def test_point_off_x_is_refused_by_every_entry(self, shape_a, f7):
        off, on = (1, 1, 1, 1), (5, 0, 6, 1)
        assert not shape_a.on_variety(f7, off) and shape_a.on_variety(f7, on)
        D1 = catalog_derivation(shape_a, f7, "D:1")
        with pytest.raises(PointNotOnVariety, match="flow source"):
            D1.exp_flow(1, off)
        for a, b in ((off, on), (on, off)):
            with pytest.raises(PointNotOnVariety):
                transport(shape_a, f7, a, b)
        perm = symmetry_group(shape_a).generators[0]
        words = [
            AutWord((FlowStep("D:1", 1), FlowStep("E:1", 2))),
            AutWord((orbits.PermStep(perm), FlowStep("D:1", 1))),
        ]
        for word in words:
            with pytest.raises(PointNotOnVariety, match="flow source"):
                word.apply(shape_a, f7, off)

    def test_off_lattice_torus_step_is_refused_at_the_next_flow(self, monkeypatch, shape_a):
        # (1, 1, 2, 1) scales z alone, which no lattice element does: it
        # moves (11, 1, 1, 1) off x*y^2 + z^3 + s^3 over F_13
        f13 = PrimeField(13)
        word = AutWord.from_json(f13, {"steps": [
            {"step": "torus", "coords": ["1", "1", "2", "1"]},
            {"step": "flow", "derivation": "D:1", "u": "1"},
            {"step": "flow", "derivation": "E:1", "u": "1"},
        ]})
        src = (11, 1, 1, 1)
        assert shape_a.on_variety(f13, src)
        assert not shape_a.on_variety(f13, word.steps[0].apply(f13, src))
        calls = self.counted_on_variety(monkeypatch)
        with pytest.raises(PointNotOnVariety, match="flow source"):
            word.apply(shape_a, f13, src)
        assert calls == [(11, 1, 2, 1)]

    def test_flow_image_off_x_is_refused(self, in_field_delta):
        # H2's deltas with in-field divided powers are no flows over F_5
        shape, f5 = validate_shape([[2, 2], [2, 2], [5]]), PrimeField(5)
        d, u, pt = next(
            (d, u, pt)
            for d in lnd_catalog(shape, f5)
            if d.family.startswith("delta")
            for pt in enumerate_points(shape, f5)
            for u in range(1, 5)
            if not shape.on_variety(f5, d.flow_image(u, pt))
        )
        with pytest.raises(CharacteristicTooSmall, match="flow left the variety"):
            d.exp_flow(u, pt)
        # the second flow's source is the first's checked image (u = 0: pt)
        word = AutWord((FlowStep(d.designator, 0), FlowStep(d.designator, u)))
        with pytest.raises(CharacteristicTooSmall, match="flow left the variety"):
            word.apply(shape, f5, pt)

    def test_transport_refuses_a_flow_image_off_x(self, monkeypatch, shape_a):
        # a flow that also shifts x leaves X wherever y != 0
        real = Derivation.flow_image

        def shifted(self, u, pt):
            x, *rest = real(self, u, pt)
            return (x + 1, *rest)

        monkeypatch.setattr(Derivation, "flow_image", shifted)
        with pytest.raises(CharacteristicTooSmall, match="flow left the variety"):
            transport(shape_a, PrimeField(13), (11, 1, 1, 1), (3, 2, 3, 0))

    @pytest.mark.parametrize("groups", [SHAPE_A, [[], [1, 3, 3], [3, 3]]])
    def test_wrong_length_point_is_a_missing_coordinate(self, groups):
        shape = validate_shape(groups)
        for fld in (QQ, QI, PrimeField(7)):
            for pt in ((0,) * (shape.n - 1), (0,) * (shape.n + 1)):
                with pytest.raises(MissingCoordinate) as caught:
                    shape.on_variety(fld, pt)
                with pytest.raises(MissingCoordinate) as by_equation:
                    shape.equation(fld).eval(pt)
                assert str(caught.value) == str(by_equation.value)
                assert str(caught.value) == repr(
                    f"point has {len(pt)} coordinates, ring has {shape.n}"
                )


class TestSolveTorus:
    """The torus step's system prod_j mu_j^(A_ij) = r_i, solved in K^*."""

    @given(small_shapes(), st.sampled_from([None, 2, 3, 7, 13, 101]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reproduces_a_torus_element(self, shape, p, data):
        fld = QQ if p is None else PrimeField(p)
        basis = torus_lattice(shape).vectors
        if p is None:
            unit = st.builds(F, st.integers(1, 30) | st.integers(-30, -1), st.integers(1, 30))
        else:
            unit = st.integers(1, p - 1)
        t = torus_scaling(shape, fld, data.draw(st.lists(unit, min_size=len(basis), max_size=len(basis))))
        rows = data.draw(st.lists(st.integers(0, shape.n - 1), unique=True))
        smith = smith_normal_form([[vec[i] for vec in basis] for i in rows])
        mus = _solve_torus(fld, len(basis), smith, [t[i] for i in rows])
        got = torus_scaling(shape, fld, mus)
        assert [got[i] for i in rows] == [t[i] for i in rows]

    def test_invariant_factor_two_rational(self):
        # mu^2 = r: the Smith diagonal is (2), which no shape's torus step
        # has reached; the smallest square root of 4 is taken
        assert _solve_torus(QQ, 1, smith_normal_form([[2]]), [F(4)]) == [-2]
        for r in (F(-4), F(2)):
            with pytest.raises(RootUnavailable):
                _solve_torus(QQ, 1, smith_normal_form([[2]]), [r])

    def test_invariant_factor_two_f7(self):
        f7 = PrimeField(7)
        assert _solve_torus(f7, 1, smith_normal_form([[2]]), [2]) == [3]  # 3^2 = 4^2 = 2
        with pytest.raises(DlogUnsolvable):
            _solve_torus(f7, 1, smith_normal_form([[2]]), [3])  # 3 is no square mod 7

    def test_inconsistent_rows(self):
        # mu = 2 and mu = 3 at once: the zero invariant factor's row needs c = 1
        with pytest.raises(RootUnavailable):
            _solve_torus(QQ, 1, smith_normal_form([[1], [1]]), [F(2), F(3)])
        with pytest.raises(DlogUnsolvable):
            _solve_torus(PrimeField(7), 1, smith_normal_form([[1], [1]]), [2, 3])
        assert _solve_torus(PrimeField(7), 1, smith_normal_form([[1], [1]]), [3, 3]) == [3]

    def test_empty_rows(self):
        # no rows: the Smith form has no columns to count the basis by
        assert _solve_torus(PrimeField(7), 2, smith_normal_form([]), []) == [1, 1]
        assert _solve_torus(QQ, 1, smith_normal_form([]), []) == [1]

    def test_gaussian_rationals_refuse_an_invariant_factor_two(self):
        # Q(i) extracts no roots, so a d_l > 1 refuses instead of crashing
        with pytest.raises(FieldError):
            _solve_torus(QI, 1, smith_normal_form([[2]]), [QI.from_int(4)])
        assert _solve_torus(QI, 1, smith_normal_form([[1]]), [QI.from_int(4)]) == [4]


class TestGluingOracle:
    """Brute-force cross-check of the full-group gluing over F_13.

    The finite diagonal stabilizer and the equation symmetries are
    enumerated directly as automorphisms of X(F_13); the orbit classes they
    generate on descriptor classes must coincide with the abstract listing
    (component labels merged by the cyclic part, then symmetry action)."""

    def test_shape_d_listing_matches_h_action(self, shape_d):
        from itertools import product

        from trinomial_orbits.orbits import _UnionFind
        from trinomial_orbits.shapes import apply_permutation_to_point

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
            for perm in symmetry_closure(shape_d):
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
