from fractions import Fraction as F
from itertools import chain, combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from trinomial_orbits import (
    EmptyStratum,
    PointNotOnVariety,
    PrimeField,
    containing_components,
    is_singular,
    linked,
    singular_components,
    stratum_point,
    support_zero_set,
    validate_shape,
)
from trinomial_orbits.oracle import enumerate_points
from trinomial_orbits.strata import n_set, var_set_from_names, var_set_to_json
from conftest import singular_set, small_shapes


def all_subsets(n):
    return [frozenset(s) for s in chain.from_iterable(
        combinations(range(n), k) for k in range(n + 1)
    )]


class TestSupport:
    def test_regular_point_empty_support(self, shape_a, qq):
        pt = (F(-2), F(1), F(1), F(1))
        assert support_zero_set(shape_a, qq, pt) == frozenset()

    def test_y_only(self, shape_a, qq):
        assert support_zero_set(shape_a, qq, (F(5), F(0), F(-1), F(1))) == {1}

    def test_origin(self, shape_a, qq):
        assert support_zero_set(shape_a, qq, (F(0),) * 4) == {0, 1, 2, 3}

    def test_off_variety_rejected(self, shape_a, qq):
        with pytest.raises(PointNotOnVariety):
            support_zero_set(shape_a, qq, (F(1),) * 4)


class TestSingular:
    def test_singular_axis_point(self, shape_a, qq):
        assert is_singular(shape_a, qq, (F(3), F(0), F(0), F(0)))

    def test_regular_point(self, shape_a, qq):
        assert not is_singular(shape_a, qq, (F(-2), F(1), F(1), F(1)))

    def test_origin_of_rigid_shape(self, shape_b, qq):
        assert is_singular(shape_b, qq, (F(0), F(0), F(0)))


class TestComponents:
    def test_shape_c_two_components(self, shape_c):
        comps = singular_components(shape_c)
        assert [c.names(shape_c) for c in comps] == [
            ["T0_3", "T1_1", "T2_1"],
            ["T0_1", "T0_2", "T1_1", "T2_1"],
        ]

    def test_shape_a_irreducible(self, shape_a):
        assert [c.names(shape_a) for c in singular_components(shape_a)] == [
            ["T0_2", "T1_1", "T2_1"]
        ]

    def test_free_term_smooth(self):
        base = validate_shape([[], [3, 3], [3, 3]])
        assert singular_components(base) == ()
        # cross-check: no F_5 point has a vanishing Jacobian
        f5 = PrimeField(5)
        assert singular_set(base, f5, enumerate_points(base, f5)) == set()

    def test_components_consist_of_singular_points(self, shape_c, f3):
        pts = enumerate_points(shape_c, f3)
        sing = singular_set(shape_c, f3, pts)
        for comp in singular_components(shape_c):
            for pt in pts:
                if all(f3.is_zero(pt[i]) for i in comp.generators):
                    assert pt in sing


class TestNSet:
    # the five singular torus strata of x1*x2*y^2 + z^3 + s^3
    # vars: x1=0, x2=1, y=2, z=3, s=4
    STRATA = {
        "origin": frozenset([0, 1, 2, 3, 4]),
        "x1_free": frozenset([1, 2, 3, 4]),
        "x2_free": frozenset([0, 2, 3, 4]),
        "x1x2_free": frozenset([2, 3, 4]),
        "y_free": frozenset([0, 1, 3, 4]),
    }

    def test_example_n_sets(self, shape_c, qq):
        V1 = frozenset([2, 3, 4])
        V2 = frozenset([0, 1, 3, 4])
        expected = {
            "origin": {V1, V2},
            "x1_free": {V1},
            "x2_free": {V1},
            "x1x2_free": {V1},
            "y_free": {V2},
        }
        for name, S in self.STRATA.items():
            got = {c.generators for c in containing_components(shape_c, qq, S)}
            assert got == expected[name], name

    def test_all_variables_gives_both(self, shape_c, qq):
        got = containing_components(shape_c, qq, frozenset(range(5)))
        assert len(got) == 2

    def test_empty_stratum_structural(self, shape_a, qq):
        # z = s = 0 leaves x*y^2 alone, which cannot vanish on nonzeros
        with pytest.raises(EmptyStratum) as exc:
            stratum_point(shape_a, qq, frozenset([2, 3]))
        assert exc.value.structural
        # while z = 0 alone is inhabited: x*y^2 + s^3 = 0 solves rationally
        pt = stratum_point(shape_a, qq, frozenset([2]))
        assert support_zero_set(shape_a, qq, pt) == frozenset([2])

    def test_empty_stratum_field_obstruction(self, qq):
        # y^2 = -2 has no rational solution on y^2 + z^3 + s^3 with z=s=0
        shape = validate_shape([[2], [3], [3]])
        with pytest.raises(EmptyStratum) as exc:
            stratum_point(shape, qq, frozenset())
        assert not exc.value.structural
        # but F_11 has a root: the same stratum is inhabited there
        pt = stratum_point(shape, PrimeField(11), frozenset())
        assert all(v != 0 for v in pt)

    def test_stratum_point_exact_support(self, shape_c, f3):
        for S in all_subsets(5):
            try:
                pt = stratum_point(shape_c, f3, S)
            except EmptyStratum:
                continue
            assert support_zero_set(shape_c, f3, pt) == S

    def test_no_root_but_inhabited_over_fp(self):
        # y^2 = -2 has no root in F_7, yet 3^2 + 3^3 + 3^3 = 63 = 0
        shape = validate_shape([[2], [3], [3]])
        f7 = PrimeField(7)
        pt = stratum_point(shape, f7, frozenset())
        assert support_zero_set(shape, f7, pt) == frozenset()

    def test_empty_over_fp_after_search(self):
        # x^2 + y^2 + z^2 over F_2 with nonzero coordinates is 1 + 1 + 1 = 1
        shape = validate_shape([[2], [2], [2]])
        with pytest.raises(EmptyStratum) as exc:
            stratum_point(shape, PrimeField(2), frozenset())
        assert not exc.value.structural

    @given(small_shapes(), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=80, deadline=None)
    def test_stratum_point_agrees_with_enumeration(self, shape, p):
        assume(p**shape.n <= 3000)
        fld = PrimeField(p)
        inhabited = {support_zero_set(shape, fld, pt) for pt in enumerate_points(shape, fld)}
        for S in all_subsets(shape.n):
            if S in inhabited:
                assert support_zero_set(shape, fld, stratum_point(shape, fld, S)) == S
            else:
                with pytest.raises(EmptyStratum):
                    stratum_point(shape, fld, S)


class TestLinked:
    def test_component_interior_trio(self, shape_c):
        trio = [self_s for self_s in (
            frozenset([1, 2, 3, 4]),
            frozenset([0, 2, 3, 4]),
            frozenset([2, 3, 4]),
        )]
        for a in trio:
            for b in trio:
                assert linked(shape_c, a, b)

    def test_origin_not_linked_to_trio(self, shape_c):
        origin = frozenset(range(5))
        assert not linked(shape_c, origin, frozenset([2, 3, 4]))

    def test_v2_stratum_isolated(self, shape_c):
        y_free = frozenset([0, 1, 3, 4])
        for other in self_strata():
            if other != y_free:
                assert not linked(shape_c, y_free, other)

    def test_shape_a_two_linked_strata(self, shape_a):
        assert linked(shape_a, frozenset([1, 2, 3]), frozenset([0, 1, 2, 3]))

    def test_no_exponent_one_means_no_links(self, shape_b):
        subs = all_subsets(3)
        for a in subs:
            for b in subs:
                if a != b:
                    assert not linked(shape_b, a, b)

    def test_reflexive_and_symmetric_exhaustively(self, shape_a):
        subs = all_subsets(4)
        assert len(subs) == 16
        for a in subs:
            assert linked(shape_a, a, a)
            for b in subs:
                assert linked(shape_a, a, b) == linked(shape_a, b, a)

    def test_h2_all_heavy_no_links(self, shape_h2):
        # every exponent >= 2: distinct singular strata are never linked
        f3 = PrimeField(3)
        pts = enumerate_points(shape_h2, f3)
        sing = singular_set(shape_h2, f3, pts)
        supports = {support_zero_set(shape_h2, f3, pt) for pt in sing}
        for a in supports:
            for b in supports:
                assert linked(shape_h2, a, b) == (a == b)


def self_strata():
    return (
        frozenset([0, 1, 2, 3, 4]),
        frozenset([1, 2, 3, 4]),
        frozenset([0, 2, 3, 4]),
        frozenset([2, 3, 4]),
        frozenset([0, 1, 3, 4]),
    )


class TestVarSetIO:
    def test_json_roundtrip(self, shape_a):
        S = frozenset([1, 2])
        data = var_set_to_json(shape_a, S)
        assert data == {"vars": ["T0_2", "T1_1"]}
        assert var_set_from_names(shape_a, data["vars"]) == S

    def test_aliases_accepted(self):
        from trinomial_orbits import TrinomialShape

        sh = TrinomialShape.from_json(
            {"groups": [[1, 2], [3], [3]],
             "aliases": {"T0_1": "x", "T0_2": "y", "T1_1": "z", "T2_1": "s"}}
        )
        assert var_set_from_names(sh, ["y", "z"]) == frozenset([1, 2])
