import json

import pytest

from trinomial_orbits import (
    DegenerateShape,
    EmptyGroup12,
    NonPositiveExponent,
    ShapeError,
    TrinomialShape,
    factoriality,
    rigidity_classify,
    symmetry_group,
    torus_lattice,
    validate_shape,
)
from trinomial_orbits.intlinalg import invariant_factors, mat_vec
from trinomial_orbits.shapes import (
    apply_permutation_to_point,
    constraint_rows,
    match_h_type,
    nonrigidity_witnesses,
    torus_scaling,
)
from conftest import SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_E_BASE, SHAPE_H2

CURATED = [SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_H2,
           [[1, 1], [1, 1, 4], [7]], [[1, 2], [1, 3], [4]]]


class TestValidation:
    def test_shape_a(self, shape_a):
        assert shape_a.n == 4
        assert shape_a.var_names == ("T0_1", "T0_2", "T1_1", "T2_1")

    def test_free_term(self):
        sh = validate_shape(SHAPE_E_BASE)
        assert sh.is_free_term and sh.n == 4

    def test_rejects_zero_exponent(self):
        with pytest.raises(NonPositiveExponent):
            validate_shape([[1, 2], [0], [3]])

    def test_rejects_empty_group_1(self):
        with pytest.raises(EmptyGroup12):
            validate_shape([[1], [], [3]])

    def test_degenerate_reported_not_rejected(self):
        sh = validate_shape([[1], [3], [3]])
        assert sh.degenerate_group() == 0

    def test_json_roundtrip_with_aliases(self):
        data = {"groups": SHAPE_A, "aliases": {"T0_1": "x", "T0_2": "y"}}
        sh = TrinomialShape.from_json(json.dumps(data))
        assert sh.display_name(0) == "x"
        again = TrinomialShape.from_json(sh.to_json())
        assert again == sh and again.aliases == sh.aliases

    def test_name_index_aliases_win(self):
        sh = TrinomialShape.from_json(
            {"groups": SHAPE_A, "aliases": {"T0_1": "T1_1", "T1_1": "T0_1", "T2_1": "s"}}
        )
        assert sh.name_index == {"T0_1": 2, "T0_2": 1, "T1_1": 0, "T2_1": 3, "s": 3}

    def test_cached_index_keeps_equality_and_json(self, f7):
        aliased = TrinomialShape.from_json(
            {"groups": SHAPE_A, "aliases": {"T0_1": "x", "T0_2": "y"}}
        )
        plain = validate_shape(SHAPE_A)
        before = aliased.to_json()
        # fill the cached index on one of the two only
        assert aliased.on_variety(f7, (5, 0, 6, 1))
        assert aliased.group_indices(0) == (0, 1) and aliased.exponents == (1, 2, 3, 3)
        assert plain == aliased and hash(plain) == hash(aliased)
        assert {plain: "seen"}[aliased] == "seen"
        assert aliased.to_json() == before
        again = TrinomialShape.from_json(aliased.to_json())
        assert again == aliased and again.aliases == aliased.aliases

    def test_group_indices_cover_canonical_order(self):
        for groups in CURATED:
            sh = validate_shape(groups)
            flat = [i for g in range(3) for i in sh.group_indices(g)]
            assert flat == list(range(sh.n))
            assert [sh.group_of(i) for i in flat] == [g for g, _ in sh.var_ids]
            assert [sh.var_index(g, j) for g, j in sh.var_ids] == list(range(sh.n))

    @pytest.mark.parametrize("aliases", [7, ["x"], {"T0_1": ["x"]}, {"T0_1": 5}])
    def test_aliases_must_be_an_object_of_strings(self, aliases):
        with pytest.raises(ShapeError):
            TrinomialShape.from_json({"groups": SHAPE_A, "aliases": aliases})

    @pytest.mark.parametrize("aliases", [None, [], "", {}])
    def test_empty_aliases_mean_none(self, aliases):
        shape = TrinomialShape.from_json({"groups": SHAPE_A, "aliases": aliases})
        assert shape == validate_shape(SHAPE_A) and shape.aliases is None


class TestEquation:
    def test_shape_a(self, shape_a, qq):
        assert str(shape_a.equation(qq)) == "T0_1*T0_2^2 + T1_1^3 + T2_1^3"

    def test_free_term_constant(self, qq):
        sh = validate_shape([[], [1], [1]])
        assert str(sh.equation(qq)) == "T1_1 + T2_1 + 1"

    def test_shape_c(self, shape_c, qq):
        assert str(shape_c.equation(qq)) == "T0_1*T0_2*T0_3^2 + T1_1^3 + T2_1^3"


class TestRigidity:
    def test_shape_b_rigid(self, shape_b):
        assert rigidity_classify(shape_b).tag == "rigid"

    def test_shape_a_nonrigid_other_with_witness(self, shape_a):
        v = rigidity_classify(shape_a)
        assert v.tag == "nonrigid_other"
        assert ("power_one", 0, 1) in v.witnesses

    def test_h2(self, shape_h2):
        v = rigidity_classify(shape_h2)
        assert (v.tag, v.h_type) == ("flexible", "H2")
        assert any(w[0] == "even_pair" for w in v.witnesses)

    def test_h1_after_normalization(self):
        v = rigidity_classify(validate_shape([[1, 1], [1, 1, 4], [7]]))
        assert (v.tag, v.h_type) == ("flexible", "H1")

    def test_h3(self):
        v = rigidity_classify(validate_shape([[1, 2], [1, 3], [4]]))
        assert (v.tag, v.h_type) == ("flexible", "H3")

    def test_h4(self):
        v = rigidity_classify(validate_shape([[1, 3], [2, 4], [2]]))
        assert (v.tag, v.h_type) == ("flexible", "H4")

    def test_h2_h4_overlap_is_flexible(self):
        # matches both table rows; table priority tags it H2
        v = rigidity_classify(validate_shape([[1, 3], [2], [2]]))
        assert v.tag == "flexible" and v.h_type in ("H2", "H4")

    def test_h5(self):
        v = rigidity_classify(validate_shape([[2, 4], [2], [2, 6]]))
        assert (v.tag, v.h_type) == ("flexible", "H5")

    def test_free_h2_pattern_is_rigid(self):
        # the free slot in the generic position does not make it flexible
        v = rigidity_classify(validate_shape([[], [2, 2], [2, 2]]))
        assert v.tag == "rigid"

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateShape):
            rigidity_classify(validate_shape([[1], [3], [3]]))

    def test_flexible_and_rigid_exclusive_on_curated_table(self):
        for raw in CURATED:
            sh = validate_shape(raw)
            if match_h_type(sh) is not None:
                assert nonrigidity_witnesses(sh), raw

    def test_rigidity_invariant_under_relabeling(self):
        # permuting groups and variables within groups never changes the tag
        import itertools

        for raw in CURATED:
            base = rigidity_classify(validate_shape(raw)).tag
            for perm in itertools.permutations(raw):
                if not perm[1] or not perm[2]:
                    continue
                relabeled = [sorted(perm[0], reverse=True), list(perm[1]), list(perm[2])]
                assert rigidity_classify(validate_shape(relabeled)).tag == base


class TestFactoriality:
    def test_shape_a(self, shape_a):
        f = factoriality(shape_a)
        assert f.d == (1, 3, 3) and f.is_factorial is False

    def test_coprime(self):
        f = factoriality(validate_shape([[2], [3], [5]]))
        assert f.d == (2, 3, 5) and f.is_factorial

    def test_free_term_rule(self):
        f = factoriality(validate_shape([[], [2], [3]]))
        assert f.d == (None, 2, 3) and f.is_factorial is False
        assert factoriality(validate_shape([[], [2, 3], [3, 4]])).is_factorial

    def test_not_applicable_when_degenerate(self):
        f = factoriality(validate_shape([[1], [3], [3]]))
        assert not f.applicable


class TestTorusLattice:
    def test_rank_n_minus_2_on_curated_table(self):
        for raw in CURATED:
            sh = validate_shape(raw)
            assert torus_lattice(sh).rank == sh.n - 2, raw

    def test_vectors_satisfy_constraints(self):
        for raw in CURATED:
            sh = validate_shape(raw)
            rows = constraint_rows(sh)
            for v in torus_lattice(sh).vectors:
                assert all(x == 0 for x in mat_vec(rows, list(v)))

    def test_saturated(self):
        for raw in CURATED:
            basis = [list(v) for v in torus_lattice(validate_shape(raw)).vectors]
            assert all(f == 1 for f in invariant_factors(basis))

    def test_shape_a_constraint_meaning(self, shape_a):
        # a_x + 2 a_y = 3 a_z = 3 a_s for every basis vector
        for (ax, ay, az, a_s) in torus_lattice(shape_a).vectors:
            assert ax + 2 * ay == 3 * az == 3 * a_s

    def test_rank_zero_when_forced(self):
        assert torus_lattice(validate_shape([[], [1], [1]])).rank == 0

    def test_shape_c_rank(self, shape_c):
        assert torus_lattice(shape_c).rank == 3

    def test_scaling_preserves_equation(self, shape_a, f7):
        coords = torus_scaling(shape_a, f7, (3, 2))
        pt = (5, 0, 6, 1)
        image = tuple(f7.mul(c, v) for c, v in zip(coords, pt))
        assert shape_a.on_variety(f7, image)


class TestSymmetry:
    def test_shape_d_order_4(self, shape_d):
        sg = symmetry_group(shape_d)
        assert sg.order == 4
        assert (0, 2, 1, 3, 4) in sg.generators  # swap T0_2, T0_3
        assert (0, 1, 2, 4, 3) in sg.generators  # swap groups 1 and 2

    def test_shape_a_order_2(self, shape_a):
        assert symmetry_group(shape_a).order == 2

    def test_all_ones_gives_s3(self):
        assert symmetry_group(validate_shape([[1], [1], [1]])).order == 6

    def test_every_element_fixes_equation(self, shape_d, qq):
        eq = shape_d.equation(qq)
        for perm in symmetry_group(shape_d).elements:
            assert eq.rename(perm) == eq

    def test_point_action_stays_on_variety(self, shape_d, f7):
        from trinomial_orbits.oracle import enumerate_points

        pts = enumerate_points(shape_d, f7)[:50]
        for perm in symmetry_group(shape_d).elements:
            for pt in pts:
                assert shape_d.on_variety(f7, apply_permutation_to_point(perm, pt))
