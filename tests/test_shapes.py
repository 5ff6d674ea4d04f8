import gc
import json
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trinomial_orbits import (
    QQ,
    DegenerateShape,
    EmptyGroup12,
    NonPositiveExponent,
    PrimeField,
    ShapeError,
    TrinomialShape,
    factoriality,
    family_of,
    lnd_catalog,
    rigidity_classify,
    symmetry_group,
    torus_lattice,
    validate_shape,
)
from trinomial_orbits import strata
from trinomial_orbits.intlinalg import mat_vec, smith_normal_form
from trinomial_orbits.oracle import point_count
from trinomial_orbits.polynomials import MissingCoordinate
from trinomial_orbits.shapes import (
    EQUATION_CACHE_SIZE,
    apply_permutation_to_point,
    constraint_rows,
    match_h_type,
    nonrigidity_witnesses,
    torus_scaling,
)
from conftest import (
    random_points,
    singular_set,
    small_shapes,
    symmetry_closure,
    SHAPE_A, SHAPE_B, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_E_BASE, SHAPE_FIELD_CACHES, SHAPE_H2,
)

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
        # the hash is computed once, the record hash of its compared fields (groups,)
        assert hash(aliased) == hash((aliased.groups,)) == aliased.__dict__["_hash"]
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

    @pytest.mark.parametrize("text", ["abc", '"abc"', "[[1,2],", ""])
    def test_shape_text_that_is_no_shape_object(self, text):
        # undecodable text, and JSON that decodes to no object
        with pytest.raises(ShapeError):
            TrinomialShape.from_json(text)

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

    @pytest.mark.parametrize("pt", [(1, 1, 1, 1, 1), (0, 0, 0)])
    def test_on_variety_refuses_a_point_of_the_wrong_length(self, shape_a, qq, f7, pt):
        for fld in (qq, f7):
            with pytest.raises(MissingCoordinate):
                shape_a.on_variety(fld, pt)


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
            D, _, _, _ = smith_normal_form(basis)
            assert all(D[i][i] == 1 for i in range(len(D)))

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


def ref_torus_scaling(shape, fld, multipliers):
    """The coordinate loop torus_scaling replaced: one power per basis
    vector, and one inverse per negative exponent."""
    basis = torus_lattice(shape).vectors
    coords = []
    for idx in range(shape.n):
        c = fld.one
        for mu, vec in zip(multipliers, basis):
            e = vec[idx]
            if e >= 0:
                c = fld.mul(c, fld.pow(mu, e))
            else:
                c = fld.mul(c, fld.inv(fld.pow(mu, -e)))
        coords.append(c)
    return tuple(coords)


class TestTorusScaling:
    """torus_scaling takes one power per nonzero exponent and at most one
    inverse per coordinate; it must equal the loop it replaced."""

    @staticmethod
    def multiplier(fld, rng):
        if fld.modulus is None:
            return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 30), rng.randrange(1, 30))
        return rng.randrange(1, fld.modulus)

    @given(small_shapes(), st.sampled_from([None, 13, 101]), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_equals_reference(self, shape, p, seed):
        fld = QQ if p is None else PrimeField(p)
        rng = random.Random(seed)
        basis = torus_lattice(shape).vectors
        mus = [self.multiplier(fld, rng) for _ in basis]
        assert torus_scaling(shape, fld, mus) == ref_torus_scaling(shape, fld, mus)

    @pytest.mark.parametrize("raw", CURATED)
    @pytest.mark.parametrize("p", [None, 13, 101])
    def test_zero_multiplier(self, raw, p):
        # a zero multiplier meeting a negative exponent has no inverse; on
        # a vector with none it gives the reference coordinates
        shape, fld = validate_shape(raw), QQ if p is None else PrimeField(p)
        rng = random.Random(len(raw[0]) + (p or 0))
        basis = torus_lattice(shape).vectors
        for k, vec in enumerate(basis):
            mus = [self.multiplier(fld, rng) for _ in basis]
            mus[k] = fld.zero
            if min(vec) < 0:
                for scaling in (torus_scaling, ref_torus_scaling):
                    with pytest.raises(ZeroDivisionError):
                        scaling(shape, fld, mus)
            else:
                assert torus_scaling(shape, fld, mus) == ref_torus_scaling(shape, fld, mus)

    def test_rank_zero_is_the_identity(self):
        shape = validate_shape([[], [1], [1]])
        assert torus_scaling(shape, QQ, ()) == (QQ.one,) * shape.n


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

    @given(small_shapes())
    @settings(max_examples=150, deadline=None)
    def test_order_is_the_closure_size(self, shape):
        assert symmetry_group(shape).order == len(symmetry_closure(shape))

    def test_every_element_fixes_equation(self, shape_d, qq):
        eq = shape_d.equation(qq)
        for perm in symmetry_closure(shape_d):
            assert eq.rename(perm) == eq

    def test_point_action_stays_on_variety(self, shape_d, f7):
        from trinomial_orbits.oracle import enumerate_points

        pts = enumerate_points(shape_d, f7)[:50]
        for perm in symmetry_closure(shape_d):
            for pt in pts:
                assert shape_d.on_variety(f7, apply_permutation_to_point(perm, pt))


SHAPE_FACTS = (torus_lattice, symmetry_group, family_of, strata.singular_components)


class TestPerShapeCaches:
    """A fact of the shape alone is kept on the shape object; a fact of a
    (shape, field) pair is kept in a cache of EQUATION_CACHE_SIZE entries,
    so a process that surveys many shapes does not keep every one."""

    @staticmethod
    def _new_shapes(rng):
        """Distinct random nondegenerate shapes, each never seen before."""
        seen = set()
        while True:
            groups = tuple(tuple(rng.randint(1, 5) for _ in range(rng.randint(lo, 2)))
                           for lo in (0, 1, 1))
            shape = validate_shape(groups)
            if groups not in seen and shape.degenerate_group() is None:
                seen.add(groups)
                yield shape

    @staticmethod
    def _survey(shape, rng, f101=PrimeField(101)):
        rigidity_classify(shape)
        factoriality(shape)
        for fact in SHAPE_FACTS:
            fact(shape)
        for fld in (QQ, f101):
            for d in lnd_catalog(shape, fld):
                d.well_defined()
        if point_count(shape, 101):
            singular_set(shape, f101, random_points(shape, f101, 3, rng))

    @pytest.mark.parametrize("raw", CURATED)
    def test_fact_computed_once_per_shape(self, raw):
        shape = validate_shape(raw)
        for fact in SHAPE_FACTS:
            assert fact(shape) is fact(shape)

    @given(small_shapes())
    @settings(max_examples=60, deadline=None)
    def test_witnesses_computed_once_per_shape(self, drawn):
        # a survey pass reads the witnesses in rigidity_classify and in
        # each catalog's delta checks; the body runs once for the shape
        shape = TrinomialShape(drawn.groups)  # no facts from other tests
        for cache in SHAPE_FIELD_CACHES:
            cache.cache_clear()
        body = getattr(nonrigidity_witnesses, "__wrapped__", nonrigidity_witnesses).__code__
        runs = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is body:
                runs.append(frame.f_locals["shape"])

        sys.setprofile(profile)
        try:
            self._survey(shape, random.Random(4))
        finally:
            sys.setprofile(None)
        assert len(runs) == 1 and runs[0] is shape

    def test_shape_parsed_twice_shares_its_facts(self):
        shape = validate_shape(SHAPE_D)
        again = TrinomialShape.from_json(json.dumps({"groups": SHAPE_D}))
        assert again is shape
        assert symmetry_group(again) is symmetry_group(shape)

    def test_surveyed_shape_is_collected(self):
        rng = random.Random(9)
        shapes = self._new_shapes(rng)
        first = next(shapes)
        self._survey(first, rng)
        ref = weakref.ref(first)
        del first
        for _ in range(EQUATION_CACHE_SIZE):
            self._survey(next(shapes), rng)
        gc.collect()
        assert ref() is None

    def test_three_survey_rounds_stay_bounded(self):
        rng = random.Random(9)
        shapes = self._new_shapes(rng)
        for _ in range(3):
            for _ in range(30):
                self._survey(next(shapes), rng)
            sizes = [cache.cache_info().currsize for cache in SHAPE_FIELD_CACHES]
            assert max(sizes) <= EQUATION_CACHE_SIZE
        assert sizes == [EQUATION_CACHE_SIZE] * len(SHAPE_FIELD_CACHES)

    def test_aliased_shape_facts_agree_with_plain(self):
        plain = validate_shape(SHAPE_D)
        aliased = TrinomialShape.from_json(
            {"groups": SHAPE_D, "aliases": {"T0_1": "x", "T1_1": "z"}})
        assert aliased == plain and aliased is not plain
        assert torus_lattice(aliased) == torus_lattice(plain)
        assert symmetry_group(aliased) == symmetry_group(plain)
        assert family_of(aliased) == family_of(plain)
        assert [c.generators for c in strata.singular_components(aliased)] == [
            c.generators for c in strata.singular_components(plain)]
