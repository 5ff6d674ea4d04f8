import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from trinomial_orbits import (
    CharacteristicTooSmall,
    Derivation,
    Diverged,
    GradingWeight,
    InadmissibleGrading,
    PrimeField,
    QQ,
    RootUnavailable,
    catalog_derivation,
    delta_obstruction,
    derivations,
    eta_grading,
    family_of,
    homogeneous_split,
    lnd_catalog,
    rigidity_classify,
    validate_shape,
)
from trinomial_orbits.cli import run_cli
from trinomial_orbits.derivations import catalog_index
from trinomial_orbits.orbits import BigO, FlowStep, OMeps, classify_point, transport
from trinomial_orbits.oracle import enumerate_points, random_points

from conftest import SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_H2, small_shapes

CATALOG_SHAPES = [SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E, SHAPE_H2]


class TestCatalog:
    def test_shape_a_families(self, shape_a):
        designators = {d.designator for d in lnd_catalog(shape_a, QQ)}
        assert designators == {"gamma:1,1", "gamma:2,1", "D:1", "E:1"}

    def test_rigid_shape_empty(self, shape_b):
        assert lnd_catalog(shape_b, QQ) == []

    def test_h2_has_delta_pair(self, shape_h2):
        cat = lnd_catalog(shape_h2, PrimeField(101))
        assert {d.designator for d in cat} == {"delta+:1", "delta-:1"}

    def test_delta_needs_sqrt_minus_one(self, shape_h2):
        assert delta_obstruction(shape_h2, QQ) is not None
        assert delta_obstruction(shape_h2, PrimeField(3)) is not None
        assert delta_obstruction(shape_h2, PrimeField(13)) is None
        cat, notes = lnd_catalog(shape_h2, QQ, with_notes=True)
        assert cat == [] and notes

    def test_shape_c_uses_f2_derivations(self, shape_c):
        designators = {d.designator for d in lnd_catalog(shape_c, QQ)}
        assert designators == {
            "gamma:1,1", "gamma:2,1",
            "Dk:1,1", "Dk:2,1", "Ek:1,1", "Ek:2,1",
        }

    def test_free_term_has_no_e_family(self, shape_e):
        designators = {d.designator for d in lnd_catalog(shape_e, QQ)}
        assert designators == {"gamma:2,1", "gamma:2,2", "D:1", "D:2"}

    @pytest.mark.parametrize("raw", [SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E, [[2], [3], [1, 2]]])
    @pytest.mark.parametrize("fld", [QQ, PrimeField(5)])
    def test_gamma_is_minus_its_power_one_partner(self, raw, fld):
        shape = validate_shape(raw)
        tag = family_of(shape)
        view = tag.f1 or tag.f2
        index = catalog_index(shape, fld)
        gammas = [d for d in index.values() if d.family == "gamma"]
        assert len(gammas) == view.p + view.q
        for gamma in gammas:
            v = shape.var_index(*gamma.params)
            fam, idxs = ("D", view.zs) if v in view.zs else ("E", view.ss)
            pos = idxs.index(v) + 1
            partner = index[f"{fam}:{pos}" if view.k == 1 else f"{fam}k:1,{pos}"]
            assert partner.images == {w: -img for w, img in gamma.images.items()}

    @given(small_shapes())
    @settings(max_examples=150, deadline=None)
    def test_catalog_agrees_with_the_classification(self, shape):
        verdict = rigidity_classify(shape).tag
        kind = family_of(shape).kind
        expected = {"rigid": {"rigid"}, "flexible": {"flexible_h"}}
        assert kind in expected.get(verdict, {"F1", "F2", "other"})
        assert (lnd_catalog(shape, PrimeField(13)) == []) == (verdict == "rigid")
        for fld in (QQ, PrimeField(5), PrimeField(13)):
            for d in lnd_catalog(shape, fld):
                assert d.well_defined() == (True, True), (d, fld)
        for d in lnd_catalog(shape, QQ):
            for v in range(shape.n):
                d.nilpotency_index(v)  # raises Diverged past NILPOTENCY_CAP


class TestImagesShapeA:
    def test_d1_images(self, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        x, y, z, s = range(4)
        assert str(D1.image(x)) == "3*T1_1^2"
        assert str(D1.image(z)) == "-T0_2^2"
        assert D1.image(y).is_zero() and D1.image(s).is_zero()

    def test_derive_leibniz(self, shape_a, qq):
        rng = shape_a.ring(qq)
        D1 = catalog_derivation(shape_a, qq, "D:1")
        f, g = rng.parse("T0_1*T1_1"), rng.parse("T0_2 + T2_1^2")
        assert D1.derive(f * g) == f * D1.derive(g) + g * D1.derive(f)


class TestWellDefined:
    @pytest.mark.parametrize("raw", CATALOG_SHAPES)
    def test_catalog_derives_equation_to_zero(self, raw):
        shape = validate_shape(raw)
        fld = PrimeField(101) if raw == SHAPE_H2 else QQ
        cat = lnd_catalog(shape, fld)
        assert cat
        for d in cat:
            ok, exact = d.well_defined()
            assert ok and exact, d.designator

    def test_custom_non_derivation_rejected(self, shape_a, qq):
        ring = shape_a.ring(qq)
        bad = Derivation(shape_a, qq, {3: ring.one})  # s -> 1
        ok, exact = bad.well_defined()
        assert not ok and not exact

    def test_custom_multiple_of_equation_accepted(self, shape_a, qq):
        ring = shape_a.ring(qq)
        g = shape_a.equation(qq)
        # v -> g * anything descends (derivative lands in the ideal)
        d = Derivation(shape_a, qq, {0: g * ring.var(1)})
        ok, exact = d.well_defined()
        assert ok and not exact


class TestNilpotency:
    def test_d1_indices_shape_a(self, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        x, y, z, s = range(4)
        assert D1.nilpotency_index(x) == 4  # 3z^2 -> -6zy^2 -> 6y^4 -> 0
        assert D1.nilpotency_index(z) == 2
        assert D1.nilpotency_index(y) == 1
        assert D1.nilpotency_index(s) == 1

    @pytest.mark.parametrize("raw", CATALOG_SHAPES)
    def test_catalog_bounded(self, raw):
        shape = validate_shape(raw)
        fld = PrimeField(101) if raw == SHAPE_H2 else QQ
        bound = 1 + max(shape.exponents) + sum(shape.exponents)
        for d in lnd_catalog(shape, fld):
            for v in range(shape.n):
                assert d.nilpotency_index(v) <= min(bound, 50)

    def test_diverged_for_semisimple(self, shape_a, qq):
        ring = shape_a.ring(qq)
        euler = Derivation(
            shape_a, qq,
            {2: ring.var(2), 3: ring.var(3), 0: ring.var(0).scale(F(3))},
        )
        # t.(x,z,s) scaling direction: well-defined but never nilpotent
        with pytest.raises(Diverged):
            euler.nilpotency_index(2, cap=20)


class TestFlows:
    def test_hand_computed_flow(self, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        pt = (F(-2), F(1), F(1), F(1))
        assert D1.exp_flow(F(-1), pt) == (F(-9), F(1), F(2), F(1))

    def test_u_zero_is_identity(self, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        pt = (F(-2), F(1), F(1), F(1))
        assert D1.exp_flow(F(0), pt) == pt

    def test_f7_flow(self, shape_a, f7):
        D1 = catalog_derivation(shape_a, f7, "D:1")
        assert D1.exp_flow(3, (5, 0, 6, 1)) == (0, 0, 6, 1)

    def test_divided_powers_over_f3(self, shape_a, f3):
        # 3z^2 and -3zy^2 die mod 3; the cubic divided power y^4 survives
        D1 = catalog_derivation(shape_a, f3, "D:1")
        series = D1.divided_power_series(0)
        assert [str(p) for p in series] == ["T0_1", "0", "0", "T0_2^4"]
        for pt in enumerate_points(shape_a, f3):
            for u in range(3):
                assert shape_a.on_variety(f3, D1.exp_flow(u, pt))

    def test_flow_group_law(self, shape_a):
        fld = PrimeField(101)
        rng = random.Random(11)
        pts = random_points(shape_a, fld, 10, rng)
        for d in lnd_catalog(shape_a, fld):
            for _ in range(50):
                pt = rng.choice(pts)
                u, v = rng.randrange(101), rng.randrange(101)
                assert d.exp_flow(u, d.exp_flow(v, pt)) == d.exp_flow(
                    (u + v) % 101, pt
                )

    def test_flow_preserves_equation_on_random_points(self):
        fld = PrimeField(101)
        rng = random.Random(5)
        for raw in CATALOG_SHAPES:
            shape = validate_shape(raw)
            pts = random_points(shape, fld, 20, rng)
            for d in lnd_catalog(shape, fld):
                for pt in pts:
                    img = d.exp_flow(rng.randrange(101), pt)
                    assert shape.on_variety(fld, img)

    def test_custom_in_field_flow_surfaces_small_characteristic(self, shape_a, f3):
        # same images as D:1 but built raw, losing the rational twin
        D1 = catalog_derivation(shape_a, f3, "D:1")
        raw = Derivation(shape_a, f3, dict(D1.images))
        pt = next(
            p for p in enumerate_points(shape_a, f3) if not f3.is_zero(p[1])
        )
        with pytest.raises(CharacteristicTooSmall):
            raw.exp_flow(1, pt)

    def test_ml_direction_y_killed(self):
        # every catalog derivation for the power-one families kills every y
        for raw in (SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E):
            shape = validate_shape(raw)
            from trinomial_orbits.families import family_of

            tag = family_of(shape)
            ys = (tag.f1 or tag.f2).ys
            for d in lnd_catalog(shape, QQ):
                for y in ys:
                    assert d.image(y).is_zero()


class TestFlowGroupLaw:
    @pytest.mark.parametrize(
        "raw,p",
        [(SHAPE_A, 3), (SHAPE_C, 5), (SHAPE_D, 7), (SHAPE_E, 7), ([[2], [2], [3]], 13)],
    )
    def test_catalog_flows_obey_the_law(self, raw, p):
        shape = validate_shape(raw)
        assert all(d.flow_group_law() for d in lnd_catalog(shape, PrimeField(p)))

    def test_truncated_series_breaks_the_law(self, shape_a, f7):
        # a private copy of D:1: the catalog's derivations are shared
        D1 = catalog_derivation(shape_a, f7, "D:1")
        d = Derivation(shape_a, f7, dict(D1.images), family="D", params=(1,))
        d.qlift = D1.qlift
        series = d.divided_power_series(0)  # x + 3u z^2 - 3u^2 z y^2 + u^3 y^4
        assert len(series) == 4
        d._series[0] = series[:-1]
        assert not d.flow_group_law()

    def test_law_proved_once_per_derivation(self, monkeypatch, shape_a, f7):
        d = catalog_derivation(shape_a, f7, "D:1")
        proofs = []
        prove = Derivation._prove_group_law
        monkeypatch.setattr(
            Derivation, "_prove_group_law", lambda self: proofs.append(1) or prove(self)
        )
        assert d.flow_group_law() and d.flow_group_law()
        assert len(proofs) == 1


class TestGradings:
    def test_eta_weights(self, shape_a):
        assert eta_grading(shape_a, 1).weights == (-2, 1, 0, 0)

    def test_single_component_of_degree_two(self, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        split = homogeneous_split(D1, eta_grading(shape_a, 1))
        assert [deg for deg, _ in split] == [2]

    def test_degree_minus_one_component(self, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        w = GradingWeight((3, 0, 1, 1))
        assert w.equation_degrees(shape_a) == [3, 3, 3]
        assert [deg for deg, _ in homogeneous_split(D1, w)] == [-1]

    def test_sum_of_components_is_derivation(self, shape_e, qq):
        D1 = catalog_derivation(shape_e, qq, "D:1")
        D2 = catalog_derivation(shape_e, qq, "D:2")
        mixed = Derivation(
            shape_e, qq,
            {v: D1.image(v) + D2.image(v) for v in set(D1.images) | set(D2.images)},
        )
        w = GradingWeight((0, 0, 0, 1, -1))  # z1 vs z2 weighting
        split = homogeneous_split(mixed, w)
        assert [deg for deg, _ in split] == [-1, 1]
        total = {v: shape_e.ring(qq).zero for v in range(shape_e.n)}
        for _, comp in split:
            for v, img in comp.images.items():
                total[v] = total[v] + img
        for v in range(shape_e.n):
            assert total[v] == mixed.image(v)

    def test_extreme_components_are_nilpotent(self, shape_e, qq):
        # the graded ends of a sum of derivations of distinct degrees
        D1 = catalog_derivation(shape_e, qq, "D:1")
        D2 = catalog_derivation(shape_e, qq, "D:2")
        mixed = Derivation(
            shape_e, qq,
            {v: D1.image(v) + D2.image(v) for v in set(D1.images) | set(D2.images)},
        )
        split = homogeneous_split(mixed, GradingWeight((0, 0, 0, 1, -1)))
        for _, comp in (split[0], split[-1]):
            for v in range(shape_e.n):
                comp.nilpotency_index(v)  # must terminate

    def test_inadmissible_rejected(self, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        with pytest.raises(InadmissibleGrading):
            homogeneous_split(D1, GradingWeight((1, 0, 0, 0)))

    def test_component_degrees_at_least_a_i(self):
        # eta_i-decomposition of power-one catalog derivations never dips
        # below the matched exponent a_i
        for raw in (SHAPE_A, SHAPE_D, SHAPE_E):
            shape = validate_shape(raw)
            from trinomial_orbits.families import family_of

            view = family_of(shape).f1
            for i in range(1, view.m + 1):
                eta = eta_grading(shape, i)
                for d in lnd_catalog(shape, QQ):
                    for deg, _ in homogeneous_split(d, eta):
                        assert deg >= view.a[i - 1], (raw, d.designator, deg)


class TestDeltaFlows:
    def test_well_defined_and_nilpotent_over_f13(self, shape_h2):
        fld = PrimeField(13)
        for d in lnd_catalog(shape_h2, fld):
            ok, exact = d.well_defined()
            assert ok and exact
            indices = [d.nilpotency_index(v) for v in range(shape_h2.n)]
            assert max(indices) == 6  # leaders die after the l_2+1 chain

    def test_flows_preserve_equation(self, shape_h2):
        fld = PrimeField(13)
        pts = enumerate_points(shape_h2, fld)
        rng = random.Random(3)
        for d in lnd_catalog(shape_h2, fld):
            for _ in range(100):
                pt = rng.choice(pts)
                assert shape_h2.on_variety(fld, d.exp_flow(rng.randrange(13), pt))

    def test_rational_delta_refused(self, shape_h2):
        with pytest.raises(RootUnavailable):
            from trinomial_orbits.derivations import _build_delta

            _build_delta(shape_h2, QQ)


class TestCatalogCache:
    """lnd_catalog builds each (shape, field) catalog once and shares it."""

    @staticmethod
    def _same_orbit_pairs(shape, fld, pts, rng, count):
        buckets = {}
        for pt in pts:
            desc = classify_point(shape, fld, pt)
            if isinstance(desc, (BigO, OMeps)):
                buckets.setdefault(desc, []).append(pt)
        sources = sorted(pt for bucket in buckets.values() for pt in bucket)
        for _ in range(count):
            src = rng.choice(sources)
            yield src, rng.choice(buckets[classify_point(shape, fld, src)])

    @staticmethod
    def _rational_points_a(rng, count):
        nonzero = [i for i in range(-5, 6) if i]
        for _ in range(count):
            y = F(rng.choice([1, 2, -1, 3]))
            z, s = F(rng.choice(nonzero)), F(rng.choice(nonzero))
            yield (-(z**3 + s**3) / y**2, y, z, s)

    @pytest.mark.parametrize("raw,p", [(SHAPE_D, 13), (SHAPE_A, None)])
    def test_transports_build_each_catalog_once(self, monkeypatch, raw, p):
        shape = validate_shape(raw)
        fld = PrimeField(p) if p else QQ
        rng = random.Random(6)
        if p:
            pts = random_points(shape, fld, 60, rng)
        else:
            pts = list(self._rational_points_a(rng, 60))
        builds = []
        real = derivations._build_power_one
        monkeypatch.setattr(
            derivations, "_build_power_one",
            lambda shape, fld, partials, view: builds.append(fld)
            or real(shape, fld, partials, view),
        )
        flows = 0
        for src, dst in self._same_orbit_pairs(shape, fld, pts, rng, 50):
            word = transport(shape, fld, src, dst)
            assert word.apply(shape, fld, src) == dst
            flows += sum(1 for s in word.steps if isinstance(s, FlowStep))
        assert flows >= 50
        assert len(builds) == len({fld, QQ}) and set(builds) == {fld, QQ}

    @pytest.mark.parametrize("raw", [SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E])
    def test_fp_twins_are_the_cached_q_derivations(self, raw):
        shape = validate_shape(raw)
        rational = lnd_catalog(shape, QQ)
        twins = [
            [d.qlift for d in lnd_catalog(shape, PrimeField(p))] for p in (7, 13)
        ]
        assert twins[0] and all(t is not None for t in twins[0])
        for per_prime in twins:
            assert len(per_prime) == len(rational)
            assert all(t is q for t, q in zip(per_prime, rational))

    def test_cache_stays_bounded(self):
        for k in range(2, 4 + derivations.CATALOG_CACHE_SIZE):
            shape = validate_shape([[1, k], [3], [3]])
            for fld in (QQ, PrimeField(101)):
                lnd_catalog(shape, fld)
                info = derivations._catalog.cache_info()
                assert info.currsize <= derivations.CATALOG_CACHE_SIZE
        assert info.currsize == derivations.CATALOG_CACHE_SIZE

    def test_returned_containers_are_fresh(self, shape_a, f7):
        first, notes = lnd_catalog(shape_a, f7, with_notes=True)
        designators = [d.designator for d in first]
        first.append("junk")
        notes.append("junk")
        again, notes_again = lnd_catalog(shape_a, f7, with_notes=True)
        assert [d.designator for d in again] == designators
        assert "junk" not in notes_again
        index = catalog_index(shape_a, f7)
        index.pop("D:1")
        assert "D:1" in catalog_index(shape_a, f7)

    def test_outputs_same_with_cold_and_warm_cache(self, capsys):
        plain = "[[1,2,2],[3],[3]]"
        aliased = '{"groups": [[1,2,2],[3],[3]], "aliases": {"T0_1": "x", "T1_1": "z"}}'
        commands = [
            ("verify", "all", "--field", "Fp:7", "--trials", "40", "--seed", "3"),
            ("orbits", "transport", "--field", "Fp:13",
             "--from", "[11,1,1,1,1]", "--to", "[8,1,2,4,5]"),
            ("orbits", "transport", "--field", "Q",
             "--from", "[-2,1,1,1,1]", "--to", "[-9,1,1,2,1]"),
            ("lnd", "list", "--field", "Fp:13"),
            ("lnd", "check", "--field", "Fp:7"),
        ]

        def outputs(shape):
            out = []
            for cmd in commands:
                code = run_cli([*cmd[:2], "--shape", shape, *cmd[2:], "--json"])
                out.append((code, capsys.readouterr().out))
            return out

        cold = outputs(plain)
        derivations._catalog.cache_clear()
        cold_aliased = outputs(aliased)
        assert outputs(plain) == cold  # warm, from the aliased shape's entries
        assert outputs(aliased) == cold_aliased
        assert all(code == 0 for code, _ in cold)
        assert '"maps_src_to_dst": true' in cold[1][1]
