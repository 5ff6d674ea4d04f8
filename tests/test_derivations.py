import random
from fractions import Fraction as F
from math import factorial
from operator import add, sub

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from trinomial_orbits import oracle
from trinomial_orbits.cli import run_cli
from trinomial_orbits.derivations import catalog_index, delta_pair_groups
from trinomial_orbits.fields import QI
from trinomial_orbits.orbits import BigO, FlowStep, OMeps, classify_point, transport
from trinomial_orbits.oracle import enumerate_points, verify_flow_regularity
from trinomial_orbits.polynomials import Polynomial
from trinomial_orbits.shapes import EQUATION_CACHE_SIZE

from conftest import (
    SHAPE_A,
    SHAPE_C,
    SHAPE_D,
    SHAPE_E,
    SHAPE_FIELD_CACHES,
    SHAPE_H2,
    exact_coefficient,
    power_one_shapes,
    prove_group_law,
    random_points,
    small_shapes,
)

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

    @pytest.mark.parametrize("groups", [SHAPE_H2, [[2], [2], [1, 3]]])
    def test_f2_lists_one_delta_per_variable(self, groups):
        # over F_2, j = -j: delta-:i would repeat delta+:i
        shape, f2 = validate_shape(groups), PrimeField(2)
        cat = lnd_catalog(shape, f2)
        third = shape.group_indices(delta_pair_groups(shape)[2])
        assert [d.designator for d in cat if d.family.startswith("delta")] == [
            f"delta+:{i}" for i in range(1, len(third) + 1)
        ]
        summed = verify_flow_regularity(shape, f2, cat).checks[0]
        assert summed.passed
        assert summed.details["runs"] == summed.details["points"] * 2 * len(cat)
        for d in cat:
            moving = d.moving_variables()
            for v in range(shape.n):
                series = d.divided_power_series(v)
                assert not series[-1].is_zero(), (d, v)
                assert (v in moving) == (len(series) > 1), (d, v)

    def test_f2_delta_moves_the_variables_it_lists(self, shape_h2):
        # the T2_1 image w = -2*F0*F1*(...) vanishes mod 2, and with it every
        # closed-form P_k, k >= 2
        f2 = PrimeField(2)
        (d,) = lnd_catalog(shape_h2, f2)
        assert d.moving_variables() == sorted(d.images) == [0, 2]
        summed = verify_flow_regularity(shape_h2, f2, [d]).checks[0].details
        # T(F_2) is trivial: each of the 16 points is a T-orbit, read at u = 0, 1
        assert (summed["runs"], summed["flow_evaluations"], summed["points"]) == (32, 32, 16)
        assert summed["torus_orbits"] == 16

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
            euler.nilpotency_index(2)
        with pytest.raises(Diverged):
            euler.divided_power_series(2)

    def test_one_cap_for_index_and_series(self, monkeypatch, shape_a, qq):
        # x has index 4 under D:1: a cap of 4 admits it, 3 refuses it, for
        # the index and the series alike (fresh copies: no shared cache)
        images = dict(catalog_derivation(shape_a, qq, "D:1").images)
        monkeypatch.setattr(derivations, "NILPOTENCY_CAP", 4)
        d = Derivation(shape_a, qq, images)
        assert d.nilpotency_index(0) == 4
        assert len(d.divided_power_series(0)) == 4
        monkeypatch.setattr(derivations, "NILPOTENCY_CAP", 3)
        d = Derivation(shape_a, qq, images)
        with pytest.raises(Diverged):
            d.nilpotency_index(0)
        with pytest.raises(Diverged):
            d.divided_power_series(0)


# -- the reduced powers against the naive loops ------------------------------


def ref_nilpotency_index(d, v):
    """The Leibniz pass from the bare variable, reduced at every step."""
    g = d.shape.equation(d.field)
    cur = d.ring.var(v)
    for k in range(1, derivations.NILPOTENCY_CAP + 1):
        cur = d.derive(cur).reduce_mod(g)
        if cur.is_zero():
            return k
    raise Diverged(v)


def ref_series_in_field(d, v):
    """delta^k(v)/k! in the derivation's own field, each term the reduced
    derivative of the one before divided by k."""
    fld = d.field
    g = d.shape.equation(fld)
    out = [d.ring.var(v)]
    for k in range(1, derivations.NILPOTENCY_CAP + 1):
        nxt = d.derive(out[-1]).reduce_mod(g)
        if nxt.is_zero():
            return out
        if k == derivations.NILPOTENCY_CAP:
            raise Diverged(v)
        kk = fld.from_int(k)
        if fld.is_zero(kk):
            raise CharacteristicTooSmall(k)
        out.append(nxt.scale(fld.inv(kk)))


def outcome(fn, *args):
    """fn(*args), or the class of the refusal it raised."""
    try:
        return fn(*args)
    except (CharacteristicTooSmall, Diverged) as exc:
        return type(exc)


@st.composite
def delta_shapes(draw, max_vars=5):
    """Shapes with two even groups led by exponent 2, in any group order,
    and a third group of exponents 1-8 (so some exceed p = 5)."""
    even = st.lists(st.sampled_from([2, 4]), max_size=1).map(lambda t: [2] + t)
    groups = [draw(even), draw(even), draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))]
    groups = draw(st.permutations(groups))
    shape = validate_shape(groups)
    assume(shape.n <= max_vars and shape.degenerate_group() is None)
    assume(delta_pair_groups(shape) is not None)
    return shape


def push(p, ring):
    """Map a polynomial over Q or Q(i) into the F_p of ring, sending
    a + b*i to a + b*j mod p with j = sqrt_minus_one() of F_p; a
    denominator that p divides refuses with CharacteristicTooSmall."""
    fld = ring.field

    def residue(q):
        if fld.is_zero(q.denominator):
            raise CharacteristicTooSmall(f"{q} does not reduce into {fld!r}")
        return q.numerator * fld.inv(q.denominator)

    out = {}
    for e, c in p.terms.items():
        out[e] = residue(c.real)
        if c.imag:
            out[e] += residue(c.imag) * fld.sqrt_minus_one()
    return ring.from_terms(out)


def upstairs(d):
    """The catalog derivation of d's designator over Q, or over Q(i) for
    delta: characteristic 0, where in-field divided powers are exact."""
    fld = QI if d.family.startswith("delta") else QQ
    return catalog_derivation(d.shape, fld, d.designator)


def pushed_record(d):
    """The record of d's characteristic-0 counterpart, pushed into d's field."""
    s, l, w, coeffs = upstairs(d)._slice
    return s, l, push(w, d.ring), {t: push(c, d.ring) for t, c in coeffs.items()}


def ref_series(d, v):
    """The reference for divided_power_series: in-field for a derivation
    with no record and over Q and Q(i); over F_p, for a catalog derivation,
    the in-field series of its characteristic-0 counterpart pushed into
    F_p, less the powers that vanish there after the last nonzero one."""
    if d._slice is None or d.field.modulus is None:
        return ref_series_in_field(d, v)
    pushed = [push(p, d.ring) for p in ref_series_in_field(upstairs(d), v)]
    last = max(k for k, p in enumerate(pushed) if not p.is_zero())
    return pushed[: last + 1]


def assert_agrees_with_reference(d):
    for v in range(d.shape.n):
        assert outcome(d.nilpotency_index, v) == outcome(ref_nilpotency_index, d, v), (d, v)
        assert outcome(d.divided_power_series, v) == outcome(ref_series, d, v), (d, v)


REFERENCE_FIELDS = (QQ, QI, PrimeField(2), PrimeField(5), PrimeField(13))


class TestReducedPowersAgainstReference:
    @given(small_shapes(), st.sampled_from(REFERENCE_FIELDS))
    @settings(max_examples=60, deadline=None)
    def test_catalog_derivations(self, shape, fld):
        for d in lnd_catalog(shape, fld):
            assert d._slice is not None
            assert_agrees_with_reference(d)

    @given(delta_shapes(max_vars=4), st.sampled_from(REFERENCE_FIELDS[1:]))
    @settings(max_examples=40, deadline=None)
    def test_catalog_deltas(self, shape, fld):
        # every reference field but Q has a square root of -1
        deltas = [d for d in lnd_catalog(shape, fld) if d.family.startswith("delta")]
        assert deltas
        for d in deltas:
            assert_agrees_with_reference(d)

    @given(small_shapes(), st.sampled_from(REFERENCE_FIELDS))
    @settings(max_examples=60, deadline=None)
    def test_custom_derivations(self, shape, fld):
        # the catalog images with no record: the in-field series, refusals
        # included (over F_2 and F_5 some divided powers need 1/p)
        for d in lnd_catalog(shape, fld):
            custom = Derivation(shape, fld, dict(d.images))
            assert custom._slice is None
            assert_agrees_with_reference(custom)

    @given(power_one_shapes(), st.sampled_from(REFERENCE_FIELDS))
    @settings(max_examples=30, deadline=None)
    def test_graded_parts(self, shape, fld):
        eta = eta_grading(shape, 1)
        for d in lnd_catalog(shape, fld):
            for _, part in homogeneous_split(d, eta):
                assert_agrees_with_reference(part)

    def test_unmoved_variable_costs_no_arithmetic(self, monkeypatch, shape_a, qq):
        D1 = Derivation(shape_a, qq, dict(catalog_derivation(shape_a, qq, "D:1").images))
        monkeypatch.setattr(Derivation, "derive", None)
        monkeypatch.setattr(Polynomial, "reduce_mod", None)
        assert D1.nilpotency_index(1) == 1
        assert D1.divided_power_series(1) == [shape_a.ring(qq).var(1)]


CLOSED_FORM_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(101))


class TestClosedFormIndices:
    @given(small_shapes(), st.sampled_from(CLOSED_FORM_FIELDS))
    @settings(max_examples=80, deadline=None)
    def test_elementary_agrees_with_leibniz(self, shape, fld):
        # every catalog derivation reads its indices from its record: against
        # the Leibniz pass from the bare variable
        flat = GradingWeight((0,) * shape.n)
        for d in lnd_catalog(shape, fld):
            assert d._slice is not None
            for v in range(shape.n):
                assert outcome(d.nilpotency_index, v) == outcome(
                    ref_nilpotency_index, d, v), (d, fld, v)
            assert Derivation(shape, fld, dict(d.images))._slice is None
            assert all(part._slice is None for _, part in homogeneous_split(d, flat))

    @pytest.mark.parametrize("fld", [QQ, PrimeField(101)])
    @pytest.mark.parametrize("designator", ["gamma:1,1", "D:1"])
    def test_index_past_the_cap_diverges(self, fld, designator):
        # x = T0_1 next to T1_1^60: index 61 over Q and F_101
        d = catalog_derivation(validate_shape([[1, 2], [60], [3]]), fld, designator)
        with pytest.raises(Diverged, match=r"^no nilpotency on T0_1 within 50 steps$"):
            d.nilpotency_index(0)

    def test_series_past_the_cap_is_read_in_closed_form(self):
        # x = T0_1 has index 61 over Q, past the cap, but its divided powers
        # C(60, k) c s^(60-k) w^(k-1) are read, not iterated: the flows exist
        shape = validate_shape([[1, 2], [60], [3]])
        assert len(catalog_derivation(shape, QQ, "D:1").divided_power_series(0)) == 61
        f7 = PrimeField(7)
        d = catalog_derivation(shape, f7, "D:1")
        assert d.nilpotency_index(0) == 5  # 60 = 4 mod 7
        assert len(d.divided_power_series(0)) == 61  # C(60, 60) = 1
        assert verify_flow_regularity(shape, f7, [d]).checks[0].passed

    @pytest.mark.parametrize("designator", ["gamma:1,1", "D:1"])
    def test_index_reduces_mod_p(self, designator):
        # 60 = 4 mod 7
        d = catalog_derivation(validate_shape([[1, 2], [60], [3]]), PrimeField(7), designator)
        assert d.nilpotency_index(0) == 5

    def test_exponent_divisible_by_p_leaves_x_unmoved(self):
        # dF/dz = 7 z^6 = 0 over F_7
        D1 = catalog_derivation(validate_shape([[1, 2], [7], [3]]), PrimeField(7), "D:1")
        assert 0 not in D1.images
        assert [D1.nilpotency_index(v) for v in range(4)] == [1, 1, 2, 1]

    def test_catalog_index_costs_no_arithmetic(self, monkeypatch, shape_a, qq):
        D1 = catalog_derivation(shape_a, qq, "D:1")
        monkeypatch.setattr(Derivation, "derive", None)
        monkeypatch.setattr(Polynomial, "reduce_mod", None)
        assert [D1.nilpotency_index(v) for v in range(4)] == [4, 1, 2, 1]


# -- a reference over Fractions only: each Q or Q(i) coefficient is a pair
# (real, imaginary) of Fractions, whatever type the library keeps -----------


def fraction_terms(poly):
    return {e: (F(c.real), F(c.imag)) for e, c in poly.terms.items()}


def _times(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _accumulate(out, e, c):
    total = out.pop(e, (F(0), F(0)))
    total = (total[0] + c[0], total[1] + c[1])
    if any(total):
        out[e] = total


def fraction_derive(images, f):
    """The Leibniz rule: sum over v of (df/dv) * images[v]."""
    out = {}
    for e, c in f.items():
        for v, img in images.items():
            k = e[v]
            if k:
                de = e[:v] + (k - 1,) + e[v + 1:]
                for ie, ic in img.items():
                    _accumulate(out, tuple(map(add, de, ie)), _times((c[0] * k, c[1] * k), ic))
    return out


def fraction_reduce(f, g):
    """The remainder of f by the single divisor g, graded-lex leading term."""
    lead = max(g, key=lambda e: (sum(e), e))
    a, b = g[lead]
    inv = (a / (a * a + b * b), -b / (a * a + b * b))
    f, rem = dict(f), {}
    while f:
        e = max(f, key=lambda e: (sum(e), e))
        c = f.pop(e)
        if all(x >= y for x, y in zip(e, lead)):
            q, qe = _times(c, inv), tuple(map(sub, e, lead))
            for ge, gc in g.items():
                if ge != lead:
                    qg = _times(q, gc)
                    _accumulate(f, tuple(map(add, qe, ge)), (-qg[0], -qg[1]))
        else:
            rem[e] = c
    return rem


def fraction_powers(d, v):
    """delta^k(v) mod the equation for k = 1, 2, ... while nonzero."""
    g = fraction_terms(d.shape.equation(d.field))
    images = {w: fraction_terms(p) for w, p in d.images.items()}
    cur, out = fraction_reduce(images.get(v, {}), g), []
    while cur:
        out.append(cur)
        assert len(out) < derivations.NILPOTENCY_CAP
        cur = fraction_reduce(fraction_derive(images, cur), g)
    return out


class TestExactCoefficients:
    @given(small_shapes(), st.sampled_from([QQ, QI]))
    @settings(max_examples=60, deadline=None)
    def test_catalog_series_and_powers(self, shape, fld):
        # no float, every integral coefficient an int, the Fraction values
        for d in lnd_catalog(shape, fld):
            for v in range(shape.n):
                powers = list(d._reduced_powers(v))
                series = d.divided_power_series(v)
                for poly in powers + series:
                    assert all(map(exact_coefficient, poly.terms.values())), (d, v, poly)
                ref = fraction_powers(d, v)
                assert [fraction_terms(p) for p in powers] == ref, (d, v)
                assert d.nilpotency_index(v) == 1 + len(ref)
                unit = (0,) * v + (1,) + (0,) * (shape.n - v - 1)
                ref_series = [{unit: (F(1), F(0))}] + [
                    {e: (x / factorial(k), y / factorial(k)) for e, (x, y) in p.items()}
                    for k, p in enumerate(ref, start=1)
                ]
                assert [fraction_terms(p) for p in series] == ref_series, (d, v)


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
        # same images as D:1 but built raw, without the closed-form record
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
        assert all(prove_group_law(d) for d in lnd_catalog(shape, PrimeField(p)))

    def test_truncated_series_breaks_the_law(self, shape_a, f7):
        # a private copy of D:1 (on x, z): the catalog's derivations are shared
        d = derivations._elementary(shape_a, f7, shape_a.partials(f7), 0, 2, "D", (1,))
        assert d.images == catalog_derivation(shape_a, f7, "D:1").images
        series = d.divided_power_series(0)  # x + 3u z^2 - 3u^2 z y^2 + u^3 y^4
        assert len(series) == 4
        assert prove_group_law(d)
        d._series[0] = series[:-1]
        assert not prove_group_law(d)

    @given(small_shapes(), st.sampled_from([5, 7, 13]))
    @settings(max_examples=40, deadline=None)
    def test_shortcut_agrees_with_the_proof(self, shape, p):
        # every catalog flow is read from its record in closed form, an
        # identity of integer polynomials that obeys the law mod every p
        for d in lnd_catalog(shape, PrimeField(p)):
            assert prove_group_law(d), d


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

    def test_fp_deltas_push_the_gaussian_records(self, shape_h2):
        # an F_p delta is built in F_p from its own record: the Q(i) record
        # of its designator with i sent to j, and so are its images
        f13 = PrimeField(13)
        for d in lnd_catalog(shape_h2, f13):
            assert d._slice == pushed_record(d)
            assert d.images == {v: push(img, d.ring) for v, img in upstairs(d).images.items()}

    def test_fp_flows_request_no_characteristic_0_catalog(self, monkeypatch):
        requested = []
        real = derivations._catalog
        monkeypatch.setattr(
            derivations, "_catalog", lambda shape, fld: requested.append(fld) or real(shape, fld)
        )
        rng = random.Random(4)
        fields = [PrimeField(p) for p in (13, 7, 5)]
        for raw, fld in zip((SHAPE_H2, SHAPE_A, SHAPE_D), fields):
            shape = validate_shape(raw)
            cat = lnd_catalog(shape, fld)
            assert verify_flow_regularity(shape, fld, cat).checks[0].passed
            for d in cat:
                for pt in random_points(shape, fld, 5, rng):
                    assert shape.on_variety(fld, d.exp_flow(rng.randrange(fld.modulus), pt))
        assert requested and set(requested) == set(fields)

    @pytest.mark.parametrize("groups", [SHAPE_H2, [[2], [2], [6]]])
    def test_flows_stay_on_the_variety_over_f5(self, groups):
        # p = 5 is at most an exponent of the third group: the divided powers
        # computed in F_5 were no flow, the closed form read from each delta's
        # own F_5 record is one
        shape, f5 = validate_shape(groups), PrimeField(5)
        for d in lnd_catalog(shape, f5):
            for pt in enumerate_points(shape, f5):
                for u in range(5):
                    assert shape.on_variety(f5, d.exp_flow(u, pt))


class TestDeltaOverQiAndFp:
    """Delta is exact over Q(i), and its F_p flows stay on the variety."""

    @given(delta_shapes())
    @settings(max_examples=30, deadline=None)
    def test_delta_is_locally_nilpotent_over_qi(self, shape):
        deltas = [d for d in lnd_catalog(shape, QI) if d.family.startswith("delta")]
        assert deltas
        for d in deltas:
            assert d.well_defined() == (True, True)
            for v in range(shape.n):
                d.nilpotency_index(v)  # raises Diverged past the cap

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_flows_stay_on_the_variety(self, data):
        p = data.draw(st.sampled_from([5, 13]))
        shape = data.draw(delta_shapes(max_vars=5 if p == 5 else 4))
        fld = PrimeField(p)
        deltas = [d for d in lnd_catalog(shape, fld) if d.family.startswith("delta")]
        summed = verify_flow_regularity(shape, fld, deltas).checks[0]
        assert summed.passed and summed.details["off_variety"] == 0
        with pytest.MonkeyPatch.context() as m:
            m.setattr(oracle, "_torus_homogeneous", lambda delta: False)
            pointwise = verify_flow_regularity(shape, fld, deltas).checks[0]
        assert pointwise.details["flow_evaluations"] == pointwise.details["runs"]
        summed.details.pop("flow_evaluations")
        pointwise.details.pop("flow_evaluations")
        assert summed.details == pointwise.details


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
        assert builds == [fld]

    @pytest.mark.parametrize("raw", [SHAPE_A, SHAPE_C, SHAPE_D, SHAPE_E])
    def test_fp_records_reduce_the_q_records(self, raw):
        # each F_p catalog derivation is built in F_p from its own record,
        # the Q record of its designator reduced mod p
        shape = validate_shape(raw)
        rational = catalog_index(shape, QQ)
        for p in (7, 13):
            cat = lnd_catalog(shape, PrimeField(p))
            assert [d.designator for d in cat] == list(rational)
            for d in cat:
                assert d._slice == pushed_record(d), d

    def test_cache_stays_bounded(self):
        for k in range(2, 4 + EQUATION_CACHE_SIZE):
            shape = validate_shape([[1, k], [3], [3]])
            for fld in (QQ, PrimeField(101)):
                lnd_catalog(shape, fld)
                info = derivations._catalog.cache_info()
                assert info.currsize <= EQUATION_CACHE_SIZE
        assert info.currsize == EQUATION_CACHE_SIZE

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
            ("report",),
        ]

        def outputs(shape):
            out = []
            for cmd in commands:
                code = run_cli([*cmd, "--shape", shape, "--json"])
                out.append((code, capsys.readouterr().out))
            return out

        cold = outputs(plain)
        for cache in SHAPE_FIELD_CACHES:
            cache.cache_clear()
        cold_aliased = outputs(aliased)
        assert outputs(plain) == cold  # warm, from the aliased shape's entries
        assert outputs(aliased) == cold_aliased
        assert all(code == 0 for code, _ in cold)
        assert '"maps_src_to_dst": true' in cold[1][1]
