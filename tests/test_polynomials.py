import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from trinomial_orbits.derivations import lnd_catalog
from trinomial_orbits.fields import GaussianRational, GaussianRationals, PrimeField, QQ
from trinomial_orbits.polynomials import (
    MissingCoordinate,
    PolyParseError,
    PolyRing,
    Polynomial,
)
from trinomial_orbits.oracle import point_count
from trinomial_orbits.shapes import symmetry_group
from trinomial_orbits.strata import singular_components
from conftest import exact_coefficient, random_points, small_shapes, substitute

RING = PolyRing(QQ, ("x", "y", "z", "s"))
X, Y, Z, S = (RING.var(i) for i in range(4))
G = X * Y**2 + Z**3 + S**3  # the running example hypersurface


def random_poly(ring, rng, max_terms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
        c = ring.field.from_int(rng.randint(-max_coeff, max_coeff))
        if not ring.field.is_zero(c):
            terms[exps] = c
    return ring.from_terms(terms)


class TestPartials:
    def test_power_rule(self):
        assert (Z**3).partial(2) == 3 * Z**2

    def test_product(self):
        assert (X * Y**2).partial(0) == Y**2

    def test_absent_variable(self):
        assert (S**3).partial(2).is_zero()

    def test_leibniz_randomized(self):
        rng = random.Random(0)
        for _ in range(100):
            f, g = random_poly(RING, rng), random_poly(RING, rng)
            v = rng.randrange(4)
            assert (f * g).partial(v) == f.partial(v) * g + g.partial(v) * f


class TestEval:
    def test_on_variety_point(self):
        pt = tuple(Fraction(v) for v in (-2, 1, 1, 1))
        assert G.eval(pt) == 0

    def test_mod7_point(self):
        ring = PolyRing(PrimeField(7), ("x", "y", "z", "s"))
        g = ring.parse("x*y^2 + z^3 + s^3")
        assert g.eval((5, 0, 6, 1)) == 0  # 6^3 + 1 = 217 = 7*31

    def test_constant(self):
        c = RING.const(Fraction(7, 3))
        assert c.eval((Fraction(0),) * 4) == Fraction(7, 3)

    def test_missing_coordinate(self):
        with pytest.raises(MissingCoordinate):
            G.eval((Fraction(1), Fraction(2)))


class TestDivision:
    def test_zero_is_multiple(self):
        ok, q = G.divides_into(RING.zero)
        assert ok and q.is_zero()

    def test_constructed_multiple(self):
        ok, q = G.divides_into(Y * G)
        assert ok and q == Y

    def test_non_member(self):
        f = Y**2 * (3 * Z**2)
        ok, q = G.divides_into(f)
        assert not ok and q is None
        # cross-check by value: f is nonzero at a point where G vanishes
        pt = tuple(Fraction(v) for v in (-2, 1, 1, 1))
        assert G.eval(pt) == 0 and f.eval(pt) != 0

    def test_divmod_roundtrip_randomized(self):
        rng = random.Random(1)
        for _ in range(100):
            q = random_poly(RING, rng)
            r = random_poly(RING, rng)
            f = q * G + r
            q2, r2 = f.divmod_single(G)
            assert q2 * G + r2 == f
            # remainder terms are never divisible by the leading term of G
            lead = G.leading_term()[0]
            for e in r2.terms:
                assert not all(a >= b for a, b in zip(e, lead))
            assert G.divides_into(f)[0] == r2.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            G.divmod_single(RING.zero)


class TestRingAxioms:
    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_assoc_and_distrib(self, seed):
        rng = random.Random(seed)
        f, g, h = (random_poly(RING, rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) + h == f + (g + h)

    def test_pow_matches_repeated_product(self):
        rng = random.Random(3)
        f = random_poly(RING, rng)
        acc = RING.one
        for k in range(5):
            assert f**k == acc
            acc = acc * f


class TestParsing:
    def test_spec_syntax(self):
        p = RING.parse("3*x^2*z - 1/2*y")
        assert p == 3 * X**2 * Z - RING.const(Fraction(1, 2)) * Y
        assert RING.parse("(x + 1)*y") == X * Y + Y

    def test_roundtrip_via_str(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_poly(RING, rng)
            assert RING.parse(str(f)) == f

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError):
            RING.parse("3*w")

    @pytest.mark.parametrize("text", ["x^3/4", "y^2/1", "z^\u00b2"])
    def test_exponent_is_an_integer(self, text):
        with pytest.raises(PolyParseError, match="is not an integer"):
            RING.parse(text)

    def test_trailing_garbage(self):
        with pytest.raises(PolyParseError):
            RING.parse("x + )")

    def test_canonical_term_order(self):
        f = X * Y**2 + Z**3 + S**3
        # graded-lex: within degree 3, x*y^2 leads (earlier variables first)
        assert str(f) == "x*y^2 + z^3 + s^3"


class TestSubstitute:
    """The composition helper behind the tests' reference group-law proof."""

    def test_composition_evaluates_pointwise(self):
        fld = PrimeField(11)
        src = PolyRing(fld, ("x", "y", "z", "s"))
        dst = PolyRing(fld, ("a", "b", "c"))
        rng = random.Random(4)
        for _ in range(30):
            f = random_poly(src, rng)
            images = [random_poly(dst, rng, max_exp=2) for _ in range(4)]
            composed = substitute(f, images)
            assert composed.ring == dst
            pt = [rng.randrange(11) for _ in range(3)]
            assert composed.eval(pt) == f.eval([img.eval(pt) for img in images])

    def test_identity_images(self):
        assert substitute(G, [X, Y, Z, S]) == G


class TestRename:
    def test_swap_fixes_symmetric_polynomial(self):
        perm = (0, 1, 3, 2)  # z <-> s
        assert G.rename(perm) == G

    def test_rename_moves_variables(self):
        perm = (1, 0, 2, 3)
        assert X.rename(perm) == Y


# -- the kernel against a naive reference ------------------------------------
#
# The reference works on plain term dicts with the field's own methods, one
# coefficient operation at a time, dropping each zero as it appears.

KERNEL_FIELDS = (QQ, GaussianRationals(), PrimeField(2), PrimeField(5), PrimeField(13))
ON_VARIETY_FIELDS = (QQ, GaussianRationals(), *map(PrimeField, (2, 3, 5, 7, 11, 13)))


def ref_add(fld, f, g):
    out = dict(f)
    for e, c in g.items():
        s = fld.add(out.get(e, fld.zero), c)
        if fld.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def ref_neg(fld, f):
    return {e: fld.neg(c) for e, c in f.items()}


def ref_mul(fld, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out = ref_add(fld, out, {e: fld.mul(c1, c2)})
    return out


def ref_pow(fld, nvars, f, k):
    out = {(0,) * nvars: fld.one}
    for _ in range(k):
        out = ref_mul(fld, out, f)
    return out


def ref_partial(fld, f, v):
    out = {}
    for e, c in f.items():
        if e[v]:
            out = ref_add(
                fld, out, {e[:v] + (e[v] - 1,) + e[v + 1:]: fld.mul(c, fld.from_int(e[v]))}
            )
    return out


def ref_value(fld, c, factors, point):
    """c * prod point[i]^k, one field multiplication per factor."""
    for i, k in factors:
        for _ in range(k):
            c = fld.mul(c, point[i])
    return c


def ref_eval(fld, f, point):
    acc = fld.zero
    for e, c in f.items():
        acc = fld.add(acc, ref_value(fld, c, [(i, k) for i, k in enumerate(e) if k], point))
    return acc


def ref_monomial_value(shape, fld, pt, g):
    idxs = shape.group_indices(g)
    return ref_value(fld, fld.one, [(i, shape.exponents[i]) for i in idxs], pt)


def ref_on_variety(shape, fld, pt):
    total = fld.zero
    for g in range(3):
        total = fld.add(total, ref_monomial_value(shape, fld, pt, g))
    return fld.is_zero(total)


def ref_substitute(fld, f, images, nvars):
    out = {}
    for e, c in f.items():
        term = {(0,) * nvars: c}
        for i, k in enumerate(e):
            term = ref_mul(fld, term, ref_pow(fld, nvars, images[i], k))
        out = ref_add(fld, out, term)
    return out


def rational_point(shape, rng):
    """A point of X over Q, solved for its first exponent-1 variable, which
    every shape with a nonempty catalog over Q has."""
    v = shape.exponents.index(1)
    gv = shape.group_of(v)
    while True:
        pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(shape.n)]
        pt[v] = Fraction(1)
        cofactor = ref_monomial_value(shape, QQ, pt, gv)
        if cofactor:
            rest = sum(ref_monomial_value(shape, QQ, pt, g) for g in range(3) if g != gv)
            pt[v] = QQ.div(-rest, cofactor)
            return tuple(pt)


@st.composite
def rings(draw, max_vars=4):
    fld = draw(st.sampled_from(KERNEL_FIELDS))
    return PolyRing(fld, "xyzs"[: draw(st.integers(1, max_vars))])


@st.composite
def polys(draw, ring, max_terms=5, max_exp=3):
    fld = ring.field
    rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    if fld == QQ:
        coeffs = rationals
    elif fld.modulus is None:
        coeffs = st.builds(GaussianRational, rationals, rationals)
    else:
        coeffs = st.integers(0, fld.modulus - 1)
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return Polynomial(ring, {e: c for e, c in terms.items() if not fld.is_zero(c)})


def coordinates(fld):
    """Point coordinates the evaluation must accept: over F_p any int,
    canonical or not; over Q Fractions and plain ints; over Q(i) Gaussian
    rationals, Fractions and ints."""
    ints = st.integers(-5, 5)
    rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    if fld == QQ:
        return st.one_of(rationals, ints)
    if fld.modulus is None:
        return st.one_of(st.builds(GaussianRational, rationals, rationals), rationals, ints)
    p = fld.modulus
    return st.one_of(st.integers(0, p - 1), st.sampled_from([-1, p, p + 3, -p - 2, 7 * p + 1]))


def same_value(fld, value, ref):
    """Equal and of the canonical type: over Q an int exactly when the
    denominator is 1, elsewhere the reference's type; over F_p also the
    canonical residue."""
    if fld == QQ:
        want = int if ref.denominator == 1 else Fraction
    else:
        want = type(ref)
    return value == ref and type(value) is want and (
        fld.modulus is None or 0 <= value < fld.modulus
    )


class TestKernelAgainstReference:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_eval(self, data):
        ring = data.draw(rings())
        fld = ring.field
        f = data.draw(polys(ring))
        pt = data.draw(st.lists(coordinates(fld), min_size=ring.nvars, max_size=ring.nvars))
        assert same_value(fld, f.eval(pt), ref_eval(fld, f.terms, pt))
        assert same_value(fld, f.eval(pt), ref_eval(fld, f.terms, pt))  # compiled terms reused

    @given(small_shapes(), st.sampled_from(KERNEL_FIELDS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_shape_evaluation(self, shape, fld, data):
        pt = data.draw(st.lists(coordinates(fld), min_size=shape.n, max_size=shape.n))
        on_points = fld.modulus is not None and point_count(shape, fld.modulus) > 0
        if on_points and data.draw(st.booleans()):  # X(F_p) may be empty
            pt = list(random_points(shape, fld, 1, random.Random(data.draw(st.integers())))[0])
        assert shape.on_variety(fld, pt) == ref_on_variety(shape, fld, pt)
        for g in range(3):
            value = shape.monomial_value(fld, pt, g)
            assert same_value(fld, value, ref_monomial_value(shape, fld, pt, g))

    @given(small_shapes(), st.sampled_from(ON_VARIETY_FIELDS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_on_variety_is_the_equation(self, shape, fld, data):
        # on_variety sums the shape's own terms; the cached equation over
        # fld must agree, free-term shapes included
        pt = data.draw(st.lists(coordinates(fld), min_size=shape.n, max_size=shape.n))
        on_points = fld.modulus is not None and point_count(shape, fld.modulus) > 0
        if on_points and data.draw(st.booleans()):  # X(F_p) may be empty
            pt = list(random_points(shape, fld, 1, random.Random(data.draw(st.integers())))[0])
        assert shape.on_variety(fld, pt) == fld.is_zero(shape.equation(fld).eval(pt))

    @given(small_shapes(), st.sampled_from([QQ, PrimeField(2), PrimeField(5), PrimeField(13)]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_exp_flow_is_the_flow_polynomials(self, shape, fld, data):
        catalog = lnd_catalog(shape, fld)
        assume(catalog)
        rng = random.Random(data.draw(st.integers()))
        if fld.modulus is None:
            pt = rational_point(shape, rng)
            u = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        else:
            pt = random_points(shape, fld, 1, rng)[0]
            u = rng.randrange(fld.modulus)
        for d in catalog:  # closed-form series: exact in every characteristic
            expected = tuple(d.flow_polynomial(v, u).eval(pt) for v in range(shape.n))
            assert d.exp_flow(u, pt) == expected, d

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_ring_operations(self, data):
        ring = data.draw(rings())
        fld = ring.field
        f, g = data.draw(polys(ring)), data.draw(polys(ring))
        k = data.draw(st.integers(0, 3))
        # term dicts compare coefficients as values: over F_p each must be
        # the canonical residue, and no zero may be kept
        assert (f + g).terms == ref_add(fld, f.terms, g.terms)
        assert (-f).terms == ref_neg(fld, f.terms)
        assert (f - g).terms == ref_add(fld, f.terms, ref_neg(fld, g.terms))
        assert (f * g).terms == ref_mul(fld, f.terms, g.terms)
        assert (f**k).terms == ref_pow(fld, ring.nvars, f.terms, k)
        for v in range(ring.nvars):
            assert f.partial(v).terms == ref_partial(fld, f.terms, v)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_char_zero_coefficients_stay_exact(self, data):
        # canonical inputs, as the ring builds them: integral values as ints
        ring = data.draw(rings().filter(lambda r: r.field.modulus is None))
        f, g = (ring.from_terms(data.draw(polys(ring)).terms) for _ in range(2))
        c = data.draw(coordinates(ring.field))
        results = [f + g, f * g, f.scale(c)] + [f.partial(v) for v in range(ring.nvars)]
        if not g.is_zero():
            q, r = f.divmod_single(g)
            assert q * g + r == f
            results += [q, r]
        for h in results:
            assert all(map(exact_coefficient, h.terms.values())), h.terms

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_substitute(self, data):
        src = data.draw(rings())
        dst = PolyRing(src.field, "abc"[: data.draw(st.integers(1, 3))])
        f = data.draw(polys(src, max_terms=4, max_exp=2))
        images = [data.draw(polys(dst, max_terms=3, max_exp=2)) for _ in range(src.nvars)]
        composed = substitute(f, images)
        assert composed.ring == dst
        assert composed.terms == ref_substitute(
            src.field, f.terms, [img.terms for img in images], dst.nvars
        )

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_divmod_single(self, data):
        ring = data.draw(rings())
        fld = ring.field
        f = data.draw(polys(ring, max_terms=6))
        g = data.draw(polys(ring, max_terms=3).filter(lambda p: not p.is_zero()))
        q, r = f.divmod_single(g)
        assert ref_add(fld, ref_mul(fld, q.terms, g.terms), r.terms) == f.terms
        lead = g.leading_term()[0]
        for e in r.terms:
            assert not all(a >= b for a, b in zip(e, lead))

    @pytest.mark.parametrize("fld", KERNEL_FIELDS)
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_divmod_single_with_nothing_to_divide(self, fld, data):
        ring = PolyRing(fld, "xyzs"[: data.draw(st.integers(1, 4))])
        g = data.draw(polys(ring, max_terms=3).filter(lambda p: not p.is_zero()))
        lead = max(g.terms, key=lambda e: (sum(e), e))
        drawn = data.draw(polys(ring, max_terms=6))
        f = Polynomial(ring, {
            e: c for e, c in drawn.terms.items() if not all(a >= b for a, b in zip(e, lead))
        })
        q, r = f.divmod_single(g)
        assert q.is_zero() and r == f
        assert ref_add(fld, ref_mul(fld, q.terms, g.terms), r.terms) == f.terms
        # the leading term found once on g is that of a freshly built copy
        for p in (g, g, Polynomial(ring, dict(g.terms))):
            assert p.leading_term() == (lead, g.terms[lead])


class TestDeriveAgainstPartials:
    @given(small_shapes(), st.sampled_from([QQ, PrimeField(5), PrimeField(13)]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_catalog_derivations(self, shape, fld, data):
        f = data.draw(polys(shape.ring(fld), max_terms=4))
        for d in lnd_catalog(shape, fld):
            expected = {}
            for v in range(shape.n):
                part = ref_partial(fld, f.terms, v)
                expected = ref_add(fld, expected, ref_mul(fld, part, d.image(v).terms))
            assert d.derive(f).terms == expected, d

    def test_mixed_rings_rejected(self, shape_a):
        (d, *_) = lnd_catalog(shape_a, QQ)
        with pytest.raises(ValueError, match="mixed rings"):
            d.derive(PolyRing(QQ, ("a",)).var(0))


class TestEquationCache:
    @given(small_shapes())
    @settings(max_examples=40, deadline=None)
    def test_shared_and_untouched_by_a_survey(self, shape):
        fields = (QQ, PrimeField(101))
        cached = {fld: shape.equation(fld) for fld in fields}
        for fld, eq in cached.items():
            assert shape.equation(fld) is eq
            assert shape.ring(fld) is eq.ring
        # everything the survey benchmark asks of a shape
        symmetry_group(shape)
        singular_components(shape)
        for fld in fields:
            for d in lnd_catalog(shape, fld):
                assert d.well_defined() == (True, True)
                for v in range(shape.n):
                    d.nilpotency_index(v)
        for fld, eq in cached.items():
            assert shape.equation(fld) is eq
            fresh = {shape.monomial_exps(g): fld.one for g in range(3)}
            assert eq.terms == fresh
