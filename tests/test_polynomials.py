import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trinomial_orbits.fields import PrimeField, QQ
from trinomial_orbits.polynomials import (
    MissingCoordinate,
    PolyParseError,
    PolyRing,
)

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

    def test_roundtrip_via_str(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_poly(RING, rng)
            assert RING.parse(str(f)) == f

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError):
            RING.parse("3*w")

    def test_trailing_garbage(self):
        with pytest.raises(PolyParseError):
            RING.parse("x + )")

    def test_canonical_term_order(self):
        f = X * Y**2 + Z**3 + S**3
        # graded-lex: within degree 3, x*y^2 leads (earlier variables first)
        assert str(f) == "x*y^2 + z^3 + s^3"


class TestSubstitute:
    def test_composition_evaluates_pointwise(self):
        fld = PrimeField(11)
        src = PolyRing(fld, ("x", "y", "z", "s"))
        dst = PolyRing(fld, ("a", "b", "c"))
        rng = random.Random(4)
        for _ in range(30):
            f = random_poly(src, rng)
            images = [random_poly(dst, rng, max_exp=2) for _ in range(4)]
            composed = f.substitute(images)
            assert composed.ring == dst
            pt = [rng.randrange(11) for _ in range(3)]
            assert composed.eval(pt) == f.eval([img.eval(pt) for img in images])

    def test_identity_images(self):
        assert G.substitute([X, Y, Z, S]) == G


class TestRename:
    def test_swap_fixes_symmetric_polynomial(self):
        perm = (0, 1, 3, 2)  # z <-> s
        assert G.rename(perm) == G

    def test_rename_moves_variables(self):
        perm = (1, 0, 2, 3)
        assert X.rename(perm) == Y
