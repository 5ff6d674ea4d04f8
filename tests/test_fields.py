from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from trinomial_orbits import fields
from trinomial_orbits.fields import (
    FieldError,
    GaussianRational,
    PrimeField,
    QI,
    QQ,
    factor,
    field_designator,
    integer_kth_root,
    parse_field,
)


def brute_roots(p, a, k):
    return {x for x in range(p) if pow(x, k, p) == a % p}


class TestKthRoots:
    def test_f7_cube_roots_of_one(self):
        assert PrimeField(7).kth_roots(1, 3) == {1, 2, 4}
        assert PrimeField(7).kth_roots(1, 3) == brute_roots(7, 1, 3)

    def test_f7_cube_roots_of_minus_one(self):
        assert PrimeField(7).kth_roots(6, 3) == {3, 5, 6}
        assert PrimeField(7).kth_roots(6, 3) == brute_roots(7, 6, 3)

    def test_identity_case(self):
        assert PrimeField(13).kth_roots(9, 1) == {9}
        assert QQ.kth_roots(Fraction(22, 7), 1) == {Fraction(22, 7)}

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_brute_scan(self, p, k):
        fld = PrimeField(p)
        for a in range(p):
            assert fld.kth_roots(a, k) == brute_roots(p, a, k)

    def test_root_set_size_divides_gcd(self):
        from math import gcd

        fld = PrimeField(13)
        for k in (2, 3, 4, 6):
            for a in range(1, 13):
                roots = fld.kth_roots(a, k)
                assert len(roots) in (0, gcd(k, 12))

    def test_rational_perfect_powers(self):
        assert QQ.kth_roots(Fraction(8, 27), 3) == {Fraction(2, 3)}
        assert QQ.kth_roots(Fraction(4), 2) == {Fraction(2), Fraction(-2)}
        assert QQ.kth_roots(Fraction(-8), 3) == {Fraction(-2)}
        assert QQ.kth_roots(Fraction(-4), 2) == set()
        assert QQ.kth_roots(Fraction(5), 2) == set()
        assert QQ.kth_roots(Fraction(0), 5) == {Fraction(0)}

    @given(st.integers(-50, 50), st.integers(1, 60).filter(lambda d: d != 0), st.integers(1, 5))
    def test_every_rational_root_verifies(self, num, den, k):
        a = Fraction(num, den)
        for r in QQ.kth_roots(a, k):
            assert r**k == a


class TestArithmetic:
    @given(st.integers(), st.integers())
    def test_q_roundtrip(self, a, b):
        fa, fb = Fraction(a), Fraction(b)
        assert QQ.sub(QQ.add(fa, fb), fb) == fa
        if b != 0:
            assert QQ.div(QQ.mul(fa, fb), fb) == fa

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_fp_roundtrip(self, a, b):
        fld = PrimeField(101)
        assert fld.sub(fld.add(a, b), b) == a % 101
        if b % 101:
            assert fld.div(fld.mul(a, b), b) == a % 101

    def test_division_of_ints_is_exact(self):
        # a / b would give a float on two ints
        third = Fraction(1, 3)
        for q in (QQ.inv(3), QQ.div(1, 3), QQ.inv(Fraction(3)), QQ.div(Fraction(2), 6)):
            assert type(q) is Fraction and q == third
        z = QI.inv(QI.from_int(3))
        assert type(z.real) is Fraction and z.real == third and z.imag == 0
        w = QI.inv(GaussianRational(0, 3))
        assert w.real == 0 and type(w.imag) is Fraction and w.imag == -third

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).inv(0)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))

    def test_sqrt_minus_one(self):
        assert PrimeField(101).sqrt_minus_one() == 10
        assert PrimeField(13).sqrt_minus_one() == 5
        assert PrimeField(3).sqrt_minus_one() is None
        assert PrimeField(7).sqrt_minus_one() is None
        assert QQ.sqrt_minus_one() is None
        i = QI.sqrt_minus_one()
        assert i * i == QI.from_int(-1) == -1

    @pytest.mark.parametrize("p", [7, 13])
    def test_sqrt_minus_one_searched_once(self, monkeypatch, p):
        fld = PrimeField(p)
        scans = []
        real = PrimeField.kth_roots
        monkeypatch.setattr(
            PrimeField, "kth_roots", lambda self, a, k: scans.append(a) or real(self, a, k)
        )
        assert fld.sqrt_minus_one() == fld.sqrt_minus_one() == {7: None, 13: 5}[p]
        assert scans == [p - 1]

    @pytest.mark.parametrize("p,root", [(2, 1), (13, 2), (23, 5), (41, 6)])
    def test_primitive_root_searched_once(self, monkeypatch, p, root):
        fld = PrimeField(p)
        factored = []
        real = fields.factor
        monkeypatch.setattr(fields, "factor", lambda n: factored.append(n) or real(n))
        assert fld.primitive_root() == fld.primitive_root() == root
        assert factored == [p - 1]

    def test_dlog(self):
        fld = PrimeField(13)
        g = fld.primitive_root()
        for a in range(1, 13):
            assert pow(g, fld.dlog(a), 13) == a

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 101])
    def test_dlog_inverts_the_power_table(self, p):
        fld = PrimeField(p)
        powers = fld.powers()
        assert fld.powers() is powers and len(powers) == p - 1
        assert powers == [pow(fld.primitive_root(), e, p) for e in range(p - 1)]
        for e in range(p - 1):
            assert fld.dlog(powers[e]) == e


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
gaussian = st.builds(GaussianRational, rationals, rationals)


class TestGaussianRationals:
    @given(gaussian, gaussian, gaussian)
    def test_field_axioms(self, a, b, c):
        assert QI.add(a, b) == QI.add(b, a) and QI.mul(a, b) == QI.mul(b, a)
        assert QI.mul(a, QI.add(b, c)) == QI.add(QI.mul(a, b), QI.mul(a, c))
        assert QI.sub(QI.add(a, b), b) == a
        if not QI.is_zero(b):
            assert QI.div(QI.mul(a, b), b) == a
            assert QI.mul(b, QI.inv(b)) == QI.one

    @given(gaussian, st.integers(0, 6))
    def test_pow(self, a, k):
        expected = QI.one
        for _ in range(k):
            expected = expected * a
        assert QI.pow(a, k) == expected

    def test_fmt(self):
        parts = [(3, 0), (0, 1), (0, -1), (0, Fraction(1, 2)), (1, -2)]
        assert [QI.fmt(GaussianRational(*ab)) for ab in parts] == [
            "3", "i", "-i", "1/2*i", "(1 - 2*i)",
        ]

    @given(gaussian, gaussian)
    def test_integral_parts_are_ints(self, a, b):
        for z in (a, b, a + b, a - b, a * b, -a, a * 2, a**2):
            for part in (z.real, z.imag):
                assert type(part) is (int if part.denominator == 1 else Fraction)

    def test_mixed_arithmetic_and_equality(self):
        i = QI.sqrt_minus_one()
        assert 0 + i == i and 2 * i == i + i and 1 - i == GaussianRational(1, -1)
        assert GaussianRational(3) == 3 == Fraction(3) and hash(GaussianRational(3)) == hash(3)
        assert QI != QQ and QI == type(QI)() and field_designator(QI) == "Qi"

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 7))
    def test_power_is_repeated_product(self, a, b, k):
        z = GaussianRational(Fraction(a, 3), b)
        product = QI.one
        for _ in range(k):
            product = product * z
        assert z**k == product and QI.pow(z, k) == product

    def test_negative_power_refused(self):
        with pytest.raises(ValueError, match="negative power"):
            QI.sqrt_minus_one() ** -1

    def test_inverse_of_zero_and_infinite(self):
        with pytest.raises(ZeroDivisionError):
            QI.inv(QI.zero)
        with pytest.raises(FieldError):
            QI.elements()


class TestConstruction:
    def test_designators(self):
        assert parse_field("Q") is QQ
        assert parse_field("Fp:7").modulus == 7
        assert field_designator(parse_field("Fp:101")) == "Fp:101"
        assert field_designator(QQ) == "Q"

    def test_gaussian_designator_round_trips(self):
        assert parse_field("Qi") is QI and parse_field(" Qi ") is QI
        assert field_designator(parse_field(field_designator(QI))) == "Qi"
        assert QI.parse("-3/6") == GaussianRational(Fraction(-1, 2))
        with pytest.raises(FieldError):
            QI.parse("i")

    def test_prime_field_hash_is_cached_and_unchanged(self):
        fld = PrimeField(13)
        assert hash(fld) == fld.__dict__["_hash"] == hash(("Fp", 13)) == hash(PrimeField(13))
        assert fld == PrimeField(13) and fld != PrimeField(11)
        assert {fld: "seen"}[PrimeField(13)] == "seen"

    def test_rejects_composite_modulus(self):
        with pytest.raises(FieldError):
            PrimeField(15)

    def test_rejects_huge_modulus(self):
        with pytest.raises(FieldError):
            PrimeField(100_003)

    def test_rejects_garbage(self):
        with pytest.raises(FieldError):
            parse_field("GF(9)")

    def test_element_parsing(self):
        fld = PrimeField(7)
        assert fld.parse("10") == 3
        assert fld.parse("1/2") == 4  # 2*4 = 8 = 1
        assert QQ.parse("-3/6") == Fraction(-1, 2)

    @pytest.mark.parametrize("bad", ["1/0", "7/7", "a/2", "2/b", "x"])
    def test_bad_elements_raise_field_error(self, bad):
        with pytest.raises(FieldError):
            PrimeField(7).parse(bad)
        if bad != "7/7":
            with pytest.raises(FieldError):
                QQ.parse(bad)

    def test_integer_kth_root(self):
        assert integer_kth_root(27, 3) == 3
        assert integer_kth_root(28, 3) is None
        assert integer_kth_root(1, 17) == 1
        assert integer_kth_root(2**40, 8) == 32

    def test_factor(self):
        assert factor(360) == {2: 3, 3: 2, 5: 1}
        assert factor(1) == {}
