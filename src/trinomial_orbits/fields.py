"""Exact coefficient fields: the rationals Q, the Gaussian rationals Q(i)
and prime fields F_p.

Every value handled by this package is exact.  A rational value is a
plain int when it is integral and a `fractions.Fraction` (gcd-reduced,
positive denominator) only where a denominator appears; Gaussian-rational
elements are `GaussianRational` pairs a + b*i whose parts follow the same
rule; prime-field elements are plain ints in ``[0, p)``.  The values Q's
own methods build follow that rule: they are computed on numerator and
denominator ints, and a Fraction (with its one gcd) is built only where a
denominator remains.  Division never uses ``/``, which would give a float
on two ints.  A field object bundles the arithmetic so that the polynomial
layer can stay generic.  That layer sums and multiplies elements with their
own + and *, and each field's `normalize` turns the accumulated values back
into canonical elements, so integral coefficients stay ints.  Point
evaluation goes through one hook, `eval_terms(terms, point)`: the value of
sum c * prod x_i^k over compiled (c, ((i, k), ...)) terms, accumulated
natively and normalised once per value; `power_product(bases, exponents)`
is the same for prod b^e with exponents of either sign, with one inverse.
Coordinates (and coefficients) may also be plain ints: any int over F_p,
whatever its residue, and ints next to Fractions over Q and Q(i).

Q(i) is the characteristic-0 home of the derivations that need a square
root of -1 (Q has none); over F_p they use the field's own sqrt(-1),
and their divided powers are read in closed form in the field.

Prime fields are capped at p <= 10^5: each field builds one table of the
powers of its primitive root, and discrete logarithms and k-th roots are
read from it, which keeps the finite-field oracle desk-scale and plainly
correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

PRIME_FIELD_CAP = 100_000


class FieldError(ValueError):
    """Malformed field designator, bad modulus, or invalid element string."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def integer_kth_root(n: int, k: int):
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in (0, 1) or k == 1:
        return n
    lo, hi = 0, 1
    while hi**k < n:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


class _CharZeroField:
    """Arithmetic shared by Q and Q(i): elements add, multiply and test zero
    natively, and are canonical as computed."""

    modulus = None

    def __eq__(self, other):
        return isinstance(other, type(self))

    def __hash__(self):
        return hash(self.kind)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow(self, a, k: int):
        return a**k

    def is_zero(self, a) -> bool:
        return not a

    def fmt(self, a) -> str:
        return str(a)

    def elements(self):
        raise FieldError(f"{self!r} is infinite; cannot enumerate")


class Rationals(_CharZeroField):
    """The field Q.  Elements are ints or Fractions; overflow is impossible.
    `one`, `zero`, `from_int`, `parse`, `inv`, `div`, `kth_roots`,
    `eval_terms` and `power_product` give an int exactly when the value is
    integral; `add`, `sub`, `mul` and `pow` are the operands' own."""

    kind = "Q"
    zero = 0
    one = 1

    def __repr__(self):
        return "Q"

    def from_int(self, n: int):
        return n

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _ratio(a.denominator, a.numerator)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return _ratio(a.numerator * b.denominator, a.denominator * b.numerator)

    def normalize(self, acc: dict) -> dict:
        """The nonzero entries of natively accumulated values, each integral
        one as an int: Fractions are in lowest terms, so only denominator 1
        needs a change."""
        return {k: v.numerator if v.denominator == 1 else v for k, v in acc.items() if v}

    def eval_terms(self, terms, point):
        """sum c * prod x_i^k over (c, ((i, k), ...)) terms, as numerator
        and denominator ints: at most one Fraction, and so one gcd, per
        value."""
        num, den = 0, 1
        for c, factors in terms:
            n, d = c.numerator, c.denominator
            for i, k in factors:
                x = point[i]
                n *= x.numerator**k
                d *= x.denominator**k
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        return _ratio(num, den)

    def power_product(self, bases, exponents):
        """prod b^e over the pairs, as numerator and denominator ints (a zero
        base at a negative exponent leaves den = 0, and _ratio raises
        ZeroDivisionError)."""
        num = den = 1
        for b, e in zip(bases, exponents):
            if e > 0:
                num *= b.numerator**e
                den *= b.denominator**e
            elif e < 0:
                num *= b.denominator**-e
                den *= b.numerator**-e
        return _ratio(num, den)

    def parse(self, s: str):
        try:
            return _rational(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not a rational: {s!r}") from exc

    def sqrt_minus_one(self):
        """None: -1 is not a rational square."""
        return None

    def kth_roots(self, a, k: int) -> set:
        """All rational x with x^k = a.  Perfect-power detection only."""
        if k < 1:
            raise ValueError("k must be >= 1")
        a = _rational(a)
        if k == 1 or a == 0:
            return {a}
        rn = integer_kth_root(abs(a.numerator), k)
        rd = integer_kth_root(a.denominator, k)
        if rn is None or rd is None:
            return set()
        r = _ratio(rn, rd)
        if a > 0:
            return {r, -r} if k % 2 == 0 else {r}
        # a < 0: odd k has the single root -r, even k has none in Q
        return set() if k % 2 == 0 else {-r}


def _ratio(num: int, den: int):
    """num / den for ints: their quotient when den divides num, else one
    Fraction (den = 0 raises ZeroDivisionError)."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _rational(x):
    """x as an exact rational: an int when integral, else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GaussianRational:
    """a + b*i with exact rational parts a = real, b = imag, and i^2 = -1.

    A part is an int when integral and a Fraction otherwise, so products of
    integral values cost int operations only.  Mixed arithmetic with ints
    and Fractions gives GaussianRationals, so the polynomial kernel
    accumulates these with their own + and *."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        self.real = real if type(real) is int else _rational(real)
        self.imag = imag if type(imag) is int else _rational(imag)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.real + other.real, self.imag + other.imag)
        return GaussianRational(self.real + other, self.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.real, self.imag, other.real, other.imag
            return GaussianRational(a * c - b * d, a * d + b * c)
        return GaussianRational(self.real * other, self.imag * other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __bool__(self):
        return bool(self.real or self.imag)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, (int, Fraction)):
            return not self.imag and self.real == other
        return NotImplemented

    def __hash__(self):
        return hash(self.real) if not self.imag else hash((self.real, self.imag))

    def __str__(self):
        a, b = self.real, self.imag
        if not b:
            return str(a)
        im = {1: "i", -1: "-i"}.get(b, f"{b}*i")
        if not a:
            return im
        return f"({a} - {im[1:]})" if im.startswith("-") else f"({a} + {im})"

    def __repr__(self):
        return f"GaussianRational({self})"


class GaussianRationals(_CharZeroField):
    """The field Q(i).  Elements are GaussianRational; i = sqrt_minus_one()."""

    kind = "Qi"

    def __repr__(self):
        return "Q(i)"

    @property
    def zero(self):
        return GaussianRational()

    @property
    def one(self):
        return GaussianRational(1)

    def from_int(self, n: int):
        return GaussianRational(n)

    def normalize(self, acc: dict) -> dict:
        """The nonzero entries of natively accumulated values: the parts are
        canonical as built, so each value already is."""
        return {k: v for k, v in acc.items() if v}

    def inv(self, a):
        norm = a.real * a.real + a.imag * a.imag
        if not norm:
            raise ZeroDivisionError("inverse of 0")
        return GaussianRational(Fraction(a.real, norm), Fraction(-a.imag, norm))

    def div(self, a, b):
        return a * self.inv(b)

    def parse(self, s: str):
        """A rational, such as a coefficient of a polynomial's text."""
        return GaussianRational(QQ.parse(s))

    def eval_terms(self, terms, point):
        """sum c * prod x_i^k over (c, ((i, k), ...)) terms, with the
        elements' own + and *."""
        acc = GaussianRational()
        for c, factors in terms:
            for i, k in factors:
                c = c * point[i] ** k
            acc = acc + c
        return acc

    def power_product(self, bases, exponents):
        """prod b^e over the pairs, with one inverse: of the product of the
        negative-exponent powers (a zero base there raises
        ZeroDivisionError)."""
        num, den = GaussianRational(1), None
        for b, e in zip(bases, exponents):
            if e > 0:
                num = num * b**e
            elif e < 0:
                den = b**-e if den is None else den * b**-e
        return num if den is None else num * self.inv(den)

    def sqrt_minus_one(self):
        """i."""
        return GaussianRational(0, 1)


class PrimeField:
    """The field F_p for prime p <= 10^5.  Elements are ints in [0, p)."""

    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        if p > PRIME_FIELD_CAP:
            raise FieldError(f"modulus {p} exceeds the scan cap {PRIME_FIELD_CAP}")
        self.modulus = p
        self._hash = hash(("Fp", p))  # every (shape, field) cache lookup hashes it
        self._powers = None
        self._dlog_table = None
        self._sqrt_minus_one = False  # not searched yet; None when p = 3 (mod 4)
        self._primitive_root = None

    def __repr__(self):
        return f"F{self.modulus}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return self._hash

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def inv(self, a):
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.modulus - 2, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        return pow(a, k, self.modulus)

    def is_zero(self, a) -> bool:
        return a % self.modulus == 0

    def normalize(self, acc: dict) -> dict:
        """The nonzero entries of natively accumulated integers, each
        reduced to its residue in [0, p)."""
        p = self.modulus
        return {k: r for k, v in acc.items() if (r := v % p)}

    def eval_terms(self, terms, point):
        """sum c * prod x_i^k over (c, ((i, k), ...)) terms, as ints: each
        power is a residue, and the sum is reduced once."""
        p = self.modulus
        acc = 0
        for c, factors in terms:
            for i, k in factors:
                c *= pow(point[i], k, p)
            acc += c
        return acc % p

    def power_product(self, bases, exponents):
        """prod b^e over the pairs, as residues, with one inverse: of the
        product of the negative-exponent powers (a zero base there raises
        ZeroDivisionError)."""
        p = self.modulus
        num = den = 1
        for b, e in zip(bases, exponents):
            if e > 0:
                num = num * pow(b, e, p) % p
            elif e < 0:
                den = den * pow(b, -e, p) % p
        return num if den == 1 else num * self.inv(den) % p

    def fmt(self, a) -> str:
        return str(a % self.modulus)

    def parse(self, s: str):
        s = s.strip()
        try:
            if "/" in s:
                num, den = s.split("/", 1)
                return self.div(int(num) % self.modulus, int(den) % self.modulus)
            return int(s) % self.modulus
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not an element of F_{self.modulus}: {s!r}") from exc

    def elements(self):
        return range(self.modulus)

    def kth_roots(self, a, k: int) -> set:
        """All x in F_p with x^k = a, read from the power table.

        For a != 0 and h = gcd(k, p-1), x = g^e is a root iff
        k e = dlog(a) (mod p-1): there are roots iff h divides dlog(a), and
        then they are the h powers at e = e0 + j (p-1)/h.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        a %= self.modulus
        if k == 1 or a == 0:
            return {a}
        order = self.modulus - 1
        h = gcd(k, order)
        log = self.dlog(a)
        if log % h:
            return set()
        step = order // h
        e0 = log // h * pow(k // h, -1, step) % step
        power = self.powers()
        return {power[e] for e in range(e0, order, step)}

    def sqrt_minus_one(self):
        """Smallest j with j^2 = -1, or None when p = 3 (mod 4); read from
        kth_roots once per field."""
        if self._sqrt_minus_one is False:
            roots = self.kth_roots(self.modulus - 1, 2)
            self._sqrt_minus_one = min(roots) if roots else None
        return self._sqrt_minus_one

    def primitive_root(self) -> int:
        """The smallest generator of F_p^*; searched once per field."""
        if self._primitive_root is None:
            p = self.modulus
            order_factors = factor(p - 1)
            self._primitive_root = next(
                g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors)
            )
        return self._primitive_root

    def powers(self) -> list:
        """g^k for k in [0, p-1), g the canonical primitive root; built once
        per field."""
        if self._powers is None:
            g, p = self.primitive_root(), self.modulus
            table = [1] * (p - 1)
            for k in range(1, p - 1):
                table[k] = table[k - 1] * g % p
            self._powers = table
        return self._powers

    def dlog(self, a: int) -> int:
        """Discrete log of a != 0 w.r.t. the canonical primitive root."""
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("dlog of 0")
        if self._dlog_table is None:
            table = [0] * self.modulus  # indexed by the residue; 0 has no log
            for e, x in enumerate(self.powers()):
                table[x] = e
            self._dlog_table = table
        return self._dlog_table[a]


def factor(n: int) -> dict:
    """Prime factorization of a positive integer as {prime: multiplicity}."""
    if n <= 0:
        raise ValueError("factor() needs a positive integer")
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


QQ = Rationals()
QI = GaussianRationals()


def parse_field(designator: str):
    """Build a field from 'Q', 'Qi' or 'Fp:<prime>' (field_designator's
    inverse)."""
    s = designator.strip()
    if s == "Q":
        return QQ
    if s == "Qi":
        return QI
    if s.startswith("Fp:"):
        try:
            p = int(s[3:])
        except ValueError as exc:
            raise FieldError(f"bad field designator {designator!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field designator {designator!r} (want 'Q', 'Qi' or 'Fp:<prime>')")


def field_designator(field) -> str:
    return field.kind if field.modulus is None else f"Fp:{field.modulus}"
