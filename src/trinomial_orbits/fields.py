"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Every value handled by this package is exact.  Rational elements are
`fractions.Fraction` (canonical: gcd-reduced, positive denominator);
prime-field elements are plain ints in ``[0, p)``.  A field object bundles
the arithmetic so that the polynomial layer can stay generic.  That layer
sums and multiplies elements with their own + and *, and each field's
`normalize` turns the accumulated values back into canonical elements.

Prime fields are capped at p <= 10^5: root extraction and discrete
logarithms are done by exhaustive scan, which is the whole point of the
finite-field oracle (desk-scale, trivially correct).
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


class Rationals:
    """The field Q.  Elements are Fraction; overflow is impossible."""

    kind = "Q"
    modulus = None

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return a / b

    def pow(self, a, k: int):
        return a**k

    def is_zero(self, a) -> bool:
        return a == 0

    def normalize(self, acc: dict) -> dict:
        """The nonzero entries of natively accumulated values.  Fractions
        are kept in lowest terms, so each value is already canonical."""
        return {k: v for k, v in acc.items() if v}

    def fmt(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not a rational: {s!r}") from exc

    def elements(self):
        raise FieldError("Q is infinite; cannot enumerate")

    def kth_roots(self, a, k: int) -> set:
        """All rational x with x^k = a.  Perfect-power detection only."""
        if k < 1:
            raise ValueError("k must be >= 1")
        a = Fraction(a)
        if k == 1:
            return {a}
        if a == 0:
            return {Fraction(0)}
        num, den = abs(a.numerator), a.denominator
        rn = integer_kth_root(num, k)
        rd = integer_kth_root(den, k)
        if rn is None or rd is None:
            return set()
        r = Fraction(rn, rd)
        if a > 0:
            return {r, -r} if k % 2 == 0 else {r}
        # a < 0: odd k has the single root -r, even k has none in Q
        return set() if k % 2 == 0 else {-r}


class PrimeField:
    """The field F_p for prime p <= 10^5.  Elements are ints in [0, p)."""

    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        if p > PRIME_FIELD_CAP:
            raise FieldError(f"modulus {p} exceeds the scan cap {PRIME_FIELD_CAP}")
        self.modulus = p
        self._dlog_table = None

    def __repr__(self):
        return f"F{self.modulus}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Fp", self.modulus))

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
        """All x in F_p with x^k = a, by exhaustive scan."""
        if k < 1:
            raise ValueError("k must be >= 1")
        a %= self.modulus
        if k == 1:
            return {a}
        return {x for x in range(self.modulus) if pow(x, k, self.modulus) == a}

    def sqrt_minus_one(self):
        """Smallest j with j^2 = -1, or None when p = 3 (mod 4)."""
        roots = self.kth_roots(self.modulus - 1, 2)
        return min(roots) if roots else None

    def primitive_root(self) -> int:
        p = self.modulus
        if p == 2:
            return 1
        order_factors = factor(p - 1)
        for g in range(2, p):
            if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
                return g
        raise FieldError(f"no primitive root mod {p}")  # unreachable for prime p

    def dlog(self, a: int) -> int:
        """Discrete log of a != 0 w.r.t. the canonical primitive root."""
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("dlog of 0")
        if self._dlog_table is None:
            g = self.primitive_root()
            table = {}
            acc = 1
            for e in range(self.modulus - 1):
                table[acc] = e
                acc = acc * g % self.modulus
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


def parse_field(designator: str):
    """Build a field from 'Q' or 'Fp:<prime>'."""
    s = designator.strip()
    if s == "Q":
        return QQ
    if s.startswith("Fp:"):
        try:
            p = int(s[3:])
        except ValueError as exc:
            raise FieldError(f"bad field designator {designator!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field designator {designator!r} (want 'Q' or 'Fp:<prime>')")


def field_designator(field) -> str:
    return "Q" if field.modulus is None else f"Fp:{field.modulus}"
