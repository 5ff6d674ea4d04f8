"""Sparse exact multivariate polynomials over a pluggable field.

A ring fixes a field and an ordered tuple of variable names; a polynomial
is a dict mapping exponent tuples to nonzero coefficients.  The term order
is graded lexicographic in the ring's variable order, which pins down a
canonical string form and a deterministic single-divisor division.

Division by one divisor decides principal-ideal membership exactly:
f is a multiple of g iff the division remainder vanishes.

Sums and products accumulate with the coefficients' own + and * (ints for
F_p, Fractions for Q), and each result passes once through the field's
`normalize`, which drops the zeros and brings every value to its canonical
element.  Polynomials are never mutated after construction, so a cached
one may be shared.
"""

from __future__ import annotations

from operator import add, ge, sub
from typing import Iterable


class MissingCoordinate(KeyError):
    """A point evaluation left some variable unassigned."""


class PolyParseError(ValueError):
    pass


def _grlex_key(exps):
    return (sum(exps), exps)


class PolyRing:
    """Polynomial ring field[names]; variables ordered as given."""

    def __init__(self, field, names: Iterable[str]):
        self.field = field
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.nvars = len(self.names)
        self._index = {n: i for i, n in enumerate(self.names)}

    def __repr__(self):
        return f"PolyRing({self.field!r}, {'/'.join(self.names)})"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PolyParseError(f"unknown variable {name!r}") from None

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(self.field.one)

    def const(self, c) -> "Polynomial":
        return self.from_terms({(0,) * self.nvars: c})

    def var(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def monomial(self, exps, coeff=None) -> "Polynomial":
        return self.from_terms({tuple(exps): self.field.one if coeff is None else coeff})

    def from_terms(self, terms: dict) -> "Polynomial":
        """The polynomial of exponent tuples to natively accumulated
        coefficients, brought to canonical nonzero elements by the field."""
        return Polynomial(self, self.field.normalize(terms))

    def parse(self, text: str) -> "Polynomial":
        return _parse_poly(self, text)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self):
        """(exps, coeff) maximal in graded-lex order."""
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.const(self.ring.field.from_int(other) if isinstance(other, int) else other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return self.ring.from_terms(out)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.from_terms({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        get = out.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return self.ring.from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c):
        return self.ring.from_terms({e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus / evaluation ----------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative in the i-th variable."""
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return self.ring.from_terms(out)

    def eval(self, point) -> object:
        """Evaluate at a full point (sequence of field values, canonical order)."""
        fld = self.ring.field
        if len(point) != self.ring.nvars:
            raise MissingCoordinate(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars}"
            )
        acc = fld.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = fld.mul(v, fld.pow(point[i], k))
            acc = fld.add(acc, v)
        return acc

    def substitute(self, images) -> "Polynomial":
        """The composition self(images[0], ..., images[n-1]).

        images holds one polynomial per variable, all in one ring over the
        same field; the result lives in that ring."""
        ring = images[0].ring
        one = ring.one
        powers = {}
        out: dict = {}
        get = out.get
        for e, c in self.terms.items():
            term = one
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = images[i] ** k
                    term = term * powers[i, k]
            for te, tc in term.terms.items():
                out[te] = get(te, 0) + c * tc
        return ring.from_terms(out)

    def rename(self, perm) -> "Polynomial":
        """Apply the variable permutation i -> perm[i] to every exponent."""
        out: dict = {}
        for e, c in self.terms.items():
            ne = [0] * len(e)
            for i, k in enumerate(e):
                ne[perm[i]] = k
            out[tuple(ne)] = c
        return Polynomial(self.ring, out)

    # -- division -----------------------------------------------------------

    def divmod_single(self, g: "Polynomial"):
        """Divide by a single divisor g: returns (q, r) with self = q*g + r
        and no term of r divisible by the leading term of g."""
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        fld = self.ring.field
        g_exps, g_lead = g.leading_term()
        tail = [(e, c) for e, c in g.terms.items() if e != g_exps]
        q: dict = {}
        r: dict = {}
        h = dict(self.terms)
        while h:
            e = max(h, key=_grlex_key)
            c = h.pop(e)
            if all(map(ge, e, g_exps)):
                # each step's leading exponent is below the last, so every
                # quotient term is new
                qe = tuple(map(sub, e, g_exps))
                qc = q[qe] = fld.div(c, g_lead)
                step = {}
                for g_e, g_c in tail:
                    te = tuple(map(add, qe, g_e))
                    step[te] = h.pop(te, 0) - qc * g_c
                h.update(fld.normalize(step))
            else:
                r[e] = c
        return Polynomial(self.ring, q), Polynomial(self.ring, r)

    def reduce_mod(self, g: "Polynomial") -> "Polynomial":
        return self.divmod_single(g)[1]

    def divides_into(self, f: "Polynomial"):
        """Does self divide f?  Returns (True, quotient) or (False, None)."""
        q, r = f.divmod_single(self)
        return (True, q) if r.is_zero() else (False, None)

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        fld = self.ring.field
        parts = []
        for e, c in self.sorted_terms():
            factors = [
                self.ring.names[i] + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            ]
            cf = fld.fmt(c)
            if factors and cf == "1":
                body = "*".join(factors)
            elif factors and cf == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cf] + factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"<{self}>"


def _tokenize(text: str):
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            yield ch, ch
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise PolyParseError(f"bad rational at {text[i:j+1]!r}")
                yield "num", text[i:k]
                i = k
            else:
                yield "num", text[i:j]
                i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield "name", text[i:j]
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r}")
    yield "end", ""


def _parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Grammar: sum of signed products of rationals and name[^int] factors."""
    tokens = list(_tokenize(text))
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind):
        nonlocal pos
        tk, tv = tokens[pos]
        if tk != kind:
            raise PolyParseError(f"expected {kind}, got {tv!r}")
        pos += 1
        return tv

    def parse_factor():
        tk, tv = peek()
        if tk == "num":
            take("num")
            return ring.const(ring.field.parse(tv))
        if tk == "name":
            take("name")
            idx = ring.var_index(tv)
            exp = 1
            if peek()[0] == "^":
                take("^")
                exp = int(take("num"))
                if exp < 0:
                    raise PolyParseError("negative exponent")
            return ring.var(idx) ** exp
        if tk == "(":
            take("(")
            inner = parse_sum()
            take(")")
            return inner
        raise PolyParseError(f"unexpected token {tv!r}")

    def parse_product():
        acc = parse_factor()
        while peek()[0] == "*":
            take("*")
            acc = acc * parse_factor()
        return acc

    def parse_sum():
        sign = 1
        if peek()[0] in "+-":
            sign = -1 if take(peek()[0]) == "-" else 1
        acc = parse_product()
        if sign < 0:
            acc = -acc
        while peek()[0] in "+-":
            op = take(peek()[0])
            term = parse_product()
            acc = acc - term if op == "-" else acc + term
        return acc

    out = parse_sum()
    if peek()[0] != "end":
        raise PolyParseError(f"trailing input at {peek()[1]!r}")
    return out
