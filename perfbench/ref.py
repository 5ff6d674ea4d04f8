"""The benchmark's own arithmetic and shape bookkeeping.

Written apart from the library, so that the checks in checks.py never trust
the code they check.  A shape is three exponent lists; variables are
numbered group by group, group 0 first; the equation is the sum of the three
group monomials, an empty group 0 standing for the constant 1.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd


class Arith:
    """Exact arithmetic over Q (p=None) or F_p, on plain ints and Fractions."""

    def __init__(self, p=None):
        self.p = p

    def norm(self, a):
        return a % self.p if self.p else Fraction(a)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return a * b % self.p if self.p else a * b

    def div(self, a, b):
        if self.p:
            if b % self.p == 0:
                raise ZeroDivisionError("division by 0 in F_p")
            return a * pow(b, self.p - 2, self.p) % self.p
        return Fraction(a) / b

    def pow(self, a, k):
        return pow(a, k, self.p) if self.p else Fraction(a) ** k

    def is_zero(self, a):
        return a % self.p == 0 if self.p else a == 0

    def fmt(self, a):
        return str(a % self.p) if self.p else str(Fraction(a))

    def roots_of_minus_one(self, d):
        """All r with r^d = -1 (over Q: -1 when d is odd)."""
        if self.p is None:
            return [Fraction(-1)] if d % 2 else []
        return [r for r in range(1, self.p) if pow(r, d, self.p) == self.p - 1]


def group_slices(groups):
    out, base = [], 0
    for g in groups:
        out.append(tuple(range(base, base + len(g))))
        base += len(g)
    return out


def exponents(groups):
    return [l for g in groups for l in g]


def monomial(F, pt, idxs, exps):
    acc = F.norm(1)
    for i in idxs:
        acc = F.mul(acc, F.pow(pt[i], exps[i]))
    return acc


def equation_value(F, groups, pt):
    exps = exponents(groups)
    total = F.norm(0)
    for idxs in group_slices(groups):
        total = F.add(total, monomial(F, pt, idxs, exps))
    return total


class F1Coords:
    """x*Y + Z + S for a shape whose exponent-1 variables xs all sit in one
    group (F1 when there is one, x; F2 when there are several).

    Y is the monomial of x's other group mates; the z-side is the first
    nonempty other group, the s-side the remaining one (empty: S = 1).
    """

    def __init__(self, groups):
        exps = exponents(groups)
        slices = group_slices(groups)
        self.xs = tuple(i for i, l in enumerate(exps) if l == 1)
        gx = {g for g, idxs in enumerate(slices) for i in self.xs if i in idxs}
        if len(gx) != 1:
            raise ValueError("the exponent-1 variables are not in one group")
        (gx,) = gx
        self.exps = exps
        self.x = self.xs[0]
        self.ys = tuple(i for i in slices[gx] if i not in self.xs)
        others = sorted((h for h in range(3) if h != gx), key=lambda h: not groups[h])
        self.zs, self.ss = slices[others[0]], slices[others[1]]
        self.d = gcd(*(exps[i] for i in self.zs + self.ss))
        self.m, self.p, self.q = len(self.ys), len(self.zs), len(self.ss)

    def Y(self, F, pt):
        return monomial(F, pt, self.ys, self.exps)

    def Z(self, F, pt):
        return monomial(F, pt, self.zs, self.exps)

    def S(self, F, pt):
        return monomial(F, pt, self.ss, self.exps)

    def ratio(self, F, pt):
        """r = prod z^(b/d) / prod s^(c/d), with r^d = -1 on a component."""
        num = F.norm(1)
        for i in self.zs:
            num = F.mul(num, F.pow(pt[i], self.exps[i] // self.d))
        den = F.norm(1)
        for i in self.ss:
            den = F.mul(den, F.pow(pt[i], self.exps[i] // self.d))
        return F.div(num, den)

    def dZ(self, F, pt, i, side):
        """Partial of the z- (or s-) monomial by its variable i."""
        idxs = self.zs if side == "D" else self.ss
        acc = F.norm(self.exps[i])
        for k in idxs:
            e = self.exps[k] - (1 if k == i else 0)
            acc = F.mul(acc, F.pow(pt[k], e))
        return acc

    def aut_alg(self):
        m, p, q, d = self.m, self.p, self.q, self.d
        return 1 + (2**m - 1) * d + 2 * (2**m - 1) * (2**p - 1) * (2**q - 1)


def _positions(F, pt, idxs):
    """1-based positions within idxs whose coordinate vanishes."""
    return [k for k, i in enumerate(idxs, start=1) if F.is_zero(pt[i])]


def census_counts(groups, p):
    """Point count and per-descriptor counts of an F1 shape over F_p.

    O when all y != 0 (x then solved uniquely); otherwise the equation reads
    Z + S = 0 with x free: OMeps(M, r) when every z and s is nonzero, else
    O1 (x != 0) or O2 (x = 0).  Keys are the JSON descriptor strings the
    partition check reports.
    """
    F = Arith(p)
    v = F1Coords(groups)
    n = len(v.exps)
    counts = {}

    def bump(desc, k):
        key = json.dumps(desc, sort_keys=True)
        counts[key] = counts.get(key, 0) + k

    zs_ss = v.zs + v.ss
    for M_mask in range(1 << v.m):
        M = [k + 1 for k in range(v.m) if M_mask >> k & 1]
        y_ways = (p - 1) ** (v.m - len(M))
        if not M:
            bump({"type": "O"}, y_ways * p ** len(zs_ss))
            continue
        for vals in product(range(p), repeat=len(zs_ss)):
            pt = [0] * n
            for i, val in zip(zs_ss, vals):
                pt[i] = val
            if not F.is_zero(F.add(v.Z(F, pt), v.S(F, pt))):
                continue
            P, Q = _positions(F, pt, v.zs), _positions(F, pt, v.ss)
            if not P and not Q:
                bump({"type": "OMeps", "M": M, "r": F.fmt(v.ratio(F, pt))}, y_ways * p)
            else:
                bump({"type": "O1", "M": M, "P": P, "Q": Q}, y_ways * (p - 1))
                bump({"type": "O2", "M": M, "P": P, "Q": Q}, y_ways)
    return sum(counts.values()), counts


def _group_table(F, groups, g, p):
    """{(monomial value, gradient vanishes): number of group-g tuples}."""
    exps = exponents(groups)
    idxs = group_slices(groups)[g]
    table = {}
    for vals in product(range(p), repeat=len(idxs)):
        pt = dict(zip(idxs, vals))
        mon = F.norm(1)
        for i in idxs:
            mon = F.mul(mon, F.pow(pt[i], exps[i]))
        flat = True
        for i in idxs:
            part = F.norm(exps[i])
            for k in idxs:
                part = F.mul(part, F.pow(pt[k], exps[k] - (k == i)))
            flat = flat and F.is_zero(part)
        table[(mon, flat)] = table.get((mon, flat), 0) + 1
    return table


def point_and_singular_counts(groups, p):
    """F_p-point count and singular-point count, from per-group tables of
    (monomial value, Jacobian block vanishes): O(p^2) combinations."""
    F = Arith(p)
    t0, t1, t2 = (_group_table(F, groups, g, p) for g in range(3))
    points = singular = 0
    for (a, fa), na in t0.items():
        for (b, fb), nb in t1.items():
            c = (-a - b) % p
            for fc in (False, True):
                nc = t2.get((c, fc), 0)
                points += na * nb * nc
                if fa and fb and fc:
                    singular += na * nb * nc
    return points, singular
