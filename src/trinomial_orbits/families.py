"""Family detection and normalized coordinate views.

The orbit theory splits into families by the layout of exponent-1
variables:

* F1 - exactly one exponent-1 variable x overall: the equation reads
  x*y1^a1..ym^am + z1^b1..zp^bp + s1^c1..sq^cq with all a,b,c >= 2
  (q = 0 is the free-term case).  Fully classified orbits.
* F2 - k > 1 exponent-1 variables, all in one group, everything else >= 2.
  Classified conditionally on the Makar-Limanov conjecture for the family.
* FlexibleH / Rigid / Other - handled by their own statements.

Detection priority: flexible table match > F1 > F2 > rigid > other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import UnsupportedFamily
from .shapes import (
    FLEXIBLE,
    NONRIGID_OTHER,
    RIGID,
    TrinomialShape,
    rigidity_classify,
)


@dataclass(frozen=True)
class PowerOneView:
    """Variable indices and exponents in x/y/z/s coordinates; xs are the k
    exponent-1 variables, all in the group of the ys."""

    xs: tuple
    ys: tuple
    a: tuple
    zs: tuple
    b: tuple
    ss: tuple
    c: tuple

    @property
    def x(self):
        (x,) = self.xs  # F1 only
        return x

    @property
    def k(self):
        return len(self.xs)

    @property
    def m(self):
        return len(self.ys)

    @property
    def p(self):
        return len(self.zs)

    @property
    def q(self):
        return len(self.ss)

    @property
    def d(self):
        return gcd(*(self.b + self.c))


@dataclass(frozen=True)
class FamilyTag:
    kind: str  # "flexible_h" | "F1" | "F2" | "rigid" | "other"
    h_type: str = None
    f1: PowerOneView = None
    f2: PowerOneView = None

    def to_json(self):
        out = {"kind": self.kind}
        if self.h_type:
            out["h_type"] = self.h_type
        view = self.f1 or self.f2
        if view is not None:
            out.update(
                {
                    "m": view.m,
                    "p": view.p,
                    "q": view.q,
                    "a": list(view.a),
                    "b": list(view.b),
                    "c": list(view.c),
                    "d": view.d,
                }
            )
        if self.f2 is not None:
            out["k"] = self.f2.k
        return out


def _split_view(shape: TrinomialShape, ones_group: int):
    """(zs, b, ss, c) for the two group slots other than the distinguished one.

    The first nonempty remaining slot is the z-side; an empty slot (free
    term) contributes q = 0.
    """
    others = [g for g in range(3) if g != ones_group]
    sides = []
    for g in others:
        idxs = shape.group_indices(g)
        sides.append((idxs, tuple(shape.exponents[i] for i in idxs)))
    sides.sort(key=lambda t: len(t[0]) == 0)  # nonempty slots first
    (zs, b), (ss, c) = sides
    return tuple(zs), b, tuple(ss), c


@lru_cache(maxsize=None)
def family_of(shape: TrinomialShape) -> FamilyTag:
    """Classify into flexible-table / F1 / F2 / rigid / other."""
    verdict = rigidity_classify(shape)
    if verdict.tag == FLEXIBLE:
        return FamilyTag("flexible_h", h_type=verdict.h_type)
    if verdict.tag == RIGID:
        return FamilyTag("rigid")
    assert verdict.tag == NONRIGID_OTHER
    ones = [i for i, l in enumerate(shape.exponents) if l == 1]
    groups_of_ones = {shape.group_of(i) for i in ones}
    if len(groups_of_ones) == 1:
        gx = groups_of_ones.pop()
        ys = tuple(i for i in shape.group_indices(gx) if i not in ones)
        # an all-ones group would have matched the flexible table
        assert ys, "m=0 is the all-ones flexible row"
        a = tuple(shape.exponents[i] for i in ys)
        view = PowerOneView(tuple(ones), ys, a, *_split_view(shape, gx))
        return FamilyTag("F1", f1=view) if view.k == 1 else FamilyTag("F2", f2=view)
    return FamilyTag("other")


def require_f1(shape: TrinomialShape) -> PowerOneView:
    tag = family_of(shape)
    if tag.kind != "F1":
        raise UnsupportedFamily(f"family {tag.kind} where the power-one family is needed")
    return tag.f1
