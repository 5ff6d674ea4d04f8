"""Seeded inputs: the survey's shapes and the transport's point pairs.

Everything here is built with the benchmark's own arithmetic (ref.py); the
library only ever sees the finished shapes and points.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from ref import Arith, F1Coords

# Survey shapes: group sizes 0-3, 1-3 and 1-2, exponents 1-6.
SURVEY_SIZES = ((0, 3), (1, 3), (1, 2))
SURVEY_MAX_EXP = 6
SURVEY_PER_PATTERN = 15  # the smallest pattern, [[], [a], [b]], has 15 shapes

TRANSPORT_SHAPES = {"A": [[1, 2], [3], [3]], "D": [[1, 2, 2], [3], [3]]}
TRANSPORT_FIELDS = {"Q": None, "F13": 13, "F101": 101}
OPEN_PAIRS = 90  # per (shape, field)
COMPONENT_PAIRS = 90  # per (shape, field)
NEGATIVE_PAIRS = 40  # per shape, over F_13: the only field with several r


def canonical(groups):
    """Shapes equal up to renaming variables share this key."""
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def survey_shapes(seed):
    """For each of the 24 patterns of group sizes, a list of
    SURVEY_PER_PATTERN distinct nondegenerate shapes, exponents uniform.
    Independent uniform sizes make every pattern equally likely; fixing the
    count per pattern keeps that make-up and drops its sampling noise."""
    rng = random.Random(f"survey:{seed}")
    seen, out = set(), []
    for sizes in product(*(range(lo, hi + 1) for lo, hi in SURVEY_SIZES)):
        batch = []
        while len(batch) < SURVEY_PER_PATTERN:
            groups = [[rng.randint(1, SURVEY_MAX_EXP) for _ in range(k)] for k in sizes]
            if any(g == [1] for g in groups):
                continue  # a lone exponent-1 variable: X is an affine space
            key = canonical(groups)
            if key not in seen:
                seen.add(key)
                batch.append(groups)
        out.append(batch)
    return out


def _element(rng, F, nonzero):
    if F.p:
        return rng.randrange(1 if nonzero else 0, F.p)
    while True:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if a or not nonzero:
            return a


def _open_point(rng, F, v):
    """All y nonzero; y, z, s chosen, x solved from the equation."""
    pt = [F.norm(0)] * len(v.exps)
    for i in v.ys:
        pt[i] = _element(rng, F, True)
    for i in v.zs + v.ss:
        pt[i] = _element(rng, F, False)
    pt[v.x] = F.div(F.sub(0, F.add(v.Z(F, pt), v.S(F, pt))), v.Y(F, pt))
    return tuple(pt)


def _component_point(rng, F, v, M, r):
    """y vanishing exactly on M (1-based), z and s nonzero with z/s = r, x free.

    Needs one z and one s of exponent d, as in the transport shapes; then
    z^d + s^d = z^d (1 + r^-d) = 0.
    """
    pt = [F.norm(0)] * len(v.exps)
    for k, i in enumerate(v.ys, start=1):
        pt[i] = F.norm(0) if k in M else _element(rng, F, True)
    (z,), (s,) = v.zs, v.ss
    pt[z] = _element(rng, F, True)
    pt[s] = F.div(pt[z], r)
    pt[v.x] = _element(rng, F, False)
    return tuple(pt)


def _subset(rng, m):
    while True:
        M = frozenset(k for k in range(1, m + 1) if rng.random() < 0.5)
        if M:
            return M


def transport_ops(seed):
    """(kind, shape key, field key, src, dst) tuples, shuffled.

    kind is "open" or "component" for pairs in one orbit, "negative" for a
    pair with the same M and different root ratios r.
    """
    rng = random.Random(f"transport:{seed}")
    ops = []
    for sk, groups in TRANSPORT_SHAPES.items():
        v = F1Coords(groups)
        if (v.p, v.q) != (1, 1) or v.exps[v.zs[0]] != v.d or v.exps[v.ss[0]] != v.d:
            raise ValueError("component pairs need one z and one s of exponent d")
        for fk, p in TRANSPORT_FIELDS.items():
            F = Arith(p)
            roots = F.roots_of_minus_one(v.d)
            for _ in range(OPEN_PAIRS):
                ops.append(("open", sk, fk, _open_point(rng, F, v), _open_point(rng, F, v)))
            for k in range(COMPONENT_PAIRS):
                M, r = _subset(rng, v.m), roots[k % len(roots)]
                src = _component_point(rng, F, v, M, r)
                ops.append(("component", sk, fk, src, _component_point(rng, F, v, M, r)))
            if len(roots) > 1:
                for k in range(NEGATIVE_PAIRS):
                    M = _subset(rng, v.m)
                    r, r2 = roots[k % len(roots)], roots[(k + 1) % len(roots)]
                    src = _component_point(rng, F, v, M, r)
                    ops.append(("negative", sk, fk, src, _component_point(rng, F, v, M, r2)))
    rng.shuffle(ops)
    return ops
