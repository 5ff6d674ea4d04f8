"""Brute-force finite-field oracles.

Everything variety-level claimed elsewhere is checked here by exhaustive
enumeration over F_p: the strata partition the rational points, generator
flows and neutral-torus steps preserve descriptors and singular-component
membership, transport words land exactly, and the number of realized
descriptors matches the counting formula when p = 1 (mod 2d).

Finite-field orbits are not claimed to equal geometric orbits; the checks
are containment/invariance statements and exact descriptor censuses, which
are field-agnostic consequences of the classification.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from math import gcd, lcm, prod
from operator import mul

from . import orbits, strata
from .derivations import FLOW_LEFT_THE_VARIETY, lnd_catalog
from .errors import (
    CharacteristicTooSmall,
    DifferentOrbits,
    MathDomainError,
    PointNotOnVariety,
    TooLarge,
    UnsupportedFamily,
)
from .families import family_of
from .fields import field_designator
from .shapes import TrinomialShape, torus_lattice, torus_scaling

POINT_CAP = 10**7  # points held in memory: about 0.9 GiB of 4-tuples


def _value_counts(exps, p) -> dict:
    """Monomial value -> how many coordinate sub-tuples of one group give
    it (the empty group is the free term 1), in closed form: with k >= 1
    exponents and d = gcd(p - 1, *exps), the monomial maps (F_p^*)^k
    homomorphically onto the d-th powers, (p-1)^(k-1) * d sub-tuples to
    each, and the p^k - (p-1)^k sub-tuples with a zero coordinate to 0."""
    k = len(exps)
    if not k:
        return {1: 1}
    d = gcd(p - 1, *exps)
    counts = dict.fromkeys({pow(x, d, p) for x in range(1, p)}, (p - 1) ** (k - 1) * d)
    counts[0] = p**k - (p - 1) ** k
    return counts


def point_count(shape: TrinomialShape, p: int) -> int:
    """The exact number of F_p-points, the sum over m0 of c0(m0) * T(-m0)
    with T(t) the sum over m1 of c1(m1) * c2(t - m1), c_g the value counts:
    no point is built.  c_g(s * m) = c_g(m) for a d_g-th power s, so T is
    constant on each coset of K, the lcm(d1, d2)-th powers, and is computed
    once per key t^|K| (t = 0 keys itself), at O(p * lcm(d1, d2)) cost."""
    c0, c1, c2 = (_value_counts(grp, p) for grp in shape.groups)
    size = (p - 1) // lcm(*(gcd(p - 1, *grp) for grp in shape.groups[1:]))
    sums = {}
    total = 0
    for m0, a in c0.items():
        t = -m0 % p
        key = pow(t, size, p)
        if key not in sums:
            sums[key] = sum(b * c2.get((t - m1) % p, 0) for m1, b in c1.items())
        total += a * sums[key]
    return total


@dataclass
class _KeyRule:
    """How a point's residue key is formed.

    The key is the point's zero mask (bit i set when coordinate i is 0),
    plus, for a power-one view, the root ratio r = prod z^(b/d) / prod
    s^(c/d) packed above the n mask bits when some y vanishes and no z or s
    does (y_bits and zs_bits mark those coordinates).  ratio maps each z
    coordinate to b/d and each s coordinate to -(c/d) mod (p-1): r is the
    product of the coordinates' powers, with no division.
    """

    n: int
    p: int
    ratio: dict
    y_bits: int
    zs_bits: int

    def pack(self, mask: int, r: int) -> int:
        """The key of a point with this zero mask and root ratio."""
        if mask & self.y_bits and not mask & self.zs_bits:
            return mask | r << self.n
        return mask

    def key(self, pt) -> int:
        """The residue key of one point; r is computed only where the key
        carries it."""
        mask = _zero_mask(pt) if 0 in pt else 0
        if mask & self.y_bits and not mask & self.zs_bits:
            p = self.p
            return self.pack(mask, prod(pow(pt[i], e, p) for i, e in self.ratio.items()) % p)
        return mask


def _key_rule(shape: TrinomialShape, p: int) -> _KeyRule:
    """The residue-key rule of a shape over F_p."""
    tag = family_of(shape)
    view = tag.f1 or tag.f2
    if view is None:
        return _KeyRule(shape.n, p, {}, 0, 0)
    ratio = {i: b // view.d for i, b in zip(view.zs, view.b)}
    ratio.update((i, -(c // view.d) % (p - 1)) for i, c in zip(view.ss, view.c))
    return _KeyRule(
        shape.n,
        p,
        ratio,
        sum(1 << i for i in view.ys),
        sum(1 << i for i in view.zs + view.ss),
    )


def _residue_rows(shape: TrinomialShape, fld) -> tuple:
    """The key rule and, per group, its residue rows in lexicographic order.

    A row is (sub-tuple, monomial value, root-ratio factor, zero mask).  A
    point's zero mask is the OR of its sub-tuples' masks, and wherever no s
    vanishes its r is the product of their factors.  The value counts give
    the exact number of points before any row is built: more than POINT_CAP
    raises TooLarge.
    """
    p = fld.modulus
    if p is None:
        raise TooLarge("point enumeration needs a prime field")
    total = point_count(shape, p)
    if total > POINT_CAP:
        raise TooLarge(f"{total} points exceed the enumeration cap {POINT_CAP}")
    rule = _key_rule(shape, p)
    return rule, [_group_rows(shape, g, p, rule.ratio) for g in range(3)]


def _group_rows(shape: TrinomialShape, g: int, p: int, ratio: dict) -> list:
    """One group's residue rows, built coordinate by coordinate in
    lexicographic order; ratio maps a coordinate to the exponent of its
    root-ratio factor (absent: factor 1)."""
    rows = [((), 1, 1, 0)]
    for i in shape.group_indices(g):
        e, r = shape.exponents[i], ratio.get(i, 0)
        coord = [((x,), pow(x, e, p), pow(x, r, p), 0 if x else 1 << i) for x in range(p)]
        rows = [(sub + s, m * w % p, f * h % p, mask | z)
                for sub, m, f, mask in rows for s, w, h, z in coord]
    return rows


def _join(heads, tails, p) -> list:
    """The residue rows of two adjacent groups joined, in lexicographic
    order."""
    return [
        (a + b, (ma + mb) % p, fa * fb % p, ka | kb)
        for a, ma, fa, ka in heads
        for b, mb, fb, kb in tails
    ]


def _lex_join(shape: TrinomialShape, fld) -> tuple:
    """The points as a (head, tail) join, in lexicographic order.

    The groups hold contiguous coordinates, so lexicographic order is the
    order of (head, tail) pairs: each head row a, in order, is followed by
    the tails whose monomial is -m(a), in order.  Returns the key rule, the
    head rows and the tails by the head monomial they complete, as columns
    (sub-tuples, factors, zero masks).  Either group 0 heads the join of
    groups 1 and 2, or the join of groups 0 and 1 heads group 2; the split
    whose two-group join is smaller is taken (a free term makes group 0 a
    single row, and joining groups 1 and 2 would tabulate p times as many
    tails as there are points).
    """
    rule, (r0, r1, r2) = _residue_rows(shape, fld)
    p = rule.p
    if len(r2) <= len(r0):
        heads, rows = r0, _join(r1, r2, p)
    else:
        heads, rows = _join(r0, r1, p), r2
    tails = {}
    for sub, m, f, mask in rows:
        subs, factors, masks = tails.setdefault(-m % p, ([], [], []))
        subs.append(sub)
        factors.append(f)
        masks.append(mask)
    return rule, heads, tails


def enumerate_points(shape: TrinomialShape, fld):
    """All F_p-points of the hypersurface, lexicographically ordered.

    Each group's monomial is tabulated once (_residue_rows), and the points
    come out of the (head, tail) join in order (_lex_join): no sort of the
    points is needed.
    """
    _, heads, tails = _lex_join(shape, fld)
    pts = []
    for a, m, _, _ in heads:
        tail = tails.get(m)
        if tail:
            pts += [a + t for t in tail[0]]
    return pts


def _zero_mask(pt) -> int:
    """The zero pattern of a point: bit i is set when coordinate i is 0."""
    mask = 0
    for i, x in enumerate(pt):
        if not x:
            mask |= 1 << i
    return mask


def singular_set(shape: TrinomialShape, fld, pts) -> set:
    """The singular points among pts (strata.is_singular).

    Each partial of a trinomial is a single monomial (or 0), so whether it
    vanishes at a point depends only on which coordinates are 0: the first
    point of each zero mask is tested, and the verdict holds for every
    point with that mask.  A point with no zero coordinate (0 in pt is
    false) has mask 0 without a _zero_mask call.
    """
    singular = {}
    out = set()
    for pt in pts:
        mask = _zero_mask(pt) if 0 in pt else 0
        verdict = singular.get(mask)
        if verdict is None:
            verdict = singular[mask] = strata.is_singular(shape, fld, pt)
        if verdict:
            out.add(pt)
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One check's outcome.  A skipped check could not run in this field;
    its details carry the MathDomainError code and message, and it counts
    as neither a pass nor a failure."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    skipped: bool = False

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.skipped:
            out["status"] = "skipped"
        return out


@dataclass
class VerifyReport:
    shape: dict
    field: str
    seed: object
    checks: list

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed and not c.skipped)

    @property
    def totals(self) -> dict:
        out = {"failures": self.failures}
        for c in self.checks:
            if c.name == "partition":
                out["points"] = c.details.get("points")
                out["strata"] = c.details.get("strata")
        return out

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "field": self.field,
            "seed": self.seed,
            "failures": self.failures,
            "totals": self.totals,
            "checks": [c.to_json() for c in self.checks],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _skipped(name: str, exc: MathDomainError) -> CheckResult:
    details = {"code": exc.code, "message": str(exc)}
    return CheckResult(name, False, details, skipped=True)


def _report(shape, fld, seed, checks) -> VerifyReport:
    return VerifyReport(shape.to_json(), field_designator(fld), seed, checks)


def _desc_key(shape, fld, desc) -> str:
    return json.dumps(orbits.descriptor_to_json(desc, shape, fld), sort_keys=True)


# ---------------------------------------------------------------------------
# census: every point enumerated once, one point classified per residue key
# ---------------------------------------------------------------------------


class _JoinView(Sequence):
    """Points of the (head, tail) join, read by index; no point tuple is
    stored.

    A part is a head sub-tuple, the tail sub-tuples it joins and the
    indices of the tails taken, in order; ends holds the cumulative part
    ends.  Point i is built when it is read: a bisect on ends finds its
    part, and the point is head + tail.
    """

    __slots__ = ("parts", "ends", "size")

    def __init__(self):
        self.parts = []
        self.ends = []
        self.size = 0

    def add(self, head, tails, chosen):
        self.parts.append((head, tails, chosen))
        self.size += len(chosen)
        self.ends.append(self.size)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        size = self.size
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("point index out of range")
        k = bisect_right(self.ends, i)
        head, tails, chosen = self.parts[k]
        j = i - self.ends[k - 1] if k else i
        return head + tails[chosen[j]]

    def __iter__(self):
        for head, tails, chosen in self.parts:
            for j in chosen:
                yield head + tails[j]


@dataclass
class Census:
    """The classified points of one (shape, field).

    points views them in enumeration order.  counts holds one entry per
    distinct descriptor; buckets holds, for the open and component strata
    (the ones transport handles), the points of each descriptor in
    enumeration order.  points and the buckets are index views over the
    join (_JoinView): a point tuple is built only when it is read.  Points
    whose classification raised a MathDomainError are counted in errors
    only.  classes maps every residue key (_KeyRule) of a point of X to its
    descriptor or to the MathDomainError that refused it, so the class of
    any point on X is one lookup.
    """

    points: _JoinView
    counts: dict
    buckets: dict
    errors: int
    classes: dict


def build_census(
    shape: TrinomialShape, fld, assume_conjecture: bool = False
) -> Census:
    """Enumerate the F_p-points once and classify one point per residue key.

    A point's key (_KeyRule) is its zero mask, plus, for a power-one view,
    the root ratio r when some y vanishes and no z or s does: there, and
    only there, the descriptor (OMeps, DDOMeps) needs more than the mask.
    A descriptor is a function of the key.  The power-one descriptors read
    only which x, y, z and s coordinates vanish, plus r on the component
    strata; torus strata read the zero set; and the singular locus is a
    function of the zero set, because each partial of a trinomial is a
    single monomial.  A refusal is one too: it comes from the family
    (ConjectureNotAssumed) or the singular locus (UnsupportedFamily).  So
    the first point of each key goes through classify_point, and its
    descriptor or refusal counts for every point with that key.

    The points are the (head, tail) join of enumerate_points in
    lexicographic order, so nothing is sorted, and no point tuple is built
    but the ones classified: points and every bucket are index views over
    the join.  The keys of a head's points depend only on the head's
    monomial, zero mask and factor and on the tails': each such entry
    computes its tails' keys once, with the tail indices each descriptor
    takes, and every later head with that entry reuses them.  A key is
    classified at its first point, so descriptors are listed in the order
    of their first points.  A head adds one part to each descriptor's view
    its entry reaches, with that descriptor's tail indices, and refused
    tails only add to errors.
    """
    rule, heads, tails = _lex_join(shape, fld)
    p = rule.p
    points = _JoinView()
    classes = {}
    by_desc = {}
    errors = 0
    # (monomial, zero mask, factor) of a head -> [(view or None for the
    # refused, tail indices)]
    entries = {}

    def targets(a, f, mask, subs, factors, masks):
        taken = {}
        for j, (t, g, k) in enumerate(zip(subs, factors, masks)):
            key = rule.pack(mask | k, f * g % p)
            cls = classes.get(key)
            if cls is None:
                try:
                    cls = orbits.classify_point(shape, fld, a + t, assume_conjecture)
                except MathDomainError as exc:
                    cls = exc
                classes[key] = cls
            if isinstance(cls, MathDomainError):
                view = None
            else:
                view = by_desc.get(cls)
                if view is None:
                    view = by_desc[cls] = _JoinView()
            taken.setdefault(view, []).append(j)
        return list(taken.items())

    for a, m, f, mask in heads:
        tail = tails.get(m)
        if not tail:
            continue
        subs, factors, masks = tail
        points.add(a, subs, range(len(subs)))
        entry = entries.get((m, mask, f))
        if entry is None:
            entry = entries[m, mask, f] = targets(a, f, mask, subs, factors, masks)
        for view, chosen in entry:
            if view is None:
                errors += len(chosen)
            else:
                view.add(a, subs, chosen)
    counts = {desc: len(same) for desc, same in by_desc.items()}
    buckets = {
        desc: same for desc, same in by_desc.items()
        if isinstance(desc, (orbits.BigO, orbits.OMeps))
    }
    return Census(points, counts, buckets, errors, classes)


# ---------------------------------------------------------------------------
# partition / census
# ---------------------------------------------------------------------------


def _partition_checks(shape, fld, counts, points: int, errors: int) -> list:
    """The partition check over per-descriptor counts, plus the descriptor
    census where the orbit-count formula applies."""
    keyed = {_desc_key(shape, fld, desc): c for desc, c in counts.items()}
    classified = sum(keyed.values())
    checks = [
        CheckResult(
            "partition",
            errors == 0 and classified == points,
            {
                "points": points,
                "classified": classified,
                "errors": errors,
                "strata": len(keyed),
                "counts": dict(sorted(keyed.items())),
            },
        )
    ]
    tag = family_of(shape)
    if tag.kind == "F1" and (fld.modulus - 1) % (2 * tag.f1.d) == 0:
        expected = orbits.orbit_count(shape).aut_alg
        checks.append(
            CheckResult(
                "descriptor_census",
                len(keyed) == expected,
                {"realized": len(keyed), "expected": expected},
            )
        )
    return checks


def verify_partition(
    shape: TrinomialShape,
    fld,
    assume_conjecture: bool = False,
) -> VerifyReport:
    """Classify every rational point exactly once and report the census.

    For the power-one family with p = 1 (mod 2d) the number of realized
    descriptors must equal the orbit-count formula; a planted misclassifier
    that merges strata fails exactly this check.
    """
    census = build_census(shape, fld, assume_conjecture)
    checks = _partition_checks(
        shape, fld, census.counts, len(census.points), census.errors
    )
    return _report(shape, fld, None, checks)


def selftest_applicable(shape: TrinomialShape) -> bool:
    """A detectable merge exists: singular strata to conflate, or several
    root-ratio components per vanishing set."""
    tag = family_of(shape)
    return tag.kind == "F1" and (tag.f1.q >= 1 or tag.f1.d > 1)


def _planted(shape, fld, desc):
    """The planted misclassification of one descriptor.

    It ignores x != 0 (merging the two singular strata); free-term shapes
    have no singular strata, so there it conflates the root-ratio
    components instead."""
    if isinstance(desc, orbits.O2):
        return orbits.O1(desc.M, desc.P, desc.Q)
    if family_of(shape).f1.q == 0 and isinstance(desc, orbits.OMeps):
        return orbits.OMeps(desc.M, fld.one)  # never a genuine label
    return desc


def _selftest_checks(shape, fld, census: Census) -> list:
    """The partition checks of the planted classifier, then whether the
    census check caught it.  The plant is a function of the descriptor, so
    relabelling the census counts equals reclassifying every point."""
    planted = {}
    for desc, c in census.counts.items():
        key = _planted(shape, fld, desc)
        planted[key] = planted.get(key, 0) + c
    checks = _partition_checks(
        shape, fld, planted, len(census.points), census.errors
    )
    caught = any(c.name == "descriptor_census" and not c.passed for c in checks)
    checks.append(CheckResult("selftest_planted_merge_caught", caught, {}))
    return checks


def partition_selftest(shape: TrinomialShape, fld) -> VerifyReport:
    """Plant a misclassifier and demand that the census check catches it."""
    checks = _selftest_checks(shape, fld, build_census(shape, fld))
    return _report(shape, fld, None, checks)


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


class _DescriptorTally:
    """Runs and failures of a check that compares descriptors.

    A pair whose classification is refused (ConjectureNotAssumed,
    UnsupportedFamily, ...), or whose image the field refuses (a flow
    leaving X raises CharacteristicTooSmall), is not compared; refused
    counts it, and the other pairs still run.  The check reads skipped,
    with the first refusal's code, only when every pair was refused."""

    def __init__(self):
        self.runs = self.failures = self.refused = 0
        self.refusal = None

    def refuse(self, exc: MathDomainError):
        self.refused += 1
        self.refusal = self.refusal or exc

    def compare(self, a, b):
        """Compare two classes, each a descriptor or the MathDomainError
        that refused it: the first refusal, in (a, b) order, refuses the
        pair."""
        for cls in (a, b):
            if isinstance(cls, MathDomainError):
                self.refuse(cls)
                return
        self.runs += 1
        self.failures += a != b

    def result(self, name, **details) -> CheckResult:
        if self.refused and not self.runs:
            return _skipped(name, self.refusal)
        details = {"runs": self.runs, "failures": self.failures, **details}
        if self.refused:
            details["refused"] = self.refused
        return CheckResult(name, self.failures == 0, details)


def _invariance_checks(shape, fld, census: Census, trials, seed) -> list:
    """The checks of verify_invariance over the census points.  A flow
    whose image the field refuses makes no component-membership run.

    The sources are census points, on X by construction, so only the
    images are checked, each with one on_variety call: a flow image off X
    is refused with CharacteristicTooSmall and a torus image off X with
    PointNotOnVariety, as Derivation.exp_flow and classify_point would
    refuse them.  census.classes holds every residue key of X, so the
    classes of both sides (descriptor or refusal) are read from it by key,
    and no point is classified here.  N(S) depends only on a point's zero
    mask, the low n bits of its key, so it is read once per mask.
    """
    p = fld.modulus
    rng = random.Random(seed)
    catalog = lnd_catalog(shape, fld)
    basis = torus_lattice(shape).vectors
    pts, classes, key = census.points, census.classes, _key_rule(shape, p).key
    components = {}  # zero mask -> generator sets of N(S)
    low = (1 << shape.n) - 1

    def containing(k):
        mask = k & low
        gens = components.get(mask)
        if gens is None:
            zeros = frozenset(i for i in range(shape.n) if mask >> i & 1)
            gens = components[mask] = {c.generators for c in strata.n_set(shape, zeros)}
        return gens

    flows, nsets = _DescriptorTally(), _DescriptorTally()
    exhaustive = p * len(pts) * len(catalog) <= trials
    if exhaustive:
        cases = ((pt, d, u) for d in catalog for pt in pts for u in range(p))
    else:
        cases = (
            (rng.choice(pts), rng.choice(catalog), rng.randrange(p))
            for _ in range(trials)
        )
    for pt, delta, u in cases:
        img = delta.flow_image(u, pt)
        if not shape.on_variety(fld, img):
            flows.refuse(CharacteristicTooSmall(FLOW_LEFT_THE_VARIETY))
            continue
        k_img, k_pt = key(img), key(pt)
        flows.compare(classes[k_img], classes[k_pt])
        before = containing(k_pt)
        if before:
            nsets.compare(containing(k_img), before)

    torus = _DescriptorTally()
    if basis and pts:
        for _ in range(trials):
            pt = rng.choice(pts)
            mus = [rng.randrange(1, p) for _ in basis]
            img = orbits.TorusStep(torus_scaling(shape, fld, mus)).apply(fld, pt)
            if shape.on_variety(fld, img):
                torus.compare(classes[key(img)], classes[key(pt)])
            else:
                torus.refuse(PointNotOnVariety("point does not satisfy the equation"))

    return [
        flows.result("flow_invariance", exhaustive=exhaustive),
        nsets.result("component_membership"),
        torus.result("torus_invariance"),
    ]


def verify_invariance(
    shape: TrinomialShape,
    fld,
    trials: int = 200,
    seed: int = 0,
    assume_conjecture: bool = False,
) -> VerifyReport:
    """Descriptors and singular-component membership survive the generators.

    Runs every (point, catalog derivation, parameter) flow when there are
    at most trials of them, and samples trials of them otherwise; the
    flow_invariance details say which.  Samples trials neutral-torus steps.
    The checks run on a census of their own (build_census), which
    classifies one point per residue key of X; they classify nothing.
    """
    census = build_census(shape, fld, assume_conjecture)
    return _report(shape, fld, seed, _invariance_checks(shape, fld, census, trials, seed))


def _flow_orbit(delta, p):
    """The orbit map of delta on the points of X: pt -> [exp(u * delta)(pt)
    for u = 0 .. p-1], the flow_polynomial images at every u.

    Each moving variable's divided powers P_1 .. P_K (P_0 is the variable
    itself) are read as their compiled point terms, (coefficient,
    ((variable, exponent), ...)) pairs, over one power table.  A point
    evaluates each P_k once; image u then reads sum_k P_k(pt) * u^k from a
    table of the u^k, so all p images cost one coefficient evaluation.  A
    point where every P_k(pt), k >= 1, is 0 is fixed and maps to [pt] * p
    with no image built; a moving point builds the columns of the
    coordinates that change and repeats the others.

    When every series stops below p (max_k <= p), P_1 decides fixedness,
    so P_2 .. P_K are evaluated only where some P_1(pt) is nonzero.  Why:
    for k < p, k! is a unit mod p and P_k = delta^k(x_v)/k! on X, for the
    derivation delta(x_w) = P_1 of w (0 for a variable that does not
    move).  In-field series are built so; a twin's series reduce the twin's
    powers, whose images are p-integral.  If P_1(pt) = 0 for every moving
    v, then delta(x_w)(pt) = 0 for every w, so (delta g)(pt) = sum_w
    delta(x_w)(pt) * (dg/dx_w)(pt) = 0 for every g; with
    g = delta^(k-1)(x_v), every P_k(pt) is 0 and pt is fixed.  A series
    that reaches P_p (H2 over F_5 reaches P_5) lies outside the argument,
    since p! = 0 mod p: there every P_k is evaluated at every point.
    """
    compiled = []
    max_exp = max_k = 1
    for v in delta.moving_variables():
        series = [P.point_terms() for P in delta.divided_power_series(v)]
        compiled.append((v, series[1], series[2:]))
        max_k = max(max_k, len(series))
        max_exp = max(
            [max_exp] + [e for terms in series for _, fac in terms for _, e in fac]
        )
    screen = max_k <= p
    pw = [[pow(x, e, p) for e in range(max_exp + 1)] for x in range(p)]
    # the column (u^k mod p, u = 0 .. p-1) packed into one integer, digit u
    # at bit width * u (ones for k = 0, upw[k - 1] for k >= 1): digit u of
    # x_v * ones + sum_k P_k(pt) * upw[k - 1] is then sum_k P_k(pt) * u^k
    # < max_k * p^2, with no carry into the next digit
    width = (max_k * (p - 1) ** 2).bit_length()
    ones, *upw = [sum(pow(u, k, p) << width * u for u in range(p)) for k in range(max_k)]
    digit = (1 << width) - 1
    shifts = range(0, width * p, width)

    def value(terms, rows):
        acc = 0
        for c, fac in terms:
            for i, e in fac:
                c *= rows[i][e]
            acc += c
        return acc % p

    def orbit(pt):
        rows = [pw[x] for x in pt]
        firsts = [value(first, rows) for _, first, _ in compiled]
        if screen and not any(firsts):
            return [pt] * p
        columns = None
        for (v, _, rest), first in zip(compiled, firsts):
            coeffs = [first] + [value(terms, rows) for terms in rest]
            if any(coeffs):
                if columns is None:
                    columns = list(map(repeat, pt))
                packed = pt[v] * ones + sum(map(mul, coeffs, upw))
                columns[v] = [(packed >> s & digit) % p for s in shifts]
        if columns is None:
            return [pt] * p
        return list(zip(*columns))

    return orbit


def _orbit_walk(orbit, pts, sing, p):
    """The singular/regular mismatches of the cycles of exp(delta) on pts,
    read from the orbit map of delta, or None when the walk is refused.

    orbit(start) lists exp(u * delta)(start) for u = 0 .. p-1.  Under the
    group law u -> exp(u * delta) is an action of F_p, so the set of these
    images is the cycle of exp(delta) through start, of length L = 1 or p,
    read with one coefficient evaluation.  On a cycle with k singular
    points, exp(u * delta) for u in F_p sends each cycle point onto every
    cycle point once, so the cycle contributes 2k(L-k) mismatches (0 when
    L = 1).  The walk is refused as soon as an orbit list does not start at
    its point, its set has a length other than 1 or p, or the set is not
    inside the points not yet read (an image off pts or on an earlier
    cycle): the caller then runs pointwise.  An accepted walk removes every
    point of pts exactly once.
    """
    remaining = set(pts)
    failures = 0
    for start in pts:
        if start not in remaining:
            continue
        images = orbit(start)
        cycle = set(images)
        length = len(cycle)
        if images[0] != start or length not in (1, p) or not cycle <= remaining:
            return None
        remaining -= cycle
        k = len(cycle & sing)
        failures += 2 * k * (length - k)
    return failures


def _pointwise_flows(orbit, pts, point_set, sing):
    """(off_variety, failures) over every (u, point) pair, one image each:
    one orbit-map call per point gives its p images."""
    off_variety = failures = 0
    for pt in pts:
        side = pt in sing
        for img in orbit(pt):
            if img not in point_set:
                off_variety += 1
            elif (img in sing) != side:
                failures += 1
    return off_variety, failures


def verify_flow_regularity(shape: TrinomialShape, fld, derivations) -> VerifyReport:
    """Flows preserve the regular locus, over every (derivation, u, point).

    The image of each point under each exp(u * delta), u in F_p, must sit
    on the same side of the singular locus as the source; runs counts these
    p * |points| pairs per derivation.  Each derivation's orbit map
    (_flow_orbit) is compiled once.  Where delta.flow_group_law() holds,
    exp(u * delta) = exp(delta)^u on the points, so the pairs are counted
    exactly from the cycles of the step map exp(delta), each the set of
    the orbit list of its first point (_orbit_walk): one coefficient
    evaluation per cycle, and one image per point counted in
    flow_evaluations instead of p.  A derivation whose law fails, or whose
    orbit lists the walk refuses, is checked pointwise: one orbit list per
    point, its p images counted in flow_evaluations; off_variety counts
    the images that left.  The images a refused walk read before refusing
    are not counted.
    """
    p = fld.modulus
    pts = enumerate_points(shape, fld)
    sing = singular_set(shape, fld, pts)
    point_set = None
    runs = failures = off_variety = evaluations = 0
    for delta in derivations:
        runs += p * len(pts)
        orbit = _flow_orbit(delta, p)
        if delta.flow_group_law():
            walked = _orbit_walk(orbit, pts, sing, p)
            if walked is not None:
                failures += walked
                evaluations += len(pts)
                continue
        if point_set is None:
            point_set = set(pts)
        off, fail = _pointwise_flows(orbit, pts, point_set, sing)
        off_variety += off
        failures += fail
        evaluations += p * len(pts)
    checks = [
        CheckResult(
            "flow_regularity",
            failures == 0 and off_variety == 0,
            {
                "runs": runs,
                "failures": failures,
                "off_variety": off_variety,
                "points": len(pts),
                "singular": len(sing),
                "flow_evaluations": evaluations,
            },
        )
    ]
    return _report(shape, fld, None, checks)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def _skipped_transport(exc: MathDomainError) -> list:
    return [
        _skipped(name, exc) for name in ("transport_roundtrip", "transport_negative")
    ]


def _transport_checks(shape, fld, buckets, pairs: int, seed: int) -> list:
    """Both transport checks over the census buckets of a power-one shape.

    A same-descriptor pair that transport cannot join (DifferentOrbits,
    RootUnavailable, DlogUnsolvable, ...) is a failed run: the classifier
    and transport disagree.  Only CharacteristicTooSmall, the field refusing
    the flows, skips both checks, and only if no run has failed before it.
    """
    rng = random.Random(seed)
    usable = [b for b in buckets.values() if len(b) >= 2]
    ok = runs = 0
    word_lengths = []
    for _ in range(pairs):
        bucket = rng.choice(usable)
        src, dst = rng.choice(bucket), rng.choice(bucket)
        try:
            word = orbits.transport(shape, fld, src, dst)
        except CharacteristicTooSmall as exc:
            if ok == runs:
                return _skipped_transport(exc)
            break
        except MathDomainError:
            runs += 1
            continue
        runs += 1
        if word.apply(shape, fld, src) == tuple(dst):
            ok += 1
        word_lengths.append(len(word.steps))
    negatives = expected_neg = 0
    omeps = [d for d in buckets if isinstance(d, orbits.OMeps)]
    for a in omeps:
        for b in omeps:
            if a.M == b.M and a.r != b.r:
                expected_neg += 1
                try:
                    orbits.transport(shape, fld, buckets[a][0], buckets[b][0])
                except DifferentOrbits:
                    negatives += 1
    return [
        CheckResult(
            "transport_roundtrip",
            ok == runs,
            {"pairs": runs, "exact": ok, "max_word": max(word_lengths, default=0)},
        ),
        CheckResult(
            "transport_negative",
            negatives == expected_neg,
            {"expected": expected_neg, "surfaced": negatives},
        ),
    ]


def verify_transport(
    shape: TrinomialShape, fld, pairs: int = 50, seed: int = 0
) -> VerifyReport:
    """Transport words map sampled same-descriptor pairs exactly; pairs in
    different component strata surface DifferentOrbits (expected negative).

    Both checks are reported skipped, with the MathDomainError code, for a
    shape outside the power-one family or a field whose characteristic
    refuses the flows."""
    if family_of(shape).kind != "F1":
        checks = _skipped_transport(
            UnsupportedFamily("transport is implemented for the power-one family")
        )
    else:
        census = build_census(shape, fld)
        checks = _transport_checks(shape, fld, census.buckets, pairs, seed)
    return _report(shape, fld, seed, checks)


def verify_all(
    shape: TrinomialShape,
    fld,
    trials: int = 200,
    seed: int = 0,
    assume_conjecture: bool = False,
) -> VerifyReport:
    """Partition + census + invariance + transport + harness self-test.

    One census serves every check: the points are enumerated once and one
    point per residue key is classified.  Invariance samples from the
    census points and reads the classes of both sides of each pair from
    the census classes, which hold every residue key of X, so it classifies
    no point; transport draws its pairs from the census buckets, and the
    planted self-test relabels the census counts.  Each check equals the
    one the standalone verify_* function reports, which builds the same
    census.  A skipped check does not count as a failure.
    """
    census = build_census(shape, fld, assume_conjecture)
    checks = _partition_checks(
        shape, fld, census.counts, len(census.points), census.errors
    )
    checks += _invariance_checks(shape, fld, census, trials, seed)
    tag = family_of(shape)
    if tag.kind == "F1":
        checks += _transport_checks(
            shape, fld, census.buckets, max(10, trials // 10), seed
        )
        if (fld.modulus - 1) % (2 * tag.f1.d) == 0 and selftest_applicable(shape):
            checks += [
                c for c in _selftest_checks(shape, fld, census)
                if c.name == "selftest_planted_merge_caught"
            ]
    return _report(shape, fld, seed, checks)
