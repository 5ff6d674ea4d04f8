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
from dataclasses import dataclass, field
from itertools import product

from . import orbits, strata
from .derivations import lnd_catalog
from .errors import (
    CharacteristicTooSmall,
    DifferentOrbits,
    MathDomainError,
    TooLarge,
    UnsupportedFamily,
)
from .families import family_of
from .fields import field_designator
from .shapes import TrinomialShape, torus_lattice, torus_scaling

POINT_CAP = 10**7  # points held in memory: about 0.9 GiB of 4-tuples


def _value_counts(exps, p) -> dict:
    """Monomial value -> how many coordinate sub-tuples of one group give
    it (the empty group is the free term 1): the power distributions of the
    group's variables, multiplied together."""
    counts = {1: 1}
    for e in exps:
        powers = {}
        for x in range(p):
            w = pow(x, e, p)
            powers[w] = powers.get(w, 0) + 1
        nxt = {}
        for v, c in counts.items():
            for w, k in powers.items():
                vw = v * w % p
                nxt[vw] = nxt.get(vw, 0) + c * k
        counts = nxt
    return counts


def point_count(shape: TrinomialShape, p: int) -> int:
    """The exact number of F_p-points, from the per-group value counts:
    no point is built."""
    c0, c1, c2 = (_value_counts(grp, p) for grp in shape.groups)
    return sum(
        a * b * c2.get(-(m0 + m1) % p, 0)
        for m0, a in c0.items()
        for m1, b in c1.items()
    )


def _value_table(exps, p) -> dict:
    """Monomial value -> the coordinate sub-tuples of one group giving it."""
    table = {}
    for sub in product(range(p), repeat=len(exps)):
        m = 1
        for x, e in zip(sub, exps):
            m = m * pow(x, e, p) % p
        table.setdefault(m, []).append(sub)
    return table


def enumerate_points(shape: TrinomialShape, fld):
    """All F_p-points of the hypersurface, lexicographically ordered.

    Each group's monomial is tabulated once (value -> coordinate
    sub-tuples); a point joins sub-tuples of groups 0 and 1 with one of
    group 2 whose monomial is -(m0 + m1).  The value counts give the exact
    number of points before any is built: more than POINT_CAP raises
    TooLarge.
    """
    p = fld.modulus
    if p is None:
        raise TooLarge("point enumeration needs a prime field")
    total = point_count(shape, p)
    if total > POINT_CAP:
        raise TooLarge(f"{total} points exceed the enumeration cap {POINT_CAP}")
    t0, t1, t2 = (_value_table(grp, p) for grp in shape.groups)
    pts = []
    for m0, subs0 in t0.items():
        for m1, subs1 in t1.items():
            subs2 = t2.get(-(m0 + m1) % p)
            if subs2:
                pts.extend(a + b + c for a in subs0 for b in subs1 for c in subs2)
    pts.sort()
    return pts


def random_points(shape: TrinomialShape, fld, count: int, rng) -> list:
    """Random F_p-points by rejection: draw all coordinates but one and
    solve the last power by root extraction (always solvable through an
    exponent-1 variable when the shape has one)."""
    p = fld.modulus
    if p is None:
        raise TooLarge("random sampling needs a prime field")
    exps = shape.exponents
    ones = [i for i, l in enumerate(exps) if l == 1]
    v = ones[0] if ones else 0
    gv = shape.group_of(v)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 10000 * count:
            raise MathDomainError("rejection sampling failed to find points")
        vec = [rng.randrange(p) for _ in range(shape.n)]
        cof = shape.monomial_value(fld, vec[:v] + [1] + vec[v + 1:], gv)
        rest = sum(shape.monomial_value(fld, vec, g) for g in range(3) if g != gv) % p
        if cof == 0:
            if rest == 0:
                out.append(tuple(vec))
            continue
        target = fld.div(fld.neg(rest), cof)
        roots = sorted(fld.kth_roots(target, exps[v]))
        if not roots:
            continue
        vec[v] = rng.choice(roots)
        out.append(tuple(vec))
    return out


def singular_set(shape: TrinomialShape, fld, pts) -> set:
    """The singular points among pts, by vanishing of all partials."""
    partials = strata._jacobian(shape, fld)
    out = set()
    for pt in pts:
        if all(fld.is_zero(pp.eval(pt)) for pp in partials):
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
# census: every point enumerated and classified once per (shape, field)
# ---------------------------------------------------------------------------


@dataclass
class Census:
    """The classified points of one (shape, field).

    counts holds one entry per distinct descriptor; buckets holds, for the
    open and component strata (the ones transport handles), the points of
    each descriptor in enumeration order.  Points whose classification
    raised a MathDomainError are counted in errors only.
    """

    points: list
    counts: dict
    buckets: dict
    errors: int


def build_census(
    shape: TrinomialShape, fld, assume_conjecture: bool = False
) -> Census:
    """Enumerate the F_p-points once and classify each of them once."""
    pts = enumerate_points(shape, fld)
    counts = {}
    buckets = {}
    errors = 0
    for pt in pts:
        try:
            desc = orbits.classify_point(shape, fld, pt, assume_conjecture)
        except MathDomainError:
            errors += 1
            continue
        counts[desc] = counts.get(desc, 0) + 1
        if isinstance(desc, (orbits.BigO, orbits.OMeps)):
            buckets.setdefault(desc, []).append(pt)
    return Census(pts, counts, buckets, errors)


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
    UnsupportedFamily, ...) is not compared; refused counts it, and the
    other pairs still run.  The check reads skipped, with the first
    refusal's code, only when every pair was refused."""

    def __init__(self, classify):
        self.classify = classify
        self.runs = self.failures = self.refused = 0
        self.refusal = None

    def compare(self, a, b):
        try:
            same = self.classify(a) == self.classify(b)
        except MathDomainError as exc:
            self.refused += 1
            self.refusal = self.refusal or exc
            return
        self.runs += 1
        self.failures += not same

    def result(self, name, **details) -> CheckResult:
        if self.refused and not self.runs:
            return _skipped(name, self.refusal)
        details = {"runs": self.runs, "failures": self.failures, **details}
        if self.refused:
            details["refused"] = self.refused
        return CheckResult(name, self.failures == 0, details)


def _invariance_checks(
    shape, fld, pts, trials, seed, assume_conjecture, exhaustive
) -> list:
    p = fld.modulus
    rng = random.Random(seed)
    catalog = lnd_catalog(shape, fld)
    basis = torus_lattice(shape).vectors

    def classify(pt):
        return orbits.classify_point(shape, fld, pt, assume_conjecture)

    flows = _DescriptorTally(classify)
    nset_fail = nset_runs = 0
    if catalog and pts:
        if exhaustive:
            cases = ((pt, d, u) for d in catalog for pt in pts for u in range(p))
        else:
            cases = (
                (rng.choice(pts), rng.choice(catalog), rng.randrange(p))
                for _ in range(trials)
            )
        for pt, delta, u in cases:
            img = delta.exp_flow(u, pt)
            flows.compare(img, pt)
            support = strata.support_zero_set(shape, fld, pt)
            if strata.n_set(shape, support):
                nset_runs += 1
                img_support = strata.support_zero_set(shape, fld, img)
                before = {c.generators for c in strata.n_set(shape, support)}
                after = {c.generators for c in strata.n_set(shape, img_support)}
                if before != after:
                    nset_fail += 1

    torus = _DescriptorTally(classify)
    if basis and pts:
        torus_trials = trials if not exhaustive else min(trials * 5, 1000)
        for _ in range(torus_trials):
            pt = rng.choice(pts)
            mus = [rng.randrange(1, p) for _ in basis]
            coords = torus_scaling(shape, fld, mus)
            torus.compare(tuple(fld.mul(c, v) for c, v in zip(coords, pt)), pt)

    return [
        flows.result("flow_invariance", exhaustive=exhaustive),
        CheckResult(
            "component_membership",
            nset_fail == 0,
            {"runs": nset_runs, "failures": nset_fail},
        ),
        torus.result("torus_invariance"),
    ]


def verify_invariance(
    shape: TrinomialShape,
    fld,
    trials: int = 200,
    seed: int = 0,
    assume_conjecture: bool = False,
    exhaustive: bool = False,
) -> VerifyReport:
    """Descriptors and singular-component membership survive the generators.

    Samples (point, catalog derivation, parameter) flows and neutral-torus
    steps; exhaustive=True runs every combination instead.
    """
    checks = _invariance_checks(
        shape, fld, enumerate_points(shape, fld), trials, seed,
        assume_conjecture, exhaustive,
    )
    return _report(shape, fld, seed, checks)


def _flow_step(delta, u, p):
    """exp(u * delta) on residue points: the flow polynomials at u, compiled
    to (coefficient, [(variable, exponent)]) terms over a power table."""
    compiled = []
    max_exp = 1
    for v in delta.moving_variables():
        terms = [
            (c, [(i, e) for i, e in enumerate(exps) if e])
            for exps, c in delta.flow_polynomial(v, u).terms.items()
        ]
        compiled.append((v, terms))
        max_exp = max([max_exp] + [e for _, fac in terms for _, e in fac])
    pw = [[pow(x, e, p) for e in range(max_exp + 1)] for x in range(p)]

    def step(pt):
        img = list(pt)
        for v, terms in compiled:
            acc = 0
            for c, fac in terms:
                t = c
                for i, e in fac:
                    t = t * pw[pt[i]][e] % p
                acc = (acc + t) % p
            img[v] = acc
        return tuple(img)

    return step


def _orbit_walk(step, pts, sing, p):
    """(evaluations, failures) of a step map of order p on pts.

    Each cycle is walked once, each point's image computed once.  On a cycle
    of length L with k singular points, exp(u * delta) for u in F_p visits
    every cycle point p/L times from each source, so the cycle contributes
    (p/L) * 2k(L-k) singular/regular mismatches.  failures is None as soon
    as an image leaves pts (or a cycle length does not divide p): the step
    is then no permutation of order p there, and the caller runs pointwise.
    """
    remaining = set(pts)
    evaluations = failures = 0
    for start in pts:
        if start not in remaining:
            continue
        remaining.discard(start)
        length, k = 1, start in sing
        cur = step(start)
        evaluations += 1
        while cur != start:
            if cur not in remaining:
                return evaluations, None
            remaining.discard(cur)
            length += 1
            k += cur in sing
            cur = step(cur)
            evaluations += 1
        if p % length:
            return evaluations, None
        failures += p // length * 2 * k * (length - k)
    return evaluations, failures


def _pointwise_flows(delta, pts, point_set, sing, p):
    """(off_variety, failures) over every (u, point) pair, one image each."""
    off_variety = failures = 0
    for u in range(p):
        step = _flow_step(delta, u, p)
        for pt in pts:
            img = step(pt)
            if img not in point_set:
                off_variety += 1
            elif (img in sing) != (pt in sing):
                failures += 1
    return off_variety, failures


def verify_flow_regularity(shape: TrinomialShape, fld, derivations) -> VerifyReport:
    """Flows preserve the regular locus, over every (derivation, u, point).

    The image of each point under each exp(u * delta), u in F_p, must sit
    on the same side of the singular locus as the source; runs counts these
    p * |points| pairs per derivation.  Where delta.flow_group_law() holds,
    exp(u * delta) = exp(delta)^u on the points, so the pairs are counted
    exactly from the cycles of the one step map exp(delta): one image per
    point (flow_evaluations) instead of p.  A derivation whose law fails,
    or whose step leaves the points, is checked pointwise, one image per
    pair; off_variety counts the images that left.
    """
    p = fld.modulus
    pts = enumerate_points(shape, fld)
    sing = singular_set(shape, fld, pts)
    point_set = None
    runs = failures = off_variety = evaluations = 0
    for delta in derivations:
        runs += p * len(pts)
        if delta.flow_group_law():
            walked, walk_failures = _orbit_walk(_flow_step(delta, 1, p), pts, sing, p)
            evaluations += walked
            if walk_failures is not None:
                failures += walk_failures
                continue
        if point_set is None:
            point_set = set(pts)
        off, fail = _pointwise_flows(delta, pts, point_set, sing, p)
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
    omeps = sorted(
        (d for d in buckets if isinstance(d, orbits.OMeps)),
        key=lambda d: (sorted(d.M), fld.fmt(d.r)),
    )
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

    One census serves every check: the points are enumerated once and each
    is classified once.  Invariance samples from the census points,
    transport draws its pairs from the census buckets, and the planted
    self-test relabels the census counts.  Each check equals the one the
    standalone verify_* function reports.  A skipped check does not count
    as a failure.
    """
    census = build_census(shape, fld, assume_conjecture)
    checks = _partition_checks(
        shape, fld, census.counts, len(census.points), census.errors
    )
    checks += _invariance_checks(
        shape, fld, census.points, trials, seed, assume_conjecture, False
    )
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
