"""Brute-force finite-field oracles.

Everything variety-level claimed elsewhere is checked here over F_p, on
the orbits of the neutral torus T(F_p) on the rational points
(torus_orbits): the descriptors, the singular locus and the catalog flows
all commute with T, so one representative per T-orbit, weighted by the
orbit's size, stands for every point of it.  The strata partition the
rational points, generator flows keep the regular locus and they and
neutral-torus steps preserve descriptors and singular-component
membership, transport words land exactly, and the number of realized
descriptors matches the counting formula when p = 1 (mod 2d).  The
checks enumerate points only for a flow that is not torus-homogeneous.

Finite-field orbits are not claimed to equal geometric orbits; the checks
are containment/invariance statements and exact descriptor censuses, which
are field-agnostic consequences of the classification.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul

from . import orbits, strata
from .derivations import FLOW_LEFT_THE_VARIETY, GradingWeight, lnd_catalog
from .errors import (
    CharacteristicTooSmall,
    DifferentOrbits,
    MathDomainError,
    PointNotOnVariety,
    RootUnavailable,
    TooLarge,
    UnsupportedFamily,
)
from .families import family_of, require_f1
from .fields import field_designator
from .records import field, record
from .shapes import TrinomialShape, torus_lattice, torus_scaling

# candidate points built (enumerate_points: about 0.9 GiB of 4-tuples) or
# tested (torus_orbits: one per coset of the torus image)
POINT_CAP = 10**7


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


def _group_rows(shape: TrinomialShape, g: int, p: int) -> list:
    """One group's residue rows (sub-tuple, monomial value), built
    coordinate by coordinate in lexicographic order."""
    rows = [((), 1)]
    for i in shape.group_indices(g):
        coord = [((x,), pow(x, shape.exponents[i], p)) for x in range(p)]
        rows = [(sub + s, m * w % p) for sub, m in rows for s, w in coord]
    return rows


def _join(heads, tails, p) -> list:
    """The residue rows of two adjacent groups joined, in lexicographic
    order."""
    return [(a + b, (ma + mb) % p) for a, ma in heads for b, mb in tails]


def enumerate_points(shape: TrinomialShape, fld):
    """All F_p-points of the hypersurface, lexicographically ordered.

    Each group's monomial is tabulated once (_group_rows).  The groups hold
    contiguous coordinates, so lexicographic order is the order of (head,
    tail) pairs: each head row a, in order, is followed by the tails whose
    monomial is -m(a), in order, and no sort is needed.  Either group 0
    heads the join of groups 1 and 2, or the join of groups 0 and 1 heads
    group 2; the split whose two-group join is smaller is taken (a free
    term makes group 0 a single row, and joining groups 1 and 2 would
    tabulate p times as many tails as there are points).  The value counts
    give the exact number of points before any row is built: more than
    POINT_CAP, or a field that is not prime, raises TooLarge.
    """
    p = fld.modulus
    if p is None:
        raise TooLarge("point enumeration needs a prime field")
    total = point_count(shape, p)
    if total > POINT_CAP:
        raise TooLarge(f"{total} points exceed the enumeration cap {POINT_CAP}")
    r0, r1, r2 = [_group_rows(shape, g, p) for g in range(3)]
    if len(r2) <= len(r0):
        heads, rows = r0, _join(r1, r2, p)
    else:
        heads, rows = _join(r0, r1, p), r2
    tails = {}
    for sub, m in rows:
        tails.setdefault(-m % p, []).append(sub)
    pts = []
    for a, m in heads:
        pts += [a + t for t in tails.get(m, ())]
    return pts


def _zero_mask(pt) -> int:
    """The zero pattern of a point: bit i is set when coordinate i is 0."""
    mask = 0
    for i, x in enumerate(pt):
        if not x:
            mask |= 1 << i
    return mask


def _singular_test(shape: TrinomialShape, fld):
    """pt -> whether a point of X is singular (strata.is_singular).

    Each partial of a trinomial is a single monomial (or 0), so whether it
    vanishes at a point depends only on which coordinates are 0: the first
    point of each zero mask is tested, and the verdict holds for every
    point with that mask.  A point with no zero coordinate (0 in pt is
    false) has mask 0 without a _zero_mask call.
    """
    verdicts = {}

    def singular(pt) -> bool:
        mask = _zero_mask(pt) if 0 in pt else 0
        verdict = verdicts.get(mask)
        if verdict is None:
            verdict = verdicts[mask] = strata.is_singular(shape, fld, pt)
        return verdict

    return singular


def torus_orbits(shape: TrinomialShape, fld) -> list:
    """The T(F_p)-orbits of X(F_p), one (representative, size) pair each:
    those of every stratum U(S) (strata.stratum_orbits), one Smith form
    per zero mask; no point outside the representatives is built.  A field
    that is not prime raises TooLarge, and so does a box that would take
    the coset tests past POINT_CAP, before it is tested: the full support
    comes first and carries the whole box, about (p-1)^2 cosets.
    """
    if fld.modulus is None:
        raise TooLarge("point enumeration needs a prime field")
    n = shape.n
    out = []
    tests = 0
    for zeros in range(1 << n):
        box, cosets = strata.stratum_orbits(
            shape, fld, frozenset(i for i in range(n) if zeros >> i & 1)
        )
        tests += box
        if tests > POINT_CAP:
            raise TooLarge(f"{tests} coset tests exceed the enumeration cap {POINT_CAP}")
        out.extend(cosets)
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@record
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


@record
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
# census: one point classified per T-orbit
# ---------------------------------------------------------------------------


@record
class Census:
    """The classified points of one (shape, field), by T(F_p)-orbit.

    points is the number of F_p-points (point_count).  orbits lists the
    T-orbits (torus_orbits) as (representative, size, class) triples, the
    class a descriptor or the MathDomainError that refused it.  counts
    holds the summed sizes per distinct descriptor, and errors those of
    the refused orbits.  buckets holds, for the open and component strata
    (the ones transport handles), the (representative, size) pairs of each
    descriptor's orbits.
    """

    points: int
    orbits: list
    counts: dict
    buckets: dict
    errors: int


def build_census(
    shape: TrinomialShape, fld, assume_conjecture: bool = False
) -> Census:
    """Classify one representative per T-orbit, weighted by its size.

    A descriptor is T-invariant.  The power-one descriptors read which x,
    y, z and s coordinates vanish, plus, on the component strata, the root
    ratio r, which t in T multiplies by a character of the connected torus
    whose d-th power is trivial, so by 1; torus strata read the zero set;
    and the singular locus is a function of the zero set, because each
    partial of a trinomial is a single monomial.  A refusal is T-invariant
    too: it comes from the family (ConjectureNotAssumed) or the singular
    locus (UnsupportedFamily).  So classify_point on the representative
    answers for every point of its orbit.  The family is read first, so a
    degenerate shape raises DegenerateShape before any census work; then
    torus_orbits, which refuses a field that is not prime and inputs past
    POINT_CAP coset tests, and only then the closed-form point count,
    which holds no point and is not capped.  The orbits are classified in
    torus_orbits order, so descriptors are listed in the order of their
    first orbits.
    """
    family_of(shape)
    t_orbits = torus_orbits(shape, fld)
    census = Census(point_count(shape, fld.modulus), [], {}, {}, 0)
    for rep, size in t_orbits:
        try:
            cls = orbits.classify_point(shape, fld, rep, assume_conjecture)
        except MathDomainError as exc:
            cls = exc
            census.errors += size
        else:
            census.counts[cls] = census.counts.get(cls, 0) + size
            if isinstance(cls, (orbits.BigO, orbits.OMeps)):
                census.buckets.setdefault(cls, []).append((rep, size))
        census.orbits.append((rep, size, cls))
    return census


def _orbit_draw(items, rng):
    """A function drawing one of items, (representative, size, ...) tuples
    of T-orbits, with probability proportional to its size: the orbit of a
    uniform point.  The draw uses integers only."""
    ends = list(accumulate(item[1] for item in items))
    return lambda: items[bisect_right(ends, rng.randrange(ends[-1]))]


# ---------------------------------------------------------------------------
# partition / census
# ---------------------------------------------------------------------------


def _partition_checks(shape, fld, counts, points: int, errors: int) -> list:
    """The partition check over per-descriptor counts, plus the descriptor
    census for an F1 shape over a census prime (PowerOneView)."""
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
    view = family_of(shape).f1
    if view is not None and view.census_prime(fld.modulus):
        expected = view.aut_alg
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
        shape, fld, census.counts, census.points, census.errors
    )
    return _report(shape, fld, None, checks)


def _selftest_refusal(shape: TrinomialShape, fld):
    """None inside the planted self-test's gate, else the MathDomainError
    that skips it.  The gate: an F1 shape, a census prime, and strata to
    merge, singular ones (q >= 1) or several root ratios per M (d > 1)."""
    try:
        view = require_f1(shape, "the planted self-test is stated for the power-one family")
    except UnsupportedFamily as exc:
        return exc
    if not (fld.modulus and view.census_prime(fld.modulus)):
        return RootUnavailable(f"the descriptor census needs p = 1 (mod {2 * view.d})")
    if view.q == 0 and view.d == 1:
        return UnsupportedFamily("no strata for the planted merge: a free term, d = 1")
    return None


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
        shape, fld, planted, census.points, census.errors
    )
    caught = any(c.name == "descriptor_census" and not c.passed for c in checks)
    checks.append(CheckResult("selftest_planted_merge_caught", caught, {}))
    return checks


def partition_selftest(shape: TrinomialShape, fld) -> VerifyReport:
    """Plant a misclassifier and demand that the census check catches it.
    Outside the gate (_selftest_refusal) no census is built, and that check
    alone is reported skipped, with the refusal's code."""
    refusal = _selftest_refusal(shape, fld)
    if refusal:
        return _report(shape, fld, None, [_skipped("selftest_planted_merge_caught", refusal)])
    return _report(shape, fld, None, _selftest_checks(shape, fld, build_census(shape, fld)))


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


class _DescriptorTally:
    """Runs and failures of a check that compares descriptors.

    A pair whose classification is refused (ConjectureNotAssumed,
    UnsupportedFamily, ...), or whose image the field refuses (a flow
    leaving X raises CharacteristicTooSmall), is not compared; refused
    counts it, and the other pairs still run.  The check reads skipped,
    with the first refusal's code, only when every pair was refused.  A
    pair that stands for a whole T-orbit counts with the orbit's size as
    its weight."""

    def __init__(self):
        self.runs = self.failures = self.refused = 0
        self.refusal = None

    def refuse(self, exc: MathDomainError, weight: int = 1):
        self.refused += weight
        self.refusal = self.refusal or exc

    def compare(self, a, b, weight: int = 1):
        """Compare two classes, each a descriptor or the MathDomainError
        that refused it: the first refusal, in (a, b) order, refuses the
        pair."""
        for cls in (a, b):
            if isinstance(cls, MathDomainError):
                self.refuse(cls, weight)
                return
        self.runs += weight
        self.failures += weight * (a != b)

    def result(self, name, **details) -> CheckResult:
        if self.refused and not self.runs:
            return _skipped(name, self.refusal)
        details = {"runs": self.runs, "failures": self.failures, **details}
        if self.refused:
            details["refused"] = self.refused
        return CheckResult(name, self.failures == 0, details)


def _invariance_checks(shape, fld, census: Census, trials, seed, assume_conjecture) -> list:
    """The checks of verify_invariance over the census T-orbits.

    A flow case is a (T-orbit, derivation, u) triple, its source the
    orbit's representative and its class the orbit's.  Every catalog
    derivation is torus-homogeneous (_torus_homogeneous), so
    exp(u delta)(t.x) = t.exp(chi(t) u delta)(x) and chi(t) u runs over F_p
    with u: the cases of one orbit's points are those of its
    representative, each taken size times.  So the cases are all run, each
    weighted by its orbit's size so that runs counts points, when the
    p * |T-orbits| * |catalog| of them number at most trials, and trials
    of them are drawn otherwise, the orbit with probability proportional
    to its size.  Only the image is classified: one off X was refused by
    the field (CharacteristicTooSmall) and makes no component-membership
    run.  N(S) depends only on a point's zero mask, so it is read once per
    mask.  Each T-orbit's class is compared with the class of its
    representative moved by each generator of T(F_p), the primitive root
    in one slot of torus_scaling: |T-orbits| * rank runs.
    """
    p = fld.modulus
    rng = random.Random(seed)
    catalog = lnd_catalog(shape, fld)
    t_orbits = census.orbits
    components = {}  # zero mask -> generator sets of N(S)

    def classify(pt):
        try:
            return orbits.classify_point(shape, fld, pt, assume_conjecture)
        except MathDomainError as exc:
            return exc

    def containing(pt):
        mask = _zero_mask(pt)
        gens = components.get(mask)
        if gens is None:
            zeros = frozenset(i for i in range(shape.n) if mask >> i & 1)
            gens = components[mask] = {c.generators for c in strata.n_set(shape, zeros)}
        return gens

    flows, nsets = _DescriptorTally(), _DescriptorTally()
    exhaustive = p * len(t_orbits) * len(catalog) <= trials
    if exhaustive:
        cases = ((orb, orb[1], d, u) for d in catalog for orb in t_orbits for u in range(p))
    else:
        draw = _orbit_draw(t_orbits, rng)
        cases = (
            (draw(), 1, rng.choice(catalog), rng.randrange(p)) for _ in range(trials)
        )
    for (rep, _, cls), weight, delta, u in cases:
        img = delta.flow_image(u, rep)
        img_cls = classify(img)
        if isinstance(img_cls, PointNotOnVariety):
            flows.refuse(CharacteristicTooSmall(FLOW_LEFT_THE_VARIETY), weight)
            continue
        flows.compare(img_cls, cls, weight)
        before = containing(rep)
        if before:
            nsets.compare(containing(img), before, weight)

    torus = _DescriptorTally()
    rank, root = len(torus_lattice(shape).vectors), fld.primitive_root()
    steps = [
        orbits.TorusStep(torus_scaling(shape, fld, [1] * i + [root] + [1] * (rank - i - 1)))
        for i in range(rank)
    ]
    for rep, _, cls in t_orbits:
        for step in steps:
            torus.compare(classify(step.apply(fld, rep)), cls)

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

    Runs every (T-orbit, catalog derivation, parameter) flow when there are
    at most trials of them, and samples trials of them otherwise; the
    flow_invariance details say which.  Moves every T-orbit by each
    generator of the neutral torus.  The checks run on a census of their
    own (build_census), which classifies one point per T-orbit.
    """
    census = build_census(shape, fld, assume_conjecture)
    checks = _invariance_checks(shape, fld, census, trials, seed, assume_conjecture)
    return _report(shape, fld, seed, checks)


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
    """
    compiled = []
    max_exp = max_k = 1
    for v in delta.moving_variables():
        series = [P.point_terms() for P in delta.divided_power_series(v)]
        compiled.append((v, series[1:]))
        max_k = max(max_k, len(series))
        max_exp = max(
            [max_exp] + [e for terms in series for _, fac in terms for _, e in fac]
        )
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
        columns = None
        for v, series in compiled:
            coeffs = [value(terms, rows) for terms in series]
            if any(coeffs):
                if columns is None:
                    columns = list(map(repeat, pt))
                packed = pt[v] * ones + sum(map(mul, coeffs, upw))
                columns[v] = [(packed >> s & digit) % p for s in shifts]
        if columns is None:
            return [pt] * p
        return list(zip(*columns))

    return orbit


def _torus_homogeneous(delta) -> bool:
    """Whether delta is homogeneous for the torus grading: every image term
    shifts the degree by one e over Z (monomial degree - deg x_v, under each
    lattice basis vector w as a GradingWeight).

    Each w is admissible, so derive adds e and reduce_mod by the homogeneous
    equation keeps the degree: each in-field P_k of x_v has degree
    deg x_v + k*e.  So has each closed-form P_k = C(l,k) c_t s^(l-k) w^(k-1)
    of a catalog derivation: deg w = deg s + e and deg c_t + (l-1) deg s =
    deg t + e restate over Z that F is homogeneous, whichever image terms
    vanish mod p.  Then P_k(t.x) = t_v chi(t)^k P_k(x) for t in T(F_p),
    chi(t) = t^e, so exp(u delta)(t.x) = t.exp(chi(t) u delta)(x).
    """
    weights = [GradingWeight(w) for w in torus_lattice(delta.shape).vectors]
    shifts = {
        tuple(w.monomial_degree(e) - w.weights[v] for w in weights)
        for v, img in delta.images.items()
        for e in img.terms
    }
    return len(shifts) <= 1


def verify_flow_regularity(shape: TrinomialShape, fld, derivations) -> VerifyReport:
    """Flows preserve the regular locus, over every (derivation, u, point).

    The image of each point under each exp(u * delta), u in F_p, must sit
    on the same side of the singular locus as the source; runs counts these
    p * |points| pairs per derivation, and points is the closed-form
    point_count.  Each derivation's orbit map (_flow_orbit) is compiled
    once.  A torus-homogeneous delta (_torus_homogeneous) has
    exp(u delta)(t.x) = t.exp(chi(t) u delta)(x), and chi(t) u runs over
    F_p with u; X and its singular locus are T-invariant, so the p images
    of every point of a T-orbit hold the same numbers of images off X and
    across the singular locus.  Its pairs are then summed over the
    T-orbits (torus_orbits): one orbit list per representative, its counts
    times the orbit's size.  Any other derivation is checked pointwise
    over enumerate_points, each point its own representative of size 1.
    flow_evaluations counts the images read: p per representative.  The
    orbit sizes must add up to point_count, or the check fails with their
    sum in torus_points.  torus_orbits is listed first: it refuses a field
    that is not prime, and inputs past POINT_CAP coset tests, with
    TooLarge.  The point count is not capped; enumerate_points refuses
    past POINT_CAP points only when a derivation runs pointwise.
    """
    p = fld.modulus
    t_orbits = torus_orbits(shape, fld)
    total = point_count(shape, p)
    singular = _singular_test(shape, fld)
    points = None
    runs = failures = off_variety = evaluations = 0
    for delta in derivations:
        runs += p * total
        orbit = _flow_orbit(delta, p)
        if _torus_homogeneous(delta):
            reps = t_orbits
        else:
            if points is None:
                points = [(pt, 1) for pt in enumerate_points(shape, fld)]
            reps = points
        for rep, size in reps:
            side = singular(rep)
            for img in orbit(rep):
                if not shape.on_variety(fld, img):
                    off_variety += size
                elif singular(img) != side:
                    failures += size
        evaluations += p * len(reps)
    summed = sum(size for _, size in t_orbits)
    details = {
        "runs": runs,
        "failures": failures,
        "off_variety": off_variety,
        "points": total,
        "singular": sum(size for rep, size in t_orbits if singular(rep)),
        "flow_evaluations": evaluations,
        "torus_orbits": len(t_orbits),
    }
    if summed != total:
        details["torus_points"] = summed
    passed = failures == 0 and off_variety == 0 and summed == total
    return _report(shape, fld, None, [CheckResult("flow_regularity", passed, details)])


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def _skipped_transport(exc: MathDomainError) -> list:
    return [
        _skipped(name, exc) for name in ("transport_roundtrip", "transport_negative")
    ]


def _transport_checks(shape, fld, buckets, pairs: int, seed: int) -> list:
    """Both transport checks over the census buckets of a power-one shape.

    src and dst are uniform points of one bucket: an orbit drawn with
    probability proportional to its size, moved by a uniform torus element
    (torus_scaling of uniform multipliers), which is uniform on the orbit.
    A same-descriptor pair that transport cannot join (DifferentOrbits,
    RootUnavailable, DlogUnsolvable, ...) is a failed run: the classifier
    and transport disagree.  Only CharacteristicTooSmall, the field refusing
    the flows, skips both checks, and only if no run has failed before it.
    """
    p = fld.modulus
    rng = random.Random(seed)
    rank = len(torus_lattice(shape).vectors)
    usable = [_orbit_draw(b, rng) for b in buckets.values() if sum(s for _, s in b) >= 2]

    def point(draw):
        rep, _ = draw()
        mus = [rng.randrange(1, p) for _ in range(rank)]
        return orbits.TorusStep(torus_scaling(shape, fld, mus)).apply(fld, rep)

    ok = runs = 0
    word_lengths = []
    for _ in range(pairs):
        draw = rng.choice(usable)
        src, dst = point(draw), point(draw)
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
        if word.apply(shape, fld, src) == dst:
            ok += 1
        word_lengths.append(len(word.steps))
    negatives = expected_neg = 0
    omeps = [d for d in buckets if isinstance(d, orbits.OMeps)]
    for a in omeps:
        for b in omeps:
            if a.M == b.M and a.r != b.r:
                expected_neg += 1
                try:
                    orbits.transport(shape, fld, buckets[a][0][0], buckets[b][0][0])
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
    try:
        require_f1(shape, "transport is implemented for the power-one family")
    except UnsupportedFamily as exc:
        checks = _skipped_transport(exc)
    else:
        checks = _transport_checks(shape, fld, build_census(shape, fld).buckets, pairs, seed)
    return _report(shape, fld, seed, checks)


def verify_all(
    shape: TrinomialShape,
    fld,
    trials: int = 200,
    seed: int = 0,
    assume_conjecture: bool = False,
) -> VerifyReport:
    """Partition + census + invariance + transport + harness self-test.

    One census serves every check: the T-orbits are listed once and one
    representative per orbit is classified.  Invariance reads each
    source's class from its orbit and classifies only the images;
    transport draws its pairs from the census buckets, and the planted
    self-test relabels the census counts.  Each check equals the one the
    standalone verify_* function reports, which builds the same census.  A
    skipped check does not count as a failure.  Transport runs for F1, and
    the self-test inside partition_selftest's gate (_selftest_refusal).
    """
    census = build_census(shape, fld, assume_conjecture)
    checks = _partition_checks(
        shape, fld, census.counts, census.points, census.errors
    )
    checks += _invariance_checks(shape, fld, census, trials, seed, assume_conjecture)
    if family_of(shape).kind == "F1":
        checks += _transport_checks(
            shape, fld, census.buckets, max(10, trials // 10), seed
        )
    if _selftest_refusal(shape, fld) is None:
        checks.append(_selftest_checks(shape, fld, census)[-1])  # the caught check
    return _report(shape, fld, seed, checks)
