"""Locally nilpotent derivations: catalog, verification, flows, gradings.

A derivation is stored by its images on the coordinate variables and
extended by the Leibniz rule.  The catalog builds the known families; the
first three are elementary derivations a -> dF/db, b -> -dF/da of the
equation F, for an exponent-1 variable and a variable of another group:

* gamma:i,j   - on (T<i>_<j>, w), w the first exponent-1 variable; on
                power-one shapes it is minus a D/E (Dk:1/Ek:1) derivation.
* D:i / E:j   - unique-power-one family: on (x, z_i) / (x, s_j).
* Dk:i,j / Ek:i,j - on (x_i, z_j) / (x_i, s_j), for x_1..x_k of exponent 1.
* delta+:i / delta-:i - two all-even groups led by exponent 2.  Under the
                all-plus sign convention these need a square root of -1 in
                the coefficient field (RootUnavailable otherwise, as over Q);
                the two variants differ by the sign of that root (over F_2,
                where it is 1 = -1, only delta+:i is built).

Every catalog derivation is elementary in suitable coordinates, and is
built from one record (s, l, w, {t: c_t}): it sends the local slice s to
w and each other moved variable t to c_t * d(s^l)/ds, with w and every
c_t in its kernel.  So its divided powers are, in closed form,

    P_1(s) = w,    P_k(t) = C(l, k) * c_t * s^(l-k) * w^(k-1)  (k = 1..l),

with integer coefficients in every characteristic, and its nilpotency
indices are s: 1 + [w != 0], t: (l mod p) + 1 (l + 1 over Q and Q(i)),
every other variable 1.  The record of the elementary derivation on
(e, o), e of exponent 1 and o of group monomial o^l * R, has s = o, w the
image of o and t = e; that of delta has s the variable of the third group
(see _build_delta).  Custom and graded-part derivations have no record:
they find their indices and in-field divided powers from one sequence,
the reduced powers delta^k(v) mod F from the image of v.  Both kinds read
one NILPOTENCY_CAP on the index.

Flows exp(u*delta) are exact truncated exponentials sum_k u^k P_k.  A
catalog flow is exact over every F_p, tiny primes included, since its k!
divisions are the integers C(l, k); and it obeys the group law there,
because the closed form is an identity of integer polynomials:
exp(u*delta) sends s to s + u*w and t to t + c_t * ((s + u*w)^l - s^l)/w,
and composing two flows telescopes to exp((u + u')*delta).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

from .errors import (
    CharacteristicTooSmall,
    Diverged,
    InadmissibleGrading,
    PointNotOnVariety,
    RootUnavailable,
)
from .families import family_of, require_f1
from .fields import QQ
from .polynomials import Polynomial
from .records import record
from .shapes import EQUATION_CACHE_SIZE, TrinomialShape, nonrigidity_witnesses, shape_fact

NILPOTENCY_CAP = 50
FLOW_LEFT_THE_VARIETY = (
    "flow left the variety: exact divided powers unavailable in this characteristic"
)


class Derivation:
    """A derivation of the coordinate ring, given on the variables."""

    def __init__(self, shape: TrinomialShape, fld, images: dict, family="custom", params=()):
        self.shape = shape
        self.field = fld
        self.ring = next(iter(images.values())).ring if images else shape.ring(fld)
        self.images = {v: p for v, p in images.items() if not p.is_zero()}
        self._image_terms = [(v, p.terms.items()) for v, p in self.images.items()]
        self.family = family
        self.params = tuple(params)
        # family and params never change, so neither does the designator
        self.designator = (
            "custom" if family == "custom" else f"{family}:{','.join(map(str, self.params))}"
        )
        self._slice = None  # a catalog derivation's (s, l, w, {t: c_t}), set by _sliced
        self._series = {}
        self._flow = None

    def __repr__(self):
        return f"Derivation({self.designator})"

    def image(self, v: int) -> Polynomial:
        return self.images.get(v, self.ring.zero)

    def derive(self, f: Polynomial) -> Polynomial:
        """Leibniz extension: sum over v of (df/dv) * image(v), in one pass
        over the terms of f."""
        ring = self.ring
        if f.ring is not ring and f.ring != ring:
            raise ValueError("mixed rings")
        out: dict = {}
        get = out.get
        for e, c in f.terms.items():
            for v, img in self._image_terms:
                k = e[v]
                if k:
                    ck = c * k
                    de = e[:v] + (k - 1,) + e[v + 1:]
                    for ie, ic in img:
                        te = tuple(map(add, de, ie))
                        out[te] = get(te, 0) + ck * ic
        return ring.from_terms(out)

    def is_zero(self) -> bool:
        return not self.images

    # -- verification ---------------------------------------------------------

    def well_defined(self):
        """Does the derivation descend to the hypersurface ring?

        Returns (ok, exact_zero): ok iff the derivative of the equation lies
        in the ideal it generates; exact_zero iff it vanishes identically
        (true for every catalog family).
        """
        g = self.shape.equation(self.field)
        dg = self.derive(g)
        if dg.is_zero():
            return True, True
        ok, _ = g.divides_into(dg)
        return ok, False

    def _reduced_powers(self, v: int):
        """Yield delta^k(v) mod the equation for k = 1, 2, ... while it is
        nonzero, starting from the image of v: an unmoved variable yields
        nothing.  Raises Diverged if delta^NILPOTENCY_CAP(v) is nonzero."""
        if v not in self.images:
            return
        g = self.shape.equation(self.field)
        cur = self.images[v].reduce_mod(g)
        for _ in range(1, NILPOTENCY_CAP):
            if cur.is_zero():
                return
            yield cur
            cur = self.derive(cur).reduce_mod(g)
        if not cur.is_zero():
            raise self._diverged(v)

    def _diverged(self, v: int) -> Diverged:
        return Diverged(f"no nilpotency on {self.ring.names[v]} within {NILPOTENCY_CAP} steps")

    def nilpotency_index(self, v: int) -> int:
        """Least k >= 1 with derivation^k(variable v) = 0 mod the equation;
        Diverged if it exceeds NILPOTENCY_CAP.

        A catalog derivation reads its record (s, l, w, {t: c_t}): s has
        index 1 + [w != 0], each t (l mod p) + 1 (l + 1 over Q and Q(i)),
        any other variable 1.  delta^k(t) = l(l-1)...(l-k+1) c_t s^(l-k)
        w^(k-1) is never 0 mod F while its coefficient is nonzero, and w
        vanishes only for delta over F_2, where k <= (l mod 2) + 1 <= 2.
        Every other derivation counts its reduced powers."""
        if self._slice is None:
            return 1 + sum(1 for _ in self._reduced_powers(v))
        s, l, w, coeffs = self._slice
        p = self.field.modulus
        if v == s:
            index = 1 + (not w.is_zero())
        elif v in coeffs:
            index = (l % p if p else l) + 1
        else:
            index = 1
        if index > NILPOTENCY_CAP:
            raise self._diverged(v)
        return index

    # -- flows ----------------------------------------------------------------

    def moving_variables(self):
        """The variables a flow moves, in canonical order: those whose
        divided powers P_k, k >= 1, are not all zero.  Over F_p a catalog
        variable t whose image vanishes (p divides l) still moves when
        some later C(l, k) does not vanish mod p."""
        candidates = set(self.images)
        if self._slice is not None:
            candidates |= {self._slice[0], *self._slice[3]}
        return [v for v in sorted(candidates) if len(self.divided_power_series(v)) > 1]

    def divided_power_series(self, v: int):
        """[P_0, P_1, ...] with P_k = delta^k(v)/k!, P_k = 0 beyond the list;
        the list never ends in a zero polynomial.

        A catalog derivation reads them in closed form from its record,
        exact in every characteristic; any other derivation takes them
        in-field, refusing a division by a multiple of the characteristic.
        """
        if v not in self._series:
            self._series[v] = (
                self._series_in_field(v) if self._slice is None else self._closed_form_series(v)
            )
        return self._series[v]

    def _closed_form_series(self, v: int):
        """[v, w] for the slice s; [t, C(l, k) c_t s^(l-k) w^(k-1) mod F for
        k = 1..l] for a moved t; [v] otherwise; trailing zeros dropped."""
        s, l, w, coeffs = self._slice
        ring, fld = self.ring, self.field
        out = [ring.var(v)]
        if v == s:
            out.append(w)
        elif v in coeffs:
            g = self.shape.equation(fld)
            head = coeffs[v]  # c_t * w^(k-1)
            for k in range(1, l + 1):
                power = (head * ring.var(s) ** (l - k)).scale(comb(l, k))
                out.append(power.reduce_mod(g))
                head = head * w
        while out[-1].is_zero():  # P_0 = v never vanishes
            out.pop()
        return out

    def _series_in_field(self, v: int):
        fld = self.field
        out = [self.ring.var(v)]
        inv_factorial = fld.one
        for k, power in enumerate(self._reduced_powers(v), start=1):
            kk = fld.from_int(k)
            if fld.is_zero(kk):
                raise CharacteristicTooSmall(
                    f"divided power {k} needs division by the characteristic"
                )
            inv_factorial = fld.mul(inv_factorial, fld.inv(kk))
            out.append(power.scale(inv_factorial))
        return out

    def flow_polynomial(self, v: int, u) -> Polynomial:
        """The image of variable v under exp(u * derivation), as a polynomial:
        sum over k of u^k * delta^k(v)/k!."""
        fld = self.field
        out = self.ring.zero
        upow = fld.one
        for P in self.divided_power_series(v):
            out = out + P.scale(upow)
            upow = fld.mul(upow, u)
        return out

    def _flow_terms(self):
        """[(v, terms)] for each moving variable v, where terms compile
        sum_k u^k P_k for the fields' eval_terms at the point with u
        appended as one more coordinate; built once per derivation."""
        if self._flow is None:
            u = self.ring.nvars
            self._flow = [
                (v, [
                    (c, factors + ((u, k),) if k else factors)
                    for k, P in enumerate(self.divided_power_series(v))
                    for c, factors in P.point_terms()
                ])
                for v in self.moving_variables()
            ]
        return self._flow

    def flow_image(self, u, pt):
        """exp(u * derivation) applied to pt, with no equation check.

        Each moved coordinate is sum_k u^k P_k(pt), accumulated natively and
        reduced once.  Nothing here reads the equation: exp_flow checks both
        ends, _image_on_variety only the image, and the oracle's flow
        invariance check classifies the image, which refuses one off X.
        """
        fld = self.field
        out = list(pt)
        at = (*pt, u)
        for v, terms in self._flow_terms():
            out[v] = fld.eval_terms(terms, at)
        return tuple(out)

    def _image_on_variety(self, u, pt):
        """flow_image(u, pt) for a source pt on X, checked on X: an image
        off X means the series is no flow in this characteristic, and is
        refused with CharacteristicTooSmall (FLOW_LEFT_THE_VARIETY).  The
        one image check of exp_flow and of the transporter's flows, whose
        sources are on X by construction."""
        out = self.flow_image(u, pt)
        if not self.shape.on_variety(self.field, out):
            raise CharacteristicTooSmall(FLOW_LEFT_THE_VARIETY)
        return out

    def exp_flow(self, u, pt):
        """Image of a variety point under exp(u * derivation).

        Both ends are checked: a source off X raises PointNotOnVariety, and
        the result satisfies the equation exactly, or, when an in-field
        series terminated early because of the characteristic, the image
        check (_image_on_variety) raises CharacteristicTooSmall.
        """
        if not self.shape.on_variety(self.field, pt):
            raise PointNotOnVariety("flow source does not satisfy the equation")
        return self._image_on_variety(u, pt)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@shape_fact
def _cofactors(shape):
    """For each variable v, the exponents of R in its group monomial v^l * R."""
    out = []
    for v in range(shape.n):
        exps = list(shape.monomial_exps(shape.group_of(v)))
        exps[v] = 0
        out.append(tuple(exps))
    return tuple(out)


def _sliced(shape, fld, s, l, w, coeffs, family, params):
    """The catalog derivation of the record (s, l, w, {t: c_t}), whose
    images are s -> w and t -> l * c_t * s^(l-1); nilpotency_index and
    divided_power_series read the record in closed form.  Every c_t is a
    monomial free of s."""
    images = {s: w}
    for t, c in coeffs.items():
        ((exps, k),) = c.terms.items()
        images[t] = w.ring.from_terms({exps[:s] + (l - 1,) + exps[s + 1:]: k * l})
    d = Derivation(shape, fld, images, family=family, params=params)
    d._slice = (s, l, w, coeffs)
    return d


def _elementary(shape, fld, partials, a, b, family, params):
    """The elementary derivation a -> dF/db, b -> -dF/da, for variables of
    different groups, one of exponent 1 (which makes it locally nilpotent;
    it kills F by construction).  With e the exponent-1 variable (b when
    both are), e * Q its group monomial, and o the other variable, of group
    monomial o^l * R: s = o, w = +-Q = +-dF/de (the image of o), t = e and
    c_e = -R when a = o, +R when a = e.  partials holds every dF/dv."""
    e, o = (b, a) if shape.exponents[b] == 1 else (a, b)
    w = partials[e] if a == o else -partials[e]
    ((_, sign),) = w.terms.items()
    c = w.ring.from_terms({_cofactors(shape)[o]: -sign})
    return _sliced(shape, fld, o, shape.exponents[o], w, {e: c}, family, params)


def _build_gamma(shape, fld, partials):
    """All gamma derivations, or [] when no group has an exponent-1 variable:
    the elementary derivation on (v, w) for the first exponent-1 variable w
    and every variable v of the other groups."""
    w = next((i for i, l in enumerate(shape.exponents) if l == 1), None)
    if w is None:
        return []
    gw = shape.group_of(w)
    return [
        _elementary(shape, fld, partials, v, w, "gamma", (g, j))
        for g in range(3)
        if g != gw
        for j, v in enumerate(shape.group_indices(g), start=1)
    ]


def delta_pair_groups(shape: TrinomialShape):
    """The groups (g, h) of the first even_pair non-rigidity witness plus
    the third group, or None.

    The witness search already excludes free-term shapes: with a free term
    the shape is rigid and has no such derivations.
    """
    for wit in nonrigidity_witnesses(shape):
        if wit[0] == "even_pair":
            g, h = wit[1:3]
            return g, h, 3 - g - h
    return None


def delta_obstruction(shape: TrinomialShape, fld):
    """Why the delta family cannot be built over fld, or None if it can."""
    if delta_pair_groups(shape) is None or fld.sqrt_minus_one() is not None:
        return None
    if fld.modulus is None:
        return "delta derivations need a square root of -1; Q has none"
    return (
        f"delta derivations need a square root of -1; "
        f"F_{fld.modulus} has none (p = 3 mod 4)"
    )


def _build_delta(shape, fld):
    """Both sign variants of the quadratic-pair derivations, for each
    variable of the remaining group; over F_2, where j = -j, only delta+.

    With the all-plus equation convention, writing A, B for the exponent-2
    leaders, F0, F1 for the half-exponent tails, v^l * R for the monomial
    of the third group and j^2 = -1, the record has

        s = v,   w = -2 F0 F1 (A F0 +- j B F1),   c_A = F1 R,   c_B = +-j F0 R,

    so the images are A -> dP2/dv * F1, B -> (+-j) * dP2/dv * F0, v -> w.
    w is in the kernel: A F0 +- j B F1 goes to dP2/dv F0 F1 (1 + j^2) = 0.
    A pure sign adjustment (j replaced by a rational) satisfies the equation
    identity but is never locally nilpotent, so fields without j refuse.
    """
    pair = delta_pair_groups(shape)
    if pair is None:
        return []
    obstruction = delta_obstruction(shape, fld)
    if obstruction is not None:
        raise RootUnavailable(obstruction)
    g0, g1, g2 = pair
    ring = shape.ring(fld)
    j = fld.sqrt_minus_one()

    def leader_and_tail(g):
        idxs = shape.group_indices(g)
        lead = next(i for i in idxs if shape.exponents[i] == 2)
        tail_exps = [0] * shape.n
        for i in idxs:
            if i != lead:
                tail_exps[i] = shape.exponents[i] // 2
        return lead, ring.monomial(tuple(tail_exps))

    A, F0 = leader_and_tail(g0)
    B, F1 = leader_and_tail(g1)
    signs = (j,) if fld.neg(j) == j else (j, fld.neg(j))  # F_2: j = -j
    out = []
    for i, v in enumerate(shape.group_indices(g2), start=1):
        R = ring.monomial(_cofactors(shape)[v])
        for sign, fam in zip(signs, ("delta+", "delta-")):
            w = (F0 * F1 * (ring.var(A) * F0 + (ring.var(B) * F1).scale(sign))).scale(
                fld.from_int(-2)
            )
            coeffs = {A: F1 * R, B: (F0 * R).scale(sign)}
            out.append(_sliced(shape, fld, v, shape.exponents[v], w, coeffs, fam, (i,)))
    return out


def _build_power_one(shape, fld, partials, view):
    """D:j / E:j (one x) or Dk:i,j / Ek:i,j (x_1..x_k): the elementary
    derivation on (x_i, z_j) or (x_i, s_j) for each exponent-1 variable."""
    one = view.k == 1
    return [
        _elementary(shape, fld, partials, x, v, fam, (j,) if one else (i, j))
        for fam, idxs in zip(("D", "E") if one else ("Dk", "Ek"), (view.zs, view.ss))
        for i, x in enumerate(view.xs, start=1)
        for j, v in enumerate(idxs, start=1)
    ]


@lru_cache(maxsize=EQUATION_CACHE_SIZE)
def _catalog(shape: TrinomialShape, fld):
    """The catalog over fld as (derivations, notes) tuples, built once per
    (shape, field) while the pair is among the EQUATION_CACHE_SIZE most
    recently used, like the equation and partials it reads."""
    shape.require_nondegenerate()
    partials = shape.partials(fld)
    out = _build_gamma(shape, fld, partials)
    notes = []
    obstruction = delta_obstruction(shape, fld)
    if obstruction is not None:
        notes.append(obstruction)
    elif delta_pair_groups(shape) is not None:
        out.extend(_build_delta(shape, fld))
        notes.append(
            "delta derivations use the all-plus sign normalization with "
            f"j = {fld.fmt(fld.sqrt_minus_one())}, j^2 = -1"
        )
    tag = family_of(shape)
    view = tag.f1 or tag.f2
    if view is not None:
        out.extend(_build_power_one(shape, fld, partials, view))
    return tuple(out), tuple(notes)


def lnd_catalog(shape: TrinomialShape, fld=QQ, with_notes: bool = False):
    """Every catalog derivation constructible over fld.

    Field-obstructed families (delta over fields without sqrt(-1)) are
    skipped; pass with_notes=True to also receive the obstruction messages.
    Over F_2, where j = -j, delta is one derivation per variable (delta+:i).
    Rigid shapes give an empty catalog.

    The catalog is built once per (shape, field) and kept while the pair is
    among the shapes.EQUATION_CACHE_SIZE most recently used, the one bound of
    every (shape, field) cache.  The lists returned are fresh, but the
    derivations in them are shared by every caller, with their divided-power
    series: do not mutate them.
    """
    derivations, notes = _catalog(shape, fld)
    return (list(derivations), list(notes)) if with_notes else list(derivations)


def catalog_index(shape: TrinomialShape, fld) -> dict:
    """The catalog keyed by designator, over the shared lnd_catalog
    derivations (and so their divided-power series)."""
    index = {}
    for d in lnd_catalog(shape, fld):
        index.setdefault(d.designator, d)
    return index


def catalog_derivation(shape: TrinomialShape, fld, designator: str) -> Derivation:
    """Look up one catalog derivation by its designator, e.g. 'D:1'."""
    designator = designator.strip()
    index = catalog_index(shape, fld)
    if designator not in index:
        raise KeyError(f"no catalog derivation {designator!r} for this shape")
    return index[designator]


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------


@record(frozen=True)
class GradingWeight:
    """An integer weight per variable; admissible when the equation is
    homogeneous (all monomials of the equation get equal weight)."""

    weights: tuple

    def monomial_degree(self, exps) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def equation_degrees(self, shape: TrinomialShape):
        return [self.monomial_degree(shape.monomial_exps(g)) for g in range(3)]

    def is_admissible(self, shape: TrinomialShape) -> bool:
        degs = self.equation_degrees(shape)
        return degs[0] == degs[1] == degs[2]

    def split_poly(self, poly: Polynomial) -> dict:
        """Graded parts of a polynomial, degree -> polynomial."""
        parts = {}
        for e, c in poly.terms.items():
            parts.setdefault(self.monomial_degree(e), {})[e] = c
        return {d: Polynomial(poly.ring, t) for d, t in parts.items()}


def eta_grading(shape: TrinomialShape, i: int) -> GradingWeight:
    """Unique-power-one family grading: deg x = -a_i, deg y_i = 1, rest 0."""
    view = require_f1(shape)
    w = [0] * shape.n
    w[view.x] = -view.a[i - 1]
    w[view.ys[i - 1]] = 1
    return GradingWeight(tuple(w))


def homogeneous_split(delta: Derivation, weight: GradingWeight):
    """Decompose into graded components; their sum is the derivation.

    Component of degree d maps a variable v to the (deg v + d)-part of the
    image of v.  Requires an admissible weight, otherwise the parts are not
    derivations of the hypersurface ring.
    """
    if not weight.is_admissible(delta.shape):
        raise InadmissibleGrading(
            f"weights {weight.weights} leave the equation inhomogeneous"
        )
    by_degree = {}
    for v, img in delta.images.items():
        wv = weight.weights[v]
        for deg, part in weight.split_poly(img).items():
            by_degree.setdefault(deg - wv, {})[v] = part
    out = [
        (
            d,
            Derivation(delta.shape, delta.field, imgs, family="custom"),
        )
        for d, imgs in sorted(by_degree.items())
    ]
    return out
