from fractions import Fraction

import pytest
from hypothesis import assume, strategies as st

from trinomial_orbits import (
    Derivation,
    MathDomainError,
    PolyRing,
    PrimeField,
    QQ,
    TooLarge,
    derivations,
    family_of,
    shapes,
    strata,
    validate_shape,
)
from trinomial_orbits.fields import GaussianRational
from trinomial_orbits.oracle import point_count

# the recurring cast of shapes
SHAPE_A = [[1, 2], [3], [3]]        # x*y^2 + z^3 + s^3
SHAPE_B = [[2], [3], [3]]           # y^2 + z^3 + s^3 (rigid)
SHAPE_C = [[1, 1, 2], [3], [3]]     # x1*x2*y^2 + z^3 + s^3
SHAPE_D = [[1, 2, 2], [3], [3]]     # x*y1^2*y2^2 + z^3 + s^3
SHAPE_E = [[], [1, 3, 3], [3, 3]]   # 1 + x*y1^3*y2^3 + z1^3*z2^3
SHAPE_E_BASE = [[], [3, 3], [3, 3]]
SHAPE_H2 = [[2, 2], [2, 2], [5]]


# every cache keyed by a (shape, field) pair, each of EQUATION_CACHE_SIZE entries
SHAPE_FIELD_CACHES = (shapes._equation, derivations._catalog)


@pytest.fixture(autouse=True)
def fresh_catalog_cache():
    """Start every test from empty (shape, field) caches, so that no test
    sees equations, derivations, series or group laws another test left
    behind."""
    for cache in SHAPE_FIELD_CACHES:
        cache.cache_clear()


@pytest.fixture
def in_field_delta(monkeypatch):
    """Catalog deltas are built without their closed-form record, keeping
    their designators, and so compute their divided powers in the field.
    Over F_5 that series is not a flow of X: H2 and [[2],[2],[6]] send
    delta images off the variety."""
    build = derivations._build_delta
    monkeypatch.setattr(
        derivations,
        "_build_delta",
        lambda shape, fld: [
            Derivation(shape, fld, d.images, family=d.family, params=d.params)
            for d in build(shape, fld)
        ],
    )


@pytest.fixture
def shape_a():
    return validate_shape(SHAPE_A)


@pytest.fixture
def shape_b():
    return validate_shape(SHAPE_B)


@pytest.fixture
def shape_c():
    return validate_shape(SHAPE_C)


@pytest.fixture
def shape_d():
    return validate_shape(SHAPE_D)


@pytest.fixture
def shape_e():
    return validate_shape(SHAPE_E)


@pytest.fixture
def shape_h2():
    return validate_shape(SHAPE_H2)


@pytest.fixture
def f7():
    return PrimeField(7)


@pytest.fixture
def f3():
    return PrimeField(3)


@pytest.fixture
def qq():
    return QQ


@st.composite
def small_shapes(draw):
    """Nondegenerate shapes, up to two variables a group (group 0 may be
    empty: the free term), exponents 1-5."""
    exps = st.integers(1, 5)
    groups = [
        draw(st.lists(exps, min_size=0, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
    ]
    shape = validate_shape(groups)
    assume(shape.degenerate_group() is None)
    return shape


@st.composite
def power_one_shapes(draw):
    """The F1 shapes among small_shapes, drawn directly: exactly one
    exponent-1 variable x, next to one exponent 2-5 in its group.  Filtering
    small_shapes for F1 discards most draws, enough to fail Hypothesis's
    filter_too_much health check on some runs."""
    exps = st.integers(2, 5)
    groups = [
        draw(st.lists(exps, min_size=0, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
        draw(st.lists(exps, min_size=1, max_size=2)),
    ]
    pair = [1, draw(exps)]
    groups[draw(st.integers(0, 2))] = pair if draw(st.booleans()) else pair[::-1]
    shape = validate_shape(groups)
    assume(family_of(shape).kind == "F1")  # a flexible H-type match wins over F1
    return shape


def random_points(shape, fld, count: int, rng) -> list:
    """Random F_p-points by rejection: draw all coordinates but one and
    solve the last power by root extraction (always solvable through an
    exponent-1 variable when the shape has one).  A variety with no
    F_p-points raises MathDomainError before any draw."""
    p = fld.modulus
    if p is None:
        raise TooLarge("random sampling needs a prime field")
    if not point_count(shape, p):
        raise MathDomainError(f"the variety has no points over F_{p}")
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


def symmetry_closure(shape) -> tuple:
    """Every element of the shape's symmetry group, sorted: one BFS over
    symmetry_group's generators, composing each element with each
    generator until nothing new appears.  The library lists no elements;
    the tests that walk the whole group read them here."""
    gens, n = shapes.symmetry_group(shape).generators, shape.n
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(seen))


def exact_coefficient(c) -> bool:
    """A Q or Q(i) coefficient is exact and canonical: an int when integral,
    else a Fraction, and a Gaussian rational's parts likewise (never a
    float)."""
    parts = (c.real, c.imag) if isinstance(c, GaussianRational) else (c,)
    return all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in parts
    )


def singular_set(shape, fld, pts) -> set:
    """The singular points among pts, by the Jacobian test
    (strata.is_singular) at every point."""
    return {pt for pt in pts if strata.is_singular(shape, fld, pt)}


# -- the reference proof of the flow group law -------------------------------


def substitute(f, images):
    """The composition f(images[0], ..., images[n-1]): one polynomial per
    variable of f, all in one ring over the same field."""
    ring = images[0].ring
    out = ring.zero
    for e, c in f.terms.items():
        term = ring.const(c)
        for i, k in enumerate(e):
            if k:
                term = term * images[i] ** k
        out = out + term
    return out


def prove_group_law(d):
    """Check exp(delta) o exp(u*delta) = exp((u+1)*delta) modulo the
    equation by symbolic substitution over the derivation's field, with u
    an extra ring variable, from the flow_polynomial series: the law that
    the closed form gives every catalog flow as an identity of integer
    polynomials, checked by computation."""
    n = d.ring.nvars
    ring = PolyRing(d.field, d.ring.names + ("u",))
    xs = [ring.var(i) for i in range(n)]
    u = ring.var(n)
    g = substitute(d.shape.equation(d.field), xs)
    series = {v: d.divided_power_series(v) for v in d.moving_variables()}
    flow = list(xs)  # exp(u*delta) on each variable
    for v, polys in series.items():
        acc, upow = ring.zero, ring.one
        for P in polys:
            acc = acc + substitute(P, xs) * upow
            upow = upow * u
        flow[v] = acc.reduce_mod(g)
    shifted = xs + [u + ring.one]
    for v, polys in series.items():
        stepped = ring.zero  # exp(delta) applied after exp(u*delta)
        for P in polys:
            stepped = stepped + substitute(P, flow)
        if not (stepped - substitute(flow[v], shifted)).reduce_mod(g).is_zero():
            return False
    return True
