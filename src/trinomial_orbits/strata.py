"""Vanishing-set combinatorics: strata U(S), singular components, linked sets.

S is a set of variables; U(S) is the locus of variety points whose
coordinates vanish exactly on S, and X(S) its closure.  Irreducible
components of the singular locus are cut out by one generator set per
group: a single exponent->=2 variable or a pair of exponent-1 variables.
N(S) collects the components containing U(S); the linked relation decides
which singular torus strata cannot be separated by component membership.
"""

from __future__ import annotations

from itertools import chain, product
from math import gcd, prod
from operator import mul

from .errors import EmptyStratum, PointNotOnVariety
from .intlinalg import mat_mul, mat_vec
from .records import record
from .shapes import TrinomialShape, shape_fact, torus_lattice, torus_smith


@record(frozen=True)
class SingComponent:
    generators: frozenset

    def names(self, shape):
        return sorted(shape.display_name(i) for i in self.generators)


def var_set_from_names(shape: TrinomialShape, names) -> frozenset:
    index = shape.name_index
    out = set()
    for nm in names:
        if not isinstance(nm, str) or nm not in index:
            raise KeyError(f"unknown variable {nm!r}")
        out.add(index[nm])
    return frozenset(out)


def var_set_to_json(shape: TrinomialShape, S) -> dict:
    return {"vars": sorted(shape.var_names[i] for i in S)}


def support_zero_set(shape: TrinomialShape, fld, pt) -> frozenset:
    """The exact vanishing set of a variety point."""
    if not shape.on_variety(fld, pt):
        raise PointNotOnVariety("point does not satisfy the equation")
    return frozenset(i for i, v in enumerate(pt) if fld.is_zero(v))


def is_singular(shape: TrinomialShape, fld, pt) -> bool:
    """All partials of the equation vanish at the point.

    Over F_p with p dividing some exponent this is the reduced-equation
    Jacobian, which can disagree with the characteristic-zero picture;
    oracle callers pick p coprime to the exponents.
    """
    if not shape.on_variety(fld, pt):
        raise PointNotOnVariety("point does not satisfy the equation")
    for partial in shape.partials(fld):
        if not fld.is_zero(partial.eval(pt)):
            return False
    return True


@shape_fact
def singular_components(shape: TrinomialShape):
    """All irreducible components of the singular locus.

    Per nonempty group the generator set takes either one exponent->=2
    variable or a pair of exponent-1 variables; the component is the product
    of one choice per group.  Free-term hypersurfaces are smooth (the
    constant monomial forces 1 = 0 at any critical point): no components.
    """
    if shape.is_free_term:
        return ()
    per_group = []
    for g in range(3):
        idxs = shape.group_indices(g)
        heavy = [frozenset([i]) for i in idxs if shape.exponents[i] >= 2]
        light = [i for i in idxs if shape.exponents[i] == 1]
        pairs = [
            frozenset([light[a], light[b]])
            for a in range(len(light))
            for b in range(a + 1, len(light))
        ]
        choices = heavy + pairs
        if not choices:
            return ()  # some group cannot vanish to second order: smooth
        per_group.append(choices)
    out = [frozenset()]
    for choices in per_group:
        out = [acc | ch for acc in out for ch in choices]
    return tuple(SingComponent(s) for s in out)


def n_set(shape: TrinomialShape, S):
    """Components whose generators all lie in S (so X(S) sits inside them)."""
    return [comp for comp in singular_components(shape) if comp.generators <= S]


def containing_components(shape: TrinomialShape, fld, S):
    """N(S) for a stratum with a point; EmptyStratum as stratum_point
    raises it (over Q: no witness found, not a proof that U(S) is empty)."""
    stratum_point(shape, fld, S)
    return n_set(shape, S)


def linked(shape: TrinomialShape, S, P) -> bool:
    """The linked relation on vanishing sets.

    Per group the parts must be equal, or both of the form A or A + one
    exponent-1 variable for one nonempty set A of exponent->=2 variables.
    """
    for g in range(3):
        Sg = frozenset(i for i in S if shape.group_of(i) == g)
        Pg = frozenset(i for i in P if shape.group_of(i) == g)
        if Sg == Pg:
            continue
        heavy_S = frozenset(i for i in Sg if shape.exponents[i] >= 2)
        heavy_P = frozenset(i for i in Pg if shape.exponents[i] >= 2)
        if not heavy_S or heavy_S != heavy_P:
            return False
        if len(Sg - heavy_S) > 1 or len(Pg - heavy_P) > 1:
            return False
    return True


def _live_groups(shape: TrinomialShape, S) -> list:
    """The variable indices of each group whose monomial survives S, holding
    no variable of S; the free term always survives."""
    return [grp for grp in map(shape.group_indices, range(3)) if not any(i in S for i in grp)]


def stratum_orbits(shape: TrinomialShape, fld, S):
    """The T(F_p)-orbits of U(S) over a prime field: the number of cosets
    to test, and a lazy iterator of one (representative, size) pair each.

    Write the nonzero coordinates of a point in discrete logs to the
    field's primitive root.  On the points with support S^c (the nonzero
    coordinates), T acts through H, the image mod p-1 of W, the rows of
    the torus lattice basis at S^c.  The Smith form U W V = D turns
    (Z/(p-1))^(S^c) / H into the box 0 <= c_i < gcd(d_i, p-1) (d_i = 0
    past the rank), each c the coset of x = U^-1 c.  H acts freely, so each
    coset is one orbit of |H| = (p-1)^|S^c| / prod gcd(d_i, p-1) points,
    and X is T-invariant, so a coset lies on X when its representative
    does: a monomial's log at x = U^-1 c is (l U^-1) c, for its exponent
    row l.  D and U^-1 come from one elimination, kept on the shape for
    S^c (torus_smith), so every prime and every repeated census reads the
    same one; the box size is known from it before any coset is tested.  A
    stratum where one monomial alone survives holds no point: (0, empty).
    """
    p = fld.modulus
    order = p - 1
    support = [i for i in range(shape.n) if i not in S]
    alive = _live_groups(shape, S)
    if len(alive) == 1:
        return 0, iter(())
    rank = torus_lattice(shape).rank
    D, _, _, inverse = torus_smith(shape, tuple(support))
    moduli = [gcd(D[i][i] if i < rank else 0, order) for i in range(len(support))]
    box = prod(moduli)
    size = order ** len(support) // box
    exps = shape.exponents
    logs = mat_mul([[exps[i] if i in grp else 0 for i in support] for grp in alive], inverse)
    power = fld.powers()

    def cosets():
        for c in product(*map(range, moduli)):
            if sum(power[sum(map(mul, row, c)) % order] for row in logs) % p:
                continue
            pt = [0] * shape.n
            for i, x in zip(support, mat_vec(inverse, c)):
                pt[i] = power[x % order]
            yield tuple(pt), size

    return box, cosets()


def stratum_point(shape: TrinomialShape, fld, S):
    """An explicit point of U(S), or EmptyStratum.

    Vanishing variables are 0.  If at least two monomials survive S, all
    other variables are 1 except one adjusting variable v, solved from the
    one-remaining-monomial cancellation v^l = -(rest) via k-th roots.  When
    no variable admits that root, over F_p the point is the first
    representative of stratum_orbits, so EmptyStratum(structural=False)
    means U(S) has no F_p-point; over Q it only means that construction
    found no witness, and U(S) may still have rational points.  With
    precisely one surviving monomial the stratum is empty over every field
    (structural=True).
    """
    S = frozenset(S)
    if not S <= set(range(shape.n)):
        raise ValueError("variable set outside the shape")
    live = _live_groups(shape, S)

    def finish(pt):
        if not shape.on_variety(fld, pt):
            raise AssertionError("stratum point construction left the variety")
        return tuple(pt)

    base = [fld.zero if i in S else fld.one for i in range(shape.n)]
    if not live:
        return finish(base)
    if len(live) == 1:
        raise EmptyStratum(
            "exactly one monomial survives; it cannot vanish on nonzero coordinates",
            structural=True,
        )
    # every live monomial is 1 at base: v^l must cancel the other len(live) - 1
    target = fld.from_int(1 - len(live))
    for v in sorted(chain(*live), key=lambda i: (shape.exponents[i], i)):
        roots = fld.kth_roots(target, shape.exponents[v])
        roots = [r for r in roots if not fld.is_zero(r)]
        if roots:
            pt = list(base)
            pt[v] = min(roots) if fld.modulus else max(roots)
            return finish(pt)
    if fld.modulus:
        for pt, _ in stratum_orbits(shape, fld, S)[1]:
            return finish(pt)
    raise EmptyStratum(
        "no coordinate admits the required root over this field", structural=False
    )
