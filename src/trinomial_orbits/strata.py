"""Vanishing-set combinatorics: strata U(S), singular components, linked sets.

S is a set of variables; U(S) is the locus of variety points whose
coordinates vanish exactly on S, and X(S) its closure.  Irreducible
components of the singular locus are cut out by one generator set per
group: a single exponent->=2 variable or a pair of exponent-1 variables.
N(S) collects the components containing U(S); the linked relation decides
which singular torus strata cannot be separated by component membership.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .errors import EmptyStratum, PointNotOnVariety
from .records import record
from .shapes import TrinomialShape, shape_fact


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


def _nonzero_values(exps, p) -> dict:
    """Monomial value -> the first sub-tuple of nonzero coordinates of one
    group giving it (the empty group is the free term 1)."""
    table = {1: ()}
    for k, e in enumerate(exps, start=1):
        size = (p - 1) // gcd(p - 1, *exps[:k])  # the values form this subgroup
        powers = {}
        for x in range(1, p):
            powers.setdefault(pow(x, e, p), x)
        nxt = {}
        for m, sub in table.items():
            for w, x in powers.items():
                nxt.setdefault(m * w % p, sub + (x,))
            if len(nxt) == size:
                break
        table = nxt
    return table


def _nonzero_witness(shape: TrinomialShape, p: int, live):
    """Nonzero coordinates of the live groups whose monomials sum to 0 over
    F_p, one sub-tuple per live group, or None when there are none."""
    *first, last = (_nonzero_values(shape.groups[g], p) for g in live)
    for combo in product(*(t.items() for t in first)):
        need = -sum(m for m, _ in combo) % p
        if need in last:
            return [sub for _, sub in combo] + [last[need]]
    return None


def stratum_point(shape: TrinomialShape, fld, S):
    """An explicit point of U(S), or EmptyStratum.

    Vanishing variables are 0.  If at least two monomials survive S, all
    other variables are 1 except one adjusting variable v, solved from the
    one-remaining-monomial cancellation v^l = -(rest) via k-th roots.  When
    no variable admits that root, over F_p the live groups' nonzero value
    tables are searched for a point, so EmptyStratum(structural=False)
    means U(S) has no F_p-point; over Q it only means that construction
    found no witness, and U(S) may still have rational points.  With
    precisely one surviving monomial the stratum is empty over every field
    (structural=True).
    """
    S = frozenset(S)
    if not S <= set(range(shape.n)):
        raise ValueError("variable set outside the shape")
    live = []
    for g in range(3):
        if not shape.groups[g]:
            live.append(g)  # the free term never vanishes
        elif not any(i in S for i in shape.group_indices(g)):
            live.append(g)

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
    candidates = [
        i
        for g in live
        for i in shape.group_indices(g)
        if i not in S
    ]
    candidates.sort(key=lambda i: (shape.exponents[i], i))
    for v in candidates:
        roots = fld.kth_roots(target, shape.exponents[v])
        roots = [r for r in roots if not fld.is_zero(r)]
        if roots:
            pt = list(base)
            pt[v] = min(roots) if fld.modulus else max(roots)
            return finish(pt)
    if fld.modulus:
        subs = _nonzero_witness(shape, fld.modulus, live)
        if subs is not None:
            pt = list(base)
            for g, sub in zip(live, subs):
                for i, x in zip(shape.group_indices(g), sub):
                    pt[i] = x
            return finish(pt)
    raise EmptyStratum(
        "no coordinate admits the required root over this field", structural=False
    )
