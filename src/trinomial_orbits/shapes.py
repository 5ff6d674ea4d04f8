"""The trinomial hypersurface data model.

A shape is three lists of positive exponents l_ij.  Group 0 may be empty,
in which case the first monomial is the constant 1 ("free term").  The
hypersurface is V(T0^l0 + T1^l1 + T2^l2) in affine n-space, n = n0+n1+n2,
with coordinates named T<group>_<index>.

This module owns validation, the equation, the rigidity/flexibility
classification, factoriality, the character lattice of the big torus, and
the permutation symmetry group of the equation.  A fact of the shape alone
is kept on the shape object (shape_fact); a fact of a (shape, field) pair,
such as the equation with its partials, in a cache of EQUATION_CACHE_SIZE
pairs.
"""

from __future__ import annotations

import json
import weakref
from functools import cached_property, lru_cache, wraps
from math import factorial, gcd

from . import intlinalg
from .errors import DegenerateShape, EmptyGroup12, NonPositiveExponent, ShapeError
from .polynomials import MissingCoordinate, PolyRing, Polynomial
from .records import field, record


@record(frozen=True)
class TrinomialShape:
    groups: tuple
    aliases: tuple = field(default=None, compare=False)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The frozen-record hash of the compared fields, (groups,),
        computed once: every (shape, field) cache lookup hashes the shape.
        aliases stay out of it."""
        return hash((self.groups,))

    # -- structure -----------------------------------------------------------

    @cached_property
    def sizes(self):
        return tuple(len(g) for g in self.groups)

    @cached_property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def is_free_term(self) -> bool:
        return len(self.groups[0]) == 0

    @cached_property
    def var_ids(self):
        """Canonical order: (group, 1-based index) pairs."""
        return tuple(
            (g, j + 1) for g in range(3) for j in range(len(self.groups[g]))
        )

    @cached_property
    def var_names(self):
        return tuple(f"T{g}_{j}" for g, j in self.var_ids)

    @cached_property
    def exponents(self):
        """Exponent of each variable, canonical order."""
        return tuple(l for g in self.groups for l in g)

    @cached_property
    def _group_ranges(self):
        """Canonical indices of each group's variables, computed once."""
        out, base = [], 0
        for grp in self.groups:
            out.append(tuple(range(base, base + len(grp))))
            base += len(grp)
        return tuple(out)

    def var_index(self, g: int, j: int) -> int:
        """Index in canonical order of T<g>_<j> (j is 1-based)."""
        if not (0 <= g <= 2 and 1 <= j <= len(self.groups[g])):
            raise ShapeError(f"no variable T{g}_{j} in this shape")
        return self._group_ranges[g][j - 1]

    def group_of(self, idx: int) -> int:
        return self.var_ids[idx][0]

    def group_indices(self, g: int):
        return self._group_ranges[g]

    @cached_property
    def name_index(self):
        """Variable name or alias -> canonical index; an alias wins over a
        canonical name it shadows."""
        index = {nm: i for i, nm in enumerate(self.var_names)}
        if self.aliases:
            index.update({al: i for i, al in enumerate(self.aliases)})
        return index

    def display_name(self, idx: int) -> str:
        if self.aliases:
            return self.aliases[idx]
        return self.var_names[idx]

    def degenerate_group(self):
        """Group i with n_i = 1 and l_i1 = 1, if any (then X = affine space)."""
        for g in range(3):
            if len(self.groups[g]) == 1 and self.groups[g][0] == 1:
                return g
        return None

    def require_nondegenerate(self):
        g = self.degenerate_group()
        if g is not None:
            raise DegenerateShape(
                f"group {g} is a single exponent-1 variable; X is an affine space"
            )

    # -- equation ------------------------------------------------------------

    def ring(self, fld) -> PolyRing:
        """The coordinate ring over fld, shared with the cached equation."""
        return _equation(self, fld)[0].ring

    def monomial_exps(self, g: int):
        """Exponent tuple of the g-th monomial (all-zero for the free term)."""
        exps = [0] * self.n
        for j, l in enumerate(self.groups[g]):
            exps[self.var_index(g, j + 1)] = l
        return tuple(exps)

    def equation(self, fld) -> Polynomial:
        """The trinomial over fld, built with its partials once per (shape,
        field) while the pair is among the EQUATION_CACHE_SIZE most recently
        used.  It is shared by every caller: do not mutate its terms."""
        return _equation(self, fld)[0]

    def partials(self, fld):
        """dF/dv for every variable v in canonical order, from the cached
        equation's entry."""
        return _equation(self, fld)[1]

    @cached_property
    def _monomial_terms(self):
        """Each monomial as a one-term list for the fields' eval_terms,
        coefficient 1 (the free term has no factors)."""
        exps = self.exponents
        return tuple(
            [(1, tuple((idx, exps[idx]) for idx in idxs))] for idxs in self._group_ranges
        )

    @cached_property
    def _equation_terms(self):
        """The three monomials as one term list for the fields' eval_terms:
        the equation in every field, as each coefficient is 1."""
        return [term for terms in self._monomial_terms for term in terms]

    def monomial_value(self, fld, pt, g: int):
        """Value of the g-th monomial at a point (1 for the free term)."""
        return fld.eval_terms(self._monomial_terms[g], pt)

    def on_variety(self, fld, pt) -> bool:
        """Does the point satisfy the equation?  Sums the shape's own
        field-independent terms, with no equation lookup.  A point with the
        wrong number of coordinates raises MissingCoordinate."""
        if len(pt) != self.n:
            raise MissingCoordinate(f"point has {len(pt)} coordinates, ring has {self.n}")
        return fld.is_zero(fld.eval_terms(self._equation_terms, pt))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        out = {"groups": [list(g) for g in self.groups]}
        if self.aliases:
            out["aliases"] = {
                name: alias
                for name, alias in zip(self.var_names, self.aliases)
                if alias != name
            }
        return out

    @classmethod
    def from_json(cls, data) -> "TrinomialShape":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ShapeError(f"shape text is not JSON: {exc}") from None
        if not isinstance(data, dict) or "groups" not in data:
            raise ShapeError("shape JSON must be an object with a 'groups' key")
        shape = validate_shape(data["groups"])
        alias_map = data.get("aliases") or {}
        if not isinstance(alias_map, dict) or not all(
            isinstance(al, str) for al in alias_map.values()
        ):
            raise ShapeError("aliases must be an object of variable name -> string")
        if alias_map:
            names = shape.var_names
            unknown = set(alias_map) - set(names)
            if unknown:
                raise ShapeError(f"aliases for unknown variables: {sorted(unknown)}")
            aliases = tuple(alias_map.get(nm, nm) for nm in names)
            if len(set(aliases)) != len(aliases):
                raise ShapeError("aliases must be distinct")
            shape = TrinomialShape(shape.groups, aliases)
        return shape

    def __str__(self):
        return "[" + ", ".join(str(list(g)) for g in self.groups) + "]"


EQUATION_CACHE_SIZE = 8  # entries kept by each (shape, field) cache


@lru_cache(maxsize=EQUATION_CACHE_SIZE)
def _equation(shape: TrinomialShape, fld):
    """(equation, partials) of TrinomialShape.equation and .partials, cached.
    Bounded, because a survey of many shapes uses each (shape, field) pair
    only for a short while."""
    ring = PolyRing(fld, shape.var_names)
    eq = ring.from_terms({shape.monomial_exps(g): fld.one for g in range(3)})
    return eq, tuple(eq.partial(v) for v in range(shape.n))


def shape_fact(fn):
    """Decorator: fn(shape, *args) is computed once per shape object and
    args, and kept in its __dict__ (in a dict of args under the name when
    there are any: dir(shape) needs string keys), so the fact lives exactly
    as long as the shape."""
    name = f"{fn.__module__}.{fn.__name__}"

    @wraps(fn)
    def fact(shape, *args):
        facts, key = shape.__dict__, name
        if args:
            facts, key = facts.setdefault(name, {}), args
        if key not in facts:
            facts[key] = fn(shape, *args)
        return facts[key]

    return fact


_LIVE_SHAPES = weakref.WeakValueDictionary()  # groups -> the live plain shape


def validate_shape(raw) -> TrinomialShape:
    """Validate three exponent lists into a shape.

    Group 0 may be empty (free term); groups 1 and 2 may not.  Degenerate
    shapes (some group is a single exponent-1 variable, so X is an affine
    space) validate fine but are flagged by degenerate_group().

    While a shape of these groups is alive it is returned again, so shapes
    parsed twice (one per CLI run, say) share their facts.
    """
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ShapeError("a shape is three lists of exponents")
    groups = []
    for g, grp in enumerate(raw):
        if not isinstance(grp, (list, tuple)):
            raise ShapeError(f"group {g} is not a list")
        for l in grp:
            if not isinstance(l, int) or isinstance(l, bool) or l < 1:
                raise NonPositiveExponent(f"exponent {l!r} in group {g}")
        groups.append(tuple(grp))
    if not groups[1] or not groups[2]:
        raise EmptyGroup12("groups 1 and 2 must be nonempty")
    groups = tuple(groups)
    return _LIVE_SHAPES.setdefault(groups, TrinomialShape(groups))


# ---------------------------------------------------------------------------
# rigidity / flexibility
# ---------------------------------------------------------------------------

RIGID = "rigid"
FLEXIBLE = "flexible"
NONRIGID_OTHER = "nonrigid_other"


@record(frozen=True)
class RigidityVerdict:
    tag: str
    h_type: str = None
    witnesses: tuple = ()

    def to_json(self):
        out = {"tag": self.tag}
        if self.h_type:
            out["h_type"] = self.h_type
        if self.witnesses:
            out["witnesses"] = [list(w) for w in self.witnesses]
        return out


def is_even_two_group(grp) -> bool:
    """Nonempty, all exponents even, one of them exactly 2."""
    return bool(grp) and all(l % 2 == 0 for l in grp) and 2 in grp


@shape_fact
def nonrigidity_witnesses(shape: TrinomialShape):
    """Witnesses for the two non-rigidity conditions.

    Condition 1: some exponent equals 1 -> ("power_one", i, a).
    Condition 2: no free term, two distinct all-even groups each containing
    an exponent exactly 2 -> ("even_pair", i, j, a, b).
    Indices a, b are 1-based positions within their group.
    """
    wits = []
    for g in range(3):
        for j, l in enumerate(shape.groups[g]):
            if l == 1:
                wits.append(("power_one", g, j + 1))
    if not shape.is_free_term:
        even_groups = {}
        for g in range(3):
            grp = shape.groups[g]
            if is_even_two_group(grp):
                even_groups[g] = grp.index(2) + 1
        keys = sorted(even_groups)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                gi, gj = keys[i], keys[j]
                wits.append(("even_pair", gi, gj, even_groups[gi], even_groups[gj]))
    return tuple(wits)


def match_h_type(shape: TrinomialShape):
    """Which flexible-table row the shape matches, up to renumbering.

    The free slot may only stand in a generic-monomial position (the rows
    whose other slots carry an explicit exponent pattern).  Priority follows
    the table order H1..H5.
    """
    groups = shape.groups
    nonempty = [g for g in range(3) if groups[g]]
    if any(all(l == 1 for l in groups[g]) for g in nonempty):
        return "H1"
    if sum(1 for g in nonempty if all(l == 2 for l in groups[g])) >= 2:
        return "H2"
    if sum(1 for g in nonempty if 1 in groups[g]) >= 2:
        return "H3"
    for g in nonempty:
        if 1 in groups[g]:
            others = [h for h in range(3) if h != g]
            if all(is_even_two_group(groups[h]) for h in others):
                return "H4"
    if len(nonempty) == 3 and all(is_even_two_group(groups[g]) for g in range(3)):
        return "H5"
    return None


def rigidity_classify(shape: TrinomialShape) -> RigidityVerdict:
    """Rigid / Flexible(H-type) / non-rigid-other, with witnesses.

    Flexible is claimed only for non-rigid pattern matches: a free-term
    shape can pattern-match a table row in the generic slot and still be
    rigid (the non-rigidity conditions both need more).
    """
    shape.require_nondegenerate()
    wits = nonrigidity_witnesses(shape)
    if not wits:
        return RigidityVerdict(RIGID)
    h = match_h_type(shape)
    if h is not None:
        return RigidityVerdict(FLEXIBLE, h_type=h, witnesses=wits)
    return RigidityVerdict(NONRIGID_OTHER, witnesses=wits)


# ---------------------------------------------------------------------------
# factoriality
# ---------------------------------------------------------------------------


@record(frozen=True)
class Factoriality:
    d: tuple  # (d0 or None, d1, d2)
    is_factorial: bool
    applicable: bool = True

    def to_json(self):
        return {
            "d": [x for x in self.d],
            "is_factorial": self.is_factorial if self.applicable else None,
            "applicable": self.applicable,
        }


def factoriality(shape: TrinomialShape) -> Factoriality:
    """gcds d_i per group and the pairwise-coprimality verdict.

    Free term: factorial iff d1 = d2 = 1.  The no-free-term criterion needs
    every group non-degenerate; otherwise the verdict is not applicable.
    """
    ds = [gcd(*grp) if len(grp) > 1 else (grp[0] if grp else None) for grp in shape.groups]
    if shape.is_free_term:
        ok = ds[1] == 1 and ds[2] == 1
        return Factoriality((None, ds[1], ds[2]), ok)
    if shape.degenerate_group() is not None:
        return Factoriality(tuple(ds), False, applicable=False)
    ok = all(
        gcd(ds[i], ds[j]) == 1 for i in range(3) for j in range(i + 1, 3)
    )
    return Factoriality(tuple(ds), ok)


# ---------------------------------------------------------------------------
# torus character lattice
# ---------------------------------------------------------------------------


@record(frozen=True)
class LatticeBasis:
    vectors: tuple
    rank: int

    def to_json(self):
        return {"rank": self.rank, "basis": [list(v) for v in self.vectors]}


def constraint_rows(shape: TrinomialShape):
    """Integer rows A with ker A = one-parameter subgroups of the torus.

    A weight vector a acts by t.T_ij = t^(a_ij) T_ij; it stabilizes the
    span of the equation iff the three monomials get equal weight, i.e.
    <l0,a0> = <l1,a1> = <l2,a2> (the free term forcing weight 0).
    """
    m0, m1, m2 = map(shape.monomial_exps, range(3))
    if shape.is_free_term:
        return [list(m1), list(m2)]
    return [[x - y for x, y in zip(m0, m1)], [x - y for x, y in zip(m1, m2)]]


@shape_fact
def torus_lattice(shape: TrinomialShape) -> LatticeBasis:
    """Saturated basis of the one-parameter-subgroup lattice of the torus.

    The integer kernel of the constraint rows is automatically saturated;
    the rank is n-2 whenever both rows are nonzero.
    """
    basis = intlinalg.kernel_basis(constraint_rows(shape))
    return LatticeBasis(tuple(tuple(v) for v in basis), len(basis))


@shape_fact
def torus_smith(shape: TrinomialShape, coords: tuple) -> tuple:
    """Smith form (D, U, V, U_inv), as row tuples, of the torus lattice
    basis read at coords: one row per coordinate, one column per vector.
    Every prime's strata and every torus step of the shape read it here."""
    basis = torus_lattice(shape).vectors
    rows = [[vec[i] for vec in basis] for i in coords]
    return tuple(tuple(map(tuple, M)) for M in intlinalg.smith_normal_form(rows))


def torus_scaling(shape: TrinomialShape, fld, multipliers):
    """Coordinates of the torus element with the given lattice multipliers.

    Building elements through the lattice parametrization (never
    coordinatewise) is what keeps them in the neutral component.  Each
    coordinate is the power product of the multipliers over its column of
    exponents (a zero multiplier at a negative exponent raises
    ZeroDivisionError).
    """
    basis = torus_lattice(shape).vectors
    if len(multipliers) != len(basis):
        raise ValueError("one multiplier per basis vector")
    if not basis:
        return (fld.one,) * shape.n
    return tuple(fld.power_product(multipliers, column) for column in zip(*basis))


# ---------------------------------------------------------------------------
# symmetry group
# ---------------------------------------------------------------------------


@record(frozen=True)
class SymmetryGroup:
    generators: tuple  # variable permutations, each a tuple i -> sigma(i)
    order: int


@shape_fact
def symmetry_group(shape: TrinomialShape) -> SymmetryGroup:
    """Variable permutations stabilizing the equation.

    Generators: transpositions of same-group variables with equal exponent,
    plus whole-group swaps between groups with identical exponent multisets
    (the empty group 0 never swaps with a nonempty one); each generator is
    verified to fix the equation as a polynomial.  The order is read from
    the exponent multisets: the product of m! over each group's classes of
    m equal exponents, times k! for each class of k identical nonempty
    groups.  No element is listed.
    """
    n = shape.n
    gens, order = [], 1
    for g in range(3):
        idxs = shape.group_indices(g)
        by_exp = {}
        for idx in idxs:
            by_exp.setdefault(shape.exponents[idx], []).append(idx)
        for cls in by_exp.values():
            order *= factorial(len(cls))
            for a, b in zip(cls, cls[1:]):
                perm = list(range(n))
                perm[a], perm[b] = b, a
                gens.append(tuple(perm))
    for h in range(3):
        twins = 1  # h and the earlier groups identical to it
        for g in range(h):
            if not shape.groups[g] or not shape.groups[h]:
                continue
            if sorted(shape.groups[g]) != sorted(shape.groups[h]):
                continue
            twins += 1
            src = sorted(shape.group_indices(g), key=lambda i: (shape.exponents[i], i))
            dst = sorted(shape.group_indices(h), key=lambda i: (shape.exponents[i], i))
            perm = list(range(n))
            for a, b in zip(src, dst):
                perm[a], perm[b] = b, a
            gens.append(tuple(perm))
        order *= twins  # the k-th of k identical groups: k! over the class
    from .fields import QQ

    eq = shape.equation(QQ)
    for perm in gens:
        if eq.rename(perm) != eq:
            raise AssertionError(f"symmetry generator {perm} does not fix the equation")
    return SymmetryGroup(tuple(gens), order)


def apply_permutation_to_point(perm, pt):
    """Point image under the coordinate relabeling i -> perm[i]."""
    out = [None] * len(pt)
    for i, v in enumerate(pt):
        out[perm[i]] = v
    return tuple(out)
