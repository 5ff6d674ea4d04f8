"""Automorphism-orbit stratification.

For the unique-power-one family F1 the connected-group orbits are fully
described: the open stratum (all y nonzero), the component strata O(M,r)
(y vanishing exactly on M, both remaining monomials nonzero, labeled by the
exact root ratio r with r^d = -1), and the singular torus strata
O1/O2(M,P,Q) split by x != 0.  Full-group orbits are obtained by gluing
under the finite part (cyclic of order d, merging the r-labels) and the
equation symmetries.

The several-power-one family F2 gets the analogous strata conditionally on
the Makar-Limanov conjecture for the family (assume_conjecture).  Rigid
shapes get torus strata; flexible all-exponents>=2 shapes get the regular
stratum plus singular torus strata.

The transporter emits an explicit automorphism word (a neutral-torus step
through the lattice parametrization plus one-parameter flows) mapping one
point to another inside the open or component strata.
"""

from __future__ import annotations

from . import strata
from .derivations import catalog_index
from .errors import (
    CharacteristicTooSmall,
    ConjectureNotAssumed,
    DifferentOrbits,
    DlogUnsolvable,
    PointNotOnVariety,
    RootUnavailable,
    UnsupportedFamily,
)
from .families import family_of
from .records import fields, record
from .shapes import (
    TrinomialShape,
    apply_permutation_to_point,
    shape_fact,
    symmetry_group,
    torus_lattice,
    torus_scaling,
    torus_smith,
)

# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@record(frozen=True)
class BigO:
    pass


@record(frozen=True)
class OMeps:
    M: frozenset
    r: object


@record(frozen=True)
class O1:
    M: frozenset
    P: frozenset
    Q: frozenset


@record(frozen=True)
class O2:
    M: frozenset
    P: frozenset
    Q: frozenset


@record(frozen=True)
class DDBigO:
    pass


@record(frozen=True)
class DDOMeps:
    M: frozenset
    r: object


@record(frozen=True)
class DD:
    K: frozenset
    M: frozenset
    P: frozenset
    Q: frozenset


@record(frozen=True)
class TorusStratum:
    S: frozenset


@record(frozen=True)
class RegularFlex:
    pass


@record(frozen=True)
class SingTorus:
    S: frozenset


_DESCRIPTOR_TYPES = {
    "O": BigO,
    "DDO": DDBigO,
    **{
        cls.__name__: cls
        for cls in (OMeps, O1, O2, DDOMeps, DD, TorusStratum, RegularFlex, SingTorus)
    },
}
_TYPE_NAMES = {cls: name for name, cls in _DESCRIPTOR_TYPES.items()}


def descriptor_to_json(desc, shape: TrinomialShape = None, fld=None) -> dict:
    """{"type": name} plus one key per field: r as a field element, S as
    variable names under "vars", every other set as sorted indices."""
    name = _TYPE_NAMES.get(type(desc))
    if name is None:
        raise TypeError(f"not a descriptor: {desc!r}")
    out = {"type": name}
    for f in fields(desc):
        value = getattr(desc, f.name)
        if f.name == "r":
            out["r"] = fld.fmt(value)
        elif f.name == "S":
            out["vars"] = sorted(shape.var_names[i] for i in value)
        else:
            out[f.name] = sorted(value)
    return out


def descriptor_from_json(data: dict, shape: TrinomialShape = None, fld=None):
    """Inverse of descriptor_to_json."""
    cls = _DESCRIPTOR_TYPES.get(data["type"])
    if cls is None:
        raise ValueError(f"unknown descriptor type {data['type']!r}")
    values = {}
    for f in fields(cls):
        if f.name == "r":
            values["r"] = fld.parse(data["r"])
        elif f.name == "S":
            index = {nm: i for i, nm in enumerate(shape.var_names)}
            values["S"] = frozenset(index[nm] for nm in data["vars"])
        else:
            values[f.name] = frozenset(data[f.name])
    return cls(**values)


# ---------------------------------------------------------------------------
# Makar-Limanov generators
# ---------------------------------------------------------------------------


@record(frozen=True)
class MLVerdict:
    status: str  # proven | conjectural | whole_ring | constants | unknown
    generators: tuple  # variable indices

    def to_json(self, shape):
        return {
            "status": self.status,
            "generators": [shape.var_names[i] for i in self.generators],
        }


def ml_generators(shape: TrinomialShape) -> MLVerdict:
    """Generators of the ring of flow-invariant functions.

    F1: the y-variables (a theorem).  F2: the same, conjecturally.  Rigid:
    every variable (no flows at all).  Flexible: constants only.
    """
    tag = family_of(shape)
    if tag.kind == "F1":
        return MLVerdict("proven", tag.f1.ys)
    if tag.kind == "F2":
        return MLVerdict("conjectural", tag.f2.ys)
    if tag.kind == "rigid":
        return MLVerdict("whole_ring", tuple(range(shape.n)))
    if tag.kind == "flexible_h":
        return MLVerdict("constants", ())
    return MLVerdict("unknown", ())


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _vanishing(fld, pt, idxs):
    """1-based positions whose coordinate vanishes."""
    return frozenset(k for k, i in enumerate(idxs, start=1) if fld.is_zero(pt[i]))


def _root_ratio(fld, pt, view):
    """r = prod z^(b/d) / prod s^(c/d); satisfies r^d = -1 on the stratum."""
    d = view.d
    bases = [pt[i] for i in view.zs + view.ss]
    return fld.power_product(bases, [b // d for b in view.b] + [-(c // d) for c in view.c])


def classify_point(shape: TrinomialShape, fld, pt, assume_conjecture: bool = False):
    """The orbit descriptor of a variety point."""
    if not shape.on_variety(fld, pt):
        raise PointNotOnVariety("point does not satisfy the equation")
    tag = family_of(shape)
    if tag.kind == "F1":
        view = tag.f1
        M = _vanishing(fld, pt, view.ys)
        if not M:
            return BigO()
        P = _vanishing(fld, pt, view.zs)
        Q = _vanishing(fld, pt, view.ss)
        if not P and not Q:
            return OMeps(M, _root_ratio(fld, pt, view))
        if not (bool(P) == bool(Q) if view.q else not P):
            raise AssertionError("on the variety the two live monomials vanish together")
        if fld.is_zero(pt[view.x]):
            return O2(M, P, Q)
        return O1(M, P, Q)
    if tag.kind == "F2":
        if not assume_conjecture:
            raise ConjectureNotAssumed(
                "orbit classification for the several-power-one family is "
                "conditional; pass assume_conjecture"
            )
        view = tag.f2
        K = _vanishing(fld, pt, view.xs)
        M = _vanishing(fld, pt, view.ys)
        P = _vanishing(fld, pt, view.zs)
        Q = _vanishing(fld, pt, view.ss)
        if not P and not Q:
            # no y vanishes: the open orbit, however many x's vanish
            return DDOMeps(M, _root_ratio(fld, pt, view)) if M else DDBigO()
        if not M and len(K) < 2:
            return DDBigO()
        if 2 * len(M) + len(K) < 2:
            raise AssertionError("a DD stratum has 2|M| + |K| >= 2")
        return DD(K, M, P, Q)
    if tag.kind == "rigid":
        return TorusStratum(strata.support_zero_set(shape, fld, pt))
    if tag.kind == "flexible_h":
        if strata.is_singular(shape, fld, pt):
            if all(l >= 2 for l in shape.exponents):
                return SingTorus(strata.support_zero_set(shape, fld, pt))
            raise UnsupportedFamily(
                f"no singular-orbit statement for flexible type {tag.h_type} "
                "with exponent-1 variables"
            )
        return RegularFlex()
    raise UnsupportedFamily("no orbit statement for this family")


def descriptor_dim(shape: TrinomialShape, desc) -> int:
    """Orbit dimension for the unique-power-one family."""
    tag = family_of(shape)
    if tag.kind != "F1":
        raise UnsupportedFamily("dimensions are stated for the power-one family")
    v = tag.f1
    full = v.m + v.p + v.q
    if isinstance(desc, BigO):
        return full
    if isinstance(desc, OMeps):
        return full - len(desc.M)
    if isinstance(desc, O1):
        return full + 1 - len(desc.M) - len(desc.P) - len(desc.Q)
    if isinstance(desc, O2):
        return full - len(desc.M) - len(desc.P) - len(desc.Q)
    raise UnsupportedFamily(f"no dimension formula for {type(desc).__name__}")


# ---------------------------------------------------------------------------
# special-automorphism orbits
# ---------------------------------------------------------------------------


@record(frozen=True)
class Sheet:
    y_values: tuple


@record(frozen=True)
class LineOrbit:
    point: tuple


@record(frozen=True)
class FixedPoint:
    pass


def saut_descriptor(shape: TrinomialShape, fld, pt):
    """Flow-group orbit type: a p+q-dimensional sheet (all y nonzero, labeled
    by the y-values), a line (some y zero, z and s monomials alive), or a
    fixed singular point."""
    if not shape.on_variety(fld, pt):
        raise PointNotOnVariety("point does not satisfy the equation")
    tag = family_of(shape)
    if tag.kind != "F1":
        raise UnsupportedFamily("flow-orbit shapes are stated for the power-one family")
    view = tag.f1
    yv = tuple(pt[i] for i in view.ys)
    if all(not fld.is_zero(v) for v in yv):
        return Sheet(yv)
    alive = all(not fld.is_zero(pt[i]) for i in view.zs) and all(
        not fld.is_zero(pt[i]) for i in view.ss
    )
    if alive:
        return LineOrbit(tuple(pt))
    return FixedPoint()


def saut_to_json(desc, shape, fld):
    if isinstance(desc, Sheet):
        return {"type": "Sheet", "y": [fld.fmt(v) for v in desc.y_values]}
    if isinstance(desc, LineOrbit):
        return {"type": "Line", "witness": [fld.fmt(v) for v in desc.point]}
    return {"type": "FixedPoint"}


# ---------------------------------------------------------------------------
# orbit counting and gluing
# ---------------------------------------------------------------------------


def _subsets(n):
    out = []
    for mask in range(1, 1 << n):
        out.append(frozenset(i + 1 for i in range(n) if mask >> i & 1))
    return out


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


@record
class OrbitCount:
    aut_alg: int
    aut: int
    listing: list  # glued classes as sorted lists of stratum labels

    def to_json(self):
        return {"aut_alg": self.aut_alg, "aut": self.aut, "listing": self.listing}


def _label(kind, *sets):
    return (kind,) + tuple(tuple(sorted(s)) for s in sets)


def label_str(label) -> str:
    kind = label[0]
    if kind == "O":
        return "O"
    if kind == "O(M)":
        return "O(M={" + ",".join(str(i) for i in label[1]) + "})"
    names = ("M", "P", "Q")
    body = ",".join(
        f"{nm}={{{','.join(str(i) for i in s)}}}" for nm, s in zip(names, label[1:])
    )
    return f"{kind}({body})"


def _act(perm, view, label):
    """The label of the image stratum under a symmetry permutation.

    The label's y/z/s positions become variables, perm moves them, and the
    images are read back as y/z/s positions; a permutation swapping the z
    and s groups thereby sends P to Q and Q to P.
    """
    slots = (view.ys, view.zs, view.ss)[: len(label) - 1]
    images = {perm[slot[k - 1]] for slot, part in zip(slots, label[1:]) for k in part}
    parts = ({k for k, v in enumerate(slot, start=1) if v in images} for slot in slots)
    return _label(label[0], *parts)


def orbit_count(shape: TrinomialShape) -> OrbitCount:
    """Count and list orbits for the unique-power-one family.

    Connected-group strata are enumerated abstractly (component labels
    0..d-1 stand for the d root ratios); the count must equal
    1 + (2^m - 1) d + 2 (2^m - 1)(2^p - 1)(2^q - 1).  Full-group classes
    glue the component labels (the finite cyclic part) and then the
    symmetry-group action on (M, P, Q).
    """
    tag = family_of(shape)
    if tag.kind != "F1":
        raise UnsupportedFamily("orbit counting is stated for the power-one family")
    view = tag.f1
    m, p, q, d = view.m, view.p, view.q, view.d
    aut_alg = (
        1
        + (2**m - 1) * d
        + 2 * (2**m - 1) * (2**p - 1) * (2**q - 1)
    )

    glued = [_label("O")]
    glued += [_label("O(M)", M) for M in _subsets(m)]
    singular = []
    for M in _subsets(m):
        for P in _subsets(p):
            for Q in _subsets(q):
                singular.append(_label("O1", M, P, Q))
                singular.append(_label("O2", M, P, Q))
    glued += singular

    uf = _UnionFind(glued)
    for perm in symmetry_group(shape).generators:
        if perm[view.x] != view.x:
            raise AssertionError("a symmetry moved the power-one variable")
        for label in glued:
            uf.union(label, _act(perm, view, label))
    classes = uf.classes()
    listing = sorted(
        [sorted(label_str(lb) for lb in cls) for cls in classes],
        key=lambda cls: (len(cls[0]), cls),
    )
    return OrbitCount(aut_alg, len(classes), listing)


# ---------------------------------------------------------------------------
# transporter
# ---------------------------------------------------------------------------


@record(frozen=True)
class TorusStep:
    coords: tuple

    def apply(self, fld, pt):
        """The point scaled coordinatewise by the torus element."""
        return tuple(fld.mul(c, v) for c, v in zip(self.coords, pt))

    def to_json(self, fld):
        return {"step": "torus", "coords": [fld.fmt(c) for c in self.coords]}


@record(frozen=True)
class FlowStep:
    designator: str
    u: object

    def to_json(self, fld):
        return {"step": "flow", "derivation": self.designator, "u": fld.fmt(self.u)}


@record(frozen=True)
class PermStep:
    perm: tuple

    def to_json(self, fld):
        return {"step": "perm", "perm": list(self.perm)}


@record
class AutWord:
    steps: tuple

    def apply(self, shape: TrinomialShape, fld, pt):
        """The image of pt under the steps, in order.

        A flow checks its source on X (PointNotOnVariety) only when the
        step before it was no flow: the input point, and the output of a
        torus step, which a word read by from_json may hold off the
        lattice, or of a perm step.  After a flow the source is that
        flow's image, which every flow checks on X
        (CharacteristicTooSmall).
        """
        cur = tuple(pt)
        catalog = None
        after_flow = False
        for step in self.steps:
            if isinstance(step, TorusStep):
                cur = step.apply(fld, cur)
            elif isinstance(step, FlowStep):
                if catalog is None:
                    catalog = catalog_index(shape, fld)
                delta = catalog[step.designator]
                flow = delta._image_on_variety if after_flow else delta.exp_flow
                cur = flow(step.u, cur)
            elif isinstance(step, PermStep):
                cur = apply_permutation_to_point(step.perm, cur)
            else:
                raise TypeError(f"unknown step {step!r}")
            after_flow = isinstance(step, FlowStep)
        return cur

    def to_json(self, fld):
        return {"steps": [s.to_json(fld) for s in self.steps]}

    @classmethod
    def from_json(cls, fld, data):
        steps = []
        for s in data["steps"]:
            if s["step"] == "torus":
                steps.append(TorusStep(tuple(fld.parse(c) for c in s["coords"])))
            elif s["step"] == "flow":
                steps.append(FlowStep(s["derivation"], fld.parse(s["u"])))
            elif s["step"] == "perm":
                steps.append(PermStep(tuple(s["perm"])))
            else:
                raise ValueError(f"unknown step kind {s!r}")
        return cls(tuple(steps))


def _solve_torus(fld, rank, smith, ratios):
    """Multipliers mu for the rank lattice basis vectors with
    prod_j mu_j^(A_ij) = ratio_i on each row i of the exponent matrix A,
    from smith = (D, U, V, U_inv) of A; rank ones when A has no rows.

    The unit group K^* is abelian, so U A V = D solves the system in it as
    over Z, with the field's own products and roots: c = r^U, then
    y_l^(d_l) = c_l coordinatewise (c_l = 1 past the rank, the smallest
    d_l-th root for d_l > 1), then mu = y^V.  No coordinate is factored,
    and over F_p a discrete log is read only for a d_l > 1, by kth_roots."""
    if not ratios:
        return [fld.one] * rank
    D, U, V, _ = smith
    ys = [fld.one] * rank
    for i, row in enumerate(U):
        c = fld.power_product(ratios, row)
        d = D[i][i] if i < len(ys) else 0
        if d == 1:
            ys[i] = c
        elif d > 1 and (roots := fld.kth_roots(c, d)):
            ys[i] = min(roots)
        elif d > 1 or c != fld.one:
            unsolvable = RootUnavailable if fld.modulus is None else DlogUnsolvable
            raise unsolvable("no torus element matches the coordinate ratios")
    return [fld.power_product(ys, row) for row in V]


def _torus_step(shape, fld, src, dst, rows):
    """Neutral-torus step matching dst on the given coordinates, or None."""
    if all(src[i] == dst[i] for i in rows):
        return None, tuple(src)
    ratios = [fld.div(dst[i], src[i]) for i in rows]
    mus = _solve_torus(fld, torus_lattice(shape).rank, torus_smith(shape, tuple(rows)), ratios)
    step = TorusStep(torus_scaling(shape, fld, mus))
    cur = step.apply(fld, src)
    for i in rows:
        if cur[i] != dst[i]:
            raise AssertionError("torus step missed a matched coordinate")
    return step, cur


@shape_fact
def _flow_moves(shape):
    """transport's ordered (coordinate, candidate flow designators) pairs,
    built once per shape."""
    view = family_of(shape).f1
    moves = [(i, (f"D:{j}",)) for j, i in enumerate(view.zs, start=1)]
    moves += [(i, (f"E:{j}",)) for j, i in enumerate(view.ss, start=1)]
    moves.append((view.x, tuple(f"D:{j}" for j in range(1, view.p + 1))))
    return tuple(moves)


def transport(shape: TrinomialShape, fld, src, dst) -> AutWord:
    """An explicit automorphism word mapping src to dst.

    Both points must carry the same descriptor, of open or component type.
    A torus step first matches the ys (open stratum) or the ys off M and
    every z and s (component stratum).  Then each coordinate still off dst
    is moved by the first of its candidate catalog flows whose image on it
    is nonzero at the current point: D:j for z_j, E:j for s_j, and D:1 ..
    D:p for x.  That image is the coordinate's slope, as exp(u * delta)
    moves it linearly in u, so u = (dst_i - cur_i) / slope.  On the open
    stratum the slope of z_j and s_j is -dF/dx, nonzero, and x follows from
    the equation; on a component stratum only x is left to move.

    Only the power-one family F1 is transported: any other family is
    refused with UnsupportedFamily, naming it, before either point is
    classified.  Each point is checked on X once: the endpoints by
    classify_point, and each flow's image by the flow
    (CharacteristicTooSmall).  No flow source is checked again, as each is
    on X by construction: an endpoint, the image of a torus step built
    through the lattice, or a checked flow image.
    """
    tag = family_of(shape)
    if tag.kind != "F1":
        raise UnsupportedFamily(
            f"transport is implemented for the power-one family F1, not {tag.kind}"
        )
    d_src = classify_point(shape, fld, src)
    d_dst = classify_point(shape, fld, dst)
    if d_src != d_dst:
        raise DifferentOrbits(f"{d_src} vs {d_dst}")
    if not isinstance(d_src, (BigO, OMeps)):
        raise UnsupportedFamily(
            "transport is implemented for the open and component strata"
        )
    view = tag.f1
    if isinstance(d_src, BigO):
        rows = list(view.ys)
    else:
        rows = [i for k, i in enumerate(view.ys, start=1) if k not in d_src.M]
        rows += list(view.zs) + list(view.ss)
    step, cur = _torus_step(shape, fld, src, dst, rows)
    steps = [step] if step else []
    catalog = catalog_index(shape, fld)
    for i, names in _flow_moves(shape):
        if cur[i] == dst[i]:
            continue
        for name in names:
            slope = catalog[name].image(i).eval(cur)
            if not fld.is_zero(slope):
                break
        else:
            raise CharacteristicTooSmall(
                "every z-flow degenerates at this point in this characteristic"
            )
        u = fld.div(fld.sub(dst[i], cur[i]), slope)
        cur = catalog[name]._image_on_variety(u, cur)
        steps.append(FlowStep(name, u))
    if tuple(cur) != tuple(dst):
        raise AssertionError("transport recipe failed to reach the target")
    return AutWord(tuple(steps))
