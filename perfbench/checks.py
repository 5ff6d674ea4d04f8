"""Independent checks of the library's outputs.

Each check returns a list of problems (empty when the output is right).  The
expected values come from ref.py and from properties the paper states, never
from a stored copy of an earlier output.  selftest.py shows that every check
rejects a tampered output.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

import ref
from ref import Arith, F1Coords


def _skipped(check):
    """A check the library could not run in this field, reported with its
    error code; it is neither a pass nor a failure."""
    return check.get("status") in ("skipped", "error") or "code" in check.get("details", {})


def _census_reference(groups, p):
    total, counts = ref.census_counts(groups, p)
    points, _ = ref.point_and_singular_counts(groups, p)
    if total != points:
        raise AssertionError(f"reference counts disagree: {total} vs {points}")
    return points, counts


# ---------------------------------------------------------------------------
# census: `verify all --json` reports
# ---------------------------------------------------------------------------


def check_census(groups, p, report):
    """Partition counts and the descriptor census of one report."""
    points, counts = _census_reference(groups, p)
    checks = {c["name"]: c for c in report.get("checks", [])}
    part = checks.get("partition")
    if part is None:
        return ["report has no partition check"]
    det = part["details"]
    out = []
    if det.get("points") != points:
        out.append(f"points {det.get('points')} != {points}")
    if det.get("classified") != points or det.get("errors") != 0:
        out.append(f"classified {det.get('classified')} with {det.get('errors')} errors")
    got = det.get("counts", {})
    for key in sorted(set(got) | set(counts)):
        if got.get(key) != counts.get(key):
            out.append(f"stratum {key}: {got.get(key)} != {counts.get(key)}")
            break
    v = F1Coords(groups)
    if (p - 1) % (2 * v.d) == 0:
        formula = v.aut_alg()
        if len(counts) != formula:
            raise AssertionError("reference census disagrees with the formula")
        census = checks.get("descriptor_census", {}).get("details", {})
        if census.get("realized") != formula or census.get("expected") != formula:
            out.append(f"descriptor census {census} != {formula}")
    for c in report["checks"]:
        if not c["passed"] and not _skipped(c):
            out.append(f"check {c['name']} failed: {c['details']}")
    return out


# ---------------------------------------------------------------------------
# flow_sweep: the exhaustive flow-regularity report, plus sampled flows
# ---------------------------------------------------------------------------


def check_flow_report(groups, p, n_derivations, report):
    points, singular = ref.point_and_singular_counts(groups, p)
    (c,) = [c for c in report["checks"] if c["name"] == "flow_regularity"]
    det = c["details"]
    want = {
        "runs": points * p * n_derivations,
        "points": points,
        "singular": singular,
        "failures": 0,
        "off_variety": 0,
    }
    out = [f"{k} {det.get(k)} != {w}" for k, w in want.items() if det.get(k) != w]
    if not c["passed"]:
        out.append("flow_regularity did not pass")
    return out


def random_points(groups, p, rng, count):
    """Variety points: random coordinates, then the last variable by search."""
    F = Arith(p)
    n = sum(len(g) for g in groups)
    out = []
    while len(out) < count:
        pt = [rng.randrange(p) for _ in range(n)]
        roots = []
        for val in range(p):
            pt[-1] = val
            if F.is_zero(ref.equation_value(F, groups, pt)):
                roots.append(val)
        if roots:
            pt[-1] = rng.choice(roots)
            out.append(tuple(pt))
    return out


def check_flow_sample(groups, p, samples):
    """samples: (point, u, w, exp(u), exp(w) after exp(u), exp(u+w),
    exp(0), flow_polynomial images at u).  Images must lie on the variety,
    exp(0) is the identity, and exp(w)exp(u) = exp(u+w)."""
    F = Arith(p)
    out = []
    for pt, u, w, img_u, img_uw, img_sum, img_0, poly_u in samples:
        if not F.is_zero(ref.equation_value(F, groups, img_u)):
            out.append(f"exp({u}) of {pt} leaves the variety")
        if img_uw != img_sum:
            out.append(f"group law fails at {pt}, u={u}, w={w}")
        if img_0 != tuple(pt):
            out.append(f"exp(0) moves {pt}")
        if poly_u != img_u:
            out.append(f"flow polynomials disagree with exp_flow at {pt}, u={u}")
    return out[:5]


# ---------------------------------------------------------------------------
# transport: closed-form replay of each word
# ---------------------------------------------------------------------------


def _parse(F, s):
    return int(s) % F.p if F.p else Fraction(s)


def replay(groups, p, src, word):
    """Apply a word's JSON with the closed-form flows.

    Torus steps must scale the three monomials equally.  D:i (E:j) moves z_i
    (s_j) by -u*Y when Y != 0, and x follows from the equation; where Y = 0
    the z's stay frozen and x moves by u * dZ/dz_i (dS/ds_j).
    Returns (point, problems).
    """
    F = Arith(p)
    v = F1Coords(groups)
    slices = ref.group_slices(groups)
    cur = [F.norm(c) for c in src]
    problems = []
    for step in word["steps"]:
        if step["step"] == "torus":
            c = [_parse(F, s) for s in step["coords"]]
            mons = {ref.monomial(F, c, idxs, v.exps) for idxs in slices}
            if len(mons) != 1 or any(F.is_zero(x) for x in c):
                problems.append(f"torus step {step['coords']} scales monomials by {mons}")
            cur = [F.mul(a, b) for a, b in zip(c, cur)]
        elif step["step"] == "flow":
            fam, pos = step["derivation"].split(":")
            u = _parse(F, step["u"])
            i = (v.zs if fam == "D" else v.ss)[int(pos) - 1]
            Y = v.Y(F, cur)
            if F.is_zero(Y):
                cur[v.x] = F.add(cur[v.x], F.mul(u, v.dZ(F, cur, i, fam)))
            else:
                cur[i] = F.sub(cur[i], F.mul(u, Y))
                cur[v.x] = F.div(F.sub(0, F.add(v.Z(F, cur), v.S(F, cur))), Y)
        else:
            problems.append(f"unexpected step {step}")
    return tuple(cur), problems


def check_transport(groups, p, kind, src, dst, result):
    """result: (word JSON, applied point) for a pair in one orbit, or the
    name of the exception the transport raised."""
    F = Arith(p)
    v = F1Coords(groups)
    for pt in (src, dst):
        if not F.is_zero(ref.equation_value(F, groups, pt)):
            raise AssertionError(f"generated point {pt} is off the variety")
    if kind == "negative":
        if v.ratio(F, src) == v.ratio(F, dst):
            raise AssertionError("generated negative pair shares its root ratio")
        if result != "DifferentOrbits":
            return [f"{src} -> {dst} across root ratios gave {result!r}"]
        return []
    if not isinstance(result, tuple):
        return [f"{kind} pair {src} -> {dst} raised {result}"]
    word, applied = result
    end, problems = replay(groups, p, src, word)
    if end != tuple(dst):
        problems.append(f"replayed word ends at {end}, not {dst}")
    if tuple(applied) != tuple(dst):
        problems.append(f"AutWord.apply ends at {applied}, not {dst}")
    return problems


# ---------------------------------------------------------------------------
# survey: structure of random shapes
# ---------------------------------------------------------------------------


def _nonrigid(groups):
    """The paper's two non-rigidity conditions: an exponent equal to 1, or
    (no free term) two groups whose exponents are all even, each with a 2."""
    if any(1 in g for g in groups):
        return True
    if not groups[0]:
        return False
    even_two = [g for g in groups if all(l % 2 == 0 for l in g) and 2 in g]
    return len(even_two) >= 2


def _constraint_rows(groups):
    """Weights a with <l_0,a_0> = <l_1,a_1> = <l_2,a_2> (0 for a free term)."""
    exps = ref.exponents(groups)
    slices = ref.group_slices(groups)
    n = len(exps)

    def row(g, sign):
        r = [0] * n
        for i in slices[g]:
            r[i] = sign * exps[i]
        return r

    if not groups[0]:
        return [row(1, 1), row(2, 1)]
    return [[a + b for a, b in zip(row(g, 1), row(g + 1, -1))] for g in (0, 1)]


def _rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _symmetry_order(groups):
    """prod over groups and exponent classes of mult!, times the number of
    permutations of the nonempty groups that keep their exponent multisets."""
    order = 1
    for g in groups:
        for l in set(g):
            order *= factorial(g.count(l))
    multisets = [tuple(sorted(g)) for g in groups if g]
    for ms in set(multisets):
        order *= factorial(multisets.count(ms))
    return order


def _factoriality(groups):
    """gcd per group; factorial iff d1 = d2 = 1 (free term), else iff the
    three are pairwise coprime (survey shapes are never degenerate)."""
    ds = [gcd(*g) if g else None for g in groups]
    if not groups[0]:
        ok = ds[1] == 1 and ds[2] == 1
    else:
        ok = all(gcd(ds[i], ds[j]) == 1 for i in range(3) for j in range(i + 1, 3))
    return {"d": ds, "is_factorial": ok, "applicable": True}


def _singular_component_count(groups):
    """One generator choice per group: an exponent->=2 variable or a pair of
    exponent-1 variables; a free term makes X smooth."""
    if not groups[0]:
        return 0
    total = 1
    for g in groups:
        light = g.count(1)
        total *= len(g) - light + light * (light - 1) // 2
    return total


def _catalog_size(groups, family, over_q):
    """gamma: one per variable outside the first group holding an exponent-1
    variable; D/E (Dk/Ek): one per variable outside x's group (times the
    number k of x's); delta: two per variable of the group beside the first
    two all-even groups led by 2, where -1 has a square root (F_101, not Q)."""
    n = sum(len(g) for g in groups)
    ones = [g for g in range(3) if 1 in groups[g]]
    size = n - len(groups[ones[0]]) if ones else 0
    if family in ("F1", "F2"):
        size += groups[ones[0]].count(1) * (n - len(groups[ones[0]]))
    even_two = [g for g in range(3)
                if groups[g] and all(l % 2 == 0 for l in groups[g]) and 2 in groups[g]]
    if groups[0] and not over_q and len(even_two) >= 2:
        size += 2 * len(groups[3 - even_two[0] - even_two[1]])
    return size


def _nilpotency(groups, designator):
    """{variable: index} for the variables a gamma, D/E or Dk/Ek derivation
    moves, or None (delta).  Each moves one variable v by a monomial free of
    the moved variables (index 2) and one variable w by a partial in v of a
    monomial where v has exponent l (index l + 1)."""
    fam, params = designator.split(":")
    params = [int(x) for x in params.split(",")]
    exps = ref.exponents(groups)
    if fam == "gamma":
        g, j = params
        v = ref.group_slices(groups)[g][j - 1]
        w = exps.index(1)
    elif fam in ("D", "E", "Dk", "Ek"):
        c = F1Coords(groups)
        side = c.zs if fam in ("D", "Dk") else c.ss
        w = c.xs[params[0] - 1] if fam in ("Dk", "Ek") else c.x
        v = side[params[-1] - 1]
    else:
        return None
    return {v: 2, w: exps[v] + 1}


def check_survey(groups, out):
    """out: the record worker.Survey.survey keeps for one shape."""
    problems = []
    n = sum(len(g) for g in groups)
    nonrigid = _nonrigid(groups)
    if (out["rigidity"] == "rigid") == nonrigid:
        problems.append(f"rigidity {out['rigidity']} but non-rigid conditions say {nonrigid}")
    if (out["family"] == "rigid") != (out["rigidity"] == "rigid"):
        problems.append(f"family {out['family']} disagrees with rigidity {out['rigidity']}")
    ones = [g.count(1) for g in groups if 1 in g]
    f1_bad = out["family"] == "F1" and ones != [1]
    if f1_bad or out["family"] == "F2" and (len(ones) != 1 or ones[0] < 2):
        problems.append(f"family {out['family']} with exponent-1 variables {ones} per group")
    rank, vectors = out["lattice"]
    rows = _constraint_rows(groups)
    if rank != n - 2 or len(vectors) != n - 2 or (vectors and _rank(vectors) != n - 2):
        problems.append(f"lattice rank {rank} with {len(vectors)} vectors, want {n - 2}")
    for vec in vectors:
        if any(sum(a * b for a, b in zip(row, vec)) for row in rows):
            problems.append(f"lattice vector {vec} is not a torus weight")
    if out["symmetry_order"] != _symmetry_order(groups):
        problems.append(f"symmetry order {out['symmetry_order']} != {_symmetry_order(groups)}")
    if out["factoriality"] != _factoriality(groups):
        problems.append(f"factoriality {out['factoriality']} != {_factoriality(groups)}")
    if out["components"] != _singular_component_count(groups):
        problems.append(f"{out['components']} singular components")
    for fld, over_q in (("Q", True), ("F101", False)):
        if len(out["catalog"][fld]) != _catalog_size(groups, out["family"], over_q):
            problems.append(f"catalog over {fld}: {out['catalog'][fld]}")
    for designator, well_defined, moved, index in out["derivations"]:
        if well_defined != (True, True):
            problems.append(f"{designator} is not well defined: {well_defined}")
        want = _nilpotency(groups, designator.split(":", 1)[1])
        for v in range(n):
            bad = (index[v] == 1) == (v in moved) or index[v] < 1
            if bad or want is not None and index[v] != want.get(v, 1):
                problems.append(f"{designator} has nilpotency {index[v]} on variable {v}")
    if out["family"] == "F1":
        want = F1Coords(groups).aut_alg()
        if out["aut_alg"] != want:
            problems.append(f"aut_alg {out['aut_alg']} != {want}")
    return problems
