"""Show that every check accepts a real output and rejects a tampered one.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few seconds and exits 1 on the
first check that lets a tampered output through.
"""

import copy
import json
import random
import sys

import checks
import inputs
import ref
import worker

FAILURES = []


def expect(name, problems, clean):
    ok = not problems if clean else bool(problems)
    print(f"{'ok ' if ok else 'BAD'} {name}: {problems[:1] if problems else 'accepted'}")
    if not ok:
        FAILURES.append(name)


def census(to):
    wl = worker.Census()
    wl.setup(to)
    groups, p = inputs.TRANSPORT_SHAPES["A"], 7
    _, text = wl.call((groups, p, 0))
    report = json.loads(text.strip().splitlines()[-1])
    expect("census real report", checks.check_census(groups, p, report), True)

    def tampered(edit):
        bad = copy.deepcopy(report)
        edit({c["name"]: c for c in bad["checks"]})
        return checks.check_census(groups, p, bad)

    def move_one(c):
        counts = c["partition"]["details"]["counts"]
        a, b = sorted(counts)[:2]
        counts[a] += 1
        counts[b] -= 1

    expect("census stratum count moved", tampered(move_one), False)
    expect("census point count", tampered(
        lambda c: c["partition"]["details"].update(points=342)), False)
    expect("census realized descriptors", tampered(
        lambda c: c["descriptor_census"]["details"].update(realized=5)), False)
    expect("census failed check", tampered(
        lambda c: c["flow_invariance"].update(passed=False)), False)


def flow_sweep(to):
    groups, p = worker.H2, worker.FLOW_P
    points, singular = ref.point_and_singular_counts(groups, p)
    details = {"runs": points * p * 2, "points": points, "singular": singular,
               "failures": 0, "off_variety": 0}
    report = {"checks": [{"name": "flow_regularity", "passed": True, "details": details}]}
    expect("flow report as expected", checks.check_flow_report(groups, p, 2, report), True)
    for key, value in (("runs", points * p), ("singular", singular + 1), ("off_variety", 3)):
        bad = copy.deepcopy(report)
        bad["checks"][0]["details"][key] = value
        expect(f"flow report {key}", checks.check_flow_report(groups, p, 2, bad), False)

    wl = worker.FlowSweep()
    wl.setup(to)
    d = wl.derivations[0]
    rng = random.Random(0)
    (pt,) = checks.random_points(groups, p, rng, 1)
    u, w = 3, 5
    img_u = d.exp_flow(u, pt)
    poly_u = tuple(d.flow_polynomial(v, u).eval(pt) for v in range(len(pt)))
    sample = (pt, u, w, img_u, d.exp_flow(w, img_u), d.exp_flow((u + w) % p, pt),
              d.exp_flow(0, pt), poly_u)
    expect("flow sample real", checks.check_flow_sample(groups, p, [sample]), True)
    off = (img_u[0] + 1) % p,
    bad_img = off + img_u[1:]
    expect("flow image off the variety",
           checks.check_flow_sample(groups, p, [sample[:3] + (bad_img,) + sample[4:]]), False)
    expect("flow group law broken",
           checks.check_flow_sample(groups, p, [sample[:5] + (pt,) + sample[6:]]), False)


def transport(to):
    wl = worker.Transport()
    wl.setup(to)
    ops = inputs.transport_ops(0)
    for kind, fk in (("open", "Q"), ("component", "F13")):
        op = next(o for o in ops if o[0] == kind and o[2] == fk)
        raw = wl.call(op)
        fld = wl.fields[fk]
        word, applied = raw[0].to_json(fld), raw[1]
        groups, p = inputs.TRANSPORT_SHAPES[op[1]], inputs.TRANSPORT_FIELDS[fk]
        src, dst = op[3], op[4]
        expect(f"transport {kind} real", checks.check_transport(
            groups, p, kind, src, dst, (word, applied)), True)
        for i, step in enumerate(word["steps"]):
            bad = copy.deepcopy(word)
            bump = lambda text: fld.fmt(fld.add(fld.parse(text), fld.one))  # noqa: E731
            if step["step"] == "flow":
                bad["steps"][i]["u"] = bump(step["u"])
            else:
                bad["steps"][i]["coords"][0] = bump(step["coords"][0])
            expect(f"transport {kind} {step['step']} step tampered", checks.check_transport(
                groups, p, kind, src, dst, (bad, applied)), False)
        moved = (fld.add(applied[0], fld.one),) + tuple(applied[1:])
        expect(f"transport {kind} applied point", checks.check_transport(
            groups, p, kind, src, dst, (word, moved)), False)
    neg = next(o for o in ops if o[0] == "negative")
    groups, p = inputs.TRANSPORT_SHAPES[neg[1]], inputs.TRANSPORT_FIELDS[neg[2]]
    expect("transport negative raised", checks.check_transport(
        groups, p, "negative", neg[3], neg[4], wl.call(neg)), True)
    expect("transport negative answered", checks.check_transport(
        groups, p, "negative", neg[3], neg[4], ({"steps": []}, neg[4])), False)


def survey(to):
    wl = worker.Survey()
    wl.setup(to)
    for groups in ([[1, 2, 2], [3], [3]], [[2, 2], [2, 4], [3]], [[3], [4, 5], [2]],
                   [[1, 1, 2], [3], [2, 2]], [[2, 1], [1, 1], [2]]):
        out = wl.survey(groups)
        expect(f"survey {groups} real", checks.check_survey(groups, out), True)

        def shift_lattice(o):
            rank, vectors = o["lattice"]
            o["lattice"] = (rank, (tuple(x + 1 for x in vectors[0]),) + tuple(vectors[1:]))

        def nilpotency(o, d, value):
            var = min(o["derivations"][d][2])
            o["derivations"][d][3][var] = value(o["derivations"][d][3][var])

        edits = {
            "rigidity": lambda o: o.update(
                rigidity="rigid" if o["rigidity"] != "rigid" else "flexible"),
            "lattice vector": shift_lattice,
            "symmetry order": lambda o: o.update(symmetry_order=o["symmetry_order"] * 2),
            "factoriality": lambda o: o["factoriality"].update(
                is_factorial=not o["factoriality"]["is_factorial"]),
            "components": lambda o: o.update(components=o["components"] + 1),
            "catalog": lambda o: o["catalog"]["Q"].append("gamma:9,9"),
        }
        if out["derivations"]:
            edits["nilpotency 1 on a moved variable"] = lambda o: nilpotency(o, -1, lambda k: 1)
        if any(not d[0].split(":")[1].startswith("delta") for d in out["derivations"]):
            edits["nilpotency one more"] = lambda o: nilpotency(o, 0, lambda k: k + 1)
        if out["aut_alg"] is not None:
            edits["aut_alg"] = lambda o: o.update(aut_alg=o["aut_alg"] + 1)
        for name, edit in edits.items():
            bad = copy.deepcopy(out)
            edit(bad)
            expect(f"survey {groups} {name}", checks.check_survey(groups, bad), False)


def main():
    to = worker.import_library()
    for part in (census, flow_sweep, transport, survey):
        part(to)
    print(f"{len(FAILURES)} checks let a tampered output through")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
