"""Run one round of one workload in this fresh, single-threaded interpreter.

Invoked by run.py as `python3 perfbench/worker.py '<json options>'`; prints
one JSON object as its last line.  Every round gets its own interpreter, so
no round inherits the library's caches or heap from an earlier one.

Set-up is timed from the parent's clock reading taken just before this
interpreter was started, so it covers interpreter start, importing
trinomial_orbits and building the workload's shapes and fields; generating
the benchmark's own inputs comes after it.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402  (the benchmark's own modules, beside this file)
import inputs  # noqa: E402
import speed  # noqa: E402

CENSUS_SHAPES = [[[1, 2, 2], [3], [3]], [[1, 2], [3], [3]], [[], [1, 3, 3], [3, 3]]]
CENSUS_PRIMES = [13, 37, 7]
H2 = [[2, 2], [2, 2], [5]]
FLOW_P = 13
FLOW_DERIVATIONS = ("delta+:1", "delta-:1")
FLOW_SAMPLE = 60


def import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import trinomial_orbits

    if not os.path.abspath(trinomial_orbits.__file__).startswith(src + os.sep):
        raise SystemExit(f"trinomial_orbits imported from outside {src}")
    return trinomial_orbits


# ---------------------------------------------------------------------------
# workloads: setup builds shapes and fields through the public API; inputs
# (not timed) lists one round's ops; call is the timed op; judge checks it.
# ---------------------------------------------------------------------------


class Census:
    """`verify all --json` through cli.run_cli, stdout captured."""

    def setup(self, to):
        from trinomial_orbits import cli

        self.cli = cli
        # run_cli parses its own; built here so that set-up covers the same
        # construction as in the other workloads
        self.shapes = [to.validate_shape(g) for g in CENSUS_SHAPES]
        self.fields = [to.PrimeField(p) for p in CENSUS_PRIMES + [3]]

    def inputs(self, seed, k):
        # The F_3 runs fail today (CharacteristicTooSmall out of the
        # transport sub-check); they take no seed, so they fail on every run.
        ops = [(g, p, seed * 1000 + k) for g, p in zip(CENSUS_SHAPES, CENSUS_PRIMES)]
        return ops + [(g, 3, 0) for g in CENSUS_SHAPES]

    def timed(self, op):
        return op[1] != 3  # latency of the exhaustive runs over p >= 7

    def call(self, op):
        import contextlib
        import io

        groups, p, seed = op
        argv = ["verify", "all", "--shape", json.dumps(groups), "--field", f"Fp:{p}",
                "--json", "--seed", str(seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.run_cli(argv)
        return rc, buf.getvalue()

    def judge(self, op, raw):
        groups, p, _ = op
        rc, text = raw
        out = json.loads(text.strip().splitlines()[-1])
        if "error" in out:
            return True, []
        problems = checks.check_census(groups, p, out)
        if rc not in (0, 3) or (rc == 3) != bool(out.get("failures")):
            problems.append(f"exit code {rc} with {out.get('failures')} failures")
        return False, problems

    def label(self, op):
        return f"{op[0]}/F_{op[1]}"


class FlowSweep:
    """oracle.verify_flow_regularity: both delta+-:1 flows of H2 over F_13."""

    def setup(self, to):
        self.shape = to.validate_shape(H2)
        self.field = to.PrimeField(FLOW_P)
        catalog = to.lnd_catalog(self.shape, self.field)
        self.derivations = [d for d in catalog if d.designator in FLOW_DERIVATIONS]

    def inputs(self, seed, k):
        return ["exhaustive"]

    def timed(self, op):
        return True

    def call(self, op):
        from trinomial_orbits import oracle

        return oracle.verify_flow_regularity(self.shape, self.field, self.derivations)

    def judge(self, op, raw):
        n = len(FLOW_DERIVATIONS)
        problems = [] if len(self.derivations) == n else ["catalog lacks delta+-:1"]
        return False, problems + checks.check_flow_report(H2, FLOW_P, n, raw.to_json())

    def final_checks(self, seed, k):
        """Sampled flows: on the variety, exp(0) = id, and the group law."""
        import random

        rng = random.Random(f"flow:{seed}.{k}")
        pts = checks.random_points(H2, FLOW_P, rng, FLOW_SAMPLE)
        samples = []
        for d in self.derivations:
            for pt in pts:
                u, w = rng.randrange(FLOW_P), rng.randrange(FLOW_P)
                img_u = d.exp_flow(u, pt)
                poly_u = tuple(d.flow_polynomial(v, u).eval(pt) for v in range(len(pt)))
                samples.append((pt, u, w, img_u, d.exp_flow(w, img_u),
                                d.exp_flow((u + w) % FLOW_P, pt), d.exp_flow(0, pt), poly_u))
        return checks.check_flow_sample(H2, FLOW_P, samples)

    def label(self, op):
        return f"{H2}/F_{FLOW_P}"


class Transport:
    """orbits.transport then AutWord.apply over pre-generated pairs."""

    def setup(self, to):
        self.to = to
        self.shapes = {k: to.validate_shape(g) for k, g in inputs.TRANSPORT_SHAPES.items()}
        self.fields = {k: to.PrimeField(p) if p else to.QQ
                       for k, p in inputs.TRANSPORT_FIELDS.items()}

    def inputs(self, seed, k):
        return inputs.transport_ops(f"{seed}.{k}")

    def timed(self, op):
        return True

    def call(self, op):
        _, sk, fk, src, dst = op
        shape, fld = self.shapes[sk], self.fields[fk]
        try:
            word = self.to.transport(shape, fld, src, dst)
        except self.to.DifferentOrbits:
            return "DifferentOrbits"
        return word, word.apply(shape, fld, src)

    def judge(self, op, raw):
        kind, sk, fk, src, dst = op
        if isinstance(raw, tuple):
            raw = (raw[0].to_json(self.fields[fk]), raw[1])
        p = inputs.TRANSPORT_FIELDS[fk]
        return False, checks.check_transport(inputs.TRANSPORT_SHAPES[sk], p, kind, src, dst, raw)

    def label(self, op):
        return f"{op[0]} {op[1]}/{op[2]}"


class Survey:
    """Structure, catalogs and derivation checks of new random shapes.

    One op surveys the 15 shapes of one group-size pattern: single shapes
    take 0.2 ms when rigid and 1-5 ms otherwise, and the median of such a
    split sits on its edge, where 1% more rigid shapes moves it by 10%."""

    def setup(self, to):
        self.to = to
        self.f101 = to.PrimeField(101)

    def inputs(self, seed, k):
        return inputs.survey_shapes(f"{seed}.{k}")

    def timed(self, op):
        return True

    def call(self, batch):
        return [self.survey(groups) for groups in batch]

    def survey(self, groups):
        to = self.to
        s = to.validate_shape(groups)
        verdict = to.rigidity_classify(s)
        tag = to.family_of(s)
        fact = to.factoriality(s)
        lattice = to.torus_lattice(s)
        sym = to.symmetry_group(s)
        comps = to.singular_components(s)
        catalog, derivations = {}, []
        for fk, fld in (("Q", to.QQ), ("F101", self.f101)):
            cat = to.lnd_catalog(s, fld)
            catalog[fk] = [d.designator for d in cat]
            for d in cat:
                index = [d.nilpotency_index(v) for v in range(s.n)]
                derivations.append(
                    (f"{fk}:{d.designator}", d.well_defined(), set(d.images), index))
        return {
            "rigidity": verdict.tag,
            "family": tag.kind,
            "factoriality": fact.to_json(),
            "lattice": (lattice.rank, lattice.vectors),
            "symmetry_order": sym.order,
            "components": len(comps),
            "catalog": catalog,
            "derivations": derivations,
            "aut_alg": to.orbit_count(s).aut_alg if tag.kind == "F1" else None,
        }

    def judge(self, batch, raw):
        return False, [p for groups, out in zip(batch, raw)
                       for p in checks.check_survey(groups, out)]

    def label(self, op):
        return "all shapes"


WORKLOADS = {"census": Census, "flow_sweep": FlowSweep, "transport": Transport, "survey": Survey}

# Counts the traced run sums per op label, to see where the work went.
OP_COUNTERS = (
    "oracle.points_enumerated", "orbits.classify_point.calls",
    "derivations.lnd_catalog.calls", "orbits.transport.calls",
)


def peak_rss_mib():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, seed, k, tracer=None):
    """Round k of the workload's ops, then the checks of their outputs.

    Op times are in reference seconds (speed.Meter).  A traced round only
    times the speed loop around the round, not inside it, and returns its
    per-layer figures without checking its outputs."""
    ops = wl.inputs(seed, k)
    results, per_op = [], {}
    with speed.Meter(sample_inside=tracer is None) as meter:
        for op in ops:
            snap = tracer.snapshot() if tracer else None
            start = meter.mark()
            try:
                raw, err = wl.call(op), None
            except Exception as exc:  # an op that raises counts as failed
                raw, err = None, f"{type(exc).__name__}: {exc}"
            end = meter.mark()
            if tracer:
                summary = tracer.summary(snap)
                sums = per_op.setdefault(wl.label(op), dict.fromkeys(OP_COUNTERS, 0))
                for c in OP_COUNTERS:
                    sums[c] += summary.get(c, 0)
            results.append((op, raw, err, start, end))
    peak = peak_rss_mib()
    raw_wall = sum(end[0] - start[0] for _, _, _, start, end in results)
    if tracer:
        # the checks call the library too; the untraced twin of this round
        # (same inputs) is the one checked
        return {"raw_wall_s": raw_wall, "layers": tracer.summary(), "per_op": per_op}
    wall = 0.0
    latencies, problems = [], []
    failed = 0
    for op, raw, err, start, end in results:
        ref_dt = meter.op(start, end)
        wall += ref_dt
        if wl.timed(op):
            latencies.append(ref_dt)
        if err is not None:
            failed += 1
            continue
        op_failed, op_problems = wl.judge(op, raw)
        failed += op_failed
        problems += op_problems
    if hasattr(wl, "final_checks"):
        problems += wl.final_checks(seed, k)
    return {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "latencies": latencies,
        "peak_rss_mib": peak,
        "attempted": len(results),
        "failed": failed,
        "correct": not problems,
        "problems": problems[:10],
        "per_op": per_op,
    }


def main():
    opts = json.loads(sys.argv[1])
    to = import_library()
    wl = WORKLOADS[opts["workload"]]()
    wl.setup(to)
    setup_s = speed.reference_seconds(
        time.monotonic() - opts["t0"], opts["loop_s"], speed.loop_seconds())
    if opts.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return
    tracer = None
    if opts.get("trace"):
        import tracer as tracing
        from trinomial_orbits import cli, derivations, families, fields, intlinalg
        from trinomial_orbits import oracle, orbits, polynomials, shapes, strata

        modules = [cli, derivations, families, fields, intlinalg, oracle, orbits,
                   polynomials, shapes, strata]
        tracer = tracing.install(to, modules)
    result = run_round(wl, opts["seed"], opts.get("round", 0), tracer)
    result["setup_s"] = setup_s
    if tracer and opts.get("spans"):
        os.makedirs(os.path.dirname(opts["spans"]), exist_ok=True)
        tracer.write(opts["spans"])
        result["spans"] = len(tracer.span_start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
