"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 mathematical-domain error
(missing roots, unsupported family, small characteristic, ...),
3 verification failure.  Every error, a malformed command line too, is one
JSON object {"error": code, "detail": message}: callers never parse prose.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import oracle, orbits, strata
from .derivations import catalog_derivation, delta_obstruction, lnd_catalog
from .errors import MathDomainError, ShapeError
from .families import family_of
from .fields import FieldError, QQ, field_designator, parse_field
from .polynomials import PolyParseError
from .shapes import (
    TrinomialShape,
    factoriality,
    rigidity_classify,
    symmetry_group,
    torus_lattice,
)

TORUS_DIMENSION_NOTE = (
    "torus rank reported as the computed saturated-kernel rank (n-2 for "
    "nondegenerate constraints); a complexity-one action on the "
    "(n-1)-dimensional hypersurface forces this, not n-1"
)


class UsageError(Exception):
    pass


def _load_shape(arg: str) -> TrinomialShape:
    text = arg
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read shape file {arg!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"shape is neither a file nor JSON: {exc}") from None
    if isinstance(data, list):
        data = {"groups": data}
    return TrinomialShape.from_json(data)


def _point_field(arg: str):
    """--field for strata and orbits, whose point arithmetic needs Q or F_p:
    Qi is a usage error there."""
    fld = parse_field(arg)
    if fld.kind == "Qi":
        raise UsageError("strata and orbits take --field Q or Fp:<prime>, not Qi")
    return fld


def _load_point(shape: TrinomialShape, fld, arg: str):
    try:
        data = json.loads(arg)
    except json.JSONDecodeError as exc:
        raise UsageError(f"point is not JSON: {exc}") from None
    if isinstance(data, list):
        if len(data) != shape.n:
            raise UsageError(f"point needs {shape.n} coordinates, got {len(data)}")
        return tuple(fld.parse(str(v)) for v in data)
    if isinstance(data, dict):
        names = shape.name_index
        if set(data) - set(names):
            raise UsageError(f"unknown coordinates: {sorted(set(data) - set(names))}")
        vec = [None] * shape.n
        for nm, v in data.items():
            idx = names[nm]
            if vec[idx] is not None:
                raise UsageError(f"coordinate {shape.var_names[idx]} assigned twice")
            vec[idx] = fld.parse(str(v))
        if any(v is None for v in vec):
            raise UsageError("point leaves coordinates unassigned")
        return tuple(vec)
    raise UsageError("point must be a JSON array or object")


def _load_var_names(arg: str):
    """The variable names of --set: {"vars": [...]} or a bare JSON list."""
    try:
        data = json.loads(arg)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--set is not JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("vars", data)
    if not isinstance(data, (list, dict)):
        raise UsageError('--set must be a JSON list of names or {"vars": [...]}')
    return data


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
        return
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{key}: {value}")


def _classify_payload(shape: TrinomialShape, full: bool) -> dict:
    verdict = rigidity_classify(shape)
    tag = family_of(shape)
    lattice = torus_lattice(shape)
    payload = {
        "shape": shape.to_json(),
        "equation": str(shape.equation(QQ)),
        "rigidity": verdict.to_json(),
        "family": tag.to_json(),
        "ml": orbits.ml_generators(shape).to_json(shape),
        "factoriality": factoriality(shape).to_json(),
        "torus_rank": lattice.rank,
        "symmetry_order": symmetry_group(shape).order,
        "notes": [TORUS_DIMENSION_NOTE],
    }
    if tag.kind == "F2":
        payload["notes"].append(
            "orbit statements for this family are conditional on the "
            "Makar-Limanov conjecture; pass --assume-conjecture"
        )
    obstruction = delta_obstruction(shape, QQ)
    if obstruction:
        payload["notes"].append(obstruction)
    if full:
        payload["torus_lattice"] = lattice.to_json()
        payload["catalog"] = [d.designator for d in lnd_catalog(shape, QQ)]
        payload["singular_components"] = [
            c.names(shape) for c in strata.singular_components(shape)
        ]
    return payload


def cmd_classify(args) -> int:
    shape = _load_shape(args.shape)
    _emit(_classify_payload(shape, full=args.cmd == "report"), args.json)
    return 0


def cmd_lnd(args) -> int:
    shape = _load_shape(args.shape)
    fld = parse_field(args.field)
    derivations, notes = lnd_catalog(shape, fld, with_notes=True)
    if args.sub == "list":
        payload = {
            "field": field_designator(fld),
            "derivations": [
                {"designator": d.designator, "images": {
                    shape.var_names[v]: str(p) for v, p in sorted(d.images.items())
                }}
                for d in derivations
            ],
            "notes": notes,
        }
        _emit(payload, args.json)
        return 0
    # check
    wanted = derivations
    if args.custom is not None:
        wanted = [_custom_derivation(shape, fld, args.custom)]
    elif args.derivation is not None:
        wanted = [catalog_derivation(shape, fld, args.derivation)]
    results = []
    for d in wanted:
        ok, exact = d.well_defined()
        entry = {
            "designator": d.designator,
            "well_defined": ok,
            "derives_equation_to_zero": exact,
        }
        if ok:
            try:
                entry["nilpotency_index"] = {
                    shape.var_names[v]: d.nilpotency_index(v)
                    for v in range(shape.n)
                }
            except MathDomainError as exc:
                entry["nilpotency_index"] = None
                entry["nilpotency_error"] = str(exc)
        results.append(entry)
    _emit({"field": field_designator(fld), "checks": results, "notes": notes}, args.json)
    return 0


def _custom_derivation(shape: TrinomialShape, fld, text: str):
    from .derivations import Derivation
    from .polynomials import PolyRing, Polynomial

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--custom is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError("--custom must map variable names to polynomials")
    ring = shape.ring(fld)
    # parse against display names; exponent tuples share the variable order
    parse_ring = PolyRing(fld, tuple(shape.display_name(i) for i in range(shape.n)))
    names = shape.name_index
    images = {}
    for nm, poly_text in data.items():
        if nm not in names:
            raise UsageError(f"unknown variable {nm!r}")
        parsed = parse_ring.parse(str(poly_text))
        images[names[nm]] = Polynomial(ring, dict(parsed.terms))
    return Derivation(shape, fld, images)


def cmd_strata(args) -> int:
    shape = _load_shape(args.shape)
    fld = _point_field(args.field)
    if args.point:
        pt = _load_point(shape, fld, args.point)
        S = strata.support_zero_set(shape, fld, pt)
        payload = {
            "support": strata.var_set_to_json(shape, S),
            "singular": strata.is_singular(shape, fld, pt),
            "containing_components": [
                c.names(shape) for c in strata.n_set(shape, S)
            ],
        }
        _emit(payload, args.json)
        return 0
    comps = strata.singular_components(shape)
    payload = {"singular_components": [c.names(shape) for c in comps]}
    if args.set:
        S = strata.var_set_from_names(shape, _load_var_names(args.set))
        point = strata.stratum_point(shape, fld, S)  # EmptyStratum before any output
        payload["set"] = strata.var_set_to_json(shape, S)
        payload["containing_components"] = [c.names(shape) for c in strata.n_set(shape, S)]
        payload["witness_point"] = [fld.fmt(v) for v in point]
    _emit(payload, args.json)
    return 0


def cmd_orbits(args) -> int:
    shape = _load_shape(args.shape)
    if args.sub == "count":
        _emit(orbits.orbit_count(shape).to_json(), args.json)
        return 0
    fld = _point_field(args.field)
    if args.sub == "classify":
        pt = _load_point(shape, fld, args.point)
        desc = orbits.classify_point(shape, fld, pt, args.assume_conjecture)
        payload = {"descriptor": orbits.descriptor_to_json(desc, shape, fld)}
        if family_of(shape).kind == "F1":
            payload["dimension"] = orbits.descriptor_dim(shape, desc)
        _emit(payload, args.json)
        return 0
    if args.sub == "saut":
        pt = _load_point(shape, fld, args.point)
        desc = orbits.saut_descriptor(shape, fld, pt)
        _emit({"saut_orbit": orbits.saut_to_json(desc, shape, fld)}, args.json)
        return 0
    # transport
    src = _load_point(shape, fld, getattr(args, "from"))
    dst = _load_point(shape, fld, args.to)
    word = orbits.transport(shape, fld, src, dst)
    applied = word.apply(shape, fld, src)
    _emit(
        {
            "word": word.to_json(fld),
            "maps_src_to_dst": list(applied) == list(dst),
        },
        args.json,
    )
    return 0


def cmd_enumerate(args) -> int:
    shape = _load_shape(args.shape)
    fld = parse_field(args.field)
    pts = oracle.enumerate_points(shape, fld)
    payload = {"field": field_designator(fld), "count": len(pts)}
    if args.json:
        payload["points"] = [[fld.fmt(v) for v in pt] for pt in pts]
    _emit(payload, args.json)
    return 0


def cmd_verify(args) -> int:
    shape = _load_shape(args.shape)
    fld = parse_field(args.field)
    kind = args.sub
    if kind == "partition":
        report = oracle.verify_partition(shape, fld, args.assume_conjecture)
    elif kind == "flows":
        report = oracle.verify_flow_regularity(shape, fld, lnd_catalog(shape, fld))
    elif args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    elif kind == "invariance":
        report = oracle.verify_invariance(
            shape, fld, trials=args.trials, seed=args.seed,
            assume_conjecture=args.assume_conjecture,
        )
    elif kind == "transport":
        report = oracle.verify_transport(shape, fld, pairs=args.trials, seed=args.seed)
    else:
        report = oracle.verify_all(
            shape, fld, trials=args.trials, seed=args.seed,
            assume_conjecture=args.assume_conjecture,
        )
    if args.json:
        print(report.dumps())
    else:
        for c in report.checks:
            status = "SKIP" if c.skipped else "PASS" if c.passed else "FAIL"
            print(f"{status} {c.name} {json.dumps(c.details, sort_keys=True)}")
        print(f"failures: {report.failures}")
    return 3 if report.failures else 0


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a UsageError, which run_cli prints
    as JSON; add_subparsers builds its parsers from this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args does not
    change it.  Each command takes only the options its handler reads."""
    ap = _Parser(
        prog="trinomial-orbits",
        description="Classification and orbit stratification of trinomial hypersurfaces",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    point_help = "JSON array or {name: value} object"

    def command(parsers, name, run, field=True, conjecture=False, trials=False, help=None):
        p = parsers.add_parser(name, help=help)
        p.add_argument("--shape", required=True, help="shape JSON file or literal")
        if field:
            p.add_argument(
                "--field", default="Q", help="Q, Fp:<prime>, or Qi for lnd (default Q)"
            )
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        if conjecture:
            p.add_argument("--assume-conjecture", action="store_true")
        if trials:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=200)
        p.set_defaults(run=run)
        return p

    for name in ("classify", "report"):
        command(sub, name, cmd_classify, field=False, help=f"{name} a shape")

    lnd = sub.add_parser("lnd", help="derivation catalog")
    lnd_sub = lnd.add_subparsers(dest="sub", required=True)
    command(lnd_sub, "list", cmd_lnd)
    which = command(lnd_sub, "check", cmd_lnd).add_mutually_exclusive_group()
    which.add_argument("--derivation", help="designator, e.g. D:1 or gamma:1,1")
    which.add_argument(
        "--custom",
        help='images JSON, e.g. {"T2_1": "1"}; unlisted variables map to 0',
    )

    st = command(sub, "strata", cmd_strata, help="singular components, supports, N(S)")
    which = st.add_mutually_exclusive_group()
    which.add_argument("--point", help=point_help)
    which.add_argument("--set", help='variable set JSON, e.g. {"vars": ["T0_2"]}')

    orb = sub.add_parser("orbits", help="orbit classification")
    orb_sub = orb.add_subparsers(dest="sub", required=True)
    p = command(orb_sub, "classify", cmd_orbits, conjecture=True)
    p.add_argument("--point", required=True, help=point_help)
    command(orb_sub, "count", cmd_orbits, field=False)
    p = command(orb_sub, "transport", cmd_orbits)
    p.add_argument("--from", required=True, help="source point")
    p.add_argument("--to", required=True, help="target point")
    p = command(orb_sub, "saut", cmd_orbits)
    p.add_argument("--point", required=True, help=point_help)

    command(sub, "enumerate", cmd_enumerate, help="all F_p points")

    ver = sub.add_parser("verify", help="finite-field oracle runs")
    ver_sub = ver.add_subparsers(dest="sub", required=True)
    command(ver_sub, "all", cmd_verify, conjecture=True, trials=True)
    command(ver_sub, "partition", cmd_verify, conjecture=True)
    command(ver_sub, "invariance", cmd_verify, conjecture=True, trials=True)
    command(ver_sub, "transport", cmd_verify, trials=True)
    command(ver_sub, "flows", cmd_verify, help="flow regularity over the full catalog")
    return ap


def run_cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit:  # --help printed its text
        return 0
    except (UsageError, ShapeError, FieldError, PolyParseError, KeyError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        print(json.dumps({"error": "usage", "detail": detail}))
        return 1
    except MathDomainError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
