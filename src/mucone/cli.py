"""Command-line surface: mu tables, counts, identity checks, demos.

All output is JSON with sorted keys and rationals rendered "p/q", so a
rerun with the same input and seed is byte-identical.  Exit codes: 0 pass,
1 usage or parse problem, 2 domain rejection (non-generic map, non-integral
input and kin), 3 a verification that ran and failed, 4 internal
inconsistency (pipeline mismatch, non-integer count: always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .complement import (
    consecutive_mod,
    diaconis_fulton_map,
    map_from_json,
    projective_fan_cones,
    projective_fan_rays,
    standard_inner_product,
)
from .errors import (
    DimensionTooLargeError,
    DirectionDegenerateError,
    InternalInconsistencyError,
    MuconeError,
    NotFullDimError,
    NotGenericError,
    NotIntegralError,
    NotPointedError,
    ParseError,
    TooLargeError,
    UnknownRayError,
)
from .geometry import Cone, Polytope
from .interp import DEFAULT_ORDER, mu, mu_table
from .linalg import format_rational
from .series import compose_linear, compose_multivariate, t2_series, t_series, todd_univariate
from .valuations import (
    DEFAULT_SEED,
    brion_vertex_decomposition_check,
    count_breakdown,
    verify_interpolator,
)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

_DOMAIN_ERRORS = (NotGenericError, NotIntegralError, UnknownRayError,
                  NotPointedError, NotFullDimError, DimensionTooLargeError,
                  TooLargeError, DirectionDegenerateError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    """argparse type for --degree and --order."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mucone",
                description="local cone coefficients, lattice counts, "
                            "and sum-integral identity checks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_input=True, need_map=True, order=False, cross_validate=False):
        # each subcommand takes only the options it reads
        if need_input:
            sp.add_argument("--input", help="cone or polytope JSON file")
        if need_map:
            sp.add_argument("--map", default="ip",
                            help="'ip', 'df', or a map JSON file (default ip)")
        sp.add_argument("--degree", type=_nonnegative_int, default=DEFAULT_ORDER,
                        help="series truncation degree")
        if order:
            sp.add_argument("--order", type=_nonnegative_int, default=None,
                            help="verification order override (verify only)")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--out", help="write JSON here instead of stdout")
        if cross_validate:
            sp.add_argument("--cross-validate", action="store_true",
                            help="run basic cones through both mu pipelines")

    sp = sub.add_parser("mu", help="mu series for a cone or a polytope's faces")
    common(sp, cross_validate=True)
    sp = sub.add_parser("count", help="lattice points via the local formula")
    common(sp)
    sp = sub.add_parser("verify", help="check the sum = weighted-integrals identity")
    common(sp, order=True, cross_validate=True)
    sp.add_argument("--corpus", help="directory of polytope JSON files")
    sp.add_argument("--brion", action="store_true",
                    help="also run the vertex-decomposition cross-check")
    sp = sub.add_parser("todd", help="print Todd and T coefficient tables")
    common(sp, need_input=False, need_map=False)
    sp = sub.add_parser("pn-demo", help="the cyclic ray-table map on the "
                                        "projective fan")
    common(sp, need_input=False, need_map=False)
    sp.add_argument("--n", type=int, required=True, help="fan dimension, 1..4")
    return p


def _row_width(data: dict, key: str, path: str) -> int | None:
    """Check that data[key] is a list of equal-length lists; their length."""
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{path}: '{key}' must be a list of coordinate lists")
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ParseError(f"{path}: '{key}' mixes dimensions {sorted(widths)}")
    return widths.pop() if widths else None


def load_input(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "generators" in data:
        width = _row_width(data, "generators", path)
        ambient = data.get("ambient", width)
        if type(ambient) is not int or ambient < 0 or width not in (None, ambient):
            raise ParseError(f"{path}: 'ambient' must be the generators' "
                             "dimension, and is required when there are none")
        return Cone.from_json(data)
    if isinstance(data, dict) and "vertices" in data:
        if _row_width(data, "vertices", path) is None:
            raise ParseError(f"{path}: a polytope needs at least one vertex")
        if not isinstance(data.get("name", ""), str):
            raise ParseError(f"{path}: 'name' must be a string")
        return Polytope.from_json(data)
    raise ParseError(f"{path}: expected a 'generators' or 'vertices' object")


def load_map(spec: str, ambient: int):
    if spec == "ip":
        return standard_inner_product(ambient)
    if spec == "df":
        return diaconis_fulton_map(ambient)
    try:
        data = json.loads(Path(spec).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read map {spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"map {spec} is not valid JSON: {exc}") from exc
    try:
        cmap = map_from_json(data)
    except (ParseError, ValueError, KeyError) as exc:
        raise ParseError(f"map {spec}: {exc}") from exc
    if cmap.ambient != ambient:
        raise ParseError(
            f"map {spec} lives in dimension {cmap.ambient}, input in {ambient}")
    return cmap


def emit(data, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_mu(args) -> tuple[dict, int]:
    obj = load_input(args.input)
    cmap = load_map(args.map, obj.ambient)
    if isinstance(obj, Cone):
        val = mu(obj, cmap, args.degree, args.cross_validate)
        body = {"kind": "cone", "map": cmap.describe(), "degree": args.degree,
                "seed": args.seed, "mu": val.to_json()}
        return body, EXIT_PASS
    table = mu_table(obj, cmap, args.degree, args.cross_validate)
    body = {"kind": "polytope", "polytope": obj.name, "map": cmap.describe(),
            "degree": args.degree, "seed": args.seed,
            "mu0_column": [format_rational(v.mu0) for _, v in table.entries],
            "table": table.to_json()}
    return body, EXIT_PASS


def cmd_count(args) -> tuple[dict, int]:
    obj = load_input(args.input)
    if not isinstance(obj, Polytope):
        raise ParseError("count needs a polytope input")
    cmap = load_map(args.map, obj.ambient)
    total, rows = count_breakdown(obj, cmap)
    brute = len(obj.lattice_points())
    match = total == brute
    body = {
        "polytope": obj.name,
        "map": cmap.describe(),
        "seed": args.seed,
        "count": total,
        "brute_force": brute,
        "match": match,
        "breakdown": [
            {"face_vertex_indices": sorted(f.indices),
             "mu0": format_rational(m0),
             "normalized_volume": format_rational(vol),
             "contribution": format_rational(m0 * vol)}
            for f, m0, vol in rows
        ],
    }
    return body, EXIT_PASS if match else EXIT_VERIFY


def _verify_one(p: Polytope, cmap, args) -> dict:
    if args.order is None and args.degree < p.dim:
        raise ParseError(f"--degree {args.degree} is below the dimension "
                         f"{p.dim} of {p.name}")
    order = args.degree if args.order is None else args.order + p.dim
    report = verify_interpolator(p, cmap, order=order, seed=args.seed,
                                 cross_validate=args.cross_validate)
    data = report.to_json()
    if args.brion:
        data["brion_check"] = brion_vertex_decomposition_check(
            p, q=report.q, seed=args.seed)
    return data


def cmd_verify(args) -> tuple[dict, int]:
    if args.corpus:
        files = sorted(Path(args.corpus).glob("*.json"))
        if not files:
            raise ParseError(f"no *.json files under {args.corpus}")
        reports = []
        ok = True
        for f in files:
            obj = load_input(str(f))
            if not isinstance(obj, Polytope):
                raise ParseError(f"{f}: corpus entries must be polytopes")
            cmap = load_map(args.map, obj.ambient)
            data = _verify_one(obj, cmap, args)
            data["file"] = f.name
            ok = ok and data["passed"] and data.get("brion_check", True)
            reports.append(data)
        body = {"seed": args.seed, "all_passed": ok, "reports": reports}
        return body, EXIT_PASS if ok else EXIT_VERIFY
    obj = load_input(args.input)
    if not isinstance(obj, Polytope):
        raise ParseError("verify needs a polytope input")
    cmap = load_map(args.map, obj.ambient)
    data = _verify_one(obj, cmap, args)
    ok = data["passed"] and data.get("brion_check", True)
    return data, EXIT_PASS if ok else EXIT_VERIFY


def cmd_todd(args) -> tuple[dict, int]:
    d = args.degree
    body = {
        "degree": d,
        "seed": args.seed,
        "td": [format_rational(c) for c in todd_univariate(d)],
        "t": [format_rational(c) for c in t_series(d)],
    }
    return body, EXIT_PASS


def pn_demo(n: int, degree: int) -> dict:
    """mu over the projective fan of dimension n under the cyclic ray table,
    checked against the closed forms: 1/2 on each ray, 1/3 on a pair of
    cyclically consecutive rays and 1/4 on any other pair, with the full
    series of each pair through `degree`.  Larger cones are tabled at
    degree 0.  "all_checks_passed" says whether every check held.
    """
    d = degree
    cmap = diaconis_fulton_map(n)
    rays = projective_fan_rays(n)
    k = n + 1

    def t(form):
        return compose_linear(t_series(d), form, d)

    checks = []
    table = []
    for cone in projective_fan_cones(n):
        size = len(cone.generators)
        val = mu(cone, cmap, d if size <= 2 else 0)
        cone_rays = [list(map(format_rational, r)) for r in cone.generators]
        table.append({
            "cone_rays": cone_rays,
            "size": size,
            "mu0": format_rational(val.mu0),
            "series": val.series.to_json() if size <= 2 else None,
        })
        if size > 2:
            continue
        want = None
        if size == 1:
            kind, expected = "ray", Fraction(1, 2)
        else:
            i, j = (rays.index(g) for g in cone.generators)
            if consecutive_mod(i, j, n):
                lo, hi = (i, j) if (j - i) % k == 1 else (j, i)
                ui, uj = cmap.table[rays[lo]], cmap.table[rays[hi]]
                kind, expected = "consecutive", Fraction(1, 3)
                want = (compose_multivariate(t2_series(d), [ui, uj], d)
                        + t(ui + uj) * t(uj))
            else:
                ui, uj = cmap.table[rays[i]], cmap.table[rays[j]]
                kind, expected = "nonconsecutive", Fraction(1, 4)
                want = t(ui) * t(uj)
        checks.append({
            "cone_rays": cone_rays,
            "kind": kind if want is None else kind + "-pair",
            "mu0": format_rational(val.mu0),
            "expected": format_rational(expected),
            "ok": val.mu0 == expected,
        })
        if want is not None:
            checks.append({"cone_rays": cone_rays, "kind": kind + "-series",
                           "ok": val.series.agrees_with(want, through=d)})
    return {"n": n, "degree": d, "map": cmap.describe(),
            "all_checks_passed": all(c["ok"] for c in checks),
            "checks": checks, "mu_table": table}


def cmd_pn_demo(args) -> tuple[dict, int]:
    if not 1 <= args.n <= 4:
        raise ParseError("--n must be between 1 and 4")
    body = pn_demo(args.n, args.degree)
    if not body["all_checks_passed"]:
        raise InternalInconsistencyError("projective-fan demo checks failed")
    body["seed"] = args.seed
    return body, EXIT_PASS


_COMMANDS = {
    "mu": cmd_mu,
    "count": cmd_count,
    "verify": cmd_verify,
    "todd": cmd_todd,
    "pn-demo": cmd_pn_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command in ("mu", "count") and not args.input:
            parser.error(f"{args.command} requires --input")
        if args.command == "verify" and not args.input and not args.corpus:
            parser.error("verify requires --input or --corpus")
        body, code = _COMMANDS[args.command](args)
        emit(body, args.out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MuconeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - contract: nonzero on any failure
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
