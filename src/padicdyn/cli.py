"""Command-line interface.

Subcommands: expand (coefficient series of a function), classify (full
dynamical report), enumerate (ergodic cubic survey mod 8), generate
(prescribed instances for p >= 5), verify (identity suites and the
counterexample catalog).  Output is JSON with residues rendered as decimal
strings.  Exit codes: 0 pass, 1 criterion false, 2 bad input, unmet
precondition or stdout closed before the report was written, 3 internal
cross-check breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import analysis, backends, criteria, dynamics, funcspace, identities
from .arith import require_prime
from .errors import InputError, InternalCheckError, PreconditionError
from .funcspace import CoefficientSeries, PadicFunction
from .verdict import require_agreement


# ---------------------------------------------------------------------
# function input parsing
# ---------------------------------------------------------------------

_TERM_RE = re.compile(r"^([+-]?)(\d*)(?:x(?:\^(\d+))?)?$")

# polynomial input of this degree or more is refused before any table is built
_DEGREE_LIMIT = 1 << 16

# depth of a polynomial given neither --depth nor a JSON depth
_EXPAND_DEPTH = 6
_CLASSIFY_DEPTH = 4

# the keys a JSON function object may carry besides kind and p; a series,
# those of CoefficientSeries.to_json_dict
_JSON_KEYS = {"polynomial": {"coeffs", "depth"}, "table": {"depth", "values"},
              "mahler": {"k", "length", "terms"}, "vdp": {"k", "length", "terms"}}


def _check_degree(degree: int) -> None:
    if degree >= _DEGREE_LIMIT:
        raise InputError(
            f"polynomial degree {degree} is not below the degree bound {_DEGREE_LIMIT}"
        )


def parse_polynomial_text(text: str) -> list[int]:
    """Coefficients, constant first, from forms like '1+3x+2x^3' or '1,3,0,2'.

    Spaces around operators and commas are ignored; a space between two
    digits is refused rather than read as one number.  Degrees at or above
    the degree bound are refused.
    """
    if re.search(r"\d\s+\d", text):
        raise InputError(f"whitespace between digits in {text!r}")
    text = text.replace(" ", "").replace("**", "^")
    if not text:
        raise InputError("empty polynomial")
    if "x" not in text:
        parts = text.split(",")
        _check_degree(len(parts) - 1)
        return list(funcspace.parse_ints(parts))
    chunks = re.findall(r"[+-]?(?:[^+-]|(?<=\^)[+-]+)+", text)  # x^-1 is one term
    if "".join(chunks) != text:
        raise InputError(f"empty term in polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (not m.group(2) and "x" not in chunk):
            signed = "; exponents are non-negative integers" if re.search(r"\^[+-]", chunk) else ""
            raise InputError(f"cannot parse term {chunk!r}{signed}")
        sign = -1 if m.group(1) == "-" else 1
        coef = funcspace.parse_int(m.group(2)) if m.group(2) else 1
        exp = funcspace.parse_int(m.group(3)) if m.group(3) else int("x" in chunk)
        _check_degree(exp)
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def function_from_json(
    data: dict, depth: int | None, default_depth: int = _CLASSIFY_DEPTH
) -> PadicFunction:
    """The function a JSON object describes, at depth (from --depth) when
    given.  A polynomial or table object's own depth must agree with it; a
    series may be taken at any depth up to its precision k."""
    if not isinstance(data, dict):
        raise InputError("a function must be given as one JSON object with a 'kind' key")
    try:
        kind = data["kind"]
        p = funcspace.parse_int(data["p"])
    except KeyError as exc:
        raise InputError(f"function object has no {exc.args[0]!r} key") from None
    keys = _JSON_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise InputError(f"unknown function kind {kind!r}")
    unknown = ", ".join(sorted(set(data) - keys - {"kind", "p"}))
    if unknown:
        raise InputError(f"unknown key(s) in a {kind} object: {unknown}")
    if kind in ("polynomial", "table") and "depth" in data:
        own = funcspace.parse_int(data["depth"])
        if depth is not None and depth != own:
            raise InputError(f"--depth {depth} disagrees with the {kind}'s depth {own}")
        depth = own
    if kind == "polynomial":
        if not isinstance(data.get("coeffs"), list):
            raise InputError("polynomial object needs a 'coeffs' list")
        _check_degree(len(data["coeffs"]) - 1)
        return PadicFunction.from_polynomial(
            data["coeffs"], p, default_depth if depth is None else depth
        )
    if kind == "table":
        if not isinstance(data.get("values"), list) or "depth" not in data:
            raise InputError("table object needs a 'values' list and 'depth'")
        return PadicFunction.from_table(data["values"], p, depth)
    series = CoefficientSeries.from_json_dict(data)
    ctor = PadicFunction.from_mahler if kind == "mahler" else PadicFunction.from_vdp
    return ctor(series, depth)


def resolve_function(args, default_depth: int) -> PadicFunction:
    text = args.function
    depth = getattr(args, "depth", None)
    if text == "-" or text.startswith("@"):
        try:
            if text == "-":
                data = json.load(sys.stdin)
            else:
                with open(text[1:]) as fh:
                    data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read function {text!r}: {exc}") from None
        return function_from_json(data, depth, default_depth)
    if args.prime is None:
        raise InputError("-p/--prime is required for inline polynomial input")
    coeffs = parse_polynomial_text(text)
    return PadicFunction.from_polynomial(
        coeffs, args.prime, default_depth if depth is None else depth
    )


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) byte for byte where every key is a string, with
    strings through the C escaper; pad is the newline and indent of obj's line."""
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        items = [_quote(v) if type(v) is str else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _json(v, inner))
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    return json.dumps(obj)  # floats, and strings of a str subclass


def _emit(payload: dict) -> None:
    sys.stdout.write(_json(payload) + "\n")


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_expand(args) -> int:
    f = resolve_function(args, _EXPAND_DEPTH)
    count = args.count if args.count is not None else f.prime ** 2
    extract = (
        funcspace.mahler_coefficients if args.basis == "mahler"
        else funcspace.vdp_coefficients
    )
    series = extract(f, count=count)
    out = series.to_json_dict()
    if args.normalized:
        out["normalized"] = [str(x) for x in series.normals(0, len(series)).tolist()]
    lip = funcspace.lipschitz_check(series)
    out["lipschitz"] = lip.to_json_dict()
    _emit(out)
    return 0


def cmd_classify(args) -> int:
    f = resolve_function(args, _CLASSIFY_DEPTH)
    if f.depth < 2:
        raise InputError("classification needs depth >= 2")
    # every route reads the UD1 window, and a passing Mahler route the full
    # Mahler series; refuse either up front when too large, then a map that
    # is not 1-Lipschitz, which no route may classify
    window = analysis.ud1_window(f.prime, f.depth)
    f.check_budget(window)
    funcspace.check_series_length("mahler", f.prime, f.depth, f.prime**f.depth)
    f.value_array(window)  # the widest window any route reads, built once
    f.require_lipschitz()
    report: dict = {
        "p": f.prime,
        "depth": f.depth,
        "kind": f.kind,
    }
    direct, vdp, mahler = analysis.ud1_equivalence_crosscheck(f)
    report["lipschitz"] = f.lipschitz.to_json_dict()
    is_ud1 = direct.passed
    # the crosscheck raises where the routes disagree
    report["ud1"] = {"direct": direct.to_json_dict(), "vdp": vdp.to_json_dict(),
                     "mahler": mahler.to_json_dict(), "agree": True}
    preserving = dynamics.measure_preserving_vdp(f.vdp_window)
    report["measure_preserving"] = preserving.to_json_dict()
    if is_ud1:
        # the UD criteria decide the same question from the first terms of a
        # UD1 map; they only cross-check it and add nothing to the report
        ud_routes = (
            (dynamics.measure_preserving_ud_p2, dynamics.measure_preserving_ud_p2_mahler)
            if f.prime == 2 else (dynamics.measure_preserving_ud_odd,)
        )
        require_agreement("measure preservation", preserving, *(route(f) for route in ud_routes))

    # the closed forms rest on "transitive mod p^mu implies ergodic", known for
    # polynomials only: they must agree with a verdict on Z_p, else are evidence
    closed = None
    if is_ud1 and f.depth >= dynamics.transitivity_threshold(f.prime):
        closed = criteria.closed_form_ergodic(f)
    decision = dynamics.decide_ergodicity(f)
    if closed is not None and decision.scope == closed.scope and decision.ergodic != closed.ergodic:
        raise InternalCheckError(
            f"ergodicity routes disagree: {decision.method} passed={decision.ergodic}, "
            f"{closed.method} passed={closed.ergodic}"
        )
    report["ergodicity"] = decision.to_json_dict()
    if closed is not None:
        report["closed_form"] = closed.to_json_dict()
    _emit(report)
    return 0 if decision.ergodic else 1


def cmd_enumerate(args) -> int:
    catalog = criteria.ergodic_cubic_catalog_p2()
    catalog_tables = {
        tuple(row): entry
        for row, entry in zip(backends.poly_tables(catalog, 8, 8).tolist(), catalog)
    }
    # all 4096 cubics (d, c, b, a), constant first and in loop order, at
    # x = 0..7 mod 8 in one pass, and Larin's criterion on every row
    cubics = np.indices((8, 8, 8, 8), dtype=np.int8).reshape(4, -1)[::-1].T
    tables = backends.poly_tables(cubics, 8, 8)
    ergodic = criteria.larin_transitive_mod8_rows(cubics)[0] < 0
    if args.crosscheck:
        # both criteria on the first four Mahler and van der Put terms
        values = tables[:, :4]
        mahler_ok = criteria.mahler_ergodic_p2_rows(backends.mahler_batch(values, 8))[0] < 0
        vdp_ok = criteria.vdp_ergodic_p2_rows(funcspace.vdp_terms(values, 2) % 8)[0] < 0
        disagree = (ergodic != mahler_ok) | (ergodic != vdp_ok)
        if disagree.any():
            coeffs = tuple(cubics[disagree.argmax()].tolist())
            raise InternalCheckError(f"criteria disagree on {coeffs}")
    classes: dict[tuple, list] = {}
    for coeffs, table in zip(cubics[ergodic].tolist(), tables[ergodic].tolist()):
        classes.setdefault(tuple(table), []).append(coeffs)
    if set(classes) != set(catalog_tables):
        raise InternalCheckError("ergodic map classes do not match the catalog")
    out = {
        "p": 2,
        "degree": 3,
        "modulus": 8,
        "total": 8**4,
        "ergodic": int(ergodic.sum()),
        "classes": [
            {
                "catalog": list(catalog_tables[table]),
                "members": [list(m) for m in sorted(classes[table])],
                "table": [str(v) for v in table],
            }
            for table in sorted(catalog_tables)
        ],
    }
    _emit(out)
    return 0


def _int_option(text: str) -> int:
    """An integer option, read as strictly as a JSON integer."""
    try:
        return funcspace.parse_int(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(map(_int_option, text.split(",")))


def cmd_generate(args) -> int:
    p = args.prime
    if p is None:
        raise InputError("-p/--prime is required")
    require_prime(p)
    if p < 5:
        raise InputError(f"generate builds p >= 5 instances; p = {p} is below that")
    if args.count < 1:
        raise InputError("count must be >= 1")
    explicit = args.phi is not None or args.bvec is not None or args.lift is not None
    if explicit and args.route == "poly":
        raise InputError("--phi, --bvec and --lift build a mahler-route instance, not --route poly")
    if explicit and args.count > 1:
        raise InputError("--phi, --bvec and --lift build one instance, not --count > 1")
    if args.seed is not None and args.phi is not None and args.bvec is not None:
        raise InputError("--seed draws nothing once --phi and --bvec are both given")
    # each instance's window at depth 3 and its 2p Mahler terms or, on the
    # poly route, its degree 2p - 1, alone and --count times over, refused
    # before any instance is solved
    poly = args.route == "poly"
    funcspace.check_window(p, 3, p**3, 2 * p - 1 if poly else None, None if poly else 2 * p,
                           args.count)
    rng = random.Random(args.seed)
    instances = []
    for _ in range(args.count):
        if poly:
            alphas, Bvec, Dvec = criteria.random_power_basis_poly(p, rng)
            f = PadicFunction.from_polynomial(alphas, p, 3)
            conds = criteria.p5_conditions(f)
            entry = {
                "route": "poly",
                "alphas": [str(x) for x in alphas],
                "B": [str(x) for x in Bvec],
                "D": [str(x) for x in Dvec],
                "conditions": {k: v.to_json_dict() for k, v in conds.items()},
            }
        else:
            # an omitted lift is zero once any of the three is given
            phi = args.phi or criteria.random_transitive_permutation(p, rng)
            bvec = args.bvec or criteria.random_unit_product_one(p, rng)
            lift = args.lift or ((0,) * (2 * p) if explicit
                                 else tuple(rng.randrange(p) for _ in range(2 * p)))
            form = criteria.p5_linear_form(p, phi, bvec, lift)
            inst = form["instance"]
            f, conds = inst.function, inst.conditions
            entry = inst.to_json_dict()
            entry["route"] = "mahler"
            entry["linear_form"] = {
                "formula": str(form["formula"]),
                "direct": str(form["direct"]),
                "agree": form["agree"],
            }
        require_agreement("ergodicity", conds["combined"], dynamics.ergodic_oracle(f))
        entry["ergodic"] = conds["combined"].passed
        instances.append(entry)
    _emit({"p": p, "count": len(instances), "instances": instances})
    return 0


def cmd_verify(args) -> int:
    out: dict = {}
    ok = True
    names = args.suite or []
    if len(names) > 1 and ("all" in names or len(set(names)) < len(names)):
        raise InputError("--suite names each suite at most once, and all only alone")
    names = identities.all_suite_names() if "all" in names else names
    overrides = {k: v for k, v in (("p_max", args.p_max), ("s_max", args.s_max)) if v is not None}
    # every suite's prime bound and work limit is checked before the first
    # one runs, and so is a range option that none of them takes
    taken = identities.check_ranges(names, overrides).values()
    unused = [k for k in overrides if not any(k in a for a in taken)]
    if unused:
        raise InputError(f"--{unused[0].replace('_', '-')} applies to none of the suites that run")
    if names:
        reports = []
        for name in names:
            report = identities.verify_identity_suite(name, **overrides)
            if report.checked == 0:
                raise InputError(f"suite {name!r} checks nothing in this range")
            reports.append(report.to_json_dict())
            ok = ok and report.passed
        out["suites"] = reports
    if args.counterexamples:
        cases = []
        for entry in criteria.counterexample_catalog():
            p = entry["p"]
            f = PadicFunction.from_polynomial(entry["coeffs"], p, entry["failing_level"])
            t_low = dynamics.transitive_mod(f, entry["transitive_level"]).passed
            t_high = dynamics.transitive_mod(f, entry["failing_level"]).passed
            orbit = dynamics.orbit_of(f, entry["transitive_level"])
            orbit_ok = t_low and orbit == tuple(entry["orbit"])
            checks = {
                "transitive_below": t_low,
                "not_transitive_at": not t_high,
                "orbit": orbit_ok,
            }
            if "orbit_at_failing_level" in entry:
                got = dynamics.orbit_of(f, entry["failing_level"])
                checks["orbit_at_failing_level"] = got == tuple(
                    entry["orbit_at_failing_level"]
                )
            if p in (2, 3):
                checks["rejected_by_closed_form"] = not criteria.closed_form_ergodic(
                    f
                ).ergodic
            good = all(checks.values())
            ok = ok and good
            cases.append(
                {
                    "p": p,
                    "coeffs": [str(c) for c in entry["coeffs"]],
                    "checks": checks,
                    "pass": good,
                }
            )
        for p in (2, 3, 5, 7, 11, 13):
            f = criteria.power_counterexample(p)
            good = (
                dynamics.transitive_mod(f, 1).passed
                and not dynamics.transitive_mod(f, 2).passed
            )
            ok = ok and good
            cases.append({"p": p, "family": "x^p+1", "pass": good})
        out["counterexamples"] = cases
    if not out:
        raise InputError("nothing to verify: pass --suite and/or --counterexamples")
    out["pass"] = ok
    _emit(out)
    return 0 if ok else 1


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="padic-dyn",
        description="exact coefficient-based analysis of 1-Lipschitz dynamics "
        "on the p-adic integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_function_args(sp):
        sp.add_argument(
            "function",
            help="polynomial text ('1+3x+2x^3'), coefficient list ('1,3,0,2'), "
            "@file.json, or '-' for JSON on stdin",
        )
        sp.add_argument("-p", "--prime", type=_int_option, default=None)
        sp.add_argument("--depth", type=_int_option, default=None)

    sp = sub.add_parser("expand", help="coefficient series of a function")
    add_function_args(sp)
    sp.add_argument("--basis", choices=("mahler", "vdp"), default="vdp")
    sp.add_argument("--count", type=_int_option, default=None)
    sp.add_argument(
        "--normalized", action="store_true", help="include terms divided by p^e(i)"
    )
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("classify", help="full dynamical report; exit 0 iff ergodic")
    add_function_args(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("enumerate", help="survey ergodic cubics mod 8")
    sp.add_argument(
        "--crosscheck",
        action="store_true",
        help="also run the Mahler and van der Put criteria on every cubic",
    )
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("generate", help="build instances with prescribed level-1 data")
    sp.add_argument("-p", "--prime", type=_int_option, default=None)
    sp.add_argument("--count", type=_int_option, default=1)
    sp.add_argument("--seed", type=_int_option, default=None)
    sp.add_argument("--route", choices=("mahler", "poly"), default="mahler")
    sp.add_argument("--phi", type=_csv_ints, default=None)
    sp.add_argument("--bvec", type=_csv_ints, default=None)
    sp.add_argument("--lift", type=_csv_ints, default=None)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("verify", help="run identity suites and counterexample checks")
    sp.add_argument(
        "--suite",
        action="append",
        choices=list(identities.all_suite_names()) + ["all"],
        help="repeatable; 'all' runs every suite",
    )
    sp.add_argument("--p-max", type=_int_option, default=None)
    sp.add_argument("--s-max", type=_int_option, default=None)
    sp.add_argument("--counterexamples", action="store_true")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull so that the
        # interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 2
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
