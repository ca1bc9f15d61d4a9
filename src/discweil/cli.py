"""Command line surface over the library, JSON in and out.

All output is deterministic for fixed flags: keys sorted, canonical
orderings, one JSON object per line for streamed enumerations. Exit codes:
0 success, 1 usage or input error, 2 verification mismatch, 3 enumeration
bound exceeded.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import prod

from .arith import is_prime
from .borcherds import InputForm, catalog_for, lift, verify_eta_prime
from .fqmod import FqModule, hyperbolic_pair, presentation_from_json
from .lnn_catalog import assemble, relations_Np
from .qseries import eta_series
from .subgroups import EnumerationBoundError, _bound_check, classify, enumerate_subgroups
from .weilrep import _invariants


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(1)


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % text)


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _module_from_args(args):
    """The module of --module or --N/--Nprime, refused over the bound before it is built."""
    if getattr(args, "module", None):
        text = args.module
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        orders, qs, bs = presentation_from_json(text)
        _bound_check(prod(orders))
        return FqModule(orders, qs, bs)
    if args.N is None:
        raise ValueError("need either --module or --N")
    _bound_check((args.N * args.Nprime) ** 2)
    return hyperbolic_pair(args.N, args.Nprime)


def cmd_discform(args):
    m = _module_from_args(args)
    _emit(
        {
            "module": m.to_json(),
            "size": m.size,
            "level": m.level,
            "signature_mod8": m.signature_mod8(),
        }
    )
    return 0


def cmd_subgroups(args):
    m = _module_from_args(args)
    for h in enumerate_subgroups(m):
        obj = h.to_json()
        obj["class"] = classify(h).to_json()
        _emit(obj)
    return 0


def cmd_invariants(args):
    m = _module_from_args(args)
    basis, rank = _invariants(m)
    _emit(
        {
            "dimension": len(basis),
            "basis": basis,
            "selfdual_family_rank": rank,
        }
    )
    return 0


def cmd_lnn_selfdual(args):
    _bound_check((args.N * args.Nprime) ** 2)
    for spec in catalog_for(args.N, args.Nprime):
        h = assemble(spec)
        _emit(
            {
                "spec": spec.to_json(),
                "group": h.to_json(),
                "class": classify(h).to_json(),
            }
        )
    return 0


def cmd_lnn_relations(args):
    for vec in relations_Np(args.N, args.p):
        _emit(vec)
    return 0


# a key entry: int() would also take " 1", "+1" and "1_0"
_DECIMAL = re.compile("-?[0-9]+")


def _parse_coeffs(text):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("coeffs must be a JSON object of coordinate: integer")
    out = {}
    for key, val in raw.items():
        if type(val) is not int:
            raise ValueError("coefficient of %r is not a JSON integer: %s" % (key, json.dumps(val)))
        entries = key.split(",")
        if not all(_DECIMAL.fullmatch(t) for t in entries):
            raise ValueError("coefficient key %s needs plain decimal integer entries" % json.dumps(key))
        coords = tuple(int(t) for t in entries)
        out[coords] = out.get(coords, 0) + val
    return out


def cmd_lift(args):
    m = _module_from_args(args)
    f = InputForm(m, _parse_coeffs(args.coeffs))
    res = lift(f, args.prec)
    _emit(res.to_json())
    return 0


def cmd_eta_expand(args):
    _emit(eta_series(args.d, args.shift, Fraction(args.prec)).to_json())
    return 0


def cmd_verify_eta(args):
    if not is_prime(args.p):
        raise ValueError("--p must be prime")
    rep = verify_eta_prime(args.p, args.prec)
    _emit(rep)
    return 0 if rep["verified"] else 2


def cmd_repro(args):
    from .acceptance import CHECKS, run_all

    if any(i > len(CHECKS) for i in args.only or ()):
        raise ValueError("--only takes a check number from 1 to %d" % len(CHECKS))
    results = run_all(args.only or None)
    failed = 0
    for r in results:
        mark = "ok  " if r["passed"] else "FAIL"
        sys.stdout.write("%s %d. %s: %s\n" % (mark, r["index"], r["name"], r["detail"]))
        sys.stderr.write("# %d %s %.1fs\n" % (r["index"], r["name"], r["seconds"]))
        failed += 0 if r["passed"] else 1
    sys.stdout.write(
        "%d/%d checks passed\n" % (len(results) - failed, len(results))
    )
    return 2 if failed else 0


@lru_cache(maxsize=None)
def build_parser():
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    top = _Parser(prog="discweil", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discform", help="describe the rank 4 module D_{N,N'}")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--Nprime", type=_positive, default=1)
    p.set_defaults(func=cmd_discform)

    p = sub.add_parser("subgroups", help="stream every subgroup with its flags")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--Nprime", type=_positive, default=1)
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("invariants", help="certified basis of the invariant space")
    p.add_argument("--N", type=_positive)
    p.add_argument("--Nprime", type=_positive, default=1)
    p.add_argument("--module", help="inline module JSON, or @path to a file")
    p.set_defaults(func=cmd_invariants)

    lnn = sub.add_parser("lnn", help="self-dual isotropic catalogs and relations")
    lnn_sub = lnn.add_subparsers(dest="lnn_command", required=True)
    p = lnn_sub.add_parser("selfdual", help="stream the catalog for (N, N')")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--Nprime", type=_positive, default=1)
    p.set_defaults(func=cmd_lnn_selfdual)
    p = lnn_sub.add_parser("relations", help="integer relation vectors for (N, p)")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--p", type=_positive, required=True)
    p.set_defaults(func=cmd_lnn_relations)

    p = sub.add_parser("lift", help="two-variable product expansion of a lift")
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--Nprime", type=_positive, default=1)
    p.add_argument(
        "--coeffs",
        required=True,
        help='JSON object {"x1,x2,x3,x4": int}, or @path to a file',
    )
    p.add_argument("--prec", type=_positive, default=50, help="q1 truncation order")
    p.set_defaults(func=cmd_lift)

    eta = sub.add_parser("eta", help="eta function q-expansions")
    eta_sub = eta.add_subparsers(dest="eta_command", required=True)
    p = eta_sub.add_parser("expand", help="expand eta(d tau + shift)")
    p.add_argument("--d", type=_fraction, required=True)
    p.add_argument("--shift", type=_fraction, default=Fraction(0))
    p.add_argument("--prec", type=_positive, default=50)
    p.set_defaults(func=cmd_eta_expand)

    p = sub.add_parser("verify-eta", help="verify the prime-shift eta identity")
    p.add_argument("--p", type=_positive, required=True)
    p.add_argument("--prec", type=_positive, default=200)
    p.set_defaults(func=cmd_verify_eta)

    p = sub.add_parser("repro", help="run the full reproduction suite")
    p.add_argument(
        "--only",
        type=_positive,
        action="append",
        help="run a single numbered check (repeatable)",
    )
    p.set_defaults(func=cmd_repro)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBoundError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
