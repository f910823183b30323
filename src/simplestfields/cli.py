"""Command-line interface.

Every subcommand emits a single JSON document (schema "simplest-fields/1"):
all integers are serialized as decimal strings and rationals as
{"num": ..., "den": ...} objects so consumers never overflow.  The keys are
schema, command, status, then result or error, then timing_ms; each level
is indented by 2 spaces, strings are ASCII-escaped as json.dumps escapes
them, and --out receives the same bytes as stdout.  _json writes the text in
one pass over the payload: the bytes json.dumps(indent=2) writes for the
payload's JSON copy.  A value the payload holds in many places, such as a
period scan's basis, is a _Shared node: its text is written once per
indentation and copied wherever else it occurs, with the same bytes.  Exit
codes and document statuses: 0 "ok", 1 "fail" (verification failure), 2
"usage-error" (an argument the library rejects with ValueError, or an --out
path that cannot be written, whose document then goes to stdout; argparse
rejects malformed command lines with exit 2 before any document), 3
"not-covered" (parameter outside the certified hypotheses, or a number
that factoring cannot split within numutil.RHO_ITERATION_BUDGET rho
iterations: Q(t), or a period-scan modulus), and 4 when the
reader closes stdout before the whole document is written (no traceback;
the rest of the document is discarded).
"""

import argparse
import functools
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .family import companion_poly, disc_quadratic, family_poly, specialize
from .numberfield import ParameterNotCoveredError, number_field
from .numutil import FactoringError
from .orders import integral_basis, order_discriminant, period_length_bound
from .periodicity import (
    FINAL_PERIOD_TABLE,
    PERIOD_BOUND_TABLE,
    check_dual_denominator_table,
    dual_basis,
    minimality_witness,
    period_scan,
)

SCHEMA = "simplest-fields/1"

# the exit code of each document status
EXIT_CODES = {"ok": 0, "fail": 1, "usage-error": 2, "not-covered": 3}
EXIT_OUTPUT_CLOSED = 4


class _Shared:
    """A value that a payload holds in many places, with its text kept per
    indentation: _json writes it once for each indentation it meets."""

    __slots__ = ("value", "texts")

    def __init__(self, value):
        self.value = value
        self.texts = {}


def _json(x, pad: str = "\n") -> str:
    """The document text of x, where pad is the line break and indentation
    of the line x starts on: an int (not a bool) as a quoted decimal, a
    Fraction as a quoted integer or {"num", "den"}, a dict with str(key)
    keys in insertion order, a _Shared node as its value, and each nesting
    level 2 spaces deeper."""
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return f'"{x}"'
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, float):  # timing_ms
        return float.__repr__(x)
    if type(x) is _Shared:
        text = x.texts.get(pad)
        if text is None:
            text = x.texts[pad] = _json(x.value, pad)
        return text
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return f'"{x.numerator}"'
        x = {"num": x.numerator, "den": x.denominator}
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        # one join of the pieces: concatenating them would copy every
        # partial text, and copies freed around kept shared texts fragment the heap
        pieces = ["{"]
        for k, v in x.items():
            pieces += (inner, encode_basestring_ascii(str(k)), ": ", _json(v, inner), ",")
        pieces[-1] = pad + "}"
        return "".join(pieces)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if all(type(v) is int for v in x):  # a basis row or coefficient list, in one join
            return "[" + inner + '"' + ('",' + inner + '"').join(map(str, x)) + '"' + pad + "]"
        pieces = ["["]
        for v in x:
            pieces += (inner, _json(v, inner), ",")
        pieces[-1] = pad + "]"
        return "".join(pieces)
    raise TypeError(f"cannot serialize {type(x)!r}")


def _command(args) -> dict:
    """The parsed arguments that define the run (everything but --out)."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out")}


def _document(args, status: str, started: float, **fields) -> str:
    """The document for one outcome: a `result` on ok and fail, an `error`
    message on usage-error and not-covered."""
    doc = {
        "schema": SCHEMA,
        "command": _command(args),
        "status": status,
        **fields,
        "timing_ms": round((time.monotonic() - started) * 1000, 3),
    }
    return _json(doc)


def cmd_family(args) -> tuple[str, dict]:
    if args.symbolic or args.t is None:
        fam = family_poly(args.n)
        result = {
            "family_coeffs_in_m": [c.coeffs for c in fam.coeffs],
            "companion_coeffs": companion_poly(args.n).coeffs,
        }
    else:
        sp = specialize(args.n, args.t)
        result = {
            "m_rule": sp.m_rule,
            "family_coeffs": sp.poly.coeffs,
            "companion_coeffs": companion_poly(args.n).coeffs,
        }
    return "ok", result


def cmd_identities(args) -> tuple[str, dict]:
    from .identities import run_identity_suite  # on first use: no other command needs it, or cyclo

    results = run_identity_suite(args.n_max, seed=args.seed, trials=args.trials)
    failures = [r for r in results if not r.ok]
    result = {
        "checks": len(results),
        "failures": [{"name": r.name, "detail": r.detail} for r in failures],
        "items": [{"name": r.name, "ok": r.ok} for r in results],
    }
    return "ok" if not failures else "fail", result


def _order_payload(o) -> dict:
    return {
        "den": o.den,
        "basis": o.basis,
        "index": o.index,
        "field_discriminant": order_discriminant(o),
    }


def cmd_integral_basis(args) -> tuple[str, dict]:
    field = number_field(args.n, args.t)
    strategies = ["enumerate", "radical"] if args.strategy == "both" else [args.strategy]
    orders = {s: integral_basis(field, strategy=s, gate=args.gate) for s in strategies}
    agree = len({o.fingerprint for o in orders.values()}) == 1
    result = {
        "poly_coeffs": field.poly.coeffs,
        "poly_discriminant": field.disc,
        "witness_prime": field.witness,
        "orders": {s: _order_payload(o) for s, o in orders.items()},
        "strategies_agree": agree,
    }
    return "ok" if agree else "fail", result


def cmd_dual_basis(args) -> tuple[str, dict]:
    db = dual_basis(number_field(args.n, args.t))
    result = {
        "matrix": db.matrix,
        "denominator": db.denominator,
        "denominator_law_ok": db.law_ok,
    }
    return "ok" if db.law_ok is not False else "fail", result


def _scan_payload(report) -> dict:
    shared = {}  # one node per distinct basis, keyed by value: the slices of a --workers scan share it too

    def member(t, fp):
        den, basis = fp
        node = shared.get(basis)
        if node is None:
            node = shared[basis] = _Shared(basis)
        return {"t": t, "den": den, "basis": node}

    return {
        "modulus": report.modulus,
        "gate": report.gate,
        "consistent": report.consistent,
        "inconsistent_classes": report.inconsistent,
        "scanned_classes": report.scanned_classes,
        "classes": {
            r: [member(t, fp) for t, fp in members]
            for r, members in sorted(report.classes.items())
        },
        "skipped": [{"t": t, "reason": reason} for t, reason in report.skipped],
    }


def cmd_period_scan(args) -> tuple[str, dict]:
    report = period_scan(
        args.n,
        args.modulus,
        range(args.t_min, args.t_max + 1),
        gate=args.gate,
        strategy=args.strategy,
        workers=args.workers,
        residues=args.residues,
    )
    payload = _scan_payload(report)
    if args.modulus > 1:
        witnesses = minimality_witness(args.modulus, report)
        payload["minimality_witnesses"] = witnesses
    return "ok" if report.consistent else "fail", payload


def cmd_verify_tables(args) -> tuple[str, dict]:
    result: dict = {}
    ok = True
    if args.scope in ("final", "all"):  # before the scans of the smaller degrees
        if args.classes_12 < 1:
            raise ValueError("--classes-12 must be at least 1")
        # 9 divides 1944, so Q(t) = Q(r) mod 9 for t = r mod 1944: 9 | Q(r) leaves class r empty
        if all(disc_quadratic(12, r) % 9 == 0 for r in range(args.classes_12)):
            raise ValueError(
                f"--classes-12 {args.classes_12} scans only residues r mod {FINAL_PERIOD_TABLE[12]} "
                "with 9 | Q(r), whose classes the strict gate leaves empty"
            )

    if args.scope in ("delta", "all"):
        check = check_dual_denominator_table(range(2, 13), args.samples)
        result["dual_denominator_table"] = {
            "ok": check.ok,
            "checked": len(check.entries),
            "failures": check.failures,
        }
        ok = ok and check.ok

    if args.scope in ("bounds", "all"):
        chain = []
        for n, final in sorted(FINAL_PERIOD_TABLE.items()):
            improved = PERIOD_BOUND_TABLE[n]
            coarse = period_length_bound(n)
            chain.append(
                {
                    "n": n,
                    "final": final,
                    "improved_bound": improved,
                    "coarse_bound": coarse,
                    "divisibility_ok": improved % final == 0 and coarse % improved == 0,
                }
            )
        bounds_ok = all(c["divisibility_ok"] for c in chain)
        result["bound_chain"] = {"ok": bounds_ok, "rows": chain}
        ok = ok and bounds_ok

    if args.scope in ("final", "all"):
        scans = {}
        for n, modulus in sorted(FINAL_PERIOD_TABLE.items()):
            if n == 12:
                residues = list(range(args.classes_12))
                t_lo, t_hi = -2 * modulus - args.t_max, 2 * modulus + args.t_max
            else:
                residues = None
                t_lo, t_hi = -args.t_max, args.t_max
            report = period_scan(
                n,
                modulus,
                range(t_lo, t_hi + 1),
                workers=args.workers,
                residues=residues,
            )
            witnesses = minimality_witness(modulus, report)
            scans[n] = {
                "modulus": modulus,
                "consistent": report.consistent,
                "classes_scanned": len(report.scanned_classes),
                "parameters_scanned": sum(len(m) for m in report.classes.values()),
                "minimality_witnesses": witnesses,
            }
            ok = ok and report.consistent
        result["final_period_table"] = scans

    return "ok" if ok else "fail", result


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="simplest-fields",
        description="Exact constructions and verifications for generalized simplest number field families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("family", help="emit family and companion polynomial coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--symbolic", action="store_true", help="emit coefficients as polynomials in m")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("identities", help="run the structural identity suite")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("integral-basis", help="integral basis of one field")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--strategy", choices=["enumerate", "radical", "both"], default="radical")
    p.add_argument("--gate", choices=["strict", "relaxed"], default="strict")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_integral_basis)

    p = sub.add_parser("dual-basis", help="trace-dual basis of the power basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dual_basis)

    p = sub.add_parser("period-scan", help="compare integral-basis fingerprints per residue class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--t-min", type=int, required=True, dest="t_min")
    p.add_argument("--t-max", type=int, required=True, dest="t_max")
    p.add_argument("--strategy", choices=["enumerate", "radical"], default="radical")
    p.add_argument("--gate", choices=["strict", "relaxed"], default="strict")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--residues", type=int, nargs="*", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_period_scan)

    p = sub.add_parser("verify-tables", help="verify the denominator table, bound chain and period table")
    p.add_argument("--scope", choices=["delta", "bounds", "final", "all"], default="all")
    p.add_argument("--t-max", type=int, default=40, dest="t_max")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--classes-12", type=int, default=3, dest="classes_12")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        status, result = args.func(args)
        fields = {"result": result}
    except (ParameterNotCoveredError, FactoringError) as exc:  # before ValueError, which the first subclasses
        status, fields = "not-covered", {"error": str(exc)}
    except ValueError as exc:
        status, fields = "usage-error", {"error": str(exc)}
    text = _document(args, status, started, **fields)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                print(text, file=fh)
            return EXIT_CODES[status]
        except OSError as exc:
            status = "usage-error"
            text = _document(args, status, started, error=f"cannot write --out {args.out}: {exc.strerror}")
    try:
        print(text, flush=True)  # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to devnull, so the
        # interpreter's last flush of stdout fails neither.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_OUTPUT_CLOSED
    return EXIT_CODES[status]

if __name__ == "__main__":
    sys.exit(main())
