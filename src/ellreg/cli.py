"""Command line front end: verify suites, unit divisors, Mahler measures."""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from .characters import character_from_label
from .elliptic import CurveModel
from .mahler import BivariatePolynomial, mahler_measure
from .units import unit_divisor_chi
from .verify import SUITES, reports_to_json, resolve_config, run_all, summarize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellreg",
        description="Numerical verification of L(E,2) identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run a verification suite and report pass/fail")
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    verify.add_argument("--level", type=int, default=None,
                        help="prime level with a registered curve")
    verify.add_argument("--curve", default=None,
                        help="a1,a2,a3,a4,a6,N Weierstrass coefficients")
    verify.add_argument("--tolerance", type=float, default=None,
                        help="override every per-check tolerance")
    verify.add_argument("--terms", type=int, default=4000,
                        help="q-expansion length for the newform")
    verify.add_argument("--out", default=None,
                        help="write the JSON report array here")

    units = sub.add_parser(
        "units", help="print the cusp divisor of a character unit as JSON")
    units.add_argument("--level", type=int, required=True)
    units.add_argument("--char", required=True,
                       help="character label like '11:g=2,zeta5^1'")

    mahler = sub.add_parser(
        "mahler", help="print the logarithmic Mahler measure of a polynomial")
    mahler.add_argument("--poly", required=True,
                        help="sparse terms 'X^i Y^j: c' separated by commas")
    return parser


def _parse_curve(text: str) -> CurveModel:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError("curve needs exactly six integers a1,a2,a3,a4,a6,N")
    try:
        a1, a2, a3, a4, a6, conductor = (int(t.strip()) for t in parts)
    except ValueError:
        raise ValueError(f"cannot parse curve {text!r}") from None
    return CurveModel(a1, a2, a3, a4, a6, conductor)


def _cmd_verify(args) -> int:
    wall, cpu = time.perf_counter(), time.process_time()
    curve = _parse_curve(args.curve) if args.curve else None
    config = resolve_config(level=args.level, curve=curve,
                            tolerance=args.tolerance, terms=args.terms)
    runner = run_all if args.suite == "all" else SUITES[args.suite]
    # Open the report file first: one that cannot be written fails
    # before any suite runs.
    with open(args.out, "w") if args.out else nullcontext() as handle:
        reports = runner(config)
        print(summarize(reports, time.perf_counter() - wall,
                        time.process_time() - cpu))
        if handle:
            handle.write(reports_to_json(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_units(args) -> int:
    chi = character_from_label(args.char)
    if chi.modulus != args.level:
        raise ValueError(
            f"character modulus {chi.modulus} does not match level {args.level}")
    divisor = unit_divisor_chi(chi)
    table = [
        {"cusp": [cls.u, cls.v], "order": [coeff.real, coeff.imag]}
        for cls, coeff in divisor.items()
    ]
    print(json.dumps(
        {"level": divisor.level, "character": args.char, "divisor": table},
        indent=2))
    return 0


def _cmd_mahler(args) -> int:
    poly = BivariatePolynomial.from_string(args.poly)
    value = mahler_measure(poly)
    print(json.dumps({"poly": str(poly), "mahler_measure": value}, indent=2))
    return 0


def main(argv=None) -> int:
    """Exit 0 when every check passes, 1 when one fails, 2 on a bad
    input or an --out file that cannot be written, 3 when a series,
    quadrature or reduction does not converge (TruncationError and the
    engines' other RuntimeErrors)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "units": _cmd_units,
                "mahler": _cmd_mahler}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"ellreg: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
