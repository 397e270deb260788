"""Command-line front end.

Exit codes: 0 success, 2 domain errors (invalid inputs), 3 budget refusals,
4 consistency failures (two exact routes disagreed).
Diagnostics go to stderr; stdout carries only the requested data, with
rationals always rendered as exact strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import algebra, gravity, hurwitz_series, trees
from .errors import BudgetExceeded, ConsistencyError, DomainError
from .exact import TruncatedSeries, format_rational
from .monodromy import (
    DEFAULT_NODE_BUDGET,
    CoveringSpec,
    hurwitz_connected,
    hurwitz_disconnected,
)
from .symmetric import Partition

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_CONSISTENCY = 4


_SERIES = {
    "Y": algebra.series_y,
    "Z": algebra.series_z,
    # Z^2 = Y^2 X^-2
    "Z2": algebra.LaurentPolyX(algebra._yx_column(2, -2)).to_series,
    # unrooted labeled trees, n^(n-2)/n! = [q^n] (Y - Y^2/2) = [q^n] (1 - X^2)/2
    "cayley": algebra.LaurentPolyX({0: "1/2", 2: "-1/2"}).to_series,
    "h1empty": hurwitz_series.h1_empty_series,
}


def _named_series(args, unknown: str = "") -> TruncatedSeries:
    """The series --name names, to --order; an unknown name raises DomainError."""
    maker = _SERIES.get(args.name or "")
    if maker is None:
        raise DomainError(
            unknown or f"unknown series {args.name!r}; choose from {sorted(_SERIES)}"
        )
    return maker(args.order)


def _series_json(s: TruncatedSeries) -> dict:
    return {
        str(n): format_rational(s.coefficient(n)) for n, num in enumerate(s.nums) if num
    }


def _parse_mu(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition(())
    try:
        return Partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad partition {text!r}: {exc}") from None


def _emit(args, plain_lines, json_obj, csv_rows=None, csv_header=None):
    if args.json:
        print(json.dumps(json_obj))
    elif csv_rows is not None and args.csv:
        if csv_header:
            print(",".join(csv_header))
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        for line in plain_lines:
            print(line)


def _cmd_series(args) -> None:
    s = _named_series(args)
    pick = s.egf_coefficient if args.egf else s.coefficient
    rows = [(n, format_rational(pick(n))) for n in range(s.order + 1)]
    _emit(
        args,
        [f"{n}: {v}" for n, v in rows if v != "0"],
        {str(n): v for n, v in rows if v != "0"},
        csv_rows=rows,
        csv_header=("n", "coefficient"),
    )


def _cmd_identify(args) -> None:
    s = _named_series(args)
    ident = algebra.identify_in_a(s, args.jmin, args.jmax)
    obj = {"status": ident.status, "verified_orders": ident.verified_orders}
    lines = [f"status: {ident.status} (verified orders: {ident.verified_orders})"]
    if ident.ok:
        obj["element"] = ident.element.to_json()
        lines.append(f"element: {ident.element}")
    _emit(args, lines, obj)


def _cmd_asymptotic(args) -> None:
    if args.laurent:
        element = algebra.LaurentPolyX.from_json(json.loads(args.laurent))
    else:
        s = _named_series(args, "provide --laurent JSON or --name of a known series")
        ident = algebra.identify_in_a(s, args.jmin, args.jmax)
        if not ident.ok:
            raise DomainError(f"series does not identify on the window: {ident.status}")
        element = ident.element
    term = algebra.leading_asymptotic(element)
    obj = term.to_json()
    _emit(args, [f"constant {term.constant}  gamma {term.gamma2}/2"], obj)


def _cmd_cayley(args) -> None:
    rows = [(n, k, str(m), str(p)) for n, k, m, p in trees.dendrology(args.nmax, args.kmax)]
    _emit(
        args,
        [f"n={n} k={k} m={m} p={p}" for n, k, m, p in rows],
        [{"n": n, "k": k, "m": m, "p": p} for n, k, m, p in rows],
        csv_rows=rows,
        csv_header=("n", "k", "m", "p"),
    )


def _cmd_hurwitz(args) -> None:
    mus = [_parse_mu(text) for text in args.mu or []]
    spec = CoveringSpec(args.g, args.n, mus)
    count = hurwitz_disconnected if args.disconnected else hurwitz_connected
    value = count(spec, node_budget=args.max_nodes)
    tuple_count = value * math.factorial(spec.n)
    obj = {
        "value": format_rational(value),
        "c": spec.c,
        "tuple_count": format_rational(tuple_count),
    }
    _emit(args, [format_rational(value)], obj)


def _cmd_hseries(args) -> None:
    mus = [_parse_mu(text) for text in args.mu or []]
    if args.fit_phi and len(mus) != 1:
        raise DomainError("--fit-phi needs exactly one --mu")
    result = hurwitz_series.h_series(
        args.g, mus, args.order, node_budget=args.max_nodes
    )
    obj = {
        "coefficients": _series_json(result.series),
        "laurent_identification": {
            "status": result.certificate.status,
            "verified_orders": result.certificate.verified_orders,
        },
    }
    if result.certificate.ok:
        obj["laurent_identification"]["element"] = result.certificate.element.to_json()
    if args.fit_phi:
        mu = mus[0]
        bound = hurwitz_series.phi_degree_bound(args.g, mu.num_parts)
        n_lo = max(1, mu.m)
        data = hurwitz_series.oracle_data(
            args.g, mu, range(n_lo, n_lo + bound + 5), node_budget=args.max_nodes
        )
        fit = hurwitz_series.fit_phi(args.g, mu, data)
        obj["phi"] = {
            str(l): format_rational(fit.phi.coefficient(l)) for l in range(bound + 1)
        }
        obj["phi_surplus_verified"] = fit.surplus_verified
    print(json.dumps(obj))


def _cmd_tau(args) -> None:
    ds = [int(x) for x in args.d.split(",") if x.strip() != ""]
    spec = gravity.TauSpec(args.g, ds)
    value = gravity.tau_bracket(spec, node_budget=args.max_nodes)
    _emit(args, [format_rational(value)], {"bracket": format_rational(value)})


def _cmd_painleve(args) -> None:
    sol = gravity.painleve_solve(args.gmax)
    rows = [(g, format_rational(sol.e[g])) for g in range(2, args.gmax + 1)]
    _emit(
        args,
        [f"g={g} e_g={e}" for g, e in rows],
        [{"g": g, "e": e} for g, e in rows],
        csv_rows=rows,
        csv_header=("g", "e_g"),
    )


def _cmd_gravity(args) -> None:
    sol = gravity.painleve_solve(args.gmax)
    rows = []
    for g in range(2, args.gmax + 1):
        b = gravity.b_constant(g, sol)
        f = gravity.free_energy_coefficient(g, sol)
        rows.append((g, format_rational(sol.e[g]), str(b.b), str(f)))
    _emit(
        args,
        [f"g={g} e_g={e} b_g={b} f_g={f}" for g, e, b, f in rows],
        [{"g": g, "e": e, "b": b, "f": f} for g, e, b, f in rows],
        csv_rows=rows,
        csv_header=("g", "e_g", "b_g", "free_energy_coeff"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covercount",
        description="exact tree-series algebra, covering counts, and gravity constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, csv=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if csv:
            p.add_argument("--csv", action="store_true", help="CSV output")

    def add_max_nodes(p):
        p.add_argument(
            "--max-nodes",
            type=int,
            default=DEFAULT_NODE_BUDGET,
            help="search budget for the counting oracle",
        )

    p = sub.add_parser("series", help="print coefficients of a named series")
    p.add_argument("--name", required=True)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--egf", action="store_true", help="show n!-scaled coefficients")
    add_output(p, csv=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("identify", help="identify a named series in the algebra")
    p.add_argument("--name", required=True)
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--jmin", type=int, default=-4)
    p.add_argument("--jmax", type=int, default=4)
    add_output(p)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("asymptotic", help="leading coefficient growth of an element")
    p.add_argument("--laurent", help='element as JSON, e.g. {"-1":"1","0":"-1"}')
    p.add_argument("--name")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--jmin", type=int, default=-4)
    p.add_argument("--jmax", type=int, default=4)
    add_output(p)
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("cayley", help="marked-tree distance statistics")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--kmax", type=int, default=3)
    add_output(p, csv=True)
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("hurwitz", help="exact connected marked covering count")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", action="append", help='partition as "b1,b2,..."; repeatable')
    p.add_argument("--disconnected", action="store_true")
    add_output(p)
    add_max_nodes(p)
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("hseries", help="oracle-built generating series + certificate")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", action="append")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--fit-phi", action="store_true")
    add_max_nodes(p)
    p.set_defaults(func=_cmd_hseries)

    p = sub.add_parser("tau", help="psi-class bracket from covering counts")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", required=True, help='indices as "d1,d2,..."')
    add_output(p)
    add_max_nodes(p)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("painleve", help="formal Painleve I coefficients e_g")
    p.add_argument("--gmax", type=int, required=True)
    add_output(p, csv=True)
    p.set_defaults(func=_cmd_painleve)

    p = sub.add_parser("gravity", help="e_g, b_g, and free-energy coefficients")
    p.add_argument("--gmax", type=int, required=True)
    add_output(p, csv=True)
    p.set_defaults(func=_cmd_gravity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact integers print at any length: lift the interpreter's int-to-str
    # digit limit (Python 3.10.7 on) for this call, and restore the caller's
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args.func(args)
        return EXIT_OK
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConsistencyError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (DomainError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
