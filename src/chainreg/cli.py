"""Command-line front end.

Subcommands: expand, classify, indmatch, reg, anticycle, quasisat, sweep,
verify.  Every command reads a chain-spec JSON file {"r": int, "edges":
[[i, j], ...]} (edges may be unsorted and unoriented), prints either an
aligned text rendering or machine JSON, and exits 0 on success, 1 on a
computation error, 2 on invalid input.  Any other exception is a fault in
the program and propagates with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors
from .anticycle import construct_anticycle
from .chain import derived_chain, expand, is_quasi_saturated, normalize_spec
from .classify import limit_regularity, sweep_verify
from .graphs import induced_matching
from .oracle import DEFAULT_SUBSET_BUDGET, regularity
from .verify import run_suite


# `expand` lists every edge as a tuple and a JSON pair; past this many edges
# it refuses before listing rather than exhaust memory on the output.
EDGE_LIST_LIMIT = 1_000_000


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int.
    return isinstance(x, int) and not isinstance(x, bool)


def load_spec(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise errors.ParseError(f"cannot read spec file: {exc}")
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"spec file {path} is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise errors.ParseError(f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict) or "r" not in data or "edges" not in data:
        raise errors.ParseError('spec file must be an object {"r": ..., "edges": [...]}')
    r, edges = data["r"], data["edges"]
    if (
        not _is_int(r)
        or not isinstance(edges, list)
        or not all(
            isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)
            for e in edges
        )
    ):
        raise errors.ParseError("spec fields must be an integer r and a list of integer pairs")
    return normalize_spec(r, [tuple(e) for e in edges])


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _emit_table(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k:<{width}}  {v}")


def _cmd_expand(args) -> int:
    spec = load_spec(args.spec)
    g = expand(spec, args.n)
    edge_count = g.edge_count
    if edge_count > EDGE_LIST_LIMIT:
        raise errors.InvalidArgument(
            f"G_{args.n} has {edge_count} edges, more than the {EDGE_LIST_LIMIT} "
            "that expand lists"
        )
    if args.format == "json":
        _emit_json(g.to_json())
    else:
        print(f"G_{args.n}: {edge_count} edges")
        for u, v in g.sorted_edges():
            print(f"{u} {v}")
    return 0


def _cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    verdict = limit_regularity(spec)
    if args.format == "json":
        _emit_json(verdict.to_json())
    else:
        _emit_table(list(verdict.to_json().items()))
    return 0


def _cmd_indmatch(args) -> int:
    spec = load_spec(args.spec)
    g = expand(spec, args.n)
    value, witness = induced_matching(g)
    if args.format == "json":
        _emit_json({"n": args.n, "indmatch": value, "witness": [list(e) for e in witness]})
    else:
        print(f"indmatch(G_{args.n}) = {value}")
        for u, v in witness:
            print(f"{u} {v}")
    return 0


def _cmd_reg(args) -> int:
    spec = load_spec(args.spec)
    g = expand(spec, args.n)
    report = regularity(g, field_char=args.field, subset_budget=args.oracle_cap)
    if args.format == "json":
        _emit_json({"n": args.n, **report.to_json()})
    else:
        print(f"reg(G_{args.n}) = {report.value}  [method={report.method}, field=GF({args.field})]")
        if report.certificate:
            cert = report.certificate
            print(f"certificate: subset={cert['subset']} dimension={cert['dimension']}")
    return 0


def _cmd_anticycle(args) -> int:
    spec = load_spec(args.spec)
    witness, trace = construct_anticycle(spec, args.n)
    payload = {
        "case": trace.case,
        "J": None if trace.j_trace is None else [list(s) for s in trace.j_trace.sets],
        "K": [list(s) for s in trace.k_trace.sets],
        "u": None if trace.j_trace is None else list(trace.j_trace.pivots),
        "v": list(trace.k_trace.pivots),
        "beta": None if trace.j_trace is None else len(trace.j_trace.pivots),
        "gamma": len(trace.k_trace.pivots),
        "vertices": list(witness.vertices),
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"anticycle of length {witness.m} in G_{args.n + spec.r} (case {trace.case})")
        print(" ".join(str(a) for a in witness.vertices))
        if trace.j_trace is not None:
            print(f"head sets: {payload['J']}  pivots: {payload['u']}")
        print(f"tail sets: {payload['K']}  pivots: {payload['v']}")
    return 0


def _cmd_quasisat(args) -> int:
    spec = load_spec(args.spec)
    qs = is_quasi_saturated(spec)
    if args.format == "json":
        _emit_json({"quasi_saturated": qs, "derived": derived_chain(spec).to_json()})
    else:
        print(f"quasi-saturated: {'true' if qs else 'false'}")
    return 0


def _cmd_sweep(args) -> int:
    spec = load_spec(args.spec)
    report = sweep_verify(
        spec, args.n_from, args.n_to, field_char=args.field, oracle_cap=args.oracle_cap
    )
    if args.format == "json":
        _emit_json(report)
    else:
        verdict = report["verdict"]
        print(
            f"verdict: limit_reg={verdict['limit_reg']} case={verdict['case']} "
            f"n0={verdict['n0']} N={verdict['N']}"
        )
        print(f"{'n':>5}  {'reg':>4}  {'cochordal':>9}  flag")
        for row in report["rows"]:
            reg_s = "-" if row["reg"] is None else str(row["reg"])
            coch_s = "yes" if row["cochordal"] else "no"
            flag_s = "VIOLATION" if row["flag"] else ""
            print(f"{row['n']:>5}  {reg_s:>4}  {coch_s:>9}  {flag_s}")
        if report["violations"]:
            print(f"violations at n = {report['violations']}")
    return 1 if report["violations"] else 0


def _cmd_verify(args) -> int:
    ok = run_suite(args.suite, seed=args.seed)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainreg",
        description="Exact combinatorics of increasing-map-invariant chains of edge ideals.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="path to a chain-spec JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("expand", help="materialize G_n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("classify", help="limit regularity verdict with thresholds")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("indmatch", help="exact induced matching number of G_n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_indmatch)

    p = sub.add_parser("reg", help="homology oracle regularity of G_n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(func=_cmd_reg)

    p = sub.add_parser("anticycle", help="construct an induced anticycle of G_{n+r}")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_anticycle)

    p = sub.add_parser("quasisat", help="quasi-saturation test")
    common(p)
    p.set_defaults(func=_cmd_quasisat)

    p = sub.add_parser("sweep", help="verdict vs oracle/cochordality over an index range")
    common(p)
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the bundled verification suites")
    p.add_argument("--suite", choices=("golden", "properties", "all"), default="all")
    p.add_argument(
        "--seed", type=int, default=None,
        help="override the frozen base seed of the property checks",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.InvalidInputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except errors.ChainRegError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
