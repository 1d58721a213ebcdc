"""Command-line front end.

Subcommands: expand, classify, indmatch, reg, anticycle, quasisat, sweep,
verify.  Every command but verify reads a chain-spec JSON file {"r": int,
"edges": [[i, j], ...]} (edges may be unsorted and unoriented), prints either
an aligned text rendering or machine JSON, and exits 0 on success, 1 on a
computation error or closed stdout, 2 on invalid input; any other exception
is a fault in the program and propagates with its traceback (exit 1).

The spec commands are the rows of ``COMMANDS``: a verb, its help, its
function and its extra flags.  A command function takes the loaded spec and
the parsed arguments and returns ``(payload, lines)``: ``payload`` is the
dict that ``--format json`` prints, ``lines`` the text lines, yielded lazily
where the listing can be long.  ``main`` alone loads the spec, prints one or
the other and maps the exit code; a sweep with violations exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice

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


def _expand(spec, args):
    g = expand(spec, args.n)
    edge_count = g.edge_count
    if edge_count > EDGE_LIST_LIMIT:
        raise errors.InvalidArgument(
            f"G_{args.n} has {edge_count} edges, more than the {EDGE_LIST_LIMIT} "
            "that expand lists"
        )
    edges = g.sorted_edges()
    lines = chain([f"G_{args.n}: {edge_count} edges"], (f"{u} {v}" for u, v in edges))
    return {"n": g.n, "edges": edges}, lines


def _classify(spec, args):
    payload = limit_regularity(spec).to_json()
    width = max(len(k) for k in payload)
    return payload, [f"{k:<{width}}  {v}" for k, v in payload.items()]


def _indmatch(spec, args):
    value, witness = induced_matching(expand(spec, args.n))
    payload = {"n": args.n, "indmatch": value, "witness": [list(e) for e in witness]}
    return payload, chain([f"indmatch(G_{args.n}) = {value}"], (f"{u} {v}" for u, v in witness))


def _reg(spec, args):
    g = expand(spec, args.n)
    report = regularity(g, field_char=args.field, subset_budget=args.oracle_cap)
    lines = [f"reg(G_{args.n}) = {report.value}  [method={report.method}, field=GF({args.field})]"]
    if report.certificate:
        cert = report.certificate
        lines.append(f"certificate: subset={cert['subset']} dimension={cert['dimension']}")
    return {"n": args.n, **report.to_json()}, lines


def _anticycle(spec, args):
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
    lines = [
        f"anticycle of length {witness.m} in G_{args.n + spec.r} (case {trace.case})",
        " ".join(str(a) for a in witness.vertices),
    ]
    if trace.j_trace is not None:
        lines.append(f"head sets: {payload['J']}  pivots: {payload['u']}")
    lines.append(f"tail sets: {payload['K']}  pivots: {payload['v']}")
    return payload, lines


def _quasisat(spec, args):
    qs = is_quasi_saturated(spec)
    payload = {"quasi_saturated": qs, "derived": derived_chain(spec).to_json()}
    return payload, [f"quasi-saturated: {json.dumps(qs)}"]


def _sweep(spec, args):
    report = sweep_verify(
        spec, args.n_from, args.n_to, field_char=args.field, oracle_cap=args.oracle_cap
    )
    verdict = report["verdict"]
    head = [
        f"verdict: limit_reg={verdict['limit_reg']} case={verdict['case']} "
        f"n0={verdict['n0']} N={verdict['N']}",
        f"{'n':>5}  {'reg':>4}  {'cochordal':>9}  flag",
    ]
    rows = (
        f"{row['n']:>5}  {'-' if row['reg'] is None else row['reg']:>4}  "
        f"{'yes' if row['cochordal'] else 'no':>9}  {'VIOLATION' if row['flag'] else ''}"
        for row in report["rows"]
    )
    tail = [f"violations at n = {report['violations']}"] if report["violations"] else []
    return report, chain(head, rows, tail)


_N = (("--n",), {"type": int, "required": True})
_FIELD = (("--field",), {"type": int, "default": 2})
_ORACLE_CAP = (("--oracle-cap",), {"type": int, "default": DEFAULT_SUBSET_BUDGET})
_FROM = (("--from",), {"dest": "n_from", "type": int, "required": True})
_TO = (("--to",), {"dest": "n_to", "type": int, "required": True})

# (verb, help, function, flags after the spec and --format), in -h order.
COMMANDS = (
    ("expand", "materialize G_n", _expand, (_N,)),
    ("classify", "limit regularity verdict with thresholds", _classify, ()),
    ("indmatch", "exact induced matching number of G_n", _indmatch, (_N,)),
    ("reg", "homology oracle regularity of G_n", _reg, (_N, _FIELD, _ORACLE_CAP)),
    ("anticycle", "construct an induced anticycle of G_{n+r}", _anticycle, (_N,)),
    ("quasisat", "quasi-saturation test", _quasisat, ()),
    ("sweep", "verdict vs oracle/cochordality over an index range", _sweep,
     (_FROM, _TO, _FIELD, _ORACLE_CAP)),
)


def _json_chunks(payload: dict):
    """The text ``json.JSONEncoder(indent=2)`` gives for ``payload``, in
    batches, never as one string: that string took about 3x the text path's
    peak memory.  expand's fixed shape, ``n`` and a list of integer pairs, is
    written directly; the pure-Python indented encoder took about 1.7x the
    text path's time on it.
    """
    if payload.keys() == {"n", "edges"}:
        edges = iter(payload["edges"])
        yield f'{{\n  "n": {payload["n"]},\n  "edges": ['
        sep = "\n"
        while batch := list(islice(edges, 4096)):
            yield sep + ",\n".join(f"    [\n      {u},\n      {v}\n    ]" for u, v in batch)
            sep = ",\n"
        yield "]\n}" if sep == "\n" else "\n  ]\n}"
        return
    yield from _batches(json.JSONEncoder(indent=2).iterencode(payload))


def _batches(pieces, end: str = ""):
    """The strings of ``pieces``, each followed by ``end``, joined 4,096 at a
    time, so that a long listing takes one write per batch, not per piece."""
    pieces = iter(pieces)
    while batch := list(islice(pieces, 4096)):
        yield end.join(batch) + end


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainreg",
        description="Exact combinatorics of increasing-map-invariant chains of edge ideals.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text, func, flags in COMMANDS:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("spec", help="path to a chain-spec JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the bundled verification suites")
    p.add_argument("--suite", choices=("golden", "properties", "all"), default="all")
    p.add_argument(
        "--seed", type=int, default=None,
        help="override the frozen base seed of the property checks",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "verify":
            code = 0 if run_suite(args.suite, seed=args.seed) else 1
        else:
            payload, lines = args.func(load_spec(args.spec), args)
            if args.format == "json":
                sys.stdout.writelines(_json_chunks(payload))
                print()
            else:
                sys.stdout.writelines(_batches(lines, "\n"))
            code = 1 if payload.get("violations") else 0
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except errors.ChainRegError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, errors.InvalidInputError) else 1
    except BrokenPipeError:
        # The reader left (``| head``): drop the buffer, or exit's flush raises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
