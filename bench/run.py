"""Benchmark of chainreg: one seeded workload per run, untraced or traced.

    python3 bench/run.py --workload oracle-table --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout: it imports ``chainreg`` from the
checkout's ``src/`` and refuses any other copy, so nothing needs installing.
Workloads are defined in ``workloads.py``; metric names, units and bounds in
``BENCHMARK.json`` at the checkout root.

A run sets the workload up several times (import, spec files, pool) and
reports the median as ``setup_s``.  It then repeats whole passes over the
workload's fixed batch, in one thread, for about ``--seconds``, and checks
every output against its reference outside the timed region.  Every timed
interval is corrected for the machine's speed at that moment (``speed.py``);
the raw pass times are printed beside the metrics.  With ``--trace 1`` half
the time goes to untraced passes and half to traced ones; the traced outputs
must equal the untraced ones, each layer's self-time share is printed beside
its prediction, and the spans are written to ``.bench_out/`` when the run
ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedSampler
from tracer import LAYERS, Tracer, layer_metrics
from workloads import SPEC_DIR, SPEC_FILES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9


class SetupError(Exception):
    """The checkout cannot be benchmarked (no importable chainreg in src/)."""


@dataclass(frozen=True)
class Raised:
    """Output of an item whose call raised."""

    message: str


@dataclass
class Passes:
    """Raw timings of consecutive passes over one batch, and their outputs
    as far as they are kept: the reference pass's, and per pass the items
    whose output differs from it."""

    reference: list | None = None
    intervals: list = field(default_factory=list)  # per pass, item (start, end) pairs
    walls: list = field(default_factory=list)  # per pass, raw seconds
    diffs: list = field(default_factory=list)  # per pass, indices of differing items
    span_ranges: list = field(default_factory=list)  # per traced pass, [first, end)

    def corrected(self, sampler):
        """Per-pass walls and all item latencies, in reference seconds."""
        walls, latencies = [], []
        for iv in self.intervals:
            lat = [sampler.corrected(iv[k], iv[k + 1]) for k in range(0, len(iv), 2)]
            walls.append(sum(lat))
            latencies += lat
        return walls, latencies


def import_chainreg():
    """Fresh import of the checkout's chainreg, dropping any earlier one."""
    for name in [k for k in sys.modules if k == "chainreg" or k.startswith("chainreg.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("chainreg")
        importlib.import_module("chainreg.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import chainreg from {SRC}: {exc}") from exc
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise SetupError(f"chainreg was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload, seed: int, size: str):
    """Import, spec files, item batch: the work ``setup_s`` times."""
    lib = import_chainreg()
    specs = {c: lib.cli.load_spec(str(SPEC_DIR / SPEC_FILES[c])) for c in workload.chains}
    return lib, workload.items(lib, specs, random.Random(seed), size)


def run_passes(workload, lib, items, budget_s: float, reference=None, tracer=None) -> Passes:
    """Whole passes until the next one would overrun ``budget_s`` (at least one).

    Outputs are compared with ``reference``, by default the first pass's.
    """
    res = Passes(reference)
    clock = time.perf_counter
    start = clock()
    while True:
        gc.collect()
        first_span = len(tracer.spans) if tracer else 0
        outs, intervals = [], array("d")
        t_pass = clock()
        for item_id, payload in items:
            t0 = clock()
            try:
                if tracer is None:
                    out = workload.run(lib, payload)
                else:
                    with tracer.item(item_id):
                        out = workload.run(lib, payload)
            except Exception as exc:  # an item that raises is a failed item
                out = Raised(f"{type(exc).__name__}: {exc}")
            intervals.extend((t0, clock()))
            outs.append(out)
        res.walls.append(clock() - t_pass)
        res.intervals.append(intervals)
        if res.reference is None:
            res.reference = outs
        res.diffs.append([k for k, out in enumerate(outs) if out != res.reference[k]])
        if tracer:
            res.span_ranges.append((first_span, len(tracer.spans)))
        if clock() - start + statistics.median(res.walls) > budget_s:
            return res


def evaluate(workload, lib, items, reference, diffs, tally):
    """Check the ``reference`` outputs item by item, then count the failed
    items of every pass in ``diffs``: an item fails when its reference check
    fails or its output differs from the reference pass."""
    errors = []
    for (_, payload), out in zip(items, reference):
        if isinstance(out, Raised):
            errors.append(out.message)
            continue
        try:
            errors.append(workload.check(lib, payload, out, tally))
        except Exception as exc:  # a check that raises rejects the output
            errors.append(f"reference check raised {type(exc).__name__}: {exc}")
    failed, first_failures = 0, {}
    for differing in diffs:
        differing = set(differing)
        for k, err in enumerate(errors):
            if not err and k in differing:
                err = "output differs between passes"
            if err:
                failed += 1
                first_failures.setdefault(items[k][0], err)
    return failed, first_failures


def end_to_end(n_items, walls, latencies, setup_s, peak_rss_mb):
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "items_per_s": n_items / wall,
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced: Passes, traced_walls, untraced_walls):
    """Median over traced passes of each layer figure; times in reference seconds."""
    per_pass = []
    for (a, b), raw, wall in zip(traced.span_ranges, traced.walls, traced_walls):
        m = layer_metrics(tracer.spans[a:b], a, tracer.names, raw)
        scale = wall / raw
        for k in m:
            if k.endswith("_per_s"):
                m[k] /= scale
            elif k.endswith("_s"):
                m[k] *= scale
        per_pass.append(m)
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    return out


def print_layers(workload, metrics) -> None:
    print(f"{'layer':<10} {'self share':>10}  prediction")
    for layer in LAYERS:
        print(f"{layer:<10} {metrics[layer + '.self_share']:>10.4f}  {workload.predictions[layer]}")
    rest = 1 - sum(metrics[layer + ".self_share"] for layer in LAYERS)
    print(f"{'bench':<10} {rest:>10.4f}  item loop, tracing and speed sampling")
    for name, op, bound in workload.checks:
        value = metrics[name]
        holds = value >= bound if op == ">=" else value == bound
        print(f"prediction {name} {op} {bound:g}: {value:g}, {'holds' if holds else 'DOES NOT HOLD'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every batch for the benchmark's own self-check",
    )
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    budget = args.seconds / 2 if args.trace else args.seconds
    tracer = traced = None
    with SpeedSampler() as sampler:
        setup_intervals = []
        try:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                lib, items = setup(workload, args.seed, args.size)
                setup_intervals.append((t0, time.perf_counter()))
        except SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        untraced = run_passes(workload, lib, items, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer(lib)
            tracer.install()
            try:
                traced = run_passes(workload, lib, items, budget, untraced.reference, tracer)
            finally:
                tracer.remove()

    print(f"chainreg benchmark: workload={workload.name} seed={args.seed} size={args.size} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, one thread, "
          f"{len(items)} items per pass, {len(sampler.costs)} speed samples "
          f"(median loop {statistics.median(sampler.costs) * 1e3:.3f} ms)")
    diffs = untraced.diffs + (traced.diffs if traced else [])
    tally = Counter()
    failed, first_failures = evaluate(workload, lib, items, untraced.reference, diffs, tally)
    attempted = len(items) * len(diffs)
    print("reference: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    for item_id, err in list(first_failures.items())[:10]:
        print(f"FAILED {item_id}: {err}")
    print(f"fail_frac: {failed / attempted:g} ({failed} of {attempted} items)")

    walls, latencies = untraced.corrected(sampler)
    print("untraced pass walls, raw s:       " + " ".join(f"{w:.3f}" for w in untraced.walls))
    print("untraced pass walls, reference s: " + " ".join(f"{w:.3f}" for w in walls))
    if traced:
        traced_walls, _ = traced.corrected(sampler)
        print("traced pass walls, raw s:         " + " ".join(f"{w:.3f}" for w in traced.walls))
        print("traced pass walls, reference s:   " + " ".join(f"{w:.3f}" for w in traced_walls))
        print(f"traced outputs identical to untraced: {'NO' if any(traced.diffs) else 'yes'}")
        metrics = per_layer(tracer, traced, traced_walls, walls)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        print_layers(workload, metrics)
    else:
        setup_s = statistics.median(sampler.corrected(a, b) for a, b in setup_intervals)
        metrics = end_to_end(len(items), walls, latencies, setup_s, peak_rss_mb)
        print(f"wall_s over {len(walls)} passes; item latencies over {len(latencies)} "
              f"samples, {len(latencies) // 10} beyond p90; setup_s over {SETUP_REPEATS} set-ups")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6f} {m['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
