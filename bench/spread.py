"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --record bench/baseline.json

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
``run_seconds`` from ``BENCHMARK.json``.  For each end-to-end metric it prints
the median and the quartiles of the runs, as ``statistics.quantiles(n=4)``
gives them, and the spread: the distance between the quartiles as a share of
the median, next to the metric's bound.  With ``--record`` it also makes one
traced run per workload and writes the medians, quartiles and per-layer
shares, with the machine and Python version, to the given JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return result


def regularity_call_s(workload: str, seed: int, item: str) -> float:
    """Raw duration of the traced oracle call of one item, from the spans file."""
    path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    return statistics.median(
        s["end"] - s["start"] for s in spans
        if s["name"] == "oracle.regularity" and s["item"] == item
    )


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    ap.add_argument("--record", type=Path, help="write the baseline record here")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        runs = [run_once(w, s, spec["run_seconds"], 0) for s in seeds]
        entry = record["workloads"][w] = {
            "why": next(x["why"] for x in spec["workloads"] if x["name"] == w),
            "definition": " ".join(WORKLOADS[w].__doc__.split()),
            "predictions": WORKLOADS[w].predictions,
            "end_to_end": {},
        }
        print(f"{w}: {len(runs)} runs, seeds {args.seeds}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            share = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": share,
            }
            flag = "" if share < m["bound"] / 3 else "  above a third of the bound"
            print(f"  {m['name']:<14} median {med:12.4f} {m['unit']:<4} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {share:.4f} bound {m['bound']}{flag}")
        if args.record:
            traced = run_once(w, seeds[0], spec["run_seconds"], 1)["metrics"]
            entry["per_layer"] = {k: v["value"] for k, v in traced.items()}
            print("  self shares: " + ", ".join(
                f"{layer} {traced[layer + '.self_share']['value']:.4f}" for layer in LAYERS))
            if w == "oracle-table":
                # The ROADMAP baseline quotes one oracle call on the table
                # chain at n=14 over GF(2); this is the same call, traced.
                entry["table_n14_gf2_call_raw_s"] = regularity_call_s(w, seeds[0], "n=14,p=2")
    if args.record:
        args.record.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
