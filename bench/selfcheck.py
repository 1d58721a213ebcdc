"""Fast self-check of the benchmark at tiny sizes, in a few seconds.

    python3 bench/selfcheck.py

Checks ``BENCHMARK.json`` against the limits the file must keep, then runs
every workload untraced and traced on tiny batches, in this process, and
checks that the result line names every metric of ``BENCHMARK.json`` with
its unit, that no item failed (``fail_frac`` is 0) and that the traced outputs
equal the untraced ones.  Exits 1 with a message on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import numbers
import re
import sys

import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_benchmark_json(spec) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, f"unexpected keys {sorted(spec)}")
    require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
            "run_seconds must be a whole number in 1..60")
    require(2 <= len(spec["workloads"]) <= 8, "need 2 to 8 workloads")
    require([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.py")
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
                f"workload entry {w}")
    require(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128,
            "metric counts out of range")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    require(len(names) == len(set(names)), "a metric name is used twice")
    for m in spec["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end entry {m}")
        require(0 < m["bound"] <= 0.25, f"bound of {m['name']} must be in (0, 0.25]")
    for m in spec["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), f"metric {m}")
        require(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
            "setup_s must be an end-to-end metric in s, lower is better")
    require(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
            "setup_s must have the largest bound")


def check_run(spec, workload: str, trace: int) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny"])
    lines = out.getvalue().splitlines()
    where = f"{workload} --trace {trace}"
    require(code == 0, f"{where}: exit code {code}")
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{where}: result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
            f"{where}: correct={result['correct']} failed={result['failed']}")
    require(any(line.startswith("fail_frac: 0 ") for line in lines),
            f"{where}: fail_frac is not printed as 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    require(list(result["metrics"]) == [m["name"] for m in wanted],
            f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        require(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
        value = got["value"]
        require(isinstance(value, numbers.Real) and not isinstance(value, bool),
                f"{where}: value of {m['name']} is not a number")
        if not trace:
            require(value > 0, f"{where}: end-to-end metric {m['name']} reads {value}")
        require(any(line.split()[:1] == [m["name"]] for line in lines),
                f"{where}: {m['name']} is not printed by name")
    if trace:
        require("traced outputs identical to untraced: yes" in lines,
                f"{where}: traced outputs differ from untraced")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        check_benchmark_json(spec)
        for workload in WORKLOADS:
            for trace in (0, 1):
                check_run(spec, workload, trace)
    except CheckFailed as exc:
        print(f"selfcheck FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"selfcheck ok: BENCHMARK.json, {len(WORKLOADS)} workloads untraced and traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
