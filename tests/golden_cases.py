"""The golden snapshots in tests/golden/ and the command line that prints each.

``GOLDEN_CASES`` maps each snapshot's file name to the ``chainreg`` argv
whose standard output it holds, with spec files named relative to the
repository root.  The snapshot tests in test_cli.py read their argv from it;
run from the root, ``python tests/golden_cases.py`` prints one line per
snapshot, its file name and then its argv separated by spaces, which the CI
loop feeds to the installed console script.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CHAIN_NAMES = sorted(p.stem for p in (ROOT / "bench" / "specs").glob("*.json"))

# Every golden chain runs each of these commands, in JSON and in text.
GOLDEN_COMMANDS = {
    "expand": ["--n", "30"],
    "indmatch": ["--n", "12"],
    "classify": [],
    "reg": ["--n", "14"],
    "quasisat": [],
    "sweep": ["--from", "30", "--to", "33"],
}


def spec_path(chain: str) -> str:
    return f"bench/specs/{chain}.json"


GOLDEN_CASES = {
    f"{chain}.{verb}.{suffix}": [verb, spec_path(chain), *flags, "--format", fmt]
    for chain in GOLDEN_CHAIN_NAMES
    for verb, flags in GOLDEN_COMMANDS.items()
    for fmt, suffix in (("json", "json"), ("text", "txt"))
}
# The anticycle construction applies to two of the chains.
for chain in ("reg3", "six_edge"):
    for n in (18, 19, 20):
        GOLDEN_CASES[f"{chain}.anticycle.{n}.json"] = [
            "anticycle", spec_path(chain), "--n", str(n), "--format", "json"
        ]
    GOLDEN_CASES[f"{chain}.anticycle.18.txt"] = ["anticycle", spec_path(chain), "--n", "18"]
_ORACLE_SWEEP = ["sweep", spec_path("table"), "--from", "10", "--to", "34", "--oracle-cap", "34"]
GOLDEN_CASES.update({
    "table.sweep.oracle.json": [*_ORACLE_SWEEP, "--format", "json"],
    "table.sweep.oracle.txt": [*_ORACLE_SWEEP, "--format", "text"],
    "table.sweep.oracle.gf3.json": [
        "sweep", spec_path("table"), "--from", "10", "--to", "19", "--field", "3", "--format", "json"
    ],
    "six_edge.reg.38.json": [
        "reg", spec_path("six_edge"), "--n", "38", "--oracle-cap", "64", "--format", "json"
    ],
    "six_edge.reg.400.json": [
        "reg", spec_path("six_edge"), "--n", "400", "--oracle-cap", "400", "--format", "json"
    ],
    "reg3.reg.400.json": [
        "reg", spec_path("reg3"), "--n", "400", "--oracle-cap", "400", "--format", "json"
    ],
    "table.reg.13.json": ["reg", spec_path("table"), "--n", "13", "--format", "json"],
    "table.reg.17.json": ["reg", spec_path("table"), "--n", "17", "--format", "json"],
    "verify.all.txt": ["verify", "--suite", "all"],
})


if __name__ == "__main__":
    for name, argv in GOLDEN_CASES.items():
        print(name, *argv)
