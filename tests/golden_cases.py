"""The golden snapshots in tests/golden/ and the command line that prints each.

``GOLDEN_CASES`` maps each snapshot's file name to the ``chainreg`` argv
whose standard output it holds, with spec files named relative to the
repository root.  The snapshot tests in test_cli.py run one case per entry,
and a comment beside each special entry says what it pins.  Run from the
root, ``python tests/golden_cases.py`` prints one line per
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
# The anticycle construction applies to two of the chains: its JSON at
# n = 18, 19 and 20, and its text at n = 18.
for chain in ("reg3", "six_edge"):
    for n in (18, 19, 20):
        GOLDEN_CASES[f"{chain}.anticycle.{n}.json"] = [
            "anticycle", spec_path(chain), "--n", str(n), "--format", "json"
        ]
    GOLDEN_CASES[f"{chain}.anticycle.18.txt"] = ["anticycle", spec_path(chain), "--n", "18"]
# An oracle cap of 34 sends the table chain's rows 10..34 to the oracle, below
# and past n0 = 30; the text shows the cochordal column read off their values.
_ORACLE_SWEEP = ["sweep", spec_path("table"), "--from", "10", "--to", "34", "--oracle-cap", "34"]
GOLDEN_CASES.update({
    "table.sweep.oracle.json": [*_ORACLE_SWEEP, "--format", "json"],
    "table.sweep.oracle.txt": [*_ORACLE_SWEEP, "--format", "text"],
    # Rows 10, 11, 13 and 14 take the walk, with reg 5, 4, 4 and 4: an odd
    # field's signed boundary ranks on certificates of dimension >= 2.
    "table.sweep.oracle.gf3.json": [
        "sweep", spec_path("table"), "--from", "10", "--to", "19", "--field", "3", "--format", "json"
    ],
    # Six-edge G_38 has 38 supported vertices, past the default cap, and reg 3.
    "six_edge.reg.38.json": [
        "reg", spec_path("six_edge"), "--n", "38", "--oracle-cap", "64", "--format", "json"
    ],
    # G_400 has reg 3, certified by a hole of 200 (six-edge) or 400 (reg3)
    # vertices, the least of its length.
    "six_edge.reg.400.json": [
        "reg", spec_path("six_edge"), "--n", "400", "--oracle-cap", "400", "--format", "json"
    ],
    "reg3.reg.400.json": [
        "reg", spec_path("reg3"), "--n", "400", "--oracle-cap", "400", "--format", "json"
    ],
    # Table G_13 has reg 4; the walk runs on 6 of its 13 supported vertices,
    # the certificate's, after the others are deleted.
    "table.reg.13.json": ["reg", spec_path("table"), "--n", "13", "--format", "json"],
    # Table G_17 has reg 3, certified by its first hole, of length 5: its
    # least mask is picked from two-vertex paths between the ends.
    "table.reg.17.json": ["reg", spec_path("table"), "--n", "17", "--format", "json"],
    # The report of every golden and property check, its pass lines pinned.
    "verify.all.txt": ["verify", "--suite", "all"],
})


if __name__ == "__main__":
    for name, argv in GOLDEN_CASES.items():
        print(name, *argv)
