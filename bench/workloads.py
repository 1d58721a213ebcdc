"""The three benchmark workloads: their inputs, one item's work, its reference.

Each workload builds a fixed batch of items from the run's seed during set-up;
a pass runs every item once.  Items call the library only through attributes
of the imported package's modules (``lib.chain.expand``), so a traced run sees
every call at the layer boundary.  ``check`` runs outside the timed region and
compares one item's output with a reference that does not come from the code
path under test: golden values, certificate re-checks through the public
homology routine, and the cochordality property of the verdict.
"""

from __future__ import annotations

from pathlib import Path

SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: The golden chains, loaded through the CLI's spec reader during set-up.
SPEC_FILES = {
    "TABLE": "table.json",
    "NEAR_SHARP": "near_sharp.json",
    "REG3": "reg3.json",
    "SIX_EDGE": "six_edge.json",
}

#: Regularity of G_n for the table chain, over GF(2) and GF(3) alike.
TABLE_REGS = {10: 5, 11: 4, 12: 3, 13: 4, 14: 4, 15: 3, 16: 3, 17: 3, 18: 3, 19: 2}

#: Anticycle witnesses of the six-edge chain in G_{n+9}, vertex for vertex.
GOLDEN_WITNESSES = {
    18: (1, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27),
    19: (1, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27, 28),
    20: (1, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 29),
}


def _certificate_holds(lib, G, subset, dimension: int, field_char: int) -> bool:
    """Re-check an oracle certificate with the full homology of the subgraph."""
    sub = lib.graphs.induced_subgraph(G, subset)
    return lib.oracle.reduced_homology_ranks(sub, field_char=field_char).rank(dimension) != 0


def _report_output(rep):
    cert = rep.certificate
    return (rep.value, tuple(cert["subset"]), cert["dimension"])


class OracleTable:
    """One homology-oracle answer per (n, p) on the table chain."""

    name = "oracle-table"
    chains = ("TABLE",)
    # Nearly all of a pass is the oracle's subset scan, which doubles with
    # each vertex; the graphs themselves are tiny.  This is where oracle
    # pruning must show its gain.
    predictions = {
        "oracle": "at least 90% of the pass: the subset scan",
        "chain": "negligible: ten expansions of at most 18 vertices",
        "graphs": "negligible: one induced_subgraph per call",
        "classify": "not called",
        "anticycle": "not called",
    }
    checks = (("oracle.self_share", ">=", 0.90),)

    def items(self, lib, specs, rng, size):
        ns = range(14, 19) if size == "full" else range(10, 13)
        items = [(f"n={n},p={p}", (specs["TABLE"], n, p)) for n in ns for p in (2, 3)]
        rng.shuffle(items)
        return items

    def run(self, lib, payload):
        spec, n, p = payload
        return _report_output(lib.oracle.regularity(lib.chain.expand(spec, n), field_char=p))

    def check(self, lib, payload, out, tally):
        spec, n, p = payload
        value, subset, dimension = out
        if value != TABLE_REGS[n]:
            return f"reg {value} differs from the golden {TABLE_REGS[n]}"
        if dimension != value - 2:
            return f"certificate dimension {dimension} does not give reg {value}"
        if not _certificate_holds(lib, lib.chain.expand(spec, n), subset, dimension, p):
            return f"no homology in dimension {dimension} on the certified subset"
        tally["certificates re-checked"] += 1
        return None


class SweepLate:
    """Single-row sweeps of the golden chains past the oracle cap, plus the
    six-edge chain's anticycles over the same indices."""

    name = "sweep-late"
    chains = ("TABLE", "NEAR_SHARP", "REG3", "SIX_EDGE")
    # Starting at n = 30 keeps every graph above the default oracle cap, so
    # the oracle never runs: an oracle change must predict no change here.
    # n = 18..20 add the three anticycles with golden vertex lists.
    predictions = {
        "chain": "largest share: expand and SimpleGraph construction",
        "graphs": "second: complement and is_chordal for cochordality",
        "oracle": "0 calls: every n is above the oracle cap",
        "anticycle": "minor share",
        "classify": "small: one limit_regularity per row",
    }
    checks = (("oracle.regularity.calls", "==", 0),)

    def items(self, lib, specs, rng, size):
        ns = range(30, 141) if size == "full" else range(30, 34)
        items = [(f"{c}:n={n}", ("sweep", specs[c], n)) for c in self.chains for n in ns]
        items += [
            (f"anticycle:n={n}", ("anticycle", specs["SIX_EDGE"], n))
            for n in (*GOLDEN_WITNESSES, *ns)
        ]
        rng.shuffle(items)
        return items

    def run(self, lib, payload):
        kind, spec, n = payload
        if kind == "sweep":
            rep = lib.classify.sweep_verify(spec, n, n)
            return (rep["verdict"], rep["rows"], tuple(rep["violations"]))
        witness, trace = lib.anticycle.construct_anticycle(spec, n)
        return (witness.vertices, trace.case)

    def check(self, lib, payload, out, tally):
        kind, spec, n = payload
        if kind == "sweep":
            _, rows, violations = out
            if violations or rows[0]["flag"]:
                return f"sweep flags n={n} against the verdict"
            if rows[0]["n"] != n or rows[0]["method"] == "hochster-oracle":
                return f"row {rows[0]} is not an above-cap row for n={n}"
            tally["sweep rows without violation"] += 1
            return None
        vertices, _ = out
        if not lib.graphs.verify_anticycle(lib.chain.expand(spec, n + spec.r), vertices):
            return f"witness at n={n} is not an induced anticycle"
        tally["witnesses re-verified"] += 1
        if n in GOLDEN_WITNESSES:
            if vertices != GOLDEN_WITNESSES[n]:
                return f"witness at n={n} differs from the golden vertex list"
            tally["golden witnesses matched"] += 1
        return None


class ClassifyPool:
    """Limit-regularity verdicts for a seeded pool of random presentations."""

    name = "classify-pool"
    chains = ()
    r_values = (3, 5, 7, 9)
    #: Largest expansion (generator count times window points) the reference
    #: check materializes to test cochordality at max(n0, 4r).
    check_expand_limit = 250_000
    predictions = {
        "classify": "small self time: limit_indmatch hands its search to graphs",
        "graphs": "largest: find_induced_kK2, called by classify.limit_indmatch",
        "chain": "reduce_index and many small expand calls",
        "oracle": "many 12-vertex graphs (r = 3), where per-call cost counts",
        "anticycle": "not called",
    }
    checks = ()

    def items(self, lib, specs, rng, size):
        count = 960 if size == "full" else 24
        strata = count // len(self.r_values)
        items = []
        for k in range(count):
            r = self.r_values[k % len(self.r_values)]
            # One density per spec, jittered within its stratum of
            # [0.15, 0.95), so every pool covers the range evenly.
            density = 0.15 + 0.8 * (k // len(self.r_values) + rng.random()) / strata
            spec = lib.randspec.generate_random_spec(r, density, rng.randrange(1 << 32))
            items.append((f"spec{k}:r={r}", spec))
        rng.shuffle(items)
        return items

    def run(self, lib, spec):
        verdict = lib.classify.limit_regularity(spec).to_json()
        if spec.r != 3:
            return (verdict, None)
        rep = lib.oracle.regularity(lib.chain.expand(spec, 4 * spec.r))
        return (verdict, _report_output(rep))

    def check(self, lib, spec, out, tally):
        verdict, reg = out
        limit = verdict["limit_reg"]
        if limit not in (2, 3):
            return f"limit regularity {limit} is neither 2 nor 3"
        n = max(verdict["n0"], 4 * spec.r)
        m = n - spec.r
        if spec.s * (m + 1) * (m + 2) // 2 <= self.check_expand_limit:
            if lib.graphs.is_cochordal(lib.chain.expand(spec, n)) != (limit == 2):
                return f"cochordality of G_{n} contradicts the verdict {limit}"
            tally["cochordality checked"] += 1
        else:
            tally["cochordality skipped (too large to expand)"] += 1
        if reg is not None:
            value, subset, dimension = reg
            if value > 3:
                return f"oracle regularity {value} at n=4r exceeds 3"
            if dimension != value - 2:
                return f"certificate dimension {dimension} does not give reg {value}"
            G = lib.chain.expand(spec, 4 * spec.r)
            if not _certificate_holds(lib, G, subset, dimension, 2):
                return f"no homology in dimension {dimension} on the certified subset"
            tally["r=3 oracle values checked"] += 1
        return None


WORKLOADS = {w.name: w for w in (OracleTable(), SweepLate(), ClassifyPool())}
