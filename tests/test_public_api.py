"""The names the chainreg package exports.

Any change to the public surface has to edit PUBLIC_NAMES below.
"""

import importlib
import json
import re

from conftest import run_python
from golden_cases import ROOT

PUBLIC_NAMES = [
    "AnticycleTrace",
    "AnticycleWitness",
    "ChainIndices",
    "ChainSpec",
    "ClassifierVerdict",
    "PivotTrace",
    "RegularityReport",
    "SimpleGraph",
    "anticycle",
    "chain",
    "chain_indices",
    "classify",
    "construct_anticycle",
    "derived_chain",
    "errors",
    "expand",
    "first_hole",
    "generate_random_spec",
    "graphs",
    "induced_matching",
    "is_cochordal",
    "is_quasi_saturated",
    "limit_indmatch",
    "limit_regularity",
    "normalize_spec",
    "oracle",
    "q_invariant",
    "randspec",
    "reduce_index",
    "regularity",
    "spec_pool",
    "stabilization_threshold",
    "sweep_verify",
    "verify_anticycle",
]

# Public in their modules but not exported: the package itself does not call
# them, and the benchmark reads them by module path.
MODULE_ONLY_NAMES = {
    "graphs": ["complement", "find_induced_kK2", "induced_subgraph", "is_chordal"],
    "oracle": ["HomologyProfile", "reduced_homology_ranks"],
}

REMOVED_NAMES = [
    "IncMapWitness",
    "find_induced_c4",
    "induced_matching_number",
    "msupp",
    "orbit_witness",
]


def _fresh_public_names() -> list[str]:
    # A fresh interpreter: importing chainreg.cli or chainreg.verify in this
    # test session would add those submodules to the package's attributes.
    code = "import chainreg\nprint(' '.join(n for n in dir(chainreg) if not n.startswith('_')))\n"
    return run_python("-c", code, check=True).stdout.split()


def test_public_names_match_the_list():
    assert sorted(_fresh_public_names()) == PUBLIC_NAMES


def test_removed_routes_stay_removed():
    import chainreg
    from chainreg import chain, classify, graphs

    for name in REMOVED_NAMES:
        assert not hasattr(chainreg, name), name
    assert not hasattr(chain, "orbit_witness") and not hasattr(chain, "IncMapWitness")
    assert not hasattr(chain, "msupp")
    assert not hasattr(graphs, "induced_matching_number")
    assert not hasattr(graphs, "find_induced_c4")
    assert "presented_r" not in classify.ClassifierVerdict.__dataclass_fields__


def test_module_only_names_stay_in_their_modules():
    for layer, names in MODULE_ONLY_NAMES.items():
        module = importlib.import_module(f"chainreg.{layer}")
        for name in names:
            assert hasattr(module, name), f"chainreg.{layer}.{name}"


def test_benchmark_pinned_names_resolve():
    # The benchmark's per-layer counters and its workloads name library
    # functions by module path; a deleted or renamed one would otherwise
    # show only as a KeyError in a traced benchmark run.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = set()
    for metric in bench["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] == "calls":
            pinned.add((parts[0], parts[1]))
    assert pinned
    for path in sorted((ROOT / "bench").glob("*.py")):
        pinned.update(re.findall(r"\blib\.(\w+)\.(\w+)", path.read_text()))
    assert ("graphs", "induced_subgraph") in pinned
    missing = [
        f"chainreg.{layer}.{name}"
        for layer, name in sorted(pinned)
        if name.startswith("_") or not hasattr(importlib.import_module(f"chainreg.{layer}"), name)
    ]
    assert not missing, missing
