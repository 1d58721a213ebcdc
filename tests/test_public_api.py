"""The names the chainreg package exports.

Any change to the public surface has to edit PUBLIC_NAMES below.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "AnticycleTrace",
    "AnticycleWitness",
    "ChainIndices",
    "ChainSpec",
    "ClassifierVerdict",
    "HomologyProfile",
    "PivotTrace",
    "RegularityReport",
    "SimpleGraph",
    "anticycle",
    "chain",
    "chain_indices",
    "classify",
    "complement",
    "construct_anticycle",
    "derived_chain",
    "errors",
    "expand",
    "find_induced_kK2",
    "first_hole",
    "generate_random_spec",
    "graphs",
    "induced_matching",
    "induced_subgraph",
    "is_chordal",
    "is_cochordal",
    "is_quasi_saturated",
    "limit_indmatch",
    "limit_regularity",
    "normalize_spec",
    "oracle",
    "q_invariant",
    "randspec",
    "reduce_index",
    "reduced_homology_ranks",
    "regularity",
    "spec_pool",
    "stabilization_threshold",
    "sweep_verify",
    "verify_anticycle",
]

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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


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
