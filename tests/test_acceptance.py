"""Acceptance criteria: one case per check of chainreg.verify's two tables,
the checks the CLI ``verify`` command runs, numbered from 1 in that order and
named by the check.  Each prints a PASS line with its criterion number; a
failed assertion inside the check is the FAIL line.  Seeds and tolerances are
fixed in chainreg.verify; every comparison is exact.

This is the tier-1 home of the golden checks (the expansion, the q-invariant,
the table chain's regularities, the six-edge anticycle traces, the reg3 and
near-sharp chains) and of the seeded property checks; the report of
``chainreg verify --suite all`` is pinned by golden/verify.all.txt.  No unit
test restates them.
"""

import pytest

from chainreg.verify import GOLDEN_CHECKS, PROPERTY_CHECKS


@pytest.mark.parametrize(
    "number, check",
    [
        pytest.param(number, check, id=name)
        for number, (name, check) in enumerate(GOLDEN_CHECKS + PROPERTY_CHECKS, 1)
    ],
)
def test_criterion(number, check):
    print(f"PASS criterion {number}: {check()}")
