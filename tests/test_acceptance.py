"""Acceptance criteria: one case per check of chainreg.verify's two tables,
the checks the CLI ``verify`` command runs, numbered from 1 in that order and
named by the check.  Each prints a PASS line with its criterion number; a
failed assertion inside the check is the FAIL line.  Seeds and tolerances are
fixed in chainreg.verify; every comparison is exact.
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
