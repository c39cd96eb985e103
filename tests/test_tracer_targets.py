"""The benchmark's layer trace (`perfbench/run.py --trace 1`) wraps each
`perfbench/child.py` TRACED attribute where its callers look it up.  A
rename or deletion in the package would break the trace without failing
any other test, so every entry must still resolve."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import child  # noqa: E402
from pulsebandit.imputation import Imputer  # noqa: E402

# wrapped by child._install_tracer outside TRACED, to count distinct queries
WRAPPED_APART = [(Imputer, "conditional_mean")]


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in child.TRACED] + WRAPPED_APART,
    ids=lambda x: getattr(x, "__name__", x),
)
def test_traced_attribute_resolves(owner, attr):
    assert hasattr(owner, attr)
