"""Suite-wide test configuration.

Criterion 4 runs every iterative baseline to convergence and takes about
half of the suite's time, so it carries the ``slow`` marker: the full suite
still runs it, and ``pytest -m "not slow"`` leaves it out of a quick run.
"""

import pytest

SLOW = {"test_criterion_4_baseline_convergence_and_ordering"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.originalname in SLOW:
            item.add_marker(pytest.mark.slow)
