"""Shared test set-up."""

import pytest

from gzcount import genfun


@pytest.fixture(autouse=True)
def empty_grown_table():
    """Start each test with no closed form held, as a fresh process does.

    ``genfun._GROWN`` keeps the G3 closed form and the H slices at the
    largest cap built in the process; emptying it keeps every test's builds independent of the
    tests that ran before it.
    """
    genfun._GROWN.clear()
