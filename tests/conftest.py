"""Checks that hold around every test."""

import os

import pytest

# Read before any test can replace it.
_cpu_mask = getattr(os, "sched_getaffinity", None)


@pytest.fixture(autouse=True)
def _keeps_the_cpu_mask():
    """A test leaves this process's CPU mask as it found it: a forked run
    narrows it only until its child is reaped."""
    before = _cpu_mask and _cpu_mask(0)
    yield
    assert (_cpu_mask and _cpu_mask(0)) == before
