"""Fixtures shared across the test suite."""

import pytest

from repwalk import glasymptotics


@pytest.fixture
def pin_u(monkeypatch):
    """pin_u(u) makes the GL sampler's u rule give u at every n, and
    pin_u(None) restores the rule, so a test reads the tables and draws of
    one u.  The plan cache is keyed on the rule's value, so no stale plan
    is read."""
    rule = glasymptotics._rejection_u

    def pin(u):
        monkeypatch.setattr(glasymptotics, "_rejection_u", rule if u is None else lambda n: u)

    return pin


@pytest.fixture
def pin_prec(monkeypatch):
    """pin_prec(prec) makes the GL sampler build its enclosures and tables
    at prec bits in place of DEFAULT_PREC.  The plan cache is not keyed on
    the precision, so it is cleared at each pin and after the test."""

    def pin(prec):
        monkeypatch.setattr(glasymptotics, "DEFAULT_PREC", prec)
        glasymptotics._plan.cache_clear()

    yield pin
    glasymptotics._plan.cache_clear()
