"""Shared fixtures for the test suite.

Precision contexts are session-scoped (immutable, so sharing is safe); every
randomized test builds its own seeded ``random.Random`` so failures replay.
"""

from __future__ import annotations

import pytest

from voigt_asym import PrecisionContext, coefficients, expansions


@pytest.fixture(scope="session")
def ctx40() -> PrecisionContext:
    return PrecisionContext(digits=40)


@pytest.fixture(scope="session")
def ctx60() -> PrecisionContext:
    return PrecisionContext(digits=60)


@pytest.fixture
def estimate_digits(monkeypatch):
    """The precisions at which the theorem1/theorem2 estimates run."""
    seen = []
    real = expansions._series_estimate

    def spy(arg, plan, k_terms, uniform, ctx):
        seen.append(ctx.digits)
        return real(arg, plan, k_terms, uniform, ctx)

    monkeypatch.setattr(expansions, "_series_estimate", spy)
    return seen


@pytest.fixture
def coefficient_pass():
    """The memoized coefficient pass, emptied before and after the test, so
    that no entry crosses into or out of it."""
    memo = coefficients._coefficient_pass
    memo.cache_clear()
    yield memo
    memo.cache_clear()
