"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitize
from repro.agreements import (
    complete_structure,
    distance_decay_structure,
    loop_structure,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def sanitized():
    """Enable the sanitizer for one test, restoring the ambient state
    (the suite also runs with REPRO_SANITIZE=1 globally in CI)."""
    prev = sanitize.enabled()
    sanitize.enable()
    yield
    if not prev:
        sanitize.disable()


@pytest.fixture
def complete10():
    """The case study's main structure: 10 ISPs, complete, 10% each."""
    return complete_structure(10, share=0.1, capacity=1.0)


@pytest.fixture
def loop10():
    """Figure 9's structure: 10 ISPs in a loop, 80% with the next."""
    return loop_structure(10, share=0.8, skip=1, capacity=1.0)


@pytest.fixture
def decay10():
    """Figure 13's distance-decay structure."""
    return distance_decay_structure(10)


def random_agreement_matrix(rng, n, max_row_sum=0.9):
    """A random valid relative agreement matrix."""
    S = rng.random((n, n))
    np.fill_diagonal(S, 0.0)
    row_sums = S.sum(axis=1)
    scale = np.where(row_sums > 0, max_row_sum * rng.random(n) / np.maximum(row_sums, 1e-12), 0.0)
    return S * scale[:, None]
