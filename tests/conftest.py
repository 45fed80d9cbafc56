from __future__ import annotations

import numpy as np
import pytest

from fvqsd import validate_chain


@pytest.fixture(scope="session")
def golden_chain():
    """2 sites, unit internal rates, absorption only at site 1."""
    return validate_chain({
        "states": ["1", "2"],
        "rates": [[0.0, 1.0], [1.0, 0.0]],
        "absorption": [1.0, 0.0],
    })


@pytest.fixture(scope="session")
def symmetric_chain():
    """2 sites, unit internal rates, absorption 0.5 everywhere; QSD is flat."""
    return validate_chain({
        "states": ["1", "2"],
        "rates": [[0.0, 1.0], [1.0, 0.0]],
        "absorption": [0.5, 0.5],
    })


@pytest.fixture(scope="session")
def single_site_chain():
    return validate_chain({
        "states": ["a"],
        "rates": [[0.0]],
        "absorption": [1.0],
    })


@pytest.fixture(scope="session")
def three_site_chain():
    # Site c only reachable through b; row a has a zero tail in its jump
    # kernel, which exercises the cumulative-row guards.
    return validate_chain({
        "states": ["a", "b", "c"],
        "rates": [
            [0.0, 2.0, 0.0],
            [1.0, 0.0, 1.0],
            [0.0, 3.0, 0.0],
        ],
        "absorption": [0.5, 0.0, 1.5],
    })


# Sites b and d have no absorption, so their move-table rows carry a forced
# 2.0 tail; uneven rates make the scaled rows round.
FIVE_SITE = validate_chain({
    "states": ["a", "b", "c", "d", "e"],
    "rates": [
        [0.0, 1.1, 0.0, 0.0, 0.4],
        [0.3, 0.0, 0.7, 0.0, 0.0],
        [0.0, 0.9, 0.0, 1.7, 0.0],
        [0.0, 0.0, 0.6, 0.0, 0.1],
        [0.5, 0.0, 0.0, 0.8, 0.0],
    ],
    "absorption": [0.7, 0.0, 0.3, 0.0, 0.25],
})


@pytest.fixture(scope="session")
def five_site_chain():
    return FIVE_SITE


def make_random_chain(rng: np.random.Generator):
    """Fully connected random chain, n in 2..6, rates in (0, 5]."""
    n = int(rng.integers(2, 7))
    off = 5.0 * (1.0 - rng.random((n, n)))
    np.fill_diagonal(off, 0.0)
    absorption = rng.uniform(0.0, 5.0, n)
    if not (absorption > 0.0).any():
        absorption[0] = 1.0
    return validate_chain({
        "states": [str(k + 1) for k in range(n)],
        "rates": off.tolist(),
        "absorption": absorption.tolist(),
    })


@pytest.fixture()
def random_chain_factory():
    return make_random_chain
