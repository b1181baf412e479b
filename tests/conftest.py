import random

import pytest

from freesub.riccati import RiccatiParams, residual_constant


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False)


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow tier: pass --runslow to enable")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def _divisors_signed(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.extend([i, -i, n // i, -(n // i)])
        i += 1
    return sorted(set(out))


def random_integer_params(rng: random.Random, n_max: int) -> RiccatiParams:
    """Random integer tuple with A^2 - 4CD = e^2 and the closed-form
    preconditions at orders up to n_max: B, C, e nonzero and e/B not an
    integer of magnitude <= n_max.  The params derive E = |e|."""
    while True:
        e = rng.randint(-9, 9)
        a = e + 2 * rng.randint(-6, 6)
        if e == 0:
            continue
        m = (a * a - e * e) // 4
        if m == 0:
            c = rng.choice([x for x in range(-6, 7) if x])
            d = 0
        else:
            c = rng.choice(_divisors_signed(m))
            d = m // c
        b = rng.choice([x for x in range(-9, 10) if x])
        # reject integer E/B with |E/B| <= n_max
        if e % b == 0 and abs(e // b) <= n_max:
            continue
        params = RiccatiParams(a, b, c, d)
        # a vanishing residual factor makes the approximant exact and its
        # polynomial representation non-unique; exclude those tuples
        if residual_constant(params, n_max) == 0:
            continue
        return params


@pytest.fixture
def rng():
    return random.Random(20240811)
