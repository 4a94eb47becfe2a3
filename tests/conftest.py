import pytest
from hypothesis import settings

from ecstats import verify

# the property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def bound_laws():
    """The `verify` bound-law checks on the (p, n) grid, by check name."""
    results = verify.check_bound_laws((5, 7, 11, 13), (1, 2, 3))
    assert len(results) == 7
    return {r.name: r for r in results}
