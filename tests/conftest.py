import pytest

from ecstats import verify


@pytest.fixture(scope="session")
def bound_laws():
    """The `verify` bound-law checks on the (p, n) grid, by check name."""
    results = verify.check_bound_laws((5, 7, 11, 13), (1, 2, 3))
    assert len(results) == 7
    return {r.name: r for r in results}
