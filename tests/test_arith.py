import pytest

from ecstats.arith import (
    factorize,
    integer_nth_root,
    is_prime,
    primes_in,
    sieve_primes,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_sieve_matches_is_prime():
    # crosses 41^2 = 1681, where is_prime stops answering by trial division
    assert list(sieve_primes(5000)) == [n for n in range(5001) if is_prime(n)]


def test_primes_in():
    assert primes_in(5, 30) == (5, 7, 11, 13, 17, 19, 23, 29)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 26, 27, 28, 10**8 // 4, 2**60 - 1])
def test_integer_cbrt(n):
    r = integer_nth_root(n, 3)
    assert r**3 <= n < (r + 1) ** 3


def test_integer_nth_root():
    assert integer_nth_root(255, 4) == 3
    assert integer_nth_root(256, 4) == 4
    assert integer_nth_root(0, 6) == 0
    assert integer_nth_root(1, 6) == 1
    r = integer_nth_root(10**30 + 7, 6)
    assert r**6 <= 10**30 + 7 < (r + 1) ** 6
    assert integer_nth_root(10**400, 4) == 10**100  # past the float range
    assert integer_nth_root(10**500 + 1, 1) == 10**500 + 1
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 12])
def test_integer_nth_root_at_exact_powers(k):
    """Exact powers r^k and their neighbours, up to 2^2000: no float estimate
    to overflow or to step away from one unit at a time."""
    for bits in range(1, 2000 // k + 1, 7):
        for r in (2**bits - 1, 2**bits, 3**(bits * 2 // 3) + 1):
            if r < 2 or (r**k).bit_length() > 2001:
                continue
            n = r**k
            assert integer_nth_root(n - 1, k) == r - 1
            assert integer_nth_root(n, k) == r
            assert integer_nth_root(n + 1, k) == r


# the last three have no prime factor below 10^6, so Pollard rho splits them
@pytest.mark.parametrize("n", [2, 140, 2**4 * 3**6, 10**6 + 3, 7919 * 7907, 2 * 10**8 - 1,
                               1_000_003 * 1_000_033, 1_000_003**2,
                               1_000_003 * 1_000_033 * 1_000_037])
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)
