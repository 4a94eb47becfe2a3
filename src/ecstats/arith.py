"""Integer utilities: primality, prime sieves, factorization, integer roots."""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

# The primes <= 37: is_prime's trial divisors, and its deterministic
# Miller-Rabin witnesses for n < 3.3 * 10^24.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# factorize divides by every prime up to here before Pollard rho
_TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # a composite n < 41^2 has a prime factor <= 37
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(n: int, minimum: int = 2) -> None:
    """Raise DomainError unless n is prime and n >= minimum."""
    if not is_prime(n):
        raise DomainError(f"{n} is not prime")
    if n < minimum:
        raise DomainError(f"prime {n} is below the supported minimum {minimum}")


@lru_cache(maxsize=64)
def sieve_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by a byte sieve."""
    if limit < 2:
        return ()
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start: limit + 1: p] = b"\x00" * ((limit - start) // p + 1)
    return tuple(i for i, flag in enumerate(sieve) if flag)


def primes_in(lo: int, hi: int) -> tuple[int, ...]:
    """Primes p with lo <= p <= hi."""
    return tuple(p for p in sieve_primes(hi) if p >= lo)


def integer_nth_root(n: int, k: int) -> int:
    """Floor of n**(1/k) for n >= 0, k >= 1, by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("integer_nth_root requires n >= 0, k >= 1")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n**(1/k)
    while True:  # from above, Newton steps fall strictly until the floor root
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero.

    Trial division by the sieve's primes up to 10^6 (until q^2 > n), then
    Miller-Rabin plus Pollard rho for whatever survives.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    # a power-of-two sieve limit above sqrt(n), so that few sieves are cached
    for q in sieve_primes(min(_TRIAL_LIMIT, 1 << math.isqrt(n).bit_length())):
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out
