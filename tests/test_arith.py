import math
import random

import pytest

from padicdyn.arith import (
    FpSolveResult,
    binomial,
    inverse_mod,
    is_prime,
    m_minus,
    p_digits,
    require_prime,
    solve_fp,
)
from padicdyn.errors import InputError
from scalar_reference import INFINITY, digit_sum, legendre_binomial_valuation, valuation


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    composites = [0, 1, 4, 6, 9, 91, 7917]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_matches_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n]


def test_require_prime_rejects():
    with pytest.raises(InputError):
        require_prime(6)
    with pytest.raises(InputError):
        require_prime(-3)


def test_valuation_basics():
    assert valuation(0, 5) is INFINITY
    assert valuation(1, 5) == 0
    assert valuation(50, 5) == 2
    assert valuation(-50, 5) == 2
    assert valuation(2**20, 2) == 20
    with pytest.raises(InputError):
        valuation(4, 4)


def test_infinity_ordering():
    assert INFINITY > 10**6
    assert not (INFINITY < 3)
    assert INFINITY >= INFINITY
    assert INFINITY + 5 is INFINITY


def test_binomial_edges():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1
    assert binomial(10, 4) == math.comb(10, 4)


def test_digits_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(10**6)
        digits = p_digits(n, p)
        assert sum(d * p**i for i, d in enumerate(digits)) == n
        assert digit_sum(n, p) == sum(digits)
    assert p_digits(0, 3) == []


def test_m_minus_strips_leading_digit():
    # 58 = 2 + 8 + 48 in base 2: 111010; removing the top bit gives 26
    assert m_minus(58, 2) == 58 - 32
    assert m_minus(10, 3) == 1
    assert m_minus(5, 5) == 0
    with pytest.raises(InputError):
        m_minus(2, 3)


def test_legendre_valuation_matches_exact():
    rng = random.Random(3)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 2000)
        k = rng.randrange(0, n + 1)
        direct = valuation(math.comb(n, k), p)
        assert legendre_binomial_valuation(n, k, p) == direct
    assert legendre_binomial_valuation(3, 7, 5) is INFINITY


def test_inverse_mod():
    assert inverse_mod(3, 7) == 5
    assert (inverse_mod(17, 101) * 17) % 101 == 1
    with pytest.raises(InputError):
        inverse_mod(6, 9)


def test_solve_fp_unique():
    # x + y = 3, x - y = 1 over F_5 -> x = 2, y = 1
    res = solve_fp([[1, 1], [1, 4]], [3, 1], 5)
    assert isinstance(res, FpSolveResult)
    assert res.status == "unique"
    assert res.solution == (2, 1)


def test_solve_fp_inconsistent_and_underdetermined():
    assert solve_fp([[1, 1], [2, 2]], [1, 3], 5).status == "inconsistent"
    assert solve_fp([[1, 1], [2, 2]], [1, 2], 5).status == "underdetermined"


def test_solve_fp_random_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        x = [rng.randrange(p) for _ in range(n)]
        rhs = [sum(r * v for r, v in zip(row, x)) % p for row in rows]
        res = solve_fp(rows, rhs, p)
        if res.status == "unique":
            assert list(res.solution) == x or all(
                sum(r * v for r, v in zip(row, res.solution)) % p == b
                for row, b in zip(rows, rhs)
            )
        else:
            # singular matrix: the constructed system is still solvable
            assert res.status == "underdetermined"
