"""Exact integer arithmetic helpers underneath the finite-depth p-adic layers.

Everything here is plain arbitrary-precision integer arithmetic: primality,
binomials, base-p digits, modular inverses and a small linear solver over
prime fields.  No floats anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError

_PRIME_LIMIT = 2**31


@functools.cache
def _sieve_primes() -> list[int]:
    limit = 46341  # floor(sqrt(2^31)) + 1
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return list(itertools.compress(range(limit), flags))


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^31 by trial division."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"primality is defined for integers, got {n!r}")
    if n < 0 or n >= _PRIME_LIMIT:
        raise InputError(f"primality check supports 0 <= n < 2^31, got {n}")
    if n < 2:
        return False
    for q in _sieve_primes():
        if q * q > n:
            return True
        if n % q == 0:
            return n == q
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise InputError(f"expected a prime, got {p}")


def require_nonnegative(n: int, name: str = "argument") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"{name} must be a nonnegative integer, got {n!r}")


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; zero outside 0 <= k <= n."""
    require_nonnegative(n, "n")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def p_digits(m: int, p: int) -> list[int]:
    """Base-p digits of m, least significant first; empty for m = 0."""
    require_prime(p)
    require_nonnegative(m, "m")
    digits = []
    while m:
        digits.append(m % p)
        m //= p
    return digits


def m_minus(m: int, p: int) -> int:
    """Strip the leading base-p digit of m; defined for m >= p."""
    require_prime(p)
    require_nonnegative(m, "m")
    if m < p:
        raise InputError(f"m_minus needs m >= p, got m={m}, p={p}")
    digits = p_digits(m, p)
    return m - digits[-1] * p ** (len(digits) - 1)


def inverse_mod(a: int, modulus: int) -> int:
    if modulus <= 0:
        raise InputError(f"modulus must be positive, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise InputError(f"{a} is not invertible mod {modulus}") from exc


@dataclass(frozen=True)
class FpSolveResult:
    status: str  # "unique" | "inconsistent" | "underdetermined"
    solution: tuple[int, ...] | None


def solve_fp(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int) -> FpSolveResult:
    """Solve A x = b over F_p by Gaussian elimination."""
    require_prime(p)
    nrows = len(rows)
    if nrows != len(rhs):
        raise InputError("matrix/rhs size mismatch")
    ncols = len(rows[0]) if nrows else 0
    aug = [[c % p for c in row] + [rhs[i] % p] for i, row in enumerate(rows)]
    for row in aug:
        if len(row) != ncols + 1:
            raise InputError("ragged matrix")
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = inverse_mod(aug[r][c], p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [(x - factor * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return FpSolveResult("inconsistent", None)
    if len(pivots) < ncols:
        return FpSolveResult("underdetermined", None)
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return FpSolveResult("unique", tuple(sol))
