"""Reference computations the benchmark checks padicdyn against.

Nothing here imports padicdyn: value tables, cycle tests, the UD1 sweep,
coefficient series and suite sizes are recomputed from their definitions,
so a wrong answer from the program cannot be confirmed by its own code.
All arithmetic is exact; numpy arrays hold residues well inside int64.
"""

from __future__ import annotations

import math

import numpy as np


def poly_table(coeffs, p: int, depth: int) -> np.ndarray:
    """Values of an integer polynomial (constant first) at 0..p^depth-1, mod p^depth."""
    mod = p**depth
    xs = np.arange(mod, dtype=np.int64)
    acc = np.zeros(mod, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c % mod) % mod
    return acc


def mahler_table(terms, p: int, depth: int) -> np.ndarray:
    """Values of sum a_n C(x, n) at x = 0..p^depth-1, mod p^depth.

    The binomial columns come from Pascal's rule, C(x, n) = sum_{y<x} C(y, n-1),
    so every intermediate stays a residue.
    """
    mod = p**depth
    col = np.ones(mod, dtype=np.int64)
    acc = np.zeros(mod, dtype=np.int64)
    for n, a in enumerate(terms):
        if n:
            col = np.concatenate(([0], np.cumsum(col)[:-1])) % mod
        acc = (acc + (a % mod) * col) % mod
    return acc


def is_single_cycle(table) -> bool:
    """True iff x -> table[x] is one cycle through every point."""
    table = [int(v) for v in table]
    size = len(table)
    x = 0
    for step in range(1, size + 1):
        x = table[x]
        if not 0 <= x < size:
            return False
        if x == 0:
            return step == size
    return False


def is_lipschitz(table: np.ndarray, p: int, depth: int) -> bool:
    """f(x) = f(x mod p^k) mod p^k for every level k below depth."""
    table = np.asarray(table, dtype=np.int64)
    xs = np.arange(len(table))
    for k in range(1, depth):
        mod = p**k
        if np.any((table - table[xs % mod]) % mod):
            return False
    return True


def is_ud1(table: np.ndarray, p: int, depth: int) -> bool:
    """Uniform differentiability mod p from the definition, on the depth window.

    With d(u) = (f(u+p) - f(u))/p mod p, every u, 1 <= s < depth and
    1 <= h < p must satisfy f(u + p^s h) = f(u) + p^s h d(u) mod p^(s+1).
    Arguments are folded mod p^depth, which is exact for 1-Lipschitz maps.
    """
    table = np.asarray(table, dtype=np.int64)
    size = p**depth
    us = np.arange(size)
    diff = table[(us + p) % size] - table
    if np.any(diff % p):
        return False
    deriv = (diff // p) % p
    for s in range(1, depth):
        step = p**s
        mod = step * p
        for h in range(1, p):
            lhs = table[(us + step * h) % size]
            if np.any((lhs - table - step * h * deriv) % mod):
                return False
    return True


def mahler_terms(values, mod: int) -> list[int]:
    """Mahler coefficients by a plain forward-difference table."""
    row = np.asarray(values, dtype=np.int64) % mod
    out = []
    while len(row):
        out.append(int(row[0]))
        row = np.diff(row) % mod
    return out


def m_minus(m: int, p: int) -> int:
    """m with its leading base-p digit removed."""
    lead = p ** (len(np.base_repr(m, p)) - 1)
    return m % lead


def vdp_terms(values, p: int, mod: int) -> list[int]:
    """van der Put coefficients: f(m) for m < p, else f(m) - f(m^-)."""
    values = [int(v) for v in values]
    return [
        (values[m] - (values[m_minus(m, p)] if m >= p else 0)) % mod
        for m in range(len(values))
    ]


def normalized_terms(terms, p: int, k: int) -> list[int]:
    """Term i divided by p^e(i), reduced mod p^(k - e(i))."""
    out = []
    for i, t in enumerate(terms):
        e = len(np.base_repr(i, p)) - 1 if i else 0
        out.append((t // p**e) % p ** (k - e))
    return out


def odd_primes(limit: int) -> list[int]:
    return [q for q in range(3, limit + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))]


def suite_checked(name: str, p_max: int | None, s_max: int | None) -> int:
    """Instances each identity suite must check over its requested range.

    Defaults are the ranges documented for `padic-dyn verify`; the abc and
    pzero sweeps stop at 97 whatever p_max asks.
    """
    if name == "abc":
        return sum(q - 1 for q in odd_primes(min(p_max or 97, 97)))
    if name == "pzero":
        return sum(q - 2 for q in odd_primes(min(p_max or 97, 97)))
    if name == "valpro":
        p_max, s_max = p_max or 13, s_max or 4
        primes = [2] + odd_primes(p_max) if p_max >= 2 else []
        return sum(
            l * q**s - 1 for q in primes for s in range(1, s_max + 1) for l in range(1, q)
        )
    if name == "bipro":
        p_max, s_max = p_max or 13, s_max or 4
        # rows n = m + p^s for m < p^s, each checked at k = 0..n
        return sum(
            q**s * (q**s + 1) + q**s * (q**s - 1) // 2
            for q in odd_primes(p_max)
            for s in range(2, s_max + 1)
        )
    if name == "bip2":
        s_max = s_max or 6
        return sum(5 * 4 ** (s - 1) for s in range(2, s_max + 1))
    raise ValueError(f"unknown suite {name!r}")


def cubic_census_mod8() -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Ergodic cubics mod 8 (coefficients constant first) grouped by value table."""
    xs = range(8)
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for d in range(8):
        for c in range(8):
            for b in range(8):
                for a in range(8):
                    table = tuple((d + c * x + b * x * x + a * x**3) % 8 for x in xs)
                    if is_single_cycle(table):
                        classes.setdefault(table, []).append((d, c, b, a))
    return classes
