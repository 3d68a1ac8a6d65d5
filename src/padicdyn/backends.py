"""Array kernels for the heavy sweeps, as vectorized numpy passes.

Every kernel computes exact modular integer results in int64.
"""

from __future__ import annotations

import importlib.util
from math import comb

import numpy as np

from .errors import InputError, InternalCheckError

# Whether numba is importable; nothing here uses it.  The benchmark
# (perfbench/worker.py) records this flag in its environment report.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def current_backend() -> str:
    """Name of the array backend.  `verify --suite bipro` reports it as
    params.backend, and the benchmark records it in its environment report."""
    return "numpy"


def _check_modulus(modulus: int) -> None:
    # products (modulus-1)^2 and row sums must stay inside int64
    if modulus <= 0 or modulus > 1 << 31:
        raise InputError(f"modulus {modulus} outside the supported int64-safe range")


# -- polynomial value tables ------------------------------------------


def poly_tables(coeffs, npoints: int, modulus: int) -> np.ndarray:
    """Values of each integer polynomial (rows of coeffs, constant first)
    at x = 0..npoints-1, mod modulus."""
    _check_modulus(modulus)
    coeffs = np.asarray(coeffs, dtype=np.int64) % modulus
    xs = np.arange(npoints, dtype=np.int64)
    out = np.zeros((coeffs.shape[0], npoints), dtype=np.int64)
    for d in range(coeffs.shape[1] - 1, -1, -1):
        out = (out * xs + coeffs[:, d : d + 1]) % modulus
    return out


# -- batched Mahler coefficients (difference tables) ------------------


def mahler_batch(values, modulus: int) -> np.ndarray:
    """Iterated forward differences along axis 1: column n holds the n-th
    Mahler coefficient of each row's value sequence, mod modulus."""
    _check_modulus(modulus)
    work = np.asarray(values, dtype=np.int64) % modulus
    count, n = work.shape
    out = np.empty((count, n), dtype=np.int64)
    for step in range(n):
        out[:, step] = work[:, step]
        if step < n - 1:
            work[:, step + 1 :] = (work[:, step + 1 :] - work[:, step:-1]) % modulus
    return out


# -- transitivity scans ----------------------------------------------


def transitive_scan(tables) -> np.ndarray:
    """1 where a row, read as a self-map of 0..size-1, is a single cycle.

    A map is a full cycle exactly when the orbit of 0 first returns to 0
    after size steps, so no explicit permutation check is needed.
    """
    tables = np.asarray(tables, dtype=np.int64)
    count, size = tables.shape
    x = np.zeros(count, dtype=np.int64)
    first_return = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)
    for step in range(1, size + 1):
        x = tables[rows, x]
        hit = (x == 0) & (first_return == 0)
        first_return[hit] = step
    return (first_return == size).astype(np.uint8)


def batch_transitive_polys(coeffs, p: int, k: int) -> np.ndarray:
    """Transitivity mod p^k for a batch of integer polynomials."""
    mod = p**k
    return transitive_scan(poly_tables(coeffs, mod, mod))


# -- exact value matrices for batched UD1 sweeps ----------------------


def binomial_matrix_mod(nrows: int, ncols: int, modulus: int) -> np.ndarray:
    """Pascal matrix C(x, n) mod modulus for x < nrows, n < ncols."""
    _check_modulus(modulus)
    out = np.zeros((nrows, ncols), dtype=np.int64)
    out[:, 0] = 1
    for x in range(1, nrows):
        upto = min(x + 1, ncols)
        out[x, 1:upto] = (out[x - 1, 1:upto] + out[x - 1, 0 : upto - 1]) % modulus
    return out


def mahler_value_matrix(terms, p: int, depth: int, npoints: int) -> np.ndarray:
    """Exact values of finite Mahler sums at x = 0..npoints-1, mod p^depth.

    terms is (count, length); row i holds the coefficients of one function.
    """
    mod = p**depth
    _check_modulus(mod)
    terms = np.asarray(terms, dtype=np.int64) % mod
    pascal = binomial_matrix_mod(npoints, terms.shape[1], mod)
    if terms.shape[1] * (mod - 1) * (mod - 1) > (1 << 62):
        raise InternalCheckError("mahler_value_matrix would overflow int64")
    return (pascal @ terms.T).T % mod


def ud1_table_scan(tables: np.ndarray, p: int, depth: int, s_max: int | None = None):
    """Vectorized differentiability-mod-p sweep over exact value tables.

    tables[:, x] = f(x) mod p^depth for x = 0..W-1 with
    W >= p^depth + p^(depth-1)*(p-1); returns a boolean array (True = passes).
    """
    if s_max is None:
        s_max = depth - 1
    size = p**depth
    need = size + p ** (depth - 1) * (p - 1)
    if tables.shape[1] < need:
        raise InputError(f"value window {tables.shape[1]} < required {need}")
    window = tables[:, :size]
    diff = (tables[:, p : p + size] - window) % (p**depth)
    ok = (diff % p == 0).all(axis=1)
    delta = (diff // p) % p
    for s in range(1, s_max + 1):
        step = p**s
        mod = p ** (s + 1)
        for h in range(1, p):
            lhs = tables[:, step * h : step * h + size] % mod
            rhs = (window + step * h * delta) % mod
            ok &= (lhs == rhs).all(axis=1)
    return ok


# -- exhaustive binomial congruence scan ------------------------------
#
# For odd p, s >= 2 and every n in [p^s, 2 p^s), k in [0, n]:
#     C(n, k) = sum_{j=0}^{p} C(p, j) * C(n - p^s, k - j p^(s-1))   mod p^2
# with out-of-range binomials read as zero.  Restricted to the index
# patterns k = beta + l p^(s-1) (+ p^s) this contains the three published
# digit-shift families; the full range is checked.


def _pascal_step(row: np.ndarray, m: int, q: int) -> None:
    """Advance row C(m, .) mod q to C(m + 1, .) in place; row[m + 1] is 0."""
    row[1 : m + 2] = (row[1 : m + 2] + row[: m + 1]) % q


def bipro_scan(p: int, s: int):
    """Exhaustive digit-shift binomial congruence check mod p^2.

    Rows C(m, .) and C(m + p^s, .) mod p^2 advance in lockstep by Pascal's
    rule for m = 0..p^s-1; at each step the second row is compared with the
    (p+1)-tap sum over the first.  Returns (pairs_checked, witness_or_None),
    the witness being the first failing (n, k) in ascending n, then k.
    """
    if p < 3 or p % 2 == 0:
        raise InputError("bipro_scan needs an odd prime")
    if s < 2:
        raise InputError("bipro_scan needs s >= 2")
    q = p * p
    ps = p**s
    delta = p ** (s - 1)
    taps = [comb(p, j) % q for j in range(p + 1)]
    low = np.zeros(ps + 1, dtype=np.int64)
    high = np.zeros(2 * ps + 1, dtype=np.int64)
    low[0] = high[0] = 1
    # C(p^s, .) from C(0, .) by Pascal's rule alone, so no row relies on the taps
    for m in range(ps):
        _pascal_step(high, m, q)
    pairs = 0
    for m in range(ps):
        n = m + ps
        rhs = np.zeros(n + 1, dtype=np.int64)
        for j, tap in enumerate(taps):
            rhs[j * delta : j * delta + m + 1] += tap * low[: m + 1]
        rhs %= q
        pairs += n + 1
        bad = np.flatnonzero(high[: n + 1] != rhs)
        if bad.size:
            k = int(bad[0])
            return pairs, {"n": n, "k": k, "lhs": int(high[k]), "rhs": int(rhs[k])}
        _pascal_step(low, m, q)
        _pascal_step(high, n, q)
    return pairs, None
