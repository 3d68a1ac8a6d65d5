"""Array kernels for the heavy sweeps, as vectorized numpy passes.

Every kernel computes exact modular integer results: in int64, or in object
arrays of Python integers where a modulus is too large for int64.
"""

from __future__ import annotations

import importlib.util
from math import comb

import numpy as np

from .errors import InputError

# Whether numba is importable; nothing here uses it.  The benchmark
# (perfbench/worker.py) records this flag in its environment report.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def current_backend() -> str:
    """Name of the array backend.  `verify --suite bipro` reports it as
    params.backend, and the benchmark records it in its environment report."""
    return "numpy"


def int_dtype(modulus: int, npoints: int):
    """int64 when a residue times npoints + 1 fits in it, else object.

    Every kernel here keeps its intermediates below that product (a Horner
    step, a running sum over npoints residues, a difference of residues),
    so an object array runs the same code on exact Python integers.
    """
    return np.int64 if modulus * (npoints + 1) < 1 << 63 else object


def reduced_rows(rows, modulus: int, npoints: int) -> np.ndarray:
    """2-D array of integer rows mod modulus, reduced before any narrowing,
    so integers beyond int64 stay exact."""
    array = np.asarray(rows)
    if array.ndim != 2:
        raise InputError("expected a 2-D array of integer rows")
    if array.dtype.kind != "i":
        # integers beyond int64 are inferred as object, as uint64, or (mixed
        # with smaller ones) as float64, so they are read again as Python ints
        array = np.array(rows, dtype=object) % modulus
    return array.astype(int_dtype(modulus, npoints), copy=False) % modulus


def pascal_rows(first, count: int, modulus: int) -> np.ndarray:
    """count rows mod modulus from the row first, each the one before plus
    its shift right by one (Pascal's rule), so from 1, 0, 0, ... row i is
    C(i, .); in the narrowest unsigned dtype that holds two residues' sum."""
    rows = np.empty((count, len(first)), dtype=np.min_scalar_type(2 * (modulus - 1)))
    rows[:] = np.asarray(first) % modulus  # column 0 never changes
    for i in range(1, count):
        rows[i, 1:] = (rows[i - 1, 1:] + rows[i - 1, :-1]) % modulus
    return rows


# -- polynomial value tables ------------------------------------------


def poly_tables(coeffs, npoints: int, modulus: int) -> np.ndarray:
    """Values of each integer polynomial (rows of coeffs, constant first)
    at x = 0..npoints-1, mod modulus."""
    coeffs = reduced_rows(coeffs, modulus, npoints)
    xs = np.arange(npoints).astype(coeffs.dtype)
    out = np.zeros((coeffs.shape[0], npoints), dtype=coeffs.dtype)
    for d in range(coeffs.shape[1] - 1, -1, -1):
        out = (out * xs + coeffs[:, d : d + 1]) % modulus
    return out


# -- batched Mahler coefficients (difference tables) ------------------


def mahler_batch(values, modulus: int, floors=None) -> np.ndarray:
    """Iterated forward differences along axis 1: column n holds the n-th
    Mahler coefficient of each row's value sequence, mod modulus.

    The step-th differences go in place from column step on, into work at
    even steps and spare at odd ones, where column j stays; the odd ones are
    gathered into work as the floors read them, or at the end.  Entries are
    reduced only when the next difference could leave int64: they stay below
    a bound that doubles with each difference.  Where a reduction leaves
    every live difference of every row at 0, every later coefficient is 0
    mod modulus and the table stops there.  So the work is quadratic in the
    row length only where the differences do not vanish mod modulus; a
    tabulated polynomial stops at the first reduction past its degree.

    floors, when given, holds one divisor of modulus per column.  Each
    reduction then also checks the columns written since the last one, and
    the table stops at the first checked column that its floor does not
    divide in some row: it returns the columns up to that one, included.
    """
    work = reduced_rows(values, modulus, 1)
    n = work.shape[1]
    spare = np.empty_like(work)
    floors = None if floors is None else np.asarray(floors, dtype=work.dtype)[:n]
    checked = 0  # the columns before this one are on their floors, and in work
    bound = modulus  # |live entries| < bound
    done = n  # the columns past this one are 0
    for step in range(n - 1):
        live = (spare if step % 2 else work)[:, step:]  # the step-th differences
        if bound > 1 << 61:
            live %= modulus
            bound = modulus
            if floors is not None:
                odd = slice(checked | 1, step + 1, 2)  # gathered from spare
                work[:, odd] = spare[:, odd]
                bad = (work[:, checked : step + 1] % floors[checked : step + 1] != 0).any(axis=0)
                if bad.any():
                    return work[:, : checked + bad.argmax() + 1] % modulus
                checked = step + 1
            if not live.any():
                done = step
                break
        np.subtract(live[:, 1:], live[:, :-1], out=(work if step % 2 else spare)[:, step + 1 :])
        bound *= 2
    work[:, checked | 1 : done : 2] = spare[:, checked | 1 : done : 2]
    work[:, done:] = 0
    return work % modulus


# -- transitivity scans ----------------------------------------------


def orbit_walks(tables, steps: int) -> np.ndarray:
    """Row i holds f^n(0) for n = 0..steps, f being row i of tables read as
    a self-map of 0..size-1.  Pointer doubling: with the first m entries
    known and g = f^m, the next m are g at the first m, and g[g] is f^(2m);
    rows are held as indices into the flattened tables, so each is one gather.
    """
    tables = np.asarray(tables, dtype=np.int64)
    count, size = tables.shape
    offsets = np.arange(count, dtype=np.int64)[:, None] * size
    power = (tables + offsets).ravel()  # f^done
    walks = np.empty((count, steps + 1), dtype=np.int64)
    walks[:, :1] = offsets
    done = 1
    while done <= steps:
        walks[:, done : 2 * done] = power[walks[:, : min(done, steps + 1 - done)]]
        if 2 * done <= steps:
            power = power[power]
        done *= 2
    return walks - offsets


def transitive_scan(tables) -> np.ndarray:
    """1 where a row, read as a self-map of 0..size-1, is a single cycle:
    exactly when the orbit of 0 first returns to 0 after size steps."""
    tables = np.asarray(tables, dtype=np.int64)
    returns = orbit_walks(tables, tables.shape[1])[:, 1:] == 0
    return (returns[:, -1] & (returns.argmax(axis=1) == tables.shape[1] - 1)).astype(np.uint8)


# -- exact values of a Mahler sum and the UD1 sweep over them ----------


def mahler_values(terms, p: int, depth: int, npoints: int) -> np.ndarray:
    """Exact values of the finite Mahler sum with coefficients terms at
    x = 0..npoints-1, mod p^depth.

    By the hockey-stick identity C(x, r) = sum_{y<x} C(y, r-1), the tail
    sums g_n(x) = sum_{j>=n} a_j C(x, j-n) obey g_n(x) = a_n + sum_{y<x}
    g_{n+1}(y), so f = g_0 follows from the last term back to the first
    with one running sum per term and O(npoints) memory.
    """
    mod = p**depth
    terms = reduced_rows([terms], mod, npoints)[0]
    g = np.full(npoints, terms[-1], dtype=terms.dtype)
    for n in range(len(terms) - 2, -1, -1):
        running = np.cumsum(g)
        g[1:] = running[:-1]
        g[0] = 0
        g += terms[n]
        g %= mod
    return g


def ud1_table_scan(values: np.ndarray, p: int, depth: int):
    """Differentiability-mod-p sweep, at levels s = 1..depth-1, over one
    exact value array, in O(depth * window).

    values[x] = f(x) mod p^depth for x < W, N = p^depth and
    W >= N + (p-1)p^(depth-1).  Returns (first, derived):

    - first is the first u < N, s, h failing f(u + p^s h) = f(u) + p^s h d(u)
      mod p^(s+1), in u-major, then s, then h order, or None when f passes;
      (u, 0, 0) when f(u + p) - f(u) is not divisible by p, for the first
      such u < N, which every u is tested for first; derived is then None;
    - derived[u] is the derivative residue d(u) = (f(u + p) - f(u))/p mod p
      forced by s = 1, h = 1.

    With T = N + (p-2)p^(depth-1), it checks that e(x) = f(x + p) - f(x) is
    divisible by p for x < T; for p >= 3, that d(x) = e(x)/p mod p equals
    d(x + p) for x + p < T; and h = 1 at s = 2..depth-1 over x < N + (p-2)p^s
    (at s = 1 it is the definition of d).  None reads past W.  If all pass,
    so does every (u, s, h): for j < h, x_j = u + j p^s < N + (p-2)p^s <= T,
    so d(x_j) = d(u), and h = 1 at the x_j telescopes to f(u + p^s h) - f(u)
    = p^s h d(u).  A check failing at x < N is a failing (x, s, 1), or for a
    periodicity break (x, 1, 2), as f(x + 2p) - f(x) = e(x) + e(x + p); so the
    literal sweep (_first_failure) runs only on failure, over u <= x for the
    least such x, else (checks failing only past N) over every u.
    """
    size, top = p**depth, p ** (depth - 1)
    if len(values) < size + top * (p - 1):
        raise InputError(f"value window {len(values)} < required {size + top * (p - 1)}")
    reach = size + top * (p - 2)  # T
    diff = (values[p : p + reach] - values[:reach]) % size
    broken = diff % p != 0
    if broken[:size].any():
        return (int(broken.argmax()), 0, 0), None
    d = (diff // p) % p
    derived = d[:size]
    if broken.any():  # past N only, where d is not defined
        return _first_failure(values, p, depth, derived, size), derived
    fails = [d[p:] != d[:-p]] if p > 2 else []
    for s in range(2, depth):
        mod, step, span = p ** (s + 1), p**s, size + (p - 2) * p**s
        fails.append(values[step : step + span] % mod != (values[:span] + step * d[:span]) % mod)
    bad = [int(fail.argmax()) for fail in fails if fail.any()]
    stop = min(bad + [size - 1]) + 1
    return (_first_failure(values, p, depth, derived, stop) if bad else None), derived


def _first_failure(values: np.ndarray, p: int, depth: int, derived: np.ndarray, stop: int):
    """The first failing (u, s, h) with u < stop, or None, by the literal sweep:
    each (s, h) scans only the u below the last failure, so ties keep the earlier pair."""
    first = None
    for s in range(1, depth):
        mod = p ** (s + 1)
        for h in range(1, p):
            shift = p**s * h
            rhs = (values[:stop] + shift * derived[:stop]) % mod
            bad = values[shift : shift + stop] % mod != rhs
            if bad.any():
                stop = int(bad.argmax())
                first = (stop, s, h)
    return first


# -- exhaustive binomial congruence scan ------------------------------
#
# For odd p, s >= 2 and every n in [p^s, 2 p^s), k in [0, n]:
#     C(n, k) = sum_{j=0}^{p} C(p, j) * C(n - p^s, k - j p^(s-1))   mod p^2
# with out-of-range binomials read as zero.  Restricted to the index
# patterns k = beta + l p^(s-1) (+ p^s) this contains the three published
# digit-shift families; the full range is checked.


# rows of the scan advance and are compared in blocks of this many
_BIPRO_BLOCK = 16


def _pascal_into(dst: np.ndarray, src: np.ndarray, m: int, ps: int, q: int, spare) -> None:
    """Write C(m + 1, .) at [0, ps] and C(m + 1 + ps, .) at [ps + 1, 3 ps + 1]
    of dst, mod q, from src holding C(m, .) and C(m + ps, .) there.

    Both are uint16 rows whose entries past their own rows are zero (a row
    only ever overwrites a narrower one) and dst[0] = dst[ps + 1] = 1.  As
    C(m, ps) = 0 for m < ps, one step moves both rows (the seam entry comes
    out as 1 + 0); for m < 0 only the high row moves.  min(x, x - q) on
    unsigned words reduces a sum x < 2q <= 2^16: x - q wraps above x
    exactly when x < q.
    """
    start, stop = (1 if m >= 0 else ps + 2), 2 * ps + m + 3
    new = dst[start:stop]
    np.add(src[start:stop], src[start - 1 : stop - 1], out=new)
    np.subtract(new, q, out=spare[: stop - start])
    np.minimum(new, spare[: stop - start], out=new)


def _reduce(words: np.ndarray, modulus: int, spare: np.ndarray, out=None) -> np.ndarray:
    """words mod modulus for a 2-D uint16 array, into out or else in place,
    as words minus modulus times the quotient, which spare holds: numpy
    divides by a constant far faster than it takes a remainder."""
    quotient = spare[: words.shape[0], : words.shape[1]]
    np.floor_divide(words, modulus, out=quotient)
    np.multiply(quotient, modulus, out=quotient)
    return np.subtract(words, quotient, out=words if out is None else out)


def bipro_scan(p: int, s: int):
    """Exhaustive digit-shift binomial congruence check mod p^2.

    Row m = 0..p^s-1 holds C(m, .) and C(m + p^s, .) mod p^2 in one uint16
    row, and one Pascal step moves both (_pascal_into), into fixed blocks of
    _BIPRO_BLOCK consecutive rows; once per block the (p+1)-tap sums over
    the low rows L are formed on uint16 words and compared with the high
    rows in one pass.  With each tap in base-p digits, t = lo + p hi, the
    sum is sum lo L + p ((sum hi L) mod p) mod p^2: the p-part is summed
    over L while that fits in 16 bits, else over L mod p, and a sum is
    reduced only when its next term could pass 2^16.  Returns
    (pairs_checked, witness_or_None), the witness being the first failing
    (n, k) in ascending n, then k; pairs_checked counts every pair of the
    rows before it and its own row.
    """
    if p < 3 or p % 2 == 0:
        raise InputError("bipro_scan needs an odd prime")
    if s < 2:
        raise InputError("bipro_scan needs s >= 2")
    q = p * p
    if 2 * q > 1 << 16:
        raise InputError("bipro_scan keeps sums of two residues mod p^2 in 16 bits")
    ps = p**s
    delta = p ** (s - 1)
    taps = [comb(p, j) % q for j in range(p + 1)]
    whole = sum(t // p for t in taps) * (q - 1) < 1 << 16
    high_top = q - 1 if whole else p - 1  # bounds the entries of L, or of L mod p
    highs, units = {}, {}  # digit -> starts j p^(s-1) of the taps with that high or low digit
    for j, digits in enumerate(divmod(t, p) for t in taps):
        for groups, digit in zip((highs, units), digits):
            if digit:
                groups.setdefault(digit, []).append(j * delta)
    pascal = np.zeros((_BIPRO_BLOCK, 3 * ps + 2), dtype=np.uint16)
    pascal[:, 0] = pascal[:, ps + 1] = 1
    spare = np.empty(3 * ps, dtype=np.uint16)
    # C(p^s, .) from C(0, .) by Pascal's rule alone, so no row relies on the taps; p^s is
    # odd, so steps alternating between the first and last rows (in place if one) end in the first
    ends = (pascal[0], pascal[-1])
    for m in range(-ps, 0):
        _pascal_into(ends[(m + 1) % 2], ends[m % 2], m, ps, q, spare)
    acc, quotient = np.empty((2, _BIPRO_BLOCK, 2 * ps + 1), dtype=np.uint16)
    product, residues = np.empty((2, _BIPRO_BLOCK, ps), dtype=np.uint16)
    for m0 in range(0, ps, _BIPRO_BLOCK):
        rows = min(_BIPRO_BLOCK, ps - m0)
        for i in range(0 if m0 else 1, rows):
            _pascal_into(pascal[i], pascal[i - 1], m0 + i - 1, ps, q, spare)
        width = m0 + rows  # of the block's widest low row
        low = part = pascal[:rows, :width]
        if not whole:  # the p-part needs only L mod p
            part = _reduce(low, p, quotient, out=residues[:rows, :width])
        block = acc[:rows, : width + ps]
        block.fill(0)
        bound = 0  # entries of block are at most bound
        for modulus, groups, source, top in ((p, highs, part, high_top), (q, units, low, q - 1)):
            if modulus == q:  # p times the p-part mod p, below p^2
                if bound * p >= 1 << 16:
                    _reduce(block, p, quotient)
                    bound = p - 1
                block *= p
                bound *= p
            for digit, starts in groups.items():
                terms = source
                if top * digit + modulus > 1 << 16:  # never with the taps C(p, j)
                    terms, digit = (terms * np.uint32(digit) % modulus).astype(np.uint16), 1
                elif digit != 1:
                    terms = np.multiply(terms, digit, out=product[:rows, :width])
                for start in starts:
                    if bound + digit * top >= 1 << 16:
                        _reduce(block, modulus, quotient)
                        bound = modulus - 1
                    block[:, start : start + width] += terms
                    bound += digit * top
        _reduce(block, q, quotient)
        high = pascal[:rows, ps + 1 : 2 * ps + 1 + width]
        bad = block != high
        if bad.any():
            i, k = divmod(int(bad.argmax()), width + ps)
            n = m0 + i + ps  # each row n' = p^s..n holds n' + 1 pairs
            witness = {"n": n, "k": k, "lhs": int(high[i, k]), "rhs": int(block[i, k])}
            return (n + 1) * (n + 2) // 2 - ps * (ps + 1) // 2, witness
    return ps * (3 * ps + 1) // 2, None
