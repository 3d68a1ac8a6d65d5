import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference
from padicdyn import backends
from padicdyn.dynamics import transitive_mod
from padicdyn.errors import InputError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import (
    batch_transitive_polys,
    bipro_lockstep_reference,
    random_ud1_mahler_series,
    transitive_scan_reference,
    ud1_reference,
    ud1_table_scan_reference,
)


@pytest.mark.parametrize("modulus", [4, 3, 9, 13, 169, 97, 97 * 97])
def test_pascal_rows_are_the_binomials(modulus):
    size = 98
    rows = backends.pascal_rows([1] + [0] * (size - 1), size, modulus)
    assert rows.tolist() == [[math.comb(n, k) % modulus for k in range(size)] for n in range(size)]


def test_pascal_rows_keep_a_sum_of_two_residues_in_the_narrowest_word():
    assert backends.pascal_rows([1, 0], 2, 4).dtype == np.uint8
    assert backends.pascal_rows([1, 0], 2, 97 * 97).dtype == np.uint16
    # the row first is reduced, and every row follows from it by Pascal's rule
    assert backends.pascal_rows([5, 7, 0], 3, 4).tolist() == [[1, 3, 0], [1, 0, 3], [1, 1, 3]]


def test_poly_tables_matches_scalar():
    rng = random.Random(71)
    coeffs = [[rng.randrange(27) for _ in range(4)] for _ in range(20)]
    tables = backends.poly_tables(np.array(coeffs, dtype=np.int64), 27, 27)
    for row, cs in zip(tables, coeffs):
        f = PadicFunction.from_polynomial(cs, 3, 3)
        assert list(row) == f.value_table(3)


def test_mahler_batch_matches_extraction():
    rng = random.Random(72)
    coeffs = [[rng.randrange(16) for _ in range(3)] for _ in range(10)]
    tables = backends.poly_tables(np.array(coeffs, dtype=np.int64), 16, 16)
    out = backends.mahler_batch(tables, 16)
    for row, cs in zip(out, coeffs):
        f = PadicFunction.from_polynomial(cs, 2, 4)
        series = mahler_coefficients(f, count=16)
        assert list(row) == [series.term(i) for i in range(16)]


def test_transitive_scan_matches_cycle_check():
    rng = random.Random(73)
    coeffs = [[rng.randrange(8) for _ in range(4)] for _ in range(50)]
    flags = batch_transitive_polys(np.array(coeffs, dtype=np.int64), 2, 3)
    for bit, cs in zip(flags, coeffs):
        f = PadicFunction.from_polynomial(cs, 2, 3)
        assert bool(bit) == transitive_mod(f, 3).passed


def _random_self_maps(size, rng):
    """Rows of every shape: single cycles, other permutations and maps that
    are not bijective."""
    cycles = []
    for _ in range(20):
        order = rng.permutation(size)
        table = np.empty(size, dtype=np.int64)
        table[order] = np.roll(order, -1)
        cycles.append(table)
    perms = [rng.permutation(size) for _ in range(20)]
    return np.vstack([cycles, perms, rng.integers(0, size, (20, size))])


@pytest.mark.parametrize("size", [1, 2, 3, 8, 25, 64])
def test_transitive_scan_matches_the_step_loop(size):
    tables = _random_self_maps(size, np.random.default_rng(size))
    got = backends.transitive_scan(tables)
    assert got.dtype == np.uint8
    assert np.array_equal(got, transitive_scan_reference(tables))
    assert got[:20].all()  # the single cycles


@pytest.mark.parametrize("steps", [0, 1, 2, 5, 8, 31, 70])
def test_orbit_walks_follow_each_row_step_by_step(steps):
    tables = _random_self_maps(27, np.random.default_rng(steps))
    walks = backends.orbit_walks(tables, steps)
    assert walks.shape == (len(tables), steps + 1)
    for table, walk in zip(tables.tolist(), walks.tolist()):
        x, want = 0, [0]
        for _ in range(steps):
            x = table[x]
            want.append(x)
        assert walk == want


def test_mahler_values_matches_evaluate():
    rng = random.Random(74)
    for _ in range(8):
        terms = tuple(rng.randrange(27) for _ in range(9))
        f = PadicFunction.from_mahler(CoefficientSeries("mahler", 3, 3, terms))
        assert backends.mahler_values(np.array(terms), 3, 3, 27).tolist() == f.value_table(3)


def test_ud1_table_scan_matches_direct():
    rng = random.Random(75)
    p, depth = 2, 4
    window = p**depth + p ** (depth - 1) * (p - 1)
    funcs = []
    for _ in range(30):
        coeffs = [rng.randrange(p**depth) for _ in range(4)]
        funcs.append(PadicFunction.from_polynomial(coeffs, p, depth))
    # also a few broken series that are not differentiable
    for _ in range(10):
        terms = tuple(rng.randrange(p**depth) for _ in range(8))
        funcs.append(PadicFunction.from_mahler(CoefficientSeries("mahler", p, depth, terms)))
    for f in funcs:
        values = np.array([f.evaluate(x) for x in range(window)], dtype=np.int64)
        first, derived = backends.ud1_table_scan(values, p, depth)
        want = ud1_reference(f)
        w = want.verdict.witness or {}
        assert first == (None if want.verdict.passed else (w["u"], w.get("s", 0), w.get("h", 0)))
        assert (derived is None) == (want.derived is None)


def _ud1_first_failure(values, p, depth):
    """min over every failing (u, s, h), by brute force."""
    size = p**depth
    d = [(values[u + p] - values[u]) // p % p for u in range(size)]
    return min(((u, s, h) for u in range(size) for s in range(1, depth) for h in range(1, p)
                if (values[u + p**s * h] - values[u] - p**s * h * d[u]) % p ** (s + 1)),
               default=None)


@pytest.mark.parametrize("bumped, first", [
    # f(20) + 9 breaks (u, s) = (11, 2) at h = 1 and the smaller u = 2 only at h = 2,
    # which the later pair finds below the u the earlier one found
    ([20], (2, 2, 2)),
    # f(5) + 9 breaks u = 5 at s = 2 for both h: the earlier pair keeps it
    ([5], (5, 2, 1)),
    ([5, 20], (2, 2, 2)),
    ([], None),
])
def test_ud1_table_scan_keeps_the_first_failure_in_u_s_h_order(bumped, first):
    # x + 1 at p = 3, depth 3 is UD1; a multiple of 9 keeps d(u) and every s = 1 congruence
    p, depth = 3, 3
    values = np.array([(x + 1) % 27 for x in range(45)], dtype=np.int64)
    values[bumped] += 9
    got, derived = backends.ud1_table_scan(values, p, depth)
    assert got == first == _ud1_first_failure(values.tolist(), p, depth)
    assert derived.tolist() == [1] * 27


def test_ud1_table_scan_returns_at_once_on_an_odd_difference():
    values = np.array([(x + 1) % 27 for x in range(45)], dtype=np.int64)
    # f(u + 3) - f(u) is no multiple of 3 at u = 4 and 7; that wins over the
    # congruence failure at u = 2 that f(20) + 9 makes
    values[[20, 7]] += [9, 1]
    assert backends.ud1_table_scan(values, 3, 3) == ((4, 0, 0), None)


def _lipschitz_digits(p, depth, npoints, rng):
    """g(x) = sum_j c_j(x mod p^(j+1)) p^j with random digit tables c_j: a
    random 1-Lipschitz map mod p^depth at x = 0..npoints-1."""
    xs = np.arange(npoints)
    g = np.zeros(npoints, dtype=np.int64)
    for j in range(depth):
        g += np.array([rng.randrange(p) for _ in range(p ** (j + 1))])[xs % p ** (j + 1)] * p**j
    return g


def _ud1_scan_values(kind, p, depth, rng):
    """The sweep's value window of a map of the given kind, most of them UD1
    or close to it.  "periodic" is x + 1 + p c(x mod p^2) with c p-periodic
    but at one point, so d(x) = 1 + c(x + p) - c(x) breaks its period first."""
    size, top = p**depth, p ** (depth - 1)
    window = size + (p - 1) * top
    xs = np.arange(window)
    if kind == "periodic":
        c = np.array([rng.randrange(p) for _ in range(p)] * p)
        c[rng.randrange(p * p)] += rng.randrange(1, p)
        return (xs + 1 + p * c[xs % (p * p)]) % size
    if kind == "polynomial":
        coeffs = [rng.randrange(size) for _ in range(rng.randint(1, 5))]
        f = PadicFunction.from_polynomial(coeffs, p, depth)
    elif kind == "table":
        c = rng.choice([1, 2, depth - 1])
        g = _lipschitz_digits(p, depth, size, rng)
        f = PadicFunction.from_table(((xs[:size] + 1 + p**c * g) % size).tolist(), p, depth)
    elif kind == "mahler":
        series = random_ud1_mahler_series(p, depth, p * p, rng)
        if rng.random() < 0.5:  # a term off its floor
            terms = list(series.terms)
            terms[rng.randrange(len(terms))] += p ** rng.randrange(depth)
            series = CoefficientSeries("mahler", p, depth, tuple(terms))
        f = PadicFunction.from_mahler(series)
    else:  # vdp: the terms of a UD1 polynomial, one of them moved on or off its level
        poly = PadicFunction.from_polynomial([rng.randrange(size) for _ in range(4)], p, depth)
        terms = vdp_coefficients(poly).terms.tolist()
        if rng.random() < 0.5:
            m = rng.randrange(p, size)
            terms[m] += p ** rng.randrange(1, depth)
        f = PadicFunction.from_vdp(CoefficientSeries("vdp", p, depth, tuple(terms)))
    return f.value_array(window).copy()


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(2, 4),
    st.sampled_from(["polynomial", "table", "mahler", "vdp", "periodic"]),
    st.sampled_from(["none", "anywhere", "past N", "top level"]),
    st.integers(0, 2**32),
)
def test_ud1_table_scan_matches_the_literal_sweep(p, depth, kind, perturb, seed):
    # the h = 1 and periodicity checks give the literal sweep's first failing
    # (u, s, h) and its derivative residues, and run the literal narrowing
    # only on a map that fails
    rng = random.Random(seed)
    values = _ud1_scan_values(kind, p, depth, rng)
    size, top = p**depth, p ** (depth - 1)
    if perturb == "top level":  # a random digit at p^(depth-1) for each x mod N
        digits = np.array([rng.randrange(p) for _ in range(size)])
        values = (values + top * digits[np.arange(len(values)) % size]) % size
    elif perturb != "none":
        low = size if perturb == "past N" else 0
        for x in rng.sample(range(low, len(values)), rng.randint(1, 2)):
            values[x] = (values[x] + p ** rng.randrange(depth) * rng.randrange(1, p)) % size
    want, want_derived = ud1_table_scan_reference(values, p, depth)
    literal = backends._first_failure
    calls = []
    backends._first_failure = lambda *args: calls.append(args[-1]) or literal(*args)
    try:
        first, derived = backends.ud1_table_scan(values, p, depth)
    finally:
        backends._first_failure = literal
    assert first == want
    assert (derived is None) == (want_derived is None)
    if derived is not None:
        assert derived.tolist() == want_derived.tolist()
    if want is None:
        assert calls == []
    elif kind == "periodic" and perturb == "none" and p > 2:
        # the first failure comes from the break in d's period: s = 1, h >= 2
        assert want[1] == 1 and want[2] >= 2


@pytest.mark.parametrize("p, depth, bumped, added", [
    # x + 1 with values in [N, W) moved: f(x + p) - f(x) not divisible by p
    # at some x >= N only (3, 3, [35]; 5, 2, [31]); an s = 2 check (3, 3, [44],
    # [38]) or a break in d's period (5, 2, [44]; 7, 2, [90]) failing past N
    # only, so the whole literal sweep runs; and checks failing below N
    (3, 3, [35], 1), (3, 3, [44], 1), (3, 3, [38], 9), (5, 2, [31], 1), (5, 2, [44], 5),
    (7, 2, [90], 7), (2, 4, [20], 1), (5, 3, [130, 140], 25),
])
def test_ud1_table_scan_on_values_moved_past_n(p, depth, bumped, added):
    size = p**depth
    values = np.array([(x + 1) % size for x in range(size + (p - 1) * p ** (depth - 1))])
    values[bumped] = (values[bumped] + added) % size
    first, derived = backends.ud1_table_scan(values, p, depth)
    assert first == ud1_table_scan_reference(values, p, depth)[0]
    assert first == _ud1_first_failure(values.tolist(), p, depth) is not None
    assert derived.tolist() == [1] * size


def _bipro_brute_force(p, s, comb=math.comb):
    """(pairs, first failing (n, k) witness or None) by direct enumeration."""
    q, ps, delta = p * p, p**s, p ** (s - 1)
    pairs = 0
    for n in range(ps, 2 * ps):
        for k in range(n + 1):
            pairs += 1
            lhs = math.comb(n, k) % q
            rhs = sum(
                comb(p, j) * math.comb(n - ps, k - j * delta)
                for j in range(p + 1)
                if 0 <= k - j * delta <= n - ps
            ) % q
            if lhs != rhs:
                return pairs, {"n": n, "k": k, "lhs": lhs, "rhs": rhs}
    return pairs, None


def test_bipro_scan_matches_brute_force():
    for p, s in ((3, 2), (5, 2), (3, 3)):
        assert backends.bipro_scan(p, s) == _bipro_brute_force(p, s)
    assert backends.bipro_scan(5, 2) == (sum(n + 1 for n in range(25, 50)), None)


def test_bipro_scan_reports_perturbed_tap(monkeypatch):
    def perturbed(n, k):
        return math.comb(n, k) + (n == 5 and k == 2)

    monkeypatch.setattr(backends, "comb", perturbed)
    _, witness = backends.bipro_scan(5, 2)
    assert witness == {"n": 25, "k": 10, "lhs": 10, "rhs": 11}
    assert witness["lhs"] == math.comb(witness["n"], witness["k"]) % 25
    assert witness["rhs"] != witness["lhs"]
    assert witness == _bipro_brute_force(5, 2, comb=perturbed)[1]


# every (p, s) of the benchmark's bipro ranges, (13, 3) and (7, 4), and of
# the suite's default range (13, 4) up to p^s = 2401; the reference takes
# about 7 s at (11, 4) and 30 s at (13, 4), which the default-range run in
# test_c06 covers against the closed-form pair count
_BIPRO_RANGE = [(p, s) for p in (3, 5, 7, 11, 13) for s in (2, 3, 4) if p**s <= 2401]


def _passing_pairs(p, s):
    ps = p**s
    return sum(n + 1 for n in range(ps, 2 * ps))


@pytest.mark.parametrize("p, s", _BIPRO_RANGE)
def test_bipro_scan_matches_lockstep_reference(p, s):
    assert backends.bipro_scan(p, s) == bipro_lockstep_reference(p, s) == (
        _passing_pairs(p, s), None
    )


@pytest.mark.parametrize("p, s, j", [(5, 2, 0), (5, 3, 2), (7, 3, 3), (13, 2, 13), (3, 4, 1)])
def test_bipro_scan_matches_reference_with_a_perturbed_tap(monkeypatch, p, s, j):
    monkeypatch.setattr(backends, "comb", lambda n, k: math.comb(n, k) + (n == p and k == j))
    result = backends.bipro_scan(p, s)
    assert result[1] is not None
    assert result == bipro_lockstep_reference(p, s)


def _bump_row(monkeypatch, target, k, q):
    """Raise entry k of the row C(target, .) by one mod q wherever either
    scan writes that row by Pascal's rule: the blocked scan's step from m
    writes C(m + 1, .) on its low side and C(m + 1 + p^s, .) on its high
    side, which starts at p^s + 1; in the warm-up m < 0, so only the high
    side can match."""
    blocked, lockstep = backends._pascal_into, scalar_reference._pascal_step

    def blocked_step(dst, src, m, ps, q_, spare):
        blocked(dst, src, m, ps, q_, spare)
        for side, n in ((0, m + 1), (ps + 1, m + 1 + ps)):
            if n == target:
                dst[side + k] = (int(dst[side + k]) + 1) % q

    def lockstep_step(row, m, q_):
        lockstep(row, m, q_)
        if m + 1 == target:
            row[k] = (row[k] + 1) % q

    monkeypatch.setattr(backends, "_pascal_into", blocked_step)
    monkeypatch.setattr(scalar_reference, "_pascal_step", lockstep_step)


# at p = 5, s = 3 the blocks of 16 rows start at m = 0, 16, ..., 112 and the
# last one holds m = 112..124: the first row of the scan (C(125, .), written
# before the blocks), the first, a middle and the last row of a block, the row
# just after a block boundary, and the last row of the scan
@pytest.mark.parametrize("m", [0, 32, 39, 47, 48, 124])
def test_bipro_scan_reports_a_perturbed_row(monkeypatch, m):
    p, s, q = 5, 3, 25
    n, k = m + p**s, 1 + m // 2
    _bump_row(monkeypatch, n, k, q)
    pairs, witness = backends.bipro_scan(p, s)
    assert (pairs, witness) == bipro_lockstep_reference(p, s)
    assert (witness["n"], witness["k"]) == (n, k)
    assert witness["lhs"] == (math.comb(n, k) + 1) % q and witness["rhs"] == math.comb(n, k) % q
    assert pairs == sum(t + 1 for t in range(p**s, n + 1))


def test_bipro_scan_matches_reference_with_a_perturbed_low_row(monkeypatch):
    # a row below p^s is a low row and also feeds C(p^s, .)
    _bump_row(monkeypatch, 40, 7, 25)
    result = backends.bipro_scan(5, 3)
    assert result[1] is not None
    assert result == bipro_lockstep_reference(5, 3)


@pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
def test_bipro_scan_block_size_changes_nothing(monkeypatch, block):
    monkeypatch.setattr(backends, "_BIPRO_BLOCK", block)
    for p, s in ((5, 2), (3, 4), (5, 3), (11, 2)):
        assert backends.bipro_scan(p, s) == bipro_lockstep_reference(p, s)
    _bump_row(monkeypatch, 125 + 30, 9, 25)
    assert backends.bipro_scan(5, 3) == bipro_lockstep_reference(5, 3)


# the tap sums run on uint16 words: up to p = 19 the high base-p digits of
# the taps C(p, j) times whole low rows sum below 2^16; from p = 23 the
# p-part is summed over the low rows mod p, and from p = 53 it passes 2^16
# on the way and is reduced there.  (79, 2) and (97, 2) stay from the int32
# sums' edges; 97 is the largest p the suite sweeps.  From p = 149 the units
# pass 2^16 on top of p times the p-part as well, but (149, 2) takes about
# 15 s and (181, 2), the largest p taken, about a minute, so neither runs
# here.
@pytest.mark.parametrize("p, s", [(17, 2), (17, 3), (23, 2), (53, 2), (79, 2), (97, 2)])
def test_bipro_scan_exact_at_the_dtype_edges(p, s):
    assert backends.bipro_scan(p, s) == (_passing_pairs(p, s), None)


# each amount changes the tap's low base-p digit (1), its high digit (p) or
# both (p^2 - 1); (23, 2) sums the p-part over the low rows mod p, the
# others over whole rows
@pytest.mark.parametrize("amount", ["1", "p", "p^2 - 1"])
@pytest.mark.parametrize("p, s, j", [(p, s, j) for p, s in ((5, 3), (13, 2), (23, 2)) for j in (0, p // 2, p)])
def test_bipro_scan_matches_reference_with_a_tap_raised(monkeypatch, p, s, j, amount):
    added = {"1": 1, "p": p, "p^2 - 1": p * p - 1}[amount]
    monkeypatch.setattr(backends, "comb", lambda n, k: math.comb(n, k) + added * (n == p and k == j))
    result = backends.bipro_scan(p, s)
    assert result[1] is not None
    assert result == bipro_lockstep_reference(p, s)


def _predict_high_rows(monkeypatch, taps, p, s):
    """Give the scan taps as C(p, .) and overwrite every high row
    C(m + p^s, .) its Pascal step writes with the tap sum over the low row
    C(m, .), in int64.  The scan then passes exactly when each of its own
    tap sums is exact at every entry, not only up to its first mismatch."""
    q, ps, delta = p * p, p**s, p ** (s - 1)
    blocked = backends._pascal_into

    def predicted_step(dst, src, m, ps_, q_, spare):
        blocked(dst, src, m, ps_, q_, spare)
        if m >= -1:  # dst now holds C(m + 1, .) on its low side
            low = dst[: ps + 1].astype(np.int64)
            rhs = np.zeros(2 * ps + 1, dtype=np.int64)
            for j, tap in enumerate(taps):
                rhs[j * delta : j * delta + ps + 1] += tap * low
            dst[ps + 1 :] = rhs % q

    monkeypatch.setattr(backends, "_pascal_into", predicted_step)
    monkeypatch.setattr(backends, "comb", lambda n, k: taps[k] if n == p else math.comb(n, k))


# random taps at (13, 2) and (23, 2), the p-part over whole rows and over
# rows mod p; taps p - 1 at (19, 2), whose units pass 2^16; taps p - 2 at
# (41, 2), where p - 2 times a row fits in 16 bits but not on top of a
# reduced sum, so each product is reduced first; taps p^2 - 1 at (41, 2),
# where the p-part and the units both pass 2^16
@pytest.mark.parametrize(
    "p, taps",
    [
        (13, random.Random(13).choices(range(169), k=14)),
        (19, [18] * 20),
        (23, random.Random(23).choices(range(529), k=24)),
        (41, [39] * 42),
        (41, [41 * 41 - 1] * 42),
    ],
)
def test_bipro_scan_tap_sums_exact_for_arbitrary_taps(monkeypatch, p, taps):
    _predict_high_rows(monkeypatch, taps, p, 2)
    assert backends.bipro_scan(p, 2) == (_passing_pairs(p, 2), None)


def test_bipro_scan_refuses_p_beyond_16_bit_rows():
    with pytest.raises(InputError):
        backends.bipro_scan(191, 2)


def test_poly_tables_rejects_ragged():
    with pytest.raises((InputError, ValueError)):
        backends.poly_tables([[1, 2], [1, 2, 3]], 8, 8)


def _differences(values, mod):
    out = []
    while values:
        out.append(values[0] % mod)
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _first_reduction(mod):
    # mahler_batch reduces before the step at which its bound, mod * 2^step,
    # first passes 2^61
    step = 0
    while mod << step <= 1 << 61:
        step += 1
    return step


def _mahler_steps(monkeypatch, rows, mod, floors=None):
    """mahler_batch's output and the number of differences it took."""
    calls = []
    subtract = np.subtract

    def counting(*args, **kwargs):
        calls.append(1)
        return subtract(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "subtract", counting)
        out = backends.mahler_batch(rows, mod, floors)
    return out.tolist(), len(calls)


def test_mahler_batch_stops_where_differences_vanish_only_mod_p_k(monkeypatch):
    # a Mahler sum of 100 terms, tabulated mod 27: the reduced table is no
    # short Mahler sum over Z, but its differences vanish mod 27 from the
    # 100th on, so the table stops at the second reduction, step 114
    rng = random.Random(73)
    terms = [rng.randrange(27) for _ in range(100)]
    row = [sum(t * math.comb(x, j) for j, t in enumerate(terms)) % 27 for x in range(300)]
    assert any(_differences(row, 10**200)[100:])
    out, steps = _mahler_steps(monkeypatch, [row], 27)
    assert out == [_differences(row, 27)]
    assert out[0] == terms + [0] * 200
    assert steps == 2 * _first_reduction(27) == 114


def test_mahler_batch_stops_at_the_first_reduction(monkeypatch):
    rows = [[5] * 80, [(3 + 4 * x + 9 * x * x) % 27 for x in range(80)]]
    out, steps = _mahler_steps(monkeypatch, rows, 27)
    assert out == [_differences(row, 27) for row in rows]
    assert steps == _first_reduction(27) == 57


def test_mahler_batch_runs_to_the_end_while_one_row_lives(monkeypatch):
    # the second row's last Mahler coefficient is 1, so no step of its
    # differences vanishes mod 27, whatever the first row does
    n = 150
    rows = [[(1 + x) % 27 for x in range(n)], [0] * (n - 1) + [1]]
    out, steps = _mahler_steps(monkeypatch, rows, 27)
    assert out == [_differences(row, 27) for row in rows]
    assert out[0] == [1, 1] + [0] * (n - 2) and out[1][-1] == 1
    assert steps == n - 1


@pytest.mark.parametrize("mod", [3**39, 2**70, 3**60])
def test_mahler_batch_past_2_61_reduces_and_checks_every_step(monkeypatch, mod):
    # 3^39 still runs in int64, 2^70 and 3^60 on Python integers
    assert mod > 1 << 61 and _first_reduction(mod) == 0
    square = [(mod - 1 + 10**30 * x + x * x) % mod for x in range(12)]
    out, steps = _mahler_steps(monkeypatch, [square], mod)
    assert out == [_differences(square, mod)] and out[0][3:] == [0] * 9
    assert steps == 3
    spike = [0] * 11 + [mod + 1]
    out, steps = _mahler_steps(monkeypatch, [square, spike], mod)
    assert out == [_differences(square, mod), _differences(spike, mod)]
    assert steps == 11


def _mahler_sum(terms, mod, n):
    return [sum(t * math.comb(x, j) for j, t in enumerate(terms)) % mod for x in range(n)]


@pytest.mark.parametrize("column, steps", [(6, 57), (57, 57), (58, 114), (120, 171)])
def test_mahler_batch_stops_at_the_first_reduction_after_a_failing_column(
    monkeypatch, column, steps
):
    # every term is a multiple of 3 but the one at column; mod 27 the table
    # reduces before steps 57, 114 and 171
    rng = random.Random(column)
    terms = [3 * rng.randrange(9) for _ in range(200)]
    terms[column] = 1 + 3 * rng.randrange(9)
    row = _mahler_sum(terms, 27, 200)
    floors = [1] * 2 + [3] * 198  # the first two columns are free
    out, taken = _mahler_steps(monkeypatch, [row], 27, floors)
    assert out == [terms[: column + 1]]
    assert taken == steps and steps >= column


def test_mahler_batch_with_floors_runs_on_while_no_row_fails(monkeypatch):
    # both rows' terms are multiples of 3 that never vanish mod 27, so the
    # table runs to the end and returns every column of both rows
    n = 150
    rows = [_mahler_sum([3] * n, 27, n), _mahler_sum([6, 0] * (n // 2), 27, n)]
    out, steps = _mahler_steps(monkeypatch, rows, 27, [3] * n)
    assert out == [[3] * n, [6, 0] * (n // 2)]
    assert steps == n - 1


def test_mahler_batch_with_floors_stops_at_the_first_failure_of_any_row(monkeypatch):
    # the rows fail at columns 100 and 3, and the other row passes: the table
    # stops at the first reduction after column 3 and keeps columns 0..3 of every row
    n = 200
    late = _mahler_sum([0] * 100 + [2], 27, n)
    early = _mahler_sum([0, 0, 0, 1], 27, n)
    passing = _mahler_sum([3] * n, 27, n)
    out, steps = _mahler_steps(monkeypatch, [late, early, passing], 27, [3] * n)
    assert out == [_differences(late, 27)[:4], [0, 0, 0, 1], [3] * 4]
    assert steps == _first_reduction(27) == 57


@pytest.mark.parametrize("p, e", [(3, 39), (2, 70)])
def test_mahler_batch_with_floors_past_2_61_stops_at_the_failing_step(monkeypatch, p, e):
    # past 2^61 every step reduces, so the table stops at the failing column
    # itself; 3^39 runs in int64, 2^70 on Python integers
    mod = p**e
    terms = [mod - 1, p, p * p, p + 1, 1]
    row = _mahler_sum(terms, mod, 12)
    out, steps = _mahler_steps(monkeypatch, [row], mod, [1, p] + [p * p] * 10)
    assert out == [terms[:4]] and steps == 3


@pytest.mark.parametrize("mod", [27, 3**39, 2**70])
@pytest.mark.parametrize("row", [[7], [-1], [3, 3], [0, 5], [5, 0], [4, -4]])
def test_mahler_batch_rows_of_length_one_and_two(mod, row):
    assert backends.mahler_batch([row], mod).tolist() == [_differences(row, mod)]
    zeros = [t * mod for t in range(len(row))]
    assert backends.mahler_batch([zeros, row], mod).tolist() == [
        [0] * len(row), _differences(row, mod)
    ]


def _mahler_row(shape, rng, mod, n):
    if shape == "polynomial":
        coeffs = [rng.randrange(-(10**30), 10**30) for _ in range(rng.randrange(6))]
        return [sum(c * x**i for i, c in enumerate(coeffs)) % mod for x in range(n)]
    if shape == "mahler":
        return _mahler_sum([rng.randrange(mod) for _ in range(rng.randrange(1, n + 1))], mod, n)
    if shape == "spike":
        row = [0] * n
        row[rng.randrange(n)] = rng.randrange(1, mod)
        return row
    return [rng.randrange(-mod, 2 * mod) for _ in range(n)]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 8, 27, 125, 7**4, 2**20, 3**13, 3**39, 2**70, 3**60]),
    st.integers(1, 200),
    st.lists(st.sampled_from(["polynomial", "mahler", "spike", "random"]), min_size=1, max_size=3),
    st.integers(0, 2**32),
)
def test_mahler_batch_matches_the_difference_reference(mod, n, shapes, seed):
    rng = random.Random(seed)
    rows = [_mahler_row(shape, rng, mod, n) for shape in shapes]
    assert backends.mahler_batch(rows, mod).tolist() == [_differences(row, mod) for row in rows]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 3), (5, 2), (2, 20), (3, 13), (3, 39), (2, 70)]),
    st.integers(1, 200),
    st.lists(st.sampled_from(["polynomial", "mahler", "spike", "random"]), min_size=1, max_size=3),
    st.integers(0, 2**32),
)
def test_mahler_batch_with_floors_returns_a_prefix_to_the_first_failure(pe, n, shapes, seed):
    p, e = pe
    mod = p**e
    rng = random.Random(seed)
    rows = [_mahler_row(shape, rng, mod, n) for shape in shapes]
    floors = [p ** rng.choice([0, 0, 1, e]) for _ in range(n)]
    full = [_differences(row, mod) for row in rows]
    out = backends.mahler_batch(rows, mod, floors).tolist()
    first = min(next((i for i, a in enumerate(row) if a % floors[i]), n) for row in full)
    assert out == [row[: len(out[0])] for row in full]
    assert len(out[0]) in (n, first + 1)


def test_wide_modulus_stays_exact():
    # where int64 could overflow, the kernels run the same code on Python ints
    for p, depth in ((2, 31), (2, 40), (2147483647, 2), (3, 60)):
        mod = p**depth
        terms = [1, mod - 1, 3, 10**40]
        values = backends.mahler_values(terms, p, depth, 6)
        assert values.tolist() == [
            sum(t * math.comb(x, n) for n, t in enumerate(terms)) % mod for x in range(6)
        ]
        coeffs = [mod - 1, -(10**30), 1]
        table = backends.poly_tables([coeffs], 6, mod)
        exact = [sum(c * x**i for i, c in enumerate(coeffs)) % mod for x in range(6)]
        assert table.tolist() == [exact]
        assert backends.mahler_batch(table, mod).tolist() == [_differences(exact, mod)]


def test_integers_past_int64_beside_small_ones_stay_exact():
    # numpy reads [5, 2^63 + 1] as float64; such rows are read again as Python ints
    coeffs = [5, 2**63 + 1, 3]
    table = backends.poly_tables([coeffs], 9, 27)
    assert table.tolist() == [[sum(c * x**i for i, c in enumerate(coeffs)) % 27
                               for x in range(9)]]
