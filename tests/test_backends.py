import math
import random

import numpy as np
import pytest

from padicdyn import backends
from padicdyn.analysis import ud1_check
from padicdyn.dynamics import transitive_mod
from padicdyn.errors import InputError
from padicdyn.funcspace import PadicFunction, mahler_coefficients


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
    flags = backends.batch_transitive_polys(np.array(coeffs, dtype=np.int64), 2, 3)
    for bit, cs in zip(flags, coeffs):
        f = PadicFunction.from_polynomial(cs, 2, 3)
        assert bool(bit) == transitive_mod(f, 3).passed


def test_mahler_value_matrix_matches_evaluate():
    rng = random.Random(74)
    terms = np.array(
        [[rng.randrange(27) for _ in range(9)] for _ in range(8)], dtype=np.int64
    )
    values = backends.mahler_value_matrix(terms, 3, 3, 27)
    for row, ts in zip(values, terms):
        from padicdyn.funcspace import CoefficientSeries

        f = PadicFunction.from_mahler(
            CoefficientSeries("mahler", 3, 3, tuple(int(t) for t in ts))
        )
        assert list(row) == f.value_table(3)


def test_ud1_table_scan_matches_direct():
    rng = random.Random(75)
    p, depth = 2, 4
    window = p**depth + p ** (depth - 1) * (p - 1)
    rows = []
    funcs = []
    for _ in range(30):
        coeffs = [rng.randrange(p**depth) for _ in range(4)]
        f = PadicFunction.from_polynomial(coeffs, p, depth)
        funcs.append(f)
        rows.append([f.evaluate(x) for x in range(window)])
    # also a few broken series that are not differentiable
    from padicdyn.funcspace import CoefficientSeries

    for _ in range(10):
        terms = tuple(rng.randrange(p**depth) for _ in range(8))
        g = PadicFunction.from_mahler(CoefficientSeries("mahler", p, depth, terms))
        funcs.append(g)
        rows.append([g.evaluate(x) for x in range(window)])
    flags, _, _ = backends.ud1_table_scan(np.array(rows, dtype=np.int64), p, depth)
    for bit, f in zip(flags, funcs):
        assert bool(bit) == ud1_check(f).verdict.passed


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


def test_poly_tables_rejects_ragged():
    with pytest.raises((InputError, ValueError)):
        backends.poly_tables([[1, 2], [1, 2, 3]], 8, 8)


def _differences(values, mod):
    out = []
    while values:
        out.append(values[0] % mod)
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def test_wide_modulus_stays_exact():
    # where int64 could overflow, the kernels run the same code on Python ints
    for p, depth in ((2, 31), (2, 40), (2147483647, 2), (3, 60)):
        mod = p**depth
        terms = [1, mod - 1, 3, 10**40]
        values = backends.mahler_value_matrix([terms], p, depth, 6)
        assert values.tolist() == [
            [sum(t * math.comb(x, n) for n, t in enumerate(terms)) % mod for x in range(6)]
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
