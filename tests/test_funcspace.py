import random

import numpy as np
import pytest

from padicdyn import backends
from padicdyn.arith import binomial, m_minus
from padicdyn.dynamics import cycle_structure
from padicdyn.errors import InputError, NormalizationError, PreconditionError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    lipschitz_check,
    mahler_coefficients,
    vdp_coefficients,
    vdp_terms,
)
from scalar_reference import (
    INFINITY,
    chi,
    floor_log,
    indicator_mahler_coefficient,
    lipschitz_direct_check,
    valuation,
    vdp_reference,
    vdp_to_mahler,
)


def test_floor_log_convention():
    assert floor_log(0, 2) == 0
    assert floor_log(1, 2) == 0
    assert floor_log(2, 2) == 1
    assert floor_log(7, 2) == 2
    assert floor_log(9, 3) == 2
    assert floor_log(8, 3) == 1


def test_chi_membership():
    # chi(m, x) = 1 iff x = m mod p^(e(m)+1)
    assert chi(0, 0, 3) == 1
    assert chi(0, 3, 3) == 1
    assert chi(0, 1, 3) == 0
    assert chi(5, 5, 3) == 1  # e(5) = 1 -> ball mod 9
    assert chi(5, 14, 3) == 1
    assert chi(5, 8, 3) == 0


def test_known_cubic_coefficients():
    # f = 1 + 3x + 2x^3: values 1, 6, 23, 64 at 0..3
    f = PadicFunction.from_polynomial([1, 3, 0, 2], 2, 6)
    a = mahler_coefficients(f, count=4)
    assert [a.term(i) for i in range(4)] == [1, 5, 12, 12]
    assert a.normals(0, 4).tolist() == [1, 5, 6, 6]
    B = vdp_coefficients(f, count=4)
    assert [B.term(i) for i in range(4)] == [1, 6, 22, 58]
    assert B.normals(0, 4).tolist() == [1, 6, 11, 29]


def test_vdp_coefficient_definition():
    rng = random.Random(11)
    for p in (2, 3, 5):
        coeffs = [rng.randrange(p**4) for _ in range(5)]
        f = PadicFunction.from_polynomial(coeffs, p, 4)
        series = vdp_coefficients(f, count=p**3)
        for m in range(p**3):
            if m < p:
                expect = f.evaluate(m)
            else:
                stripped = m % (p ** floor_log(m, p))
                expect = (f.evaluate(m) - f.evaluate(stripped)) % p**4
            assert series.term(m) == expect % p**4


def test_four_function_kinds_agree():
    rng = random.Random(12)
    for p in (2, 3):
        coeffs = [rng.randrange(p**4) for _ in range(4)]
        f = PadicFunction.from_polynomial(coeffs, p, 4)
        table = PadicFunction.from_table(f.value_table(4), p, 4)
        fm = PadicFunction.from_mahler(mahler_coefficients(f, count=p**4))
        fv = PadicFunction.from_vdp(vdp_coefficients(f, count=p**4))
        for x in range(p**4):
            ref = f.evaluate(x)
            assert table.evaluate(x) == ref
            assert fm.evaluate(x) == ref
            assert fv.evaluate(x) == ref


def test_evaluate_high_degree_matches_modular_power():
    # Horner reduces mod p^k at every step, so the degree only costs steps
    for p, depth, e in ((3, 6, 65535), (2, 12, 40001), (7, 4, 12345)):
        f = PadicFunction.from_polynomial([1, 1] + [0] * (e - 2) + [1], p, depth)
        for x in (0, 1, 26, p**depth - 1, 10**30 + 7):
            for k in (1, depth):
                mod = p**k
                assert f.evaluate(x, k) == (1 + x + pow(x, e, mod)) % mod
    g = PadicFunction.from_polynomial([-(10**40)] + [0] * 999 + [-3], 5, 3)
    assert g.evaluate(12) == (-(10**40) - 3 * 12**1000) % 125


def test_evaluate_respects_reduction():
    f = PadicFunction.from_polynomial([1, 1], 5, 3)
    assert f.evaluate(7, 1) == 8 % 5
    assert f.evaluate(124, 3) == 0
    with pytest.raises(InputError):
        f.evaluate(0, 4)  # beyond depth


def test_round_trip_exact():
    # a change of basis goes through the values: read a function built from
    # one basis in the other, and back; the van der Put to Mahler direction
    # must also give the indicator sums of the scalar reference
    rng = random.Random(13)
    for p in (2, 3, 5):
        k = 4
        mod = p**k
        for _ in range(20):
            count = rng.randrange(1, p**3 + 1)
            terms = tuple(rng.randrange(mod) for _ in range(count))
            series = CoefficientSeries("vdp", p, k, terms)
            mahler = mahler_coefficients(PadicFunction.from_vdp(series), count)
            assert mahler == vdp_to_mahler(series, count)
            assert vdp_coefficients(PadicFunction.from_mahler(mahler), count) == series
            mseries = CoefficientSeries("mahler", p, k, terms)
            vdp = vdp_coefficients(PadicFunction.from_mahler(mseries), count)
            assert mahler_coefficients(PadicFunction.from_vdp(vdp), count) == mseries


def test_indicator_mahler_small_values():
    # chi(0, .) over Z_2: iterated differences of 1,0,1,0,... give 1,-1,2,-4
    assert [indicator_mahler_coefficient(n, 0, 2) for n in range(4)] == [1, -1, 2, -4]
    assert indicator_mahler_coefficient(2, 1, 2) == -2
    assert indicator_mahler_coefficient(2, 2, 2) == 1
    assert indicator_mahler_coefficient(1, 2, 2) == 0  # zero below m


def test_indicator_mahler_matches_differences():
    # a_n(m) are the Mahler coefficients of x -> chi(m, x)
    for p in (2, 3):
        for m in range(6):
            values = [chi(m, x, p) for x in range(12)]
            diffs = list(values)
            for n in range(8):
                assert indicator_mahler_coefficient(n, m, p) == diffs[0]
                diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]


def test_indicator_valuation_bound_small():
    for p in (2, 3):
        for n in range(1, 60):
            for m in range(n + 1):
                M = floor_log(m, p) + 1
                bound = (n - 1) // (p**M - 1)
                v = valuation(indicator_mahler_coefficient(n, m, p), p)
                assert v is INFINITY or v >= bound


def test_binomial_vdp_coefficient():
    # A_m(n), the vdp coefficient of x -> C(x, n), read from the Mahler series e_n
    for p in (2, 3):
        for n in range(5):
            f = PadicFunction.from_mahler(CoefficientSeries("mahler", p, 8, [0] * n + [1]))
            got = vdp_coefficients(f, p**2).term_list
            for m in range(p**2):
                below = binomial(m % (p ** floor_log(m, p)), n) if m >= p else 0
                assert got[m] == binomial(m, n) - below


def test_normalized_requires_divisibility():
    series = CoefficientSeries("vdp", 2, 4, (1, 1, 1, 2))  # B_2 = 1 not div by 2
    with pytest.raises(NormalizationError, match="vdp term 2 = 1 is not divisible by 2"):
        series.normals(0, 4)
    assert series.normals(3, 4).tolist() == [1]


def test_lipschitz_check_routes_agree():
    rng = random.Random(14)
    for p in (2, 3):
        for _ in range(20):
            coeffs = [rng.randrange(p**4) for _ in range(4)]
            f = PadicFunction.from_polynomial(coeffs, p, 4)
            basis = lipschitz_check(vdp_coefficients(f, count=p**4))
            direct = lipschitz_direct_check(f)
            assert basis.passed and direct.passed


def test_lipschitz_failure_detected_both_ways():
    # x -> C(x, 2) drops 2-adic distance: f(0)=0, f(2)=1
    series = CoefficientSeries("mahler", 2, 4, (0, 0, 1))
    f = PadicFunction.from_mahler(series)
    assert not lipschitz_check(series).passed
    assert not lipschitz_direct_check(f).passed


def test_reduce_map_precondition():
    f = PadicFunction.from_polynomial([0, 1, 1], 2, 4)
    assert f.reduce_map(2) == [0, 2, 2, 0]  # x + x^2 mod 4
    g = PadicFunction.from_mahler(CoefficientSeries("mahler", 2, 3, (0, 0, 1)))
    with pytest.raises(PreconditionError):
        g.reduce_map(2)  # not 1-Lipschitz, reduction ill-defined


def test_reduce_map_of_a_polynomial_reads_only_its_first_values():
    # the depth-30 window holds 2^30 values, over the materialization limit
    f = PadicFunction.from_polynomial([1, 1], 2, 30)
    assert f.reduce_map(3) == [(x + 1) % 8 for x in range(8)]
    assert cycle_structure(f, 3).transitive


def test_orbit_mod_reads_the_walk_and_refuses_as_reduce_map():
    f = PadicFunction.from_polynomial([1, 1, 2], 3, 3)  # 2x^2 + x + 1
    for k in (1, 2, 3):
        y, walk = 0, []
        for _ in range(3**k + 1):
            walk.append(y)
            y = f.evaluate(y, k)
        assert f.orbit_mod(k).tolist() == walk
    for k in (0, 4):
        with pytest.raises(InputError):
            f.orbit_mod(k)
    # 0 -> 2 -> 0 mod 4, but x = 1 and x = 5 differ mod 4: B_5 = 2 is not
    # divisible by 4, so both readers refuse at every level, as classify does
    g = PadicFunction.from_table([2, 1, 0, 3, 2, 3, 0, 1], 2, 3)
    for k in (1, 2, 3):
        for read in (g.orbit_mod, g.reduce_map):
            with pytest.raises(PreconditionError) as info:
                read(k)
            assert info.value.verdict is g.lipschitz
            assert str(info.value) == (
                "vdp term 5 = 2 is not divisible by 2^2, so the map is not 1-Lipschitz")


def test_vdp_terms_along_the_last_axis_match_row_by_row():
    rng = random.Random(4)
    rows = [[rng.randrange(27) for _ in range(27)] for _ in range(3)]
    batch = vdp_terms(np.array(rows), 3) % 27
    for row, terms in zip(rows, batch.tolist()):
        assert tuple(terms) == vdp_reference(PadicFunction.from_table(row, 3, 3), 27, 3).term_list
    # enumerate's shape, the values at 0..3 of all 4096 cubics mod 8, and one
    # row of Python integers beyond int64 that ends inside its top level:
    # B_m = f(m) - f(m^-) index by index, unreduced, in the dtype of the values
    cubics = np.indices((8, 8, 8, 8), dtype=np.int8).reshape(4, -1)[::-1].T
    wide = np.array([[rng.randrange(5**30) for _ in range(40)]], dtype=object)
    for values, p in ((backends.poly_tables(cubics, 8, 8)[:, :4], 2), (wide, 5)):
        got = vdp_terms(values, p)
        assert got.shape == values.shape and got.dtype == values.dtype
        assert got.tolist() == [[v - (row[m_minus(m, p)] if m >= p else 0)
                                 for m, v in enumerate(row)] for row in values.tolist()]


def test_from_table_length_guard():
    with pytest.raises(InputError):
        PadicFunction.from_table([0, 1, 2], 2, 2)


def test_series_json_round_trip():
    series = CoefficientSeries("mahler", 3, 4, (1, 5, 12, 12))
    data = series.to_json_dict()
    assert data["terms"] == ["1", "5", "12", "12"]
    back = CoefficientSeries.from_json_dict(data)
    assert back == series
