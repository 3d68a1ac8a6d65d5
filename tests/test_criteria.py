import random

import numpy as np
import pytest

from padicdyn import criteria as cr
from padicdyn.dynamics import ergodic_oracle, transitive_mod
from padicdyn.errors import InputError, PreconditionError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import random_p5_instance


# -- p = 2 ------------------------------------------------------------


def test_relmv_frozen_vectors():
    # 1 + 3x + 2x^3: c = (1,5,6,6), b = (1,6,11,29)
    assert cr.vdp_from_mahler_p2((1, 5, 6, 6)) == (1, 6, 11, 29)
    assert cr.mahler_from_vdp_p2((1, 6, 11, 29)) == (1, 5, 6, 6)


def test_relmv_round_trip_random():
    rng = random.Random(41)
    for _ in range(100):
        c = tuple(rng.randrange(-50, 50) for _ in range(4))
        assert cr.mahler_from_vdp_p2(cr.vdp_from_mahler_p2(c)) == c


def test_relmv_matches_extraction():
    rng = random.Random(42)
    for _ in range(20):
        coeffs = [rng.randrange(64) for _ in range(4)]
        f = PadicFunction.from_polynomial(coeffs, 2, 6)
        c = [mahler_coefficients(f, 4).normalized(i) for i in range(4)]
        b = [vdp_coefficients(f, 4).normalized(i) for i in range(4)]
        mod = 2**5
        assert [x % mod for x in cr.vdp_from_mahler_p2(c)] == [x % mod for x in b]


def test_catalog_is_16_distinct_mod8_maps():
    cat = cr.ergodic_cubic_catalog_p2()
    assert len(cat) == 16
    tables = {
        tuple(PadicFunction.from_polynomial(c, 2, 3).value_table(3)) for c in cat
    }
    assert len(tables) == 16


def test_catalog_members_ergodic_all_routes():
    for coeffs in cr.ergodic_cubic_catalog_p2():
        f = PadicFunction.from_polynomial(coeffs, 2, 4)
        assert cr.larin_transitive_mod8(coeffs).passed
        assert cr.mahler_ergodic_p2(mahler_coefficients(f, 4)).passed
        assert cr.vdp_ergodic_p2(vdp_coefficients(f, 4)).passed
        assert ergodic_oracle(f).passed


def test_larin_rejects_with_witness():
    v = cr.larin_transitive_mod8((1, 3))  # 3x + 1
    assert not v.passed and v.condition == "b+c-mod4"
    v = cr.larin_transitive_mod8((0, 1))  # x
    assert not v.passed and v.condition == "d-mod2"
    with pytest.raises(InputError):
        cr.larin_transitive_mod8((1, 1, 0, 0, 1))


def test_p2_criteria_match_oracle_random():
    rng = random.Random(43)
    for _ in range(200):
        coeffs = tuple(rng.randrange(8) for _ in range(4))
        f = PadicFunction.from_polynomial(coeffs, 2, 3)
        expected = ergodic_oracle(f).passed
        assert cr.larin_transitive_mod8(coeffs).passed == expected
        assert cr.mahler_ergodic_p2(mahler_coefficients(f, 4)).passed == expected
        assert cr.vdp_ergodic_p2(vdp_coefficients(f, 4)).passed == expected


# -- p = 3 ------------------------------------------------------------


def test_case_tables_load_complete():
    for table in ("deg8", "ergbm", "ergbm2"):
        cases = cr._load_cases()[table]
        assert len(cases) == 8
        assert len({c.selector for c in cases}) == 8
        assert all(len(c.conditions) == 2 for c in cases)


def test_translation_passes_case_i_everywhere():
    f = PadicFunction.from_polynomial([1, 1], 3, 4)
    assert cr.deg8_minimal_p3([1, 1]).details["case"] == "i"
    m = cr.mahler_ergodic_p3(mahler_coefficients(f, 9))
    v = cr.vdp_ergodic_p3(vdp_coefficients(f, 9))
    assert m.passed and m.details["case"] == "i"
    assert v.passed and v.details["case"] == "i"


def test_deg8_no_case_means_not_ergodic():
    # x^2 reduces to a non-bijective map; its selector matches no case
    v = cr.deg8_minimal_p3([0, 0, 1])
    assert not v.passed and v.condition == "no-case"
    f = PadicFunction.from_polynomial([0, 0, 1], 3, 3)
    assert not ergodic_oracle(f).passed


def test_p3_criteria_match_oracle_random():
    rng = random.Random(44)
    for _ in range(400):
        coeffs = [rng.randrange(27) for _ in range(rng.randrange(1, 10))]
        f = PadicFunction.from_polynomial(coeffs, 3, 3)
        expected = ergodic_oracle(f).passed
        assert cr.deg8_minimal_p3(coeffs).passed == expected
        assert cr.mahler_ergodic_p3(mahler_coefficients(f, 9)).passed == expected
        assert cr.vdp_ergodic_p3(vdp_coefficients(f, 9)).passed == expected


def test_ud1_precondition_verdicts_p3():
    # a_6 = 3 yields c_6 = 1 not divisible by 3: outside the class, not an error
    series = CoefficientSeries("mahler", 3, 3, (1, 1, 0, 0, 0, 0, 3, 0, 0))
    v = cr.mahler_ergodic_p3(series)
    assert not v.passed and v.condition == "ud1-precondition"
    # b_6 = 2 b_3 mod 3 violated
    bs = CoefficientSeries("vdp", 3, 3, (1, 2, 0, 3, 3, 3, 3, 6, 6))
    w = cr.vdp_ergodic_p3(bs)
    assert not w.passed and w.condition == "ud1-precondition"


def test_relpis3_frozen_and_inverse():
    # x^3 has normalized inputs (0,1,6,2,0,0,0,0,0) mapping to coefficient
    # vector (0,0,0,1,0,...)
    f = PadicFunction.from_polynomial([0, 0, 0, 1], 3, 4)
    cm = mahler_coefficients(f, 9)
    cvec = [cm.normalized(i) for i in range(6)] + [
        cm.normalized(i) // 3 for i in (6, 7, 8)
    ]
    cvec = [x % 9 for x in cvec]
    assert cr.alpha_from_mahler_p3(cvec) == (0, 0, 0, 1, 0, 0, 0, 0, 0)
    assert cr.mahler_from_alpha_p3((0, 0, 0, 1, 0, 0, 0, 0, 0)) == tuple(cvec)


def test_relpis3_round_trip_random():
    rng = random.Random(45)
    for _ in range(100):
        c = tuple(rng.randrange(9) for _ in range(9))
        assert cr.mahler_from_alpha_p3(cr.alpha_from_mahler_p3(c)) == c


def test_selector_matrix_consistent_with_alpha_route():
    rng = random.Random(46)
    for _ in range(100):
        c = tuple(rng.randrange(9) for _ in range(9))
        alphas = cr.alpha_from_mahler_p3(c)
        assert cr.selector_from_mahler_p3(c[:6]) == cr.deg8_selector(alphas)


def test_mmp_frozen_and_random_round_trip():
    rng = random.Random(47)
    # frozen check on x + 1 at high precision
    f = PadicFunction.from_polynomial([1, 1], 3, 5)
    b = [vdp_coefficients(f, 9, 5).normalized(i) for i in range(9)]
    c = [mahler_coefficients(f, 9, 5).normalized(i) for i in range(9)]
    mod = 3**4
    assert [x % mod for x in cr.mahler_normals_from_vdp_p3(b)] == [x % mod for x in c]
    for _ in range(50):
        b = tuple(rng.randrange(-40, 40) for _ in range(9))
        assert cr.vdp_normals_from_mahler_p3(cr.mahler_normals_from_vdp_p3(b)) == b


def test_mmp_matches_extraction_random():
    rng = random.Random(48)
    for _ in range(20):
        coeffs = [rng.randrange(3**5) for _ in range(4)]
        f = PadicFunction.from_polynomial(coeffs, 3, 5)
        b = [vdp_coefficients(f, 9, 5).normalized(i) for i in range(9)]
        c = [mahler_coefficients(f, 9, 5).normalized(i) for i in range(9)]
        mod = 3**4
        got = cr.mahler_normals_from_vdp_p3(b)
        assert [x % mod for x in got] == [x % mod for x in c]


def test_case_table_mask_matches_scalar():
    rng = random.Random(49)
    alphas = np.array(
        [[rng.randrange(9) for _ in range(9)] for _ in range(300)], dtype=np.int64
    )
    selectors = np.array([cr.deg8_selector(row) for row in alphas], dtype=np.int64)
    mask = cr.case_table_mask("deg8", alphas, selectors)
    for row, bit in zip(alphas, mask):
        assert cr.deg8_minimal_p3(list(row)).passed == bool(bit)


# -- p >= 5 -----------------------------------------------------------


def test_p5_solve_base_hits_targets():
    rng = random.Random(51)
    for p in (5, 7):
        phi = cr.random_transitive_permutation(p, rng)
        e = cr.p5_solve_base(p, phi)
        from padicdyn.arith import binomial

        for i in range(p):
            acc = sum(binomial(i, n) * e[n] for n in range(p)) % p
            assert acc == phi[i]


def test_p5_instance_construction_and_conditions():
    rng = random.Random(52)
    for p in (5, 7):
        for _ in range(10):
            inst = random_p5_instance(p, rng)
            # reductions hit the prescribed data (also internally checked)
            for i in range(p):
                assert inst.function.evaluate(i, 1) == inst.phi[i]
            o2 = ergodic_oracle(PadicFunction.from_mahler(inst.series, 2)).passed
            o3 = ergodic_oracle(inst.function).passed
            assert inst.passed == o2 == o3


def test_p5_instance_validation_errors():
    with pytest.raises(InputError):
        cr.p5_instance(3, (1, 2, 0), (1, 1, 1))  # p too small
    with pytest.raises(InputError):
        cr.p5_instance(5, (0, 1, 2, 3, 4), (1,) * 5)  # identity not a 5-cycle
    with pytest.raises(InputError):
        cr.p5_instance(5, (1, 2, 3, 4, 0), (1, 1, 1, 1, 2))  # product != 1
    with pytest.raises(InputError):
        cr.p5_instance(5, (1, 2, 3, 4, 0), (1, 1, 1, 0, 1))  # non-unit entry


def test_p5_linear_form_agreement():
    rng = random.Random(53)
    for p in (5, 7):
        for _ in range(10):
            phi = cr.random_transitive_permutation(p, rng)
            bvec = cr.random_unit_product_one(p, p, rng)
            lift = tuple(rng.randrange(p) for _ in range(2 * p))
            rep = cr.p5_linear_form(p, phi, bvec, lift)
            assert rep["agree"]
            cond3 = rep["instance"].conditions["return_valuation"].passed
            assert (rep["formula"] != 0) == cond3


def test_p5_linear_form_skips_the_base_conditions(monkeypatch):
    # the unlifted base instance feeds the formula only; the three-part
    # conditions are evaluated for the lifted instance alone
    calls = []
    conditions = cr.p5_conditions
    monkeypatch.setattr(cr, "p5_conditions", lambda f: calls.append(f) or conditions(f))
    rep = cr.p5_linear_form(7, (1, 2, 3, 4, 5, 6, 0), (1,) * 7, (1,) * 14)
    assert calls == [rep["instance"].function]
    assert rep["agree"]


def test_p5_fiber_structure_in_z0():
    # l is affine in z_0 with a unit coefficient: scanning z_0 with all other
    # lift entries fixed hits l = 0 exactly once
    rng = random.Random(54)
    p = 5
    phi = cr.random_transitive_permutation(p, rng)
    bvec = cr.random_unit_product_one(p, p, rng)
    tail = [rng.randrange(p) for _ in range(2 * p - 1)]
    outcomes = []
    for z0 in range(p):
        rep = cr.p5_linear_form(p, phi, bvec, tuple([z0] + tail))
        outcomes.append(rep["formula"])
        assert rep["instance"].passed == (rep["formula"] != 0)
    assert sorted(outcomes) == list(range(p))  # affine unit slope: a bijection
    assert outcomes.count(0) == 1


def test_power_basis_solver_and_checks():
    rng = random.Random(55)
    for p in (5, 7):
        for _ in range(5):
            alphas, Bvec, Dvec = cr.random_power_basis_poly(p, rng)
            f = PadicFunction.from_polynomial(alphas, p, 3)
            conds = cr.p5_conditions(f)
            assert conds["transitive_mod_p"].passed
            assert conds["branch_product"].passed
            assert conds["combined"].passed == ergodic_oracle(f).passed


def test_interpolate_reduced_p():
    rng = random.Random(56)
    for p in (5, 7):
        values = [rng.randrange(p) for _ in range(p)]
        coeffs = cr.interpolate_reduced_p(p, values)
        for x in range(p):
            assert sum(c * pow(x, j, p) for j, c in enumerate(coeffs)) % p == values[x]


# -- catalog and dispatch ---------------------------------------------


def test_counterexample_catalog_fidelity():
    for entry in cr.counterexample_catalog():
        f = PadicFunction.from_polynomial(
            entry["coeffs"], entry["p"], entry["failing_level"]
        )
        assert transitive_mod(f, entry["transitive_level"]).passed
        assert not transitive_mod(f, entry["failing_level"]).passed


def test_power_counterexample():
    for p in (5, 7):
        f = cr.power_counterexample(p)
        assert transitive_mod(f, 1).passed
        assert not transitive_mod(f, 2).passed


def test_closed_form_dispatch_and_precondition():
    f = PadicFunction.from_polynomial([1, 1], 2, 4)
    assert cr.closed_form_ergodic(f).ergodic
    g = PadicFunction.from_polynomial([1, 1], 7, 2)
    assert cr.closed_form_ergodic(g).ergodic
    bad = PadicFunction.from_mahler(
        CoefficientSeries("mahler", 2, 4, (0, 0, 0, 0, 4))
    )
    with pytest.raises(PreconditionError):
        cr.closed_form_ergodic(bad)


def test_closed_form_agrees_with_oracle_p5():
    rng = random.Random(57)
    for _ in range(40):
        coeffs = [rng.randrange(125) for _ in range(6)]
        f = PadicFunction.from_polynomial(coeffs, 5, 3)
        assert cr.closed_form_ergodic(f).ergodic == ergodic_oracle(f).passed

