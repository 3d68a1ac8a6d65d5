import importlib.resources
import math
import random
from pathlib import Path

import numpy as np
import pytest

from padicdyn import cli
from padicdyn import criteria as cr
from padicdyn.analysis import ud1_check
from padicdyn.arith import is_prime
from padicdyn.dynamics import ergodic_oracle, transitive_mod
from padicdyn.errors import InputError, InternalCheckError, PreconditionError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from padicdyn.verdict import checklist_verdict, failing, passing
from scalar_reference import p5_series_reference, power_basis_reference, random_p5_instance


# -- p = 2 ------------------------------------------------------------


# The paper's changes of basis, as literal data, against the package's one
# path: a function built from one basis and read in the other, through its
# values.


def _changes_basis(matrix, f, source, target, k):
    """matrix maps f's first normalized source terms to its target terms,
    to the precision both are known to (p^(k-1))."""
    read = {"mahler": mahler_coefficients, "vdp": vdp_coefficients}
    x, y = (read[kind](f, len(matrix), k).normals(0, len(matrix)).astype(object)
            for kind in (source, target))
    return ((np.array(matrix) @ x - y) % f.prime ** (k - 1) == 0).all()


def _random_series(rng, kind, p, k, count):
    """Random normalized terms of a series of the given kind, as raw terms."""
    return CoefficientSeries(kind, p, k, [p ** (n >= p) * rng.randrange(p ** (k - 1)) for n in range(count)])


# normalized van der Put terms b_m = B_m / 2^e(m) from normalized Mahler terms
# c_n = a_n / 2^e(n) at p = 2: b = RELMV c, exact
RELMV = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 3, 1))


def test_relmv_frozen_vectors():
    # 1 + 3x + 2x^3: c = (1,5,6,6), b = (1,6,11,29)
    f = PadicFunction.from_mahler(CoefficientSeries("mahler", 2, 7, (1, 5, 12, 12)))
    assert vdp_coefficients(f, 4).normals(0, 4).tolist() == [1, 6, 11, 29]
    g = PadicFunction.from_vdp(CoefficientSeries("vdp", 2, 7, (1, 6, 22, 58)))
    assert mahler_coefficients(g, 4).normals(0, 4).tolist() == [1, 5, 6, 6]
    assert _changes_basis(RELMV, PadicFunction.from_polynomial([1, 3, 0, 2], 2, 7), "mahler", "vdp", 7)


def test_relmv_round_trip_random():
    # from random normalized Mahler terms, and from random van der Put terms
    rng = random.Random(41)
    for kind, build in (("mahler", PadicFunction.from_mahler), ("vdp", PadicFunction.from_vdp)):
        for _ in range(50):
            f = build(_random_series(rng, kind, 2, 7, 4))
            assert _changes_basis(RELMV, f, "mahler", "vdp", 7)


def test_relmv_matches_extraction():
    rng = random.Random(42)
    for _ in range(20):
        f = PadicFunction.from_polynomial([rng.randrange(64) for _ in range(4)], 2, 6)
        assert _changes_basis(RELMV, f, "mahler", "vdp", 6)


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


def test_checklist_verdict_fails_at_the_first_differing_value():
    checks = (("first", 1), ("second", 0), ("third", 0))
    assert checklist_verdict("c", checks, (1, 0, 0), depth=3) == passing("c", depth=3)
    assert checklist_verdict("c", checks, (1, 2, 5)) == failing(
        "c", "second", witness={"value": 2, "expected": 0})


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
        cases = cr._case_tables()[table]
        assert len(cases) == 8 and len({case for case, _ in cases.values()}) == 8
        assert all(len(selector) == 6 and set(selector) <= {0, 1, 2} for selector in cases)
        for _, conditions in cases.values():
            assert len(conditions) == 2 and all(len(coefs) == 9 for _, coefs in conditions)


@pytest.fixture
def case_text(monkeypatch, tmp_path):
    """Serve the case tables from a rewritten data file: call it with a
    function of the shipped file's lines."""
    shipped = (Path(cr.__file__).parent / "data" / "ergodic_cases_p3.txt").read_text()

    def serve(rewrite):
        (tmp_path / "data").mkdir(exist_ok=True)
        (tmp_path / "data" / "ergodic_cases_p3.txt").write_text("\n".join(rewrite(shipped.splitlines())))
        monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
        cr._case_tables.cache_clear()

    yield serve
    cr._case_tables.cache_clear()


def _drop_line(lines):
    return [line for line in lines if not line.startswith("ergbm|iv|")]


def _repeat_selector(lines):
    # case ii of ergbm2 takes case i's selector, so one of them is unreachable
    selector = next(line.split("|")[2] for line in lines if line.startswith("ergbm2|i|"))
    return [f"ergbm2|ii|{selector}|" + line.split("|", 3)[3] if line.startswith("ergbm2|ii|") else line
            for line in lines]


@pytest.mark.parametrize("rewrite, table", [(_drop_line, "ergbm"), (_repeat_selector, "ergbm2")])
def test_case_tables_refuse_a_missing_line_or_a_repeated_selector(case_text, rewrite, table):
    case_text(lambda lines: lines)
    assert cr.deg8_minimal_p3([1, 1]).passed  # the file as shipped, served the same way
    case_text(rewrite)
    with pytest.raises(InternalCheckError,
                       match=f"^case table {table} needs 8 cases with distinct selectors$"):
        cr.deg8_minimal_p3([1, 1])


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


# polynomial coefficients alpha_i mod 9 from (c_0..c_5, c_6/3, c_7/3, c_8/3),
# c_n = a_n / 3^e(n) the normalized Mahler terms: alpha = RELPIS3 c mod 9
RELPIS3 = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 4, 1, 6, 6, 3, 0, 0),
    (0, 0, 5, 3, 7, 1, 5, 0, 0),
    (0, 0, 0, 5, 6, 2, 0, 2, 5),
    (0, 0, 0, 0, 8, 2, 5, 6, 4),
    (0, 0, 0, 0, 0, 7, 6, 2, 8),
    (0, 0, 0, 0, 0, 0, 8, 3, 1),
    (0, 0, 0, 0, 0, 0, 0, 5, 5),
    (0, 0, 0, 0, 0, 0, 0, 0, 4),
)

# the deg8 selector [alpha_0, A1, A2, alpha_1, D1, D2] mod 3 from c_0..c_5
SELECTOR_FROM_MAHLER_P3 = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (0, 1, 1, 1, 0, 0),
    (0, 1, 2, 1, 1, 0),
    (0, 1, 0, 1, 2, 1),
)

# normalized Mahler terms from normalized van der Put terms: c = MMP_P3 b, exact
MMP_P3 = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0, 0),
    (0, 1, -1, 1, 0, 0, 0, 0, 0),
    (-1, -1, 2, -4, 1, 0, 0, 0, 0),
    (3, 0, -3, 10, -5, 1, 0, 0, 0),
    (-6, 3, 3, -20, 15, -6, 1, 0, 0),
    (9, -9, 0, 35, -35, 21, -7, 1, 0),
    (-9, 18, -9, -56, 70, -56, 28, -8, 1),
)


def _relpis3_inputs(alphas):
    """(c_0..c_5, c_6/3, c_7/3, c_8/3) mod 9 of a polynomial, read at depth 4."""
    c = mahler_coefficients(PadicFunction.from_polynomial(alphas, 3, 4), 9).normals(0, 9).tolist()
    return np.array(c[:6] + [x // 3 for x in c[6:]]) % 9


def test_relpis3_frozen_and_inverse():
    # x^3: normalized inputs (0,1,6,2,0,0,0,0,0), coefficient vector e_3
    x3 = _relpis3_inputs([0, 0, 0, 1])
    assert x3.tolist() == [0, 1, 6, 2, 0, 0, 0, 0, 0]
    assert (np.array(RELPIS3) @ x3 % 9).tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    # unit upper triangular mod 9: the inputs mod 9 are a bijection of alpha mod 9
    assert not np.tril(RELPIS3, -1).any() and all(math.gcd(d, 3) == 1 for d in np.diag(RELPIS3))


def test_relpis3_round_trip_random():
    rng = random.Random(45)
    for _ in range(100):
        alphas = [rng.randrange(-(10**6), 10**6) for _ in range(9)]
        assert (np.array(RELPIS3) @ _relpis3_inputs(alphas) % 9).tolist() == [a % 9 for a in alphas]


def _deg8_selector(alphas):
    """The selector the deg8 verdict read: its witness where it fails, the
    key of its case where it passes."""
    v = cr.deg8_minimal_p3(alphas)
    if not v.passed:
        return v.witness["selector"]
    return next(list(key) for key, (case, _) in cr._case_tables()["deg8"].items()
                if case == v.details["case"])


def test_selector_matrix_consistent_with_alpha_route():
    rng = random.Random(46)
    for _ in range(100):
        row = [rng.randrange(27) for _ in range(9)]
        selector = (np.array(SELECTOR_FROM_MAHLER_P3) @ _relpis3_inputs(row)[:6] % 3).tolist()
        assert selector == _deg8_selector(row)


def test_mmp_frozen_and_random_round_trip():
    rng = random.Random(47)
    assert _changes_basis(MMP_P3, PadicFunction.from_polynomial([1, 1], 3, 5), "vdp", "mahler", 5)
    # from random normalized van der Put terms, and from random Mahler terms
    for kind, build in (("vdp", PadicFunction.from_vdp), ("mahler", PadicFunction.from_mahler)):
        for _ in range(25):
            f = build(_random_series(rng, kind, 3, 5, 9))
            assert _changes_basis(MMP_P3, f, "vdp", "mahler", 5)


def test_mmp_matches_extraction_random():
    rng = random.Random(48)
    for _ in range(20):
        f = PadicFunction.from_polynomial([rng.randrange(3**5) for _ in range(4)], 3, 5)
        assert _changes_basis(MMP_P3, f, "vdp", "mahler", 5)


# -- p >= 5 -----------------------------------------------------------


def test_p5_instance_matches_the_pascal_forward_substitution(monkeypatch):
    # the two Mahler-residue passes against the scalar solve they replaced,
    # one random phi, bvec and lift at every prime up to 89; the instance is
    # built at depth 2, all that its re-extraction check and conditions read,
    # so that the p^3-point value arrays of the larger primes are not built
    from_mahler = PadicFunction.from_mahler
    monkeypatch.setattr(PadicFunction, "from_mahler",
                        classmethod(lambda cls, series, depth=None: from_mahler(series, 2)))
    rng = random.Random(51)
    for p in (q for q in range(5, 90) if is_prime(q)):
        phi = cr.random_transitive_permutation(p, rng)
        bvec = cr.random_unit_product_one(p, rng)
        lift = [rng.randrange(p) for _ in range(2 * p)]
        assert cr.p5_instance(p, phi, bvec, lift).series == p5_series_reference(p, phi, bvec, lift)


@pytest.mark.parametrize("call, message", [(0, "instance missed phi"),
                                           (1, "instance missed branch residue")])
def test_p5_instance_catches_a_wrong_mahler_residue(capsys, monkeypatch, call, message):
    # one residue of the base (call 0) or branch (call 1) Mahler pass off by
    # one: the function rebuilt from them misses phi or bvec, in the library
    # and through generate, which exits 3
    batch = cr.mahler_batch
    for n in range(7):
        calls = []

        def bumped(values, modulus):
            out = batch(values, modulus)
            if len(calls) == call:
                out[0, n] = (out[0, n] + 1) % modulus
            calls.append(values)
            return out

        monkeypatch.setattr(cr, "mahler_batch", bumped)
        with pytest.raises(InternalCheckError, match=f"{message} at {n}$"):
            cr.p5_instance(7, (1, 2, 3, 4, 5, 6, 0), (1,) * 7)
        calls.clear()
        argv = ["generate", "-p", "7", "--phi", "1,2,3,4,5,6,0", "--bvec", "1,1,1,1,1,1,1"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"internal check failed: {message} at {n}\n"


@pytest.mark.parametrize("bad", [1.9, True, "1.5"])
def test_generator_entry_points_refuse_non_integers(bad):
    # int() used to read 1.9 and True as 1; integer text stays accepted, as in
    # PadicFunction.from_polynomial
    phi, bvec, lift = [1, 2, 3, 4, 0], [1] * 5, [0] * 10
    for args in ([[bad, *phi[1:]], bvec, lift], [phi, [bad, *bvec[1:]], lift],
                 [phi, bvec, [bad, *lift[1:]]]):
        with pytest.raises(InputError, match="not an integer"):
            cr.p5_instance(5, *args)
    for args in ([[bad, *phi[1:]], bvec], [phi, [bad, *bvec[1:]]]):
        with pytest.raises(InputError, match="not an integer"):
            cr.solve_power_basis_system(5, *args)
    assert cr.p5_instance(5, phi, bvec, ["0"] * 10).series == cr.p5_instance(5, phi, bvec).series


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
            bvec = cr.random_unit_product_one(p, rng)
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
    bvec = cr.random_unit_product_one(p, rng)
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


def test_power_basis_system_matches_the_two_step_reference():
    # interpolation over F_p gives the alphas and the folded B of two
    # eliminations, B through phi and then the B system, at every prime the
    # poly route's budget admits: phi a transitive permutation at every other
    # prime, and at the rest a phi that is no permutation (two equal values)
    rng = random.Random(56)
    for i, p in enumerate(q for q in range(5, 84) if is_prime(q)):
        if i % 2:
            phi = [rng.randrange(p) for _ in range(p)]
            phi[-1] = phi[0]
        else:
            phi = list(cr.random_transitive_permutation(p, rng))
        Dvec = [rng.randrange(p) for _ in range(p)]
        assert cr.solve_power_basis_system(p, phi, Dvec) == power_basis_reference(p, phi, Dvec)


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
    with pytest.raises(PreconditionError, match="^closed-form-ergodic requires a UD1 input$") as info:
        cr.closed_form_ergodic(bad)
    assert info.value.verdict == ud1_check(bad).verdict
    # below the transitivity threshold the p = 2, 3 criteria are refused
    for p in (2, 3):
        with pytest.raises(InputError, match=f"need depth >= 3 for the p={p} criteria"):
            cr.closed_form_ergodic(PadicFunction.from_polynomial([1, 1], p, 2))


def test_closed_form_agrees_with_oracle_p5():
    rng = random.Random(57)
    for _ in range(40):
        coeffs = [rng.randrange(125) for _ in range(6)]
        f = PadicFunction.from_polynomial(coeffs, 5, 3)
        assert cr.closed_form_ergodic(f).ergodic == ergodic_oracle(f).passed

