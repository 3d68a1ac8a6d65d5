import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicdyn.analysis import ud1_check
from padicdyn.dynamics import (
    cycle_structure,
    decide_ergodicity,
    ergodic_conditions,
    ergodic_oracle,
    measure_preserving_ud_odd,
    measure_preserving_ud_p2,
    measure_preserving_ud_p2_mahler,
    measure_preserving_vdp,
    orbit_of,
    transitive_mod,
    transitivity_threshold,
)
from padicdyn.errors import InputError, PreconditionError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    vdp_coefficients,
)
from scalar_reference import random_ud1_mahler_series, required_ud1_valuation


def test_translation_is_fully_transitive():
    for p in (2, 3, 5):
        f = PadicFunction.from_polynomial([1, 1], p, 4)
        assert ergodic_oracle(f, 4).passed
        rep = cycle_structure(f, 3)
        assert rep.transitive and len(rep.cycles[0]) == p**3
        assert rep.cycles[0][0] == 0


def test_identity_cycle_structure():
    f = PadicFunction.from_polynomial([0, 1], 3, 3)
    rep = cycle_structure(f, 2)
    assert rep.is_permutation and not rep.transitive
    assert len(rep.cycles) == 9


def test_non_permutation_reported():
    f = PadicFunction.from_polynomial([0, 0, 1], 3, 2)  # x^2 mod 9
    rep = cycle_structure(f, 2)
    assert not rep.is_permutation
    assert rep.collision is not None
    v = transitive_mod(f, 2)
    assert not v.passed and v.condition == "not-bijective"


def test_orbit_of():
    f = PadicFunction.from_polynomial([1, 0, 0, 0, 0, 1], 5, 2)  # x^5 + 1
    assert orbit_of(f, 1) == (0, 1, 2, 3, 4)
    assert orbit_of(f, 2) == (0, 1, 2, 8, 19)


def test_counterexample_p2_levels():
    f = PadicFunction.from_polynomial([1, 3, 0, 2], 2, 3)
    assert transitive_mod(f, 2).passed
    assert tuple(cycle_structure(f, 2).cycles[0]) == (0, 1, 2, 3)
    assert not transitive_mod(f, 3).passed


def test_counterexample_p3_levels():
    f = PadicFunction.from_polynomial([1, 4, 0, 4, 0, 2], 3, 3)
    assert transitive_mod(f, 2).passed
    assert tuple(cycle_structure(f, 2).cycles[0]) == (0, 1, 2, 6, 7, 5, 3, 4, 8)
    assert not transitive_mod(f, 3).passed


def test_measure_preserving_vdp_general():
    # translation preserves measure; squaring does not
    for p in (2, 3):
        f = PadicFunction.from_polynomial([1, 1], p, 4)
        assert measure_preserving_vdp(vdp_coefficients(f, count=p**4)).passed
        g = PadicFunction.from_polynomial([0, 0, 1], p, 4)
        assert not measure_preserving_vdp(vdp_coefficients(g, count=p**4)).passed


def test_mp_vdp_matches_bijectivity_oracle():
    rng = random.Random(31)
    for p in (2, 3):
        hits = 0
        for _ in range(60):
            series = random_ud1_mahler_series(p, 4, p**3, rng)
            f = PadicFunction.from_mahler(series)
            crit = measure_preserving_vdp(vdp_coefficients(f, count=p**4))
            brute = all(
                cycle_structure(f, k).is_permutation for k in range(1, 5)
            )
            assert crit.passed == brute
            hits += crit.passed
        assert hits > 0


def test_mp_ud1_p2_forms():
    rng = random.Random(32)
    for _ in range(40):
        series = random_ud1_mahler_series(2, 4, 8, rng)
        f = PadicFunction.from_mahler(series)
        general = measure_preserving_vdp(vdp_coefficients(f, count=16))
        short = measure_preserving_ud_p2(f)
        mform = measure_preserving_ud_p2_mahler(f)
        assert short.passed == general.passed == mform.passed


def test_mp_mahler_p2_rejects_squaring():
    # x^2 has a_1 = 1 odd yet fails a_2 = 0 mod 4; it is not measure-preserving
    f = PadicFunction.from_polynomial([0, 0, 1], 2, 4)
    assert not measure_preserving_ud_p2_mahler(f).passed
    assert not measure_preserving_vdp(vdp_coefficients(f, count=16)).passed


def test_mp_ud_odd_with_lambda_crosscheck():
    rng = random.Random(33)
    for p in (3, 5):
        hits = 0
        for _ in range(40):
            series = random_ud1_mahler_series(p, 3, 2 * p, rng)
            f = PadicFunction.from_mahler(series)
            crit = measure_preserving_ud_odd(f)
            brute = all(
                cycle_structure(f, k).is_permutation for k in range(1, 4)
            )
            assert crit.passed == brute
            hits += crit.passed
        assert hits > 0


def test_mp_ud_odd_requires_odd_prime():
    f = PadicFunction.from_polynomial([1, 1], 2, 3)
    with pytest.raises(InputError):
        measure_preserving_ud_odd(f)
    # and a non-ud1 input is a precondition failure: a_6 = 3 needs v >= 2
    g = PadicFunction.from_mahler(
        CoefficientSeries("mahler", 3, 3, (0, 0, 0, 3, 3, 3, 3, 3, 3))
    )
    with pytest.raises(PreconditionError):
        measure_preserving_ud_odd(g)


def test_product_condition_s_independence():
    rng = random.Random(34)
    for p in (2, 3):
        for _ in range(15):
            series = random_ud1_mahler_series(p, 4, p**3, rng)
            f = PadicFunction.from_mahler(series)
            if not measure_preserving_vdp(vdp_coefficients(f, count=p**4)).passed:
                continue
            r1, r2 = ergodic_conditions(f, s_max=2)["product"].details["products"]
            assert r1 == r2


def test_ergodic_conditions_bundle():
    f = PadicFunction.from_polynomial([1, 1], 3, 4)
    bundle = ergodic_conditions(f, s_max=2)
    assert bundle["combined"].passed
    assert bundle["transitive_mod_p"].passed
    assert bundle["measure_preserving"].passed
    assert all(r == 1 for r in bundle["product"].details["products"])

    g = PadicFunction.from_polynomial([1, 3, 0, 2], 2, 4)
    gb = ergodic_conditions(g, s_max=2)
    assert not gb["combined"].passed
    # the failure is in the orbit condition, not measure preservation
    assert gb["measure_preserving"].passed
    assert not gb["orbit"].passed


def test_threshold_values():
    assert transitivity_threshold(2) == 3
    assert transitivity_threshold(3) == 3
    assert transitivity_threshold(5) == 2
    assert transitivity_threshold(13) == 2


def test_decide_ergodicity_thresholds():
    f = PadicFunction.from_polynomial([1, 1], 2, 4)
    d = decide_ergodicity(f)
    assert d.ergodic and d.mu == 3 and d.method == "threshold"
    g = PadicFunction.from_polynomial([1, 3, 0, 2], 2, 4)
    assert not decide_ergodicity(g).ergodic
    # the same polynomial looks ergodic at the (insufficient) level 2
    assert transitive_mod(g, 2).passed
    shallow = PadicFunction.from_polynomial([1, 1], 2, 2)
    with pytest.raises(InputError):
        decide_ergodicity(shallow)


def test_oracle_agrees_with_threshold_on_randoms():
    rng = random.Random(35)
    for p in (2, 3, 5):
        mu = transitivity_threshold(p)
        for _ in range(40):
            coeffs = [rng.randrange(p**3) for _ in range(4)]
            f = PadicFunction.from_polynomial(coeffs, p, mu + 1)
            assert decide_ergodicity(f).ergodic == ergodic_oracle(f, mu + 1).passed


# -- the UD criteria against the general van der Put route ---------------

# deepest level per prime, so the examples stay quick
UD_DEPTH = {2: 5, 3: 4, 5: 3, 7: 3}

ud_settings = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def ud1_functions(draw):
    """UD1 functions of all four kinds at p in {2, 3, 5, 7}.

    Polynomials are UD1, and so is a Mahler series whose terms meet the
    valuations the divisibility route demands; tables and van der Put
    series are drawn from such a series.  When `preserving` is drawn, the
    map is a + u x plus p times a UD1 map, with u a unit, which preserves
    measure; random maps rarely do at p >= 5.
    """
    p = draw(st.sampled_from(sorted(UD_DEPTH)))
    depth = draw(st.integers(2, UD_DEPTH[p]))
    mod = p**depth
    preserving = draw(st.booleans())
    kind = draw(st.sampled_from(["polynomial", "table", "mahler", "vdp"]))
    if kind == "polynomial":
        coeffs = draw(st.lists(st.integers(0, mod - 1), min_size=2, max_size=6))
    else:
        length = draw(st.integers(2, min(mod, 3 * p)))
        coeffs = [
            p ** min(required_ud1_valuation(n, p), depth) * draw(st.integers(0, mod - 1))
            for n in range(length)
        ]
    if preserving:
        unit = coeffs[1] if coeffs[1] % p else coeffs[1] + 1
        coeffs = [coeffs[0], unit] + [p * c for c in coeffs[2:]]
    if kind == "polynomial":
        return PadicFunction.from_polynomial(coeffs, p, depth)
    f = PadicFunction.from_mahler(CoefficientSeries("mahler", p, depth, tuple(coeffs)))
    if kind == "table":
        return PadicFunction.from_table(f.value_table(depth), p, depth)
    if kind == "vdp":
        return PadicFunction.from_vdp(vdp_coefficients(f))
    return f


@ud_settings
@given(ud1_functions())
def test_ud_criteria_match_the_vdp_route(f):
    assert ud1_check(f).verdict.passed
    general = measure_preserving_vdp(vdp_coefficients(f)).passed
    if f.prime == 2:
        routes = (measure_preserving_ud_p2, measure_preserving_ud_p2_mahler)
    else:
        routes = (measure_preserving_ud_odd,)
    for route in routes:
        assert route(f).passed == general
