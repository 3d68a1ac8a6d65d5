import contextlib
import io
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padicdyn import cli, dynamics
from padicdyn.analysis import ud1_check
from padicdyn.dynamics import (
    cycle_structure,
    decide_ergodicity,
    ergodic_conditions,
    ergodic_oracle,
    lambda_rows,
    measure_preserving_ud_odd,
    measure_preserving_ud_p2,
    measure_preserving_ud_p2_mahler,
    measure_preserving_vdp,
    orbit_of,
    transitive_mod,
    transitivity_threshold,
)
from padicdyn.errors import InputError, NormalizationError, PreconditionError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import (
    branch_products_reference,
    lambda_coefficient,
    random_ud1_mahler_series,
    required_ud1_valuation,
)

# a UD1 table whose reduction mod 16 has two 8-cycles: transitive mod 8, so
# the closed form at p = 2 calls it ergodic
TWO_CYCLES_MOD_16 = [9, 2, 3, 4, 5, 6, 7, 8, 1, 10, 11, 12, 13, 14, 15, 0]


def test_translation_is_fully_transitive():
    for p in (2, 3, 5):
        f = PadicFunction.from_polynomial([1, 1], p, 4)
        assert ergodic_oracle(f).passed
        rep = cycle_structure(f, 3)
        assert rep.transitive and len(rep.cycles[0]) == p**3
        assert rep.cycles[0][0] == 0


def test_oracle_builds_a_cycle_report_only_at_the_failing_level(monkeypatch):
    levels = []
    real = dynamics.cycle_structure
    monkeypatch.setattr(dynamics, "cycle_structure", lambda f, k: levels.append(k) or real(f, k))
    for p in (2, 3, 5):
        assert ergodic_oracle(PadicFunction.from_polynomial([1, 1], p, 4)).passed
    assert levels == []
    cases = (
        (PadicFunction.from_table(TWO_CYCLES_MOD_16, 2, 4), 4),  # two 8-cycles mod 16
        (PadicFunction.from_polynomial([1, 3, 0, 2], 2, 4), 3),  # transitive mod 4 only
        (PadicFunction.from_polynomial([0, 0, 1], 3, 4), 1),  # x^2: not bijective
    )
    for f, level in cases:
        levels.clear()
        verdict = ergodic_oracle(f)
        assert not verdict.passed and verdict.witness == {"level": level}
        assert levels == [level]


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


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_lambda_rows_match_the_exact_coefficients(p):
    lam, binom = lambda_rows(p)
    assert lam.shape == binom.shape == (p, p)
    assert lam.dtype == binom.dtype == np.int64
    assert lam.tolist() == [[lambda_coefficient(i, n, p) % p for n in range(p)] for i in range(p)]
    assert binom.tolist() == [[math.comb(i, n) % p for n in range(p)] for i in range(p)]


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
            shallow = PadicFunction.from_mahler(series, 3)
            r1, r2 = ergodic_conditions(shallow)["product"].details["products"]
            assert r1 == r2


def test_branch_product_refuses_the_first_unnormalized_term():
    # x + 1 at p = 3 with B_18 = 9 (base 0 at level 2 breaks measure
    # preservation without a raise) and B_10 = 12, not divisible by 9: the
    # level-2 product refuses term 10, as one normalized() at a time does
    terms = list(vdp_coefficients(PadicFunction.from_polynomial([1, 1], 3, 3)).term_list)
    terms[18], terms[10] = 9, 12
    series = CoefficientSeries("vdp", 3, 3, tuple(terms))
    with pytest.raises(NormalizationError, match="vdp term 10 = 12 is not divisible by 3") as info:
        ergodic_conditions(PadicFunction.from_vdp(series))
    with pytest.raises(NormalizationError) as want:
        branch_products_reference(series, 2)
    assert str(info.value) == str(want.value)
    assert measure_preserving_vdp(series).condition == "branch-residues"


def test_ergodic_conditions_bundle():
    f = PadicFunction.from_polynomial([1, 1], 3, 3)
    bundle = ergodic_conditions(f)
    assert set(bundle) == {"transitive_mod_p", "orbit", "product", "combined"}
    assert bundle["combined"].passed
    assert bundle["transitive_mod_p"].passed
    assert measure_preserving_vdp(f.vdp_window).passed
    assert all(r == 1 for r in bundle["product"].details["products"])

    g = PadicFunction.from_polynomial([1, 3, 0, 2], 2, 3)
    gb = ergodic_conditions(g)
    assert not gb["combined"].passed
    # the failure is in the orbit condition, not measure preservation
    assert measure_preserving_vdp(g.vdp_window).passed
    assert not gb["orbit"].passed


def test_threshold_values():
    assert transitivity_threshold(2) == 3
    assert transitivity_threshold(3) == 3
    assert transitivity_threshold(5) == 2
    assert transitivity_threshold(13) == 2


def test_decide_ergodicity_thresholds():
    # a polynomial below its threshold depth is walked at the threshold and
    # decided on Z_p; the table of the same map is decided to its own depth
    f = PadicFunction.from_polynomial([1, 1], 2, 2)
    d = decide_ergodicity(f)
    assert d.ergodic and d.scope == "Z_p" and d.method == "exhaustive-to-depth"
    assert d.evidence["threshold"].depth == transitivity_threshold(2) == 3
    g = PadicFunction.from_polynomial([1, 3, 0, 2], 2, 2)
    d = decide_ergodicity(g)
    assert not d.ergodic and d.scope == "Z_p"
    # the same polynomial looks ergodic at the (insufficient) level 2, and its
    # depth-2 table is a single cycle at every level it holds
    assert transitive_mod(g, 2).passed
    table = PadicFunction.from_table(g.value_table(2), 2, 2)
    code, report = classify(table)
    assert code == 0 and report["ergodicity"]["scope"] == "to-depth"


@pytest.mark.parametrize(
    "f, ergodic",
    [
        (PadicFunction.from_table([1, 0], 2, 1), True),
        (PadicFunction.from_table([0, 1], 2, 1), False),
        (PadicFunction.from_vdp(CoefficientSeries("vdp", 3, 1, (1, 2, 0))), True),
        (PadicFunction.from_vdp(CoefficientSeries("vdp", 3, 1, (1, 1, 0))), False),
    ],
    ids=["table-cycle", "table-identity", "vdp-cycle", "vdp-collision"],
)
def test_decide_ergodicity_at_depth_one_is_the_walk(f, ergodic):
    # depth 1 has no level s >= 1 for the UD1 cross-check, so the walk alone
    # decides, as ergodic_oracle does
    d = decide_ergodicity(f)
    assert d.ergodic == ergodic == ergodic_oracle(f).passed
    assert d.scope == "to-depth" and list(d.evidence) == ["oracle"]


def test_oracle_agrees_with_threshold_on_randoms():
    rng = random.Random(35)
    for p in (2, 3, 5):
        mu = transitivity_threshold(p)
        for _ in range(40):
            coeffs = [rng.randrange(p**3) for _ in range(4)]
            f = PadicFunction.from_polynomial(coeffs, p, mu + 1)
            assert decide_ergodicity(f).ergodic == ergodic_oracle(f).passed


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


# -- the ergodicity decision of classify ----------------------------------


@st.composite
def classify_inputs(draw):
    """UD1 functions of all four kinds in three shapes: as drawn; x + 1 + p g
    for a drawn g, transitive mod p and often ergodic; and with one table
    entry moved by p^(depth-1), still 1-Lipschitz but mostly not UD1."""
    f = draw(ud1_functions())
    p, depth, mod = f.prime, f.depth, f.prime**f.depth
    shape = draw(st.sampled_from(["drawn", "translation", "moved"]))
    if shape == "drawn":
        return f
    if shape == "translation" and f.kind == "polynomial":
        coeffs = [p * c for c in f.payload]
        return PadicFunction.from_polynomial([coeffs[0] + 1, coeffs[1] + 1] + coeffs[2:], p, depth)
    values = f.value_table(depth)
    if shape == "translation":
        values = [(x + 1 + p * v) % mod for x, v in enumerate(values)]
    else:
        x = draw(st.integers(0, mod - 1))
        values[x] = (values[x] + p ** (depth - 1)) % mod
    g = PadicFunction.from_table(values, p, depth)
    kind = f.kind if f.kind != "polynomial" else draw(st.sampled_from(["table", "mahler", "vdp"]))
    if kind == "mahler":
        return PadicFunction.from_mahler(mahler_coefficients(g))
    if kind == "vdp":
        return PadicFunction.from_vdp(vdp_coefficients(g))
    return g


def function_json(f) -> dict:
    """The JSON object `classify -` reads for f."""
    if f.kind in ("polynomial", "table"):
        field = "coeffs" if f.kind == "polynomial" else "values"
        return {"kind": f.kind, "p": f.prime, "depth": f.depth, field: list(f.payload)}
    return f.payload.to_json_dict()


def classify(f) -> tuple[int, dict | None]:
    """Exit code and report of `classify` on f, read from stdin at f's depth."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(function_json(f)))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["classify", "-", "--depth", str(f.depth)])
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue()) if code in (0, 1) else None


@ud_settings
@given(classify_inputs())
@example(PadicFunction.from_table(TWO_CYCLES_MOD_16, 2, 4))
@example(PadicFunction.from_polynomial([1, 3, 0, 2], 2, 2))  # transitive mod 4, not mod 8
def test_classify_decides_as_the_orbit_oracle(f):
    code, report = classify(f)
    assert code in (0, 1)
    ergodic = report["ergodicity"]["ergodic"]
    assert report["ergodicity"]["method"] == "exhaustive-to-depth"
    if f.kind == "polynomial" and f.depth < transitivity_threshold(f.prime):
        # decided on Z_p: as the oracle on the same coefficients, deeper
        f = PadicFunction.from_polynomial(f.payload, f.prime, transitivity_threshold(f.prime) + 2)
    assert ergodic == (code == 0) == ergodic_oracle(f).passed
    if report["ud1"]["direct"]["pass"]:
        assert ergodic == ergodic_conditions(f)["combined"].passed
    if f.kind == "polynomial":
        assert report["ergodicity"]["scope"] == "Z_p"
        if "closed_form" in report:
            assert report["closed_form"]["ergodic"] == ergodic
    else:
        assert report["ergodicity"]["scope"] == "to-depth"
