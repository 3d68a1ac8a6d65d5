"""Differential tests of the array value core against the scalar references.

Random polynomial, table, Mahler and van der Put functions at p in
{2, 3, 5, 7} and depth 2-5.  Hypothesis runs derandomized with a bounded
number of examples, so the suite stays deterministic and fast; a failure
shrinks to a small disagreeing function.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicdyn.analysis import ud1_check, ud1_window
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import mahler_reference, ud1_reference, vdp_reference

# deepest level per prime, so the quadratic scalar references stay quick
MAX_DEPTH = {2: 5, 3: 5, 5: 4, 7: 3}

core_settings = settings(
    derandomize=True,
    database=None,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _digits(n, p):
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


@st.composite
def functions(draw):
    p = draw(st.sampled_from(sorted(MAX_DEPTH)))
    depth = draw(st.integers(2, MAX_DEPTH[p]))
    mod = p**depth
    kind = draw(st.sampled_from(["polynomial", "table", "mahler", "vdp"]))
    coeffs = draw(st.lists(st.integers(-(10**24), 10**24), min_size=1, max_size=6))
    if kind == "polynomial":
        return PadicFunction.from_polynomial(coeffs, p, depth)
    if kind == "table":
        # a polynomial's table with a few entries moved by p^level: UD1
        # inputs, 1-Lipschitz non-UD1 inputs and non-Lipschitz inputs all occur
        values = PadicFunction.from_polynomial(coeffs, p, depth).value_table()
        moves = st.tuples(st.integers(0, mod - 1), st.integers(0, depth - 1))
        for x, level in draw(st.lists(moves, max_size=3)):
            values[x] = (values[x] + p**level) % mod
        return PadicFunction.from_table(values, p, depth)
    # series terms p^v r.  Half the series keep v >= e(n), the 1-Lipschitz
    # floor, with 0-2 digits to spare, so UD1 holds or fails a congruence;
    # the others take any v and mostly fail integrality.
    exponent = depth + draw(st.integers(0, 1))
    if kind == "mahler":  # at least p terms; short vdp series stay in play
        length = draw(st.integers(p, min(mod, 40)))
    else:
        length = draw(st.integers(1, mod))
    lipschitz = draw(st.booleans())
    spare = st.integers(0, 2) if lipschitz else st.integers(0, exponent)
    term = st.tuples(spare, st.integers(0, p**exponent - 1))
    drawn = draw(st.lists(term, min_size=length, max_size=length))
    terms = [
        p ** min(exponent, v + (len(_digits(n, p)) - 1 if lipschitz and n else 0)) * r
        for n, (v, r) in enumerate(drawn)
    ]
    series = CoefficientSeries(kind, p, exponent, tuple(terms))
    ctor = PadicFunction.from_mahler if kind == "mahler" else PadicFunction.from_vdp
    return ctor(series, depth)


@core_settings
@given(functions())
def test_value_array_matches_evaluate(f):
    window = ud1_window(f.prime, f.depth)
    assert f.value_array(window).tolist() == [f.evaluate(x) for x in range(window)]
    # a shorter window is the prefix of the cached one
    assert f.value_array(f.prime).tolist() == [f.evaluate(x) for x in range(f.prime)]


@core_settings
@given(functions(), st.data())
def test_series_match_scalar_references(f, data):
    count = f.prime**f.depth
    k = data.draw(st.integers(1, f.depth))
    assert mahler_coefficients(f, count, k) == mahler_reference(f, count, k)
    assert vdp_coefficients(f, count, k) == vdp_reference(f, count, k)


@core_settings
@given(functions(), st.data())
def test_ud1_check_matches_scalar_sweep(f, data):
    s_max = data.draw(st.integers(1, f.depth - 1))
    got, want = ud1_check(f, s_max), ud1_reference(f, s_max)
    assert got.verdict == want.verdict
    assert got.derived == want.derived


@pytest.mark.parametrize(
    "values, witness",
    [
        # f(1 + 2) - f(1) = 1 is odd: integrality fails at u = 1 before any congruence
        ([0, 2, 2, 3, 4, 6, 6, 4], {"u": 1, "difference": 1}),
        # x + 4 [x = 2]: 1-Lipschitz, first congruence failure at u = 2, s = 2, h = 1
        ([0, 1, 6, 3, 4, 5, 6, 7], {"u": 2, "s": 2, "h": 1, "lhs": 6, "rhs": 2}),
    ],
)
def test_ud1_witness_order(values, witness):
    f = PadicFunction.from_table(values, 2, 3)
    report = ud1_check(f)
    assert report.verdict.witness == witness
    assert report.verdict == ud1_reference(f).verdict
