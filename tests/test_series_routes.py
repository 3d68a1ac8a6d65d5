"""Differential tests of the coefficient routes against their scalar loops.

Each route of `classify` that reads a coefficient series (the 1-Lipschitz
test, the van der Put relations, the Mahler UD1 predicate, measure
preservation, the derivative consistency check, the p = 2 criteria and the
p = 3 case tables) is a mask pass over the series' term array, and
normalized terms are read through `CoefficientSeries.normals`.  Here each must
give the same verdict, the same first witness and the same exception as the
term-by-term loop in `tests/scalar_reference.py`.

Series come from random polynomials at p in {2, 3, 5, 7} (half of them
measure-preserving), lifted to a precision of depth, depth + 1, or beyond
int64 (object dtype).  A few random terms are then moved by multiples of
random powers of p, and the branch terms of one random base at one random
level are moved together, so that every condition of every route fails
somewhere, often late, while UD1 series still pass.
Hypothesis runs derandomized with a bounded number of examples.

The Mahler UD1 route, whose difference table stops at the first term
that fails the predicate, must give the scalar loop's verdict on the full
series, on maps hit below the top level, at it, or nowhere, and on a
modulus past 2^62 where the table runs on Python integers.

Also pinned here: series compare and hash by value, their term array is
read-only, and terms and witnesses are Python integers.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicdyn import criteria
from padicdyn.analysis import (
    _derived_branch_mismatch,
    mahler_ud1_predicate,
    mahler_ud1_route,
    ud1_check,
    ud1_equivalence_crosscheck,
    vdp_ud1_relations_check,
)
from padicdyn.dynamics import measure_preserving_vdp
from padicdyn.errors import NormalizationError
from padicdyn.verdict import CriterionVerdict
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    lipschitz_check,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import (
    case_table_reference,
    derived_mismatch_reference,
    larin_transitive_mod8_reference,
    lipschitz_reference,
    mahler_ergodic_p2_reference,
    mahler_predicate_reference,
    measure_preserving_reference,
    normals_reference,
    outcome,
    random_ud1_mahler_series,
    required_ud1_valuation,
    vdp_ergodic_p2_reference,
    vdp_relations_reference,
)

MAX_DEPTH = {2: 6, 3: 5, 5: 4, 7: 3}

route_settings = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _wide_exponent(p):
    """Smallest exponent whose modulus alone leaves int64."""
    k = 1
    while p**k < 1 << 63:
        k += 1
    return k


@st.composite
def polynomial_series(draw, kind):
    """(series, depth, function): a polynomial's full-window series, lifted
    and hit at a few indices."""
    p = draw(st.sampled_from(sorted(MAX_DEPTH)))
    depth = draw(st.integers(2, MAX_DEPTH[p]))
    coeffs = draw(st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=5))
    if draw(st.booleans()):  # c + x mod p with a unit derivative: measure-preserving
        coeffs = coeffs[:1] + [1 + p * coeffs[1]] + [p * c for c in coeffs[2:]]
    f = PadicFunction.from_polynomial(coeffs, p, depth)
    extract = vdp_coefficients if kind == "vdp" else mahler_coefficients
    terms = list(extract(f).term_list)
    exponent = draw(st.sampled_from([depth, depth + 1, _wide_exponent(p)]))
    # a multiple of p^depth changes nothing the routes read below p^depth
    rng = draw(st.randoms(use_true_random=False))
    lift = p ** (exponent - depth)
    terms = [t + p**depth * rng.randrange(lift) for t in terms]
    hits = st.tuples(st.integers(0, len(terms) - 1), st.integers(0, depth),
                     st.integers(1, p - 1))
    for index, level, unit in draw(st.lists(hits, max_size=3)):
        terms[index] += p**level * unit
    # l * unit * p^s added to B_{r + l p^s} for every leading digit l keeps
    # level-linearity and moves the branch residues of base r at level s
    branches = st.tuples(st.integers(1, depth - 1), st.integers(0, p**depth), st.integers(1, p - 1))
    for s, r, unit in draw(st.lists(branches, max_size=1)):
        r %= p**s
        for ell in range(1, p):
            terms[r + ell * p**s] += ell * unit * p**s
    return CoefficientSeries(kind, p, exponent, tuple(terms)), depth, f


def _ints_only(verdict):
    """Every number in a verdict's witness and details is a Python int."""
    def walk(obj):
        if isinstance(obj, dict):
            return all(walk(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return all(walk(v) for v in obj)
        return isinstance(obj, (bool, str)) or type(obj) is int

    json.dumps(verdict.to_json_dict())
    return walk(verdict.witness or {}) and walk(verdict.details)


@route_settings
@given(st.sampled_from(["vdp", "mahler"]).flatmap(polynomial_series), st.data())
def test_lipschitz_check_matches_reference(case, data):
    series, _, _ = case
    length = data.draw(st.integers(1, len(series)))
    series = CoefficientSeries(series.kind, series.prime, series.exponent,
                               series.terms[:length])
    got = lipschitz_check(series)
    assert got == lipschitz_reference(series)
    assert _ints_only(got)


@route_settings
@given(polynomial_series("vdp"))
def test_vdp_relations_match_reference(case):
    # a full-window series at precision >= depth carries levels 1..depth-1
    series, depth, _ = case
    got = outcome(vdp_ud1_relations_check, series)
    assert got == outcome(vdp_relations_reference, series, depth - 1)
    assert _ints_only(got)


@route_settings
@given(polynomial_series("mahler"), st.data())
def test_mahler_predicate_matches_reference(case, data):
    series, _, _ = case
    length = data.draw(st.integers(1, len(series)))
    series = CoefficientSeries("mahler", series.prime, series.exponent,
                               series.terms[:length])
    got = mahler_ud1_predicate(series)
    assert got == mahler_predicate_reference(series)
    assert _ints_only(got)


@st.composite
def mahler_route_input(draw):
    """(f, count): a map given by count = p^m Mahler terms that pass the
    predicate, then hit at one index below level m - 1, at level m - 1, or
    nowhere; at precision m, where count is its window, or past 2^62, where
    the table runs on Python integers."""
    p = draw(st.sampled_from(sorted(MAX_DEPTH)))
    m = draw(st.integers(2, MAX_DEPTH[p]))
    count = p**m
    exponent = draw(st.sampled_from([m, m, _wide_exponent(p)]))
    rng = draw(st.randoms(use_true_random=False))
    terms = list(random_ud1_mahler_series(p, exponent, count, rng).term_list)
    where = draw(st.sampled_from(["lower", "top", "nowhere"]))
    if where != "nowhere":
        low = p if where == "lower" and m > 2 else p ** (m - 1)
        high = p ** (m - 1) if where == "lower" and m > 2 else count
        n = draw(st.integers(low, high - 1))
        need = min(required_ud1_valuation(n, p), exponent)
        terms[n] += p ** (need - 1) * draw(st.integers(1, p - 1))
    series = CoefficientSeries("mahler", p, exponent, tuple(terms))
    return PadicFunction.from_mahler(series), count


@route_settings
@given(mahler_route_input())
def test_mahler_route_stops_with_the_verdict_of_the_full_series(case):
    # the difference table stops at the first failing term; the verdict,
    # witness and condition are those of the scalar loop on every term
    f, count = case
    full = mahler_predicate_reference(mahler_coefficients(f, count=count))
    assert mahler_ud1_route(f, count) == full
    if count == f.prime**f.depth:
        assert ud1_equivalence_crosscheck(f)[2] == full


@route_settings
@given(polynomial_series("vdp"), st.data())
def test_measure_preserving_matches_reference(case, data):
    series, depth, _ = case
    # the series read to level s_max only: its first p^(s_max+1) terms
    s_max = data.draw(st.integers(0, depth - 1))
    series = CoefficientSeries(
        series.kind, series.prime, series.exponent, series.terms[: series.prime ** (s_max + 1)]
    )
    got = outcome(measure_preserving_vdp, series)
    assert got == outcome(measure_preserving_reference, series, s_max)
    if not isinstance(got, tuple):
        assert _ints_only(got)


def test_normals_match_reference():
    # ranges [start, stop) from level s to level t: prefixes (start = 0, as
    # expand reads them), ranges inside one level and ranges across levels;
    # a coarser copy of the series has levels t >= k, where no residue is left
    seen = set()

    @route_settings
    @given(st.sampled_from(["vdp", "mahler"]).flatmap(polynomial_series), st.data())
    def check(case, data):
        series, depth, _ = case
        p = series.prime
        if data.draw(st.booleans()):
            series = CoefficientSeries(series.kind, p, data.draw(st.integers(1, depth - 1)),
                                       series.terms)
        s, t = sorted(data.draw(st.lists(st.integers(0, depth - 1), min_size=2, max_size=2)))
        first = [0, *(p**level for level in range(1, depth))]  # the first index of each level
        start = 0 if data.draw(st.booleans()) else data.draw(st.integers(first[s], p ** (s + 1) - 1))
        stop = data.draw(st.integers(max(start, first[t]) + 1, p ** (t + 1)))
        got = outcome(series.normals, start, stop)
        if isinstance(got, np.ndarray):
            assert got.dtype == series.terms.dtype
            got = got.tolist()
            assert all(type(b) is int for b in got)
        assert got == outcome(normals_reference, series, start, stop)
        if isinstance(got, tuple):
            seen.add(got[0].__name__)
        else:
            seen.add("across" if stop > p ** ((s if start else 0) + 1) else "within")

    check()
    assert {"within", "across", "InputError", "NormalizationError"} <= seen


@route_settings
@given(polynomial_series("vdp"), st.data())
def test_derived_consistency_matches_reference(case, data):
    series, depth, f = case
    p = f.prime
    # one branch term B_{r+p} moved by 1 (not normalizable) or by p (a
    # different branch residue)
    for r, level in data.draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, 1)),
                                       max_size=2)):
        terms = list(series.term_list)
        terms[r + p] += p**level
        series = CoefficientSeries("vdp", p, series.exponent, tuple(terms))
    if not ud1_check(f).verdict.passed:
        derived = np.array(data.draw(st.lists(st.integers(0, f.prime - 1),
                                              min_size=f.prime**depth,
                                              max_size=f.prime**depth)))
    else:
        derived = ud1_check(f).derived.copy()
        for u in data.draw(st.lists(st.integers(0, len(derived) - 1), max_size=2)):
            derived[u] = (derived[u] + 1) % f.prime
    got = outcome(_derived_branch_mismatch, derived, series)
    assert got == outcome(derived_mismatch_reference, derived, series)
    assert got is None or type(got) in (int, tuple)


@route_settings
@given(st.sampled_from(["vdp", "mahler"]), st.integers(3, 70),
       st.lists(st.integers(-(10**21), 10**21), min_size=4, max_size=6))
def test_p2_criteria_match_reference(kind, exponent, terms):
    series = CoefficientSeries(kind, 2, exponent, tuple(terms))
    route, reference = {
        "mahler": (criteria.mahler_ergodic_p2, mahler_ergodic_p2_reference),
        "vdp": (criteria.vdp_ergodic_p2, vdp_ergodic_p2_reference),
    }[kind]
    got = route(series)
    assert got == reference(series)
    assert _ints_only(got)


def test_p2_criteria_rows_are_the_verdicts():
    rows = np.indices((8, 8, 8, 8)).reshape(4, -1).T
    for kind, check, verdict in (
        ("mahler", criteria.mahler_ergodic_p2_rows, criteria.mahler_ergodic_p2),
        ("vdp", criteria.vdp_ergodic_p2_rows, criteria.vdp_ergodic_p2),
    ):
        passed = check(rows)[0] < 0
        assert [verdict(CoefficientSeries(kind, 2, 3, row)).passed for row in rows] == (
            passed.tolist()
        )
        assert 0 < passed.sum() < len(rows)


def test_larin_rows_are_the_scalar_verdict_on_every_cubic():
    cubics = np.indices((8, 8, 8, 8)).reshape(4, -1).T  # rows (d, c, b, a)
    first, _ = criteria.larin_transitive_mod8_rows(cubics)
    for row, check in zip(cubics.tolist(), first.tolist()):
        want = larin_transitive_mod8_reference(row)
        got = criteria.larin_transitive_mod8(row)
        assert got == want and _ints_only(got)
        assert (None if check < 0 else criteria._LARIN_P2[check][0]) == want.condition
    assert (first < 0).sum() == 64


@route_settings
@given(st.lists(st.integers(-(10**21), 10**21), max_size=6))
def test_larin_matches_reference_on_any_integers(coeffs):
    got = outcome(criteria.larin_transitive_mod8, coeffs)
    assert got == outcome(larin_transitive_mod8_reference, coeffs)


# every residue vector mod 3, as normalized terms or coefficients; per kind,
# the ones whose selector matches a key of the kind's table.  The selector
# is a linear form mod 3 of the row: [alpha_0, A1, A2, alpha_1, D1, D2] of
# the coefficients for deg8 (see criteria.deg8_minimal_p3), c_0..c_5 of the
# normalized terms for the series
_MOD3 = np.indices((3,) * 9).reshape(9, -1).T
_LEAD = (1, 1, 1, 3, 3, 3, 3, 3, 3)
_P3 = {"deg8": criteria.deg8_minimal_p3, "mahler": criteria.mahler_ergodic_p3,
       "vdp": criteria.vdp_ergodic_p3}
_SELECTORS = {
    "deg8": ("deg8", [[i == 0, i % 2, i > 0 and i % 2 == 0, i == 1, i, i if i % 2 else -i]
                      for i in range(9)]),
    "mahler": ("ergbm", np.eye(9, 6, dtype=int)),
    "vdp": ("ergbm2", np.eye(9, 6, dtype=int)),
}
_CASE_HITS = {kind: [tuple(r) for r, s in zip(_MOD3.tolist(), (_MOD3 @ np.array(columns) % 3).tolist())
                     if tuple(s) in criteria._case_tables()[table]]
              for kind, (table, columns) in _SELECTORS.items()}


@st.composite
def p3_inputs(draw):
    """(kind, input) of a p = 3 criterion: normalized terms mod 3 that often
    select a case and meet the class precondition, lifted mod 9 and beyond,
    and sometimes a term 3..8 not divisible by 3 or a row of the wrong length."""
    kind = draw(st.sampled_from(sorted(_P3)))
    low = list(draw(st.sampled_from(_CASE_HITS[kind]) if draw(st.booleans())
                    else st.tuples(*[st.integers(0, 2)] * 9)))
    if kind != "deg8" and draw(st.integers(0, 3)):  # in the differentiable-mod-3 class
        low[6:] = [0] * 3 if kind == "mahler" else [2 * x % 3 for x in low[3:6]]
    v = [x + 3 * draw(st.integers(0, 2)) for x in low]
    if kind == "deg8":
        length = draw(st.integers(0, 10)) if draw(st.integers(0, 3)) == 0 else 9
        return kind, [x + 9 * draw(st.integers(-(10**20), 10**20)) for x in (v + [1])[:length]]
    exponent = draw(st.sampled_from([3, 4, 5, _wide_exponent(3)]))
    terms = [x * lead + 27 * draw(st.integers(0, 10**20)) for x, lead in zip(v, _LEAD)]
    terms += draw(st.lists(st.integers(0, 10**6), max_size=2))
    if draw(st.integers(0, 4)) == 0:
        terms[draw(st.integers(3, 8))] += draw(st.integers(1, 2))
    short = draw(st.integers(0, 7)) == 0
    return kind, CoefficientSeries(kind, 3, exponent, tuple(terms[:8] if short else terms))


def test_p3_criteria_match_reference():
    seen = set()

    @settings(route_settings, max_examples=400)
    @given(p3_inputs())
    def check(args):
        kind, row = args
        got = outcome(_P3[kind], row)
        assert got == outcome(case_table_reference, kind, row)
        if isinstance(got, CriterionVerdict):
            assert _ints_only(got)
            seen.add(re.sub("case-[iv]+-", "case-*-", str(got.condition)))

    check()
    assert {"None", "no-case", "case-*-cond1", "case-*-cond2", "normalization", "ud1-precondition"} <= seen


def test_series_compare_and_hash_by_value():
    a = CoefficientSeries("vdp", 3, 2, (1, 5, -1, 12))
    b = CoefficientSeries("vdp", 3, 2, np.array([10, 5, 8, 3]))
    c = CoefficientSeries("vdp", 3, 2, [1, 5, 8, 4])
    assert a == b and hash(a) == hash(b)
    assert a != c and a != CoefficientSeries("mahler", 3, 2, (1, 5, 8, 3))
    assert a != CoefficientSeries("vdp", 3, 3, (1, 5, 8, 3))
    assert len({a: 1, b: 2, c: 3}) == 2
    assert a.terms.tolist() == [1, 5, 8, 3] and a.terms.dtype == np.int64
    with pytest.raises(ValueError):
        a.terms[0] = 2
    assert all(type(a.term(i)) is int for i in range(len(a)))
    assert a.term_list == (1, 5, 8, 3)


def test_wide_series_are_exact_python_integers():
    k = _wide_exponent(3)
    big = 3 ** (k + 2) + 7
    series = CoefficientSeries("mahler", 3, k, (big, -1, 3 * big))
    assert series.terms.dtype == object
    assert series.term_list == (7, 3**k - 1, 21)
    assert all(type(series.term(i)) is int for i in range(3))
    assert series == CoefficientSeries("mahler", 3, k, (7, -1, 21))
    f = PadicFunction.from_mahler(series, 4)
    assert all(type(f.evaluate(x)) is int for x in range(5))
    verdict = lipschitz_check(CoefficientSeries("vdp", 3, k, (0, 0, 0, 1)))
    assert verdict.witness == {"index": 3, "term": 1, "required_valuation": 1}
    assert _ints_only(verdict)


def test_late_normalization_error_names_the_index():
    # x + 1 at p = 3, depth 4, with B_{79} = B_{25 + 2 * 27} set to 28: its
    # branch residue would repeat B_52's, but the term is not divisible by
    # 27, and measure preservation raises on that before judging the branch;
    # the relation route names it as a level-linearity witness
    f = PadicFunction.from_polynomial([1, 1], 3, 4)
    terms = list(vdp_coefficients(f).term_list)
    terms[79] = 28
    series = CoefficientSeries("vdp", 3, 4, tuple(terms))
    with pytest.raises(NormalizationError, match="vdp term 79 = 28 is not divisible by 3"):
        measure_preserving_vdp(series)
    assert outcome(measure_preserving_vdp, series) == outcome(
        measure_preserving_reference, series, 3
    )
    assert vdp_ud1_relations_check(series).condition == "level-linearity"
