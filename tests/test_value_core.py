"""Differential tests of the array value core against the scalar references.

Random polynomial, table, Mahler and van der Put functions at p in
{2, 3, 5, 7} and depth 2-5.  Hypothesis runs derandomized with a bounded
number of examples, so the suite stays deterministic and fast; a failure
shrinks to a small disagreeing function.

Also pinned here: every level table, reduced map and orbit walk reads the
value array and calls `evaluate` at no point, with the same orbits as the
per-point references; transitivity read from the cached walk of 0 gives
the verdict of the full cycle decomposition; a map passes its cached
Lipschitz verdict exactly where the per-x loop finds it well defined at
every level, and that verdict is the one well-definedness rule: every
reduced map and every reader of the walk refuses a map that fails it, at
every level, with classify's message, while reduce_map reads only the
first p^k values of a map that passes, also past the vdp length limit;
the level products of the ergodicity conditions match the term-by-term
products; and the formal derivative of a Mahler sum, computed in integers
from D = log(1 + Delta), matches the per-point power-basis reference,
refusals included.
"""

import io
import json
import random
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padicdyn import cli
from padicdyn.analysis import ud1_check, ud1_window
from padicdyn.criteria import _mahler_derivative_residues, p5_conditions
from padicdyn.dynamics import (
    cycle_structure,
    decide_ergodicity,
    ergodic_conditions,
    ergodic_oracle,
    orbit_of,
    transitive_mod,
)
from padicdyn.errors import InternalCheckError, NormalizationError, PreconditionError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import (
    branch_products_reference,
    mahler_derivative_residue_reference,
    mahler_reference,
    normals_reference,
    orbit_reference,
    orbit_residues_reference,
    random_p5_instance,
    transitive_reference,
    ud1_reference,
    vdp_reference,
)

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
        values = PadicFunction.from_polynomial(coeffs, p, depth).value_table(depth)
        moves = st.tuples(st.integers(0, mod - 1), st.integers(0, depth - 1))
        for x, level in draw(st.lists(moves, max_size=3)):
            values[x] = (values[x] + p**level) % mod
        return PadicFunction.from_table(values, p, depth)
    # series terms p^v r.  Half the series keep v >= e(n), the 1-Lipschitz
    # floor, with 0-2 digits to spare, so UD1 holds or fails a congruence;
    # the others take any v and mostly fail integrality.  A series may run
    # past p^depth, often past the UD1 window, with terms there multiples
    # of p^depth, so value arrays are cut at the window and read levels
    # past the depth window.
    exponent = depth + draw(st.integers(0, 1))
    past = st.integers(mod + 1, 2 * ud1_window(p, depth))
    if kind == "mahler":  # at least p terms, and past p^depth only where p^depth is small
        length = draw(st.integers(p, min(mod, 40)) | (past if mod <= 40 else st.nothing()))
    else:  # short vdp series stay in play
        length = draw(st.integers(1, mod) | past)
    lipschitz = draw(st.booleans())
    spare = st.integers(0, 2) if lipschitz else st.integers(0, exponent)
    term = st.tuples(spare, st.integers(0, p**exponent - 1))
    drawn = draw(st.lists(term, min_size=min(length, mod), max_size=min(length, mod)))
    terms = [
        p ** min(exponent, v + (len(_digits(n, p)) - 1 if lipschitz and n else 0)) * r
        for n, (v, r) in enumerate(drawn)
    ]
    rng = draw(st.randoms(use_true_random=False))
    terms += [p**depth * rng.randrange(p) for _ in range(length - mod)]
    series = CoefficientSeries(kind, p, exponent, tuple(terms))
    ctor = PadicFunction.from_mahler if kind == "mahler" else PadicFunction.from_vdp
    return ctor(series, depth)


@core_settings
@given(functions())
# series past p^depth and past the UD1 window (15 and 12 points), cut there
@example(PadicFunction.from_vdp(
    CoefficientSeries("vdp", 3, 3, (5, 1, 7, 3, 8, 2, 4, 6, 0) + (0, 9, 18) * 7), 2))
@example(PadicFunction.from_mahler(
    CoefficientSeries("mahler", 2, 4, (1, 3, 2, 6, 4, 12, 8, 5) + (8, 0) * 6), 3))
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
@given(functions())
def test_ud1_check_matches_scalar_sweep(f):
    got, want = ud1_check(f), ud1_reference(f)
    assert got.verdict == want.verdict
    if want.derived is None:
        assert got.derived is None
    else:
        assert got.derived.tolist() == want.derived.tolist()
        assert not got.derived.flags.writeable


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


def _every_level_matches_evaluate(f):
    window = f.prime**f.depth
    for k in range(1, f.depth + 1):
        assert f.value_table(k) == [f.evaluate(x, k) for x in range(window)]


@core_settings
@given(functions())
def test_value_table_reduces_to_every_level(f):
    _every_level_matches_evaluate(f)


def _x_plus_one(p, depth):
    """x + 1 in all four forms: ergodic, so the oracle walks every level."""
    mod = p**depth
    poly = PadicFunction.from_polynomial([1, 1], p, depth)
    return [
        poly,
        PadicFunction.from_table([(x + 1) % mod for x in range(mod)], p, depth),
        PadicFunction.from_mahler(CoefficientSeries("mahler", p, depth, (1, 1))),
        PadicFunction.from_vdp(vdp_coefficients(poly)),  # from the value array
    ]


def _ill_defined(p, depth):
    """A table, a Mahler sum and a vdp sum that are not 1-Lipschitz."""
    values = [(x + 1) % p**depth for x in range(p**depth)]
    values[-1] = (values[-1] + 1) % p**depth
    return [
        PadicFunction.from_table(values, p, depth),
        PadicFunction.from_mahler(CoefficientSeries("mahler", p, depth, (0, 0, 0, 1))),
        PadicFunction.from_vdp(CoefficientSeries("vdp", p, depth, (0, 1, 2, 1))),
    ]


@pytest.mark.parametrize("index", range(3))
def test_value_table_levels_of_ill_defined_maps(index):
    f = _ill_defined(3, 4)[index]
    with pytest.raises(PreconditionError):
        f.reduce_map(1)
    _every_level_matches_evaluate(f)


@pytest.mark.parametrize("p, depth", [(2, 6), (3, 4), (5, 3)])
def test_level_walks_never_call_evaluate(monkeypatch, p, depth):
    calls = []
    evaluate = PadicFunction.evaluate

    def counting(self, x, k=None):
        calls.append(x)
        return evaluate(self, x, k)

    for f in _x_plus_one(p, depth):
        monkeypatch.setattr(PadicFunction, "evaluate", counting)
        calls.clear()
        assert ergodic_oracle(f).passed
        assert ergodic_conditions(f)["orbit"].passed
        assert len(orbit_of(f, depth)) == p**depth
        assert decide_ergodicity(f).ergodic
        if p == 5:
            assert p5_conditions(f)["combined"].passed
        monkeypatch.undo()
        assert calls == [], f.kind


def _first_mismatch(f, k):
    """The per-x well-definedness loop: first x >= p^k whose value differs
    from its representative's."""
    mod = f.prime**k
    values = [f.evaluate(x, k) for x in range(f.prime**f.depth)]
    for x in range(mod, len(values)):
        if values[x] != values[x % mod]:
            return {"x": x, "x_mod": x % mod, "fx": values[x], "fx_mod": values[x % mod]}
    return None


def _lipschitz_refusal(f):
    """classify's message for a map that fails its Lipschitz verdict."""
    w = f.lipschitz.witness
    return (f"vdp term {w['index']} = {w['term']} is not divisible by "
            f"{f.prime}^{w['required_valuation']}, so the map is not 1-Lipschitz")


def _assert_refused(f, read, *args):
    """read(*args) raises PreconditionError carrying f.lipschitz, with
    classify's message."""
    with pytest.raises(PreconditionError) as info:
        read(*args)
    assert info.value.verdict is f.lipschitz
    assert str(info.value) == _lipschitz_refusal(f)


def _level_products_refusal(f):
    """The message of the first NormalizationError that the level products
    of ergodic_conditions meet, by the scalar references, or None."""
    series = vdp_reference(f, f.prime**f.depth, f.depth)
    try:
        for s in range(1, f.depth):
            normals_reference(series, f.prime**s, 2 * f.prime**s)
    except NormalizationError as exc:
        return str(exc)
    return None


@core_settings
@given(functions().filter(lambda f: f.kind != "polynomial"))
def test_reduce_map_matches_per_x_reference(f):
    mismatches = [_first_mismatch(f, k) for k in range(1, f.depth + 1)]
    assert f.lipschitz.passed == (mismatches == [None] * f.depth)
    if f.lipschitz:
        for k in range(1, f.depth + 1):
            assert f.reduce_map(k) == [f.evaluate(x, k) for x in range(f.prime**k)]
        return
    # the verdict names the first x that the per-x loop finds at any level
    assert f.lipschitz.witness["index"] == min(w["x"] for w in mismatches if w)
    for k in range(1, f.depth + 1):
        _assert_refused(f, f.reduce_map, k)


@core_settings
@given(functions())
def test_orbit_walks_match_scalar_walks(f):
    # the cached walk reduced mod p^k is the orbit of a 1-Lipschitz map; its
    # readers, orbit_of among them, refuse every other map at every level
    defined = [_first_mismatch(f, k) is None for k in range(1, f.depth + 1)]
    assert f.lipschitz.passed == all(defined)  # the per-level oracle of the verdict
    if not f.lipschitz:
        for k in range(1, f.depth + 1):
            _assert_refused(f, orbit_of, f, k)
        if f.prime >= 5:
            _assert_refused(f, p5_conditions, f)
        return
    for k in range(1, f.depth + 1):
        assert orbit_of(f, k) == orbit_reference(f, k)
    if f.prime >= 5:
        y = 0
        for _ in range(f.prime):
            y = f.evaluate(y, 2)
        verdict = p5_conditions(f)["return_valuation"]
        assert (verdict.details or verdict.witness) == {"value": y}
    conditions = ergodic_conditions(f)
    assert conditions["orbit"].details["residues"] == orbit_residues_reference(
        f, f.depth - 1
    )
    assert conditions["product"].details["products"] == branch_products_reference(
        vdp_coefficients(f), f.depth - 1
    )


@core_settings
@given(functions())
# 0 -> 2 -> 0 mod 4, a walk that was read at level 1 although x = 1 and
# x = 5 differ mod 4
@example(PadicFunction.from_table([2, 1, 0, 3, 2, 3, 0, 1], 2, 3))
def test_every_level_reader_refuses_a_map_that_is_not_lipschitz(f):
    if f.lipschitz:
        return
    for k in range(1, f.depth + 1):
        for read in (f.reduce_map, f.orbit_mod):
            _assert_refused(f, read, k)
        for read in (orbit_of, cycle_structure, transitive_mod):
            _assert_refused(f, read, f, k)
    _assert_refused(f, ergodic_oracle, f)
    message = _level_products_refusal(f)
    if message is None:
        _assert_refused(f, ergodic_conditions, f)
    else:
        with pytest.raises(NormalizationError) as info:
            ergodic_conditions(f)
        assert str(info.value) == message
    if f.prime >= 5:
        _assert_refused(f, p5_conditions, f)


@core_settings
@given(functions())
@example(PadicFunction.from_polynomial([0, 1], 3, 3))  # nine fixed points mod 9
@example(PadicFunction.from_polynomial([0, 0, 1], 2, 4))  # x^2: not bijective
@example(PadicFunction.from_table([9, 2, 3, 4, 5, 6, 7, 8, 1, 10, 11, 12, 13, 14, 15, 0], 2, 4))
@example(PadicFunction.from_table([1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 3], 2, 4))
def test_transitive_mod_matches_the_cycle_decomposition(f):
    for k in range(1, f.depth + 1):
        try:
            want = transitive_reference(f, k)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as info:
                transitive_mod(f, k)
            assert info.value.verdict == exc.verdict
            continue
        assert transitive_mod(f, k).to_json_dict() == want.to_json_dict()


def test_reduce_map_witness_is_first_late_mismatch(capsys, monkeypatch):
    # x + 1 mod 81 with two late entries moved by 3: well defined mod 3 only,
    # and refused at every level by its verdict, whose witness B_70 is the
    # first x that the per-x loop finds at any level
    values = [(x + 1) % 81 for x in range(81)]
    values[70] = (values[70] + 3) % 81
    values[80] = (values[80] + 3) % 81
    f = PadicFunction.from_table(values, 3, 4)
    assert [_first_mismatch(f, k) for k in range(1, 5)] == [
        None,
        {"x": 70, "x_mod": 7, "fx": 2, "fx_mod": 8},
        {"x": 70, "x_mod": 16, "fx": 20, "fx_mod": 17},
        None,
    ]
    message = "vdp term 70 = 57 is not divisible by 3^3, so the map is not 1-Lipschitz"
    assert _lipschitz_refusal(f) == message
    for k in range(1, 5):
        _assert_refused(f, f.reduce_map, k)
    assert f.value_table(1) == [(x + 1) % 3 for x in range(81)]  # read unchecked
    blob = {"kind": "table", "p": 3, "depth": 4, "values": values}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    assert cli.main(["classify", "-"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_lipschitz_maps_reduce_without_the_row_compare(monkeypatch):
    f = _x_plus_one(3, 4)[1]
    assert f.lipschitz and len(f.orbit_walk) == 82  # both cached up front
    read = []
    value_array = PadicFunction.value_array

    def recording(self, npoints):
        read.append(npoints)
        return value_array(self, npoints)

    monkeypatch.setattr(PadicFunction, "value_array", recording)
    assert ergodic_oracle(f).passed
    assert read == []  # the oracle reads the cached walk and builds no reduced map
    assert [f.reduce_map(k) for k in range(1, 5)] == [
        [(x + 1) % 3**k for x in range(3**k)] for k in range(1, 5)
    ]
    assert read == [3, 9, 27, 81]  # the first row of each level, never the window


def test_window_beyond_the_vdp_length_limit():
    # 2^21 points: the window series is not held to expand's 2^20-term limit
    size = 2**21
    f = PadicFunction.from_table(list(range(1, size)) + [0], 2, 21)
    assert ergodic_oracle(f).passed
    for k in range(1, 22):
        assert f.reduce_map(k) == list(range(1, 2**k)) + [0]


def _derivative_routes(terms, xs, p):
    """The formal derivative residues by both routes, or "p in the
    denominator" from each route that refuses."""
    out = []
    for route in (
        lambda: _mahler_derivative_residues(terms, xs, p),
        lambda: [mahler_derivative_residue_reference(terms, x, p) for x in xs],
    ):
        try:
            out.append(route())
        except InternalCheckError as exc:
            out.append(str(exc))
    return out


@settings(core_settings, max_examples=60)
@given(st.sampled_from([5, 7, 11]), st.integers(0, 2**32), st.booleans())
def test_mahler_derivative_residues_match_reference(p, seed, with_lift):
    rng = random.Random(seed)
    terms = random_p5_instance(p, rng, with_lift).series.terms
    want = [mahler_derivative_residue_reference(terms, x, p) for x in range(p)]
    assert _mahler_derivative_residues(terms, range(p), p) == want
    # length 2p with unscaled terms: p divides lcm(1..2p-1), and p is often
    # left in the denominator
    raw = [rng.randrange(-(p**4), p**4) for _ in range(2 * p)]
    got, ref = _derivative_routes(raw, range(p), p)
    assert got == ref


def test_mahler_derivative_residues_at_p_89():
    # the shape of a generated series: term m divisible by p^e(m)
    p, rng = 89, random.Random(89)
    terms = [rng.randrange(p**3) * (p if m >= p else 1) for m in range(2 * p)]
    got, ref = _derivative_routes(terms, [0, 1, 88], p)
    assert got == ref and isinstance(got, list)
