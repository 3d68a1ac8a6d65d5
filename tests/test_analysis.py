import dataclasses
import gc
import random
import weakref

import numpy as np
import pytest

from padicdyn import analysis, backends
from padicdyn.analysis import (
    UD1Report,
    mahler_ud1_predicate,
    mahler_ud1_route,
    ud1_check,
    ud1_equivalence_crosscheck,
    vdp_ud1_relations_check,
)
from padicdyn.errors import InputError
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    lipschitz_check,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import (
    mahler_predicate_reference,
    random_ud1_mahler_series,
    required_ud1_valuation,
)


def test_polynomials_are_ud1_with_formal_derivative():
    rng = random.Random(21)
    for p in (2, 3, 5):
        for _ in range(10):
            coeffs = [rng.randrange(p**4) for _ in range(5)]
            f = PadicFunction.from_polynomial(coeffs, p, 4)
            report = ud1_check(f)
            assert report.verdict.passed
            for u in range(p):
                formal = sum(
                    i * c * pow(u, i - 1, p) for i, c in enumerate(coeffs) if i
                ) % p
                assert report.derived[u] == formal


def test_lipschitz_but_not_ud1():
    # 4 C(x, 4) over Z_2: a_4 = 4 meets the Lipschitz floor v >= 2 but the
    # differentiability route demands v >= 3 at level 2
    f = PadicFunction.from_mahler(
        CoefficientSeries("mahler", 2, 4, (0, 0, 0, 0, 4))
    )
    report = ud1_check(f)
    predicate = mahler_ud1_predicate(mahler_coefficients(f, count=16))
    assert not report.verdict.passed
    assert not predicate.passed
    assert report.verdict.witness is not None


def test_three_routes_agree_on_random_series():
    rng = random.Random(22)
    for p in (2, 3):
        for _ in range(30):
            if rng.random() < 0.6:
                series = random_ud1_mahler_series(p, 4, p**3, rng)
            else:
                terms = tuple(rng.randrange(p**4) for _ in range(p**3))
                series = CoefficientSeries("mahler", p, 4, terms)
            f = PadicFunction.from_mahler(series)
            # raises where the routes or the derivative residues disagree
            direct, vdp, mahler = ud1_equivalence_crosscheck(f)
            assert direct.passed == vdp.passed == mahler.passed


def test_admissible_sampler_always_passes():
    rng = random.Random(23)
    for p in (2, 3, 5):
        for _ in range(10):
            series = random_ud1_mahler_series(p, 4, 2 * p**2, rng)
            f = PadicFunction.from_mahler(series)
            assert ud1_check(f).verdict.passed


def test_required_valuation_profile():
    # p = 2: indices 2,3 need v >= 1; 4..7 need v >= 3; p odd: lead digit >= 2 bumps
    assert [required_ud1_valuation(n, 2) for n in range(8)] == [0, 0, 1, 1, 3, 3, 3, 3]
    assert required_ud1_valuation(3, 3) == 1
    assert required_ud1_valuation(6, 3) == 2  # lead digit 2 at level 1
    assert required_ud1_valuation(9, 3) == 3
    assert required_ud1_valuation(10, 5) == 2  # lead digit 2 at level 1


def test_vdp_relations_reject_broken_level():
    rng = random.Random(24)
    series = random_ud1_mahler_series(2, 4, 16, rng)
    f = PadicFunction.from_mahler(series)
    B = vdp_coefficients(f, count=16)
    assert vdp_ud1_relations_check(B).passed
    # corrupt one cross-level residue: b_5 must equal b_3 mod 2
    terms = list(B.terms)
    terms[5] = (terms[5] + 4) % 16  # shifts b_5 = B_5 / 4 by 1 mod 2
    broken = CoefficientSeries("vdp", 2, 4, tuple(terms))
    assert not vdp_ud1_relations_check(broken).passed


def test_derivative_values_match_branch_residues():
    rng = random.Random(25)
    for p in (2, 3, 5):
        coeffs = [rng.randrange(p**3) for _ in range(4)]
        f = PadicFunction.from_polynomial(coeffs, p, 3)
        report = ud1_check(f)
        B = vdp_coefficients(f, count=2 * p)
        for u in range(p):
            assert report.derived[u] == B.normals(p, 2 * p)[u] % p


def test_branch_congruence_p2():
    # for UD1 f over Z_2: B_{t + 2^s} = 2^s (a_1 + a_2/2 + (t mod 2) a_3/2) mod 2^(s+1)
    rng = random.Random(26)
    for _ in range(20):
        series = random_ud1_mahler_series(2, 5, 8, rng)
        f = PadicFunction.from_mahler(series)
        a = [series.term(i) for i in range(4)]
        B = vdp_coefficients(f, count=32)
        for s in (2, 3, 4):
            for t in range(2**s):
                if t + 2**s >= 32:
                    continue
                predicted = 2**s * (a[1] + a[2] // 2 + (t % 2) * (a[3] // 2))
                assert (B.term(t + 2**s) - predicted) % 2 ** (s + 1) == 0


def test_ud1_check_depth_guard():
    f = PadicFunction.from_polynomial([1, 1], 2, 1)
    with pytest.raises(InputError):
        ud1_check(f)


def test_ud1_check_sweeps_once_per_function(monkeypatch):
    scans = []
    scan = backends.ud1_table_scan
    monkeypatch.setattr(backends, "ud1_table_scan", lambda *a: scans.append(a) or scan(*a))
    f = PadicFunction.from_polynomial([1, 3, 0, 2], 2, 4)
    report = ud1_check(f)
    assert ud1_check(f) is report
    assert ud1_equivalence_crosscheck(f)[0] is report.verdict
    assert len(scans) == 1
    # an equal function is another function: it gets its own sweep
    other = ud1_check(PadicFunction.from_polynomial([1, 3, 0, 2], 2, 4))
    assert other is not report and other.verdict == report.verdict
    assert other.derived.tolist() == report.derived.tolist()
    assert len(scans) == 2
    # the kept report does not keep its function alive
    gone = weakref.ref(f)
    del f
    gc.collect()
    assert gone() is None


def test_window_series_is_the_full_vdp_series():
    f = PadicFunction.from_polynomial([1, 1, 2], 3, 3)
    window = f.vdp_window
    assert window == vdp_coefficients(f, count=27)
    assert not window.terms.flags.writeable
    assert f.lipschitz == lipschitz_check(window)


def _top_level_perturbed(p, depth, seed):
    """x + 1 + p^(depth-1) g with random digits g: 1-Lipschitz, not UD1."""
    size = p**depth
    g = np.random.default_rng(seed).integers(0, p, size)
    values = (np.arange(size) + 1 + size // p * g) % size
    return PadicFunction.from_table(values.tolist(), p, depth)


def _counted_mahler_batch(monkeypatch):
    """The shapes of the value arrays that mahler_batch differences."""
    shapes = []
    batch = backends.mahler_batch
    monkeypatch.setattr(backends, "mahler_batch",
                        lambda rows, *args: shapes.append(rows.shape) or batch(rows, *args))
    return shapes


def test_a_failing_mahler_route_differences_up_to_the_direct_witness(monkeypatch):
    f = _top_level_perturbed(3, 5, 35)
    shapes = _counted_mahler_batch(monkeypatch)
    direct, _, mahler = ud1_equivalence_crosscheck(f)
    w = direct.witness
    m = w["u"] + 3 ** w["s"] * w["h"]
    assert (w["u"], w["s"], w["h"], m) == (0, 4, 2, 162)
    assert shapes == [(1, m + 1)]
    # the verdict of the full series, whose first failing term lies below m
    assert mahler == mahler_predicate_reference(mahler_coefficients(f)) == mahler_ud1_route(f, 243)
    assert not mahler.passed and mahler.witness["n"] == 82


@pytest.mark.parametrize("p, depth", [(2, 7), (3, 5), (5, 3), (7, 3)])
def test_the_mahler_verdict_does_not_depend_on_the_direct_witness(monkeypatch, p, depth):
    # the direct report patched to a witness that ends too early (a_0..a_p
    # all meet their floors, so the full table runs next), too late, or past
    # p^depth: the Mahler verdict is the unbounded route's every time
    f = _top_level_perturbed(p, depth, p)
    report = ud1_check(f)
    size = p**depth
    full = mahler_ud1_route(f, size)
    assert not report and not full
    true_u = report.verdict.witness["u"]
    shapes = _counted_mahler_batch(monkeypatch)
    for witness, tables in (
        ({"u": 0, "difference": 1}, [p + 1, size]),
        ({"u": true_u + size // p, "s": 1, "h": 1}, [true_u + size // p + p + 1]),
        ({"u": size + 1, "s": depth - 1, "h": p - 1}, [size]),
    ):
        verdict = dataclasses.replace(report.verdict, witness=witness)
        patched = UD1Report(verdict, report.derived)
        monkeypatch.setattr(analysis, "ud1_check", lambda g: patched)
        shapes.clear()
        assert ud1_equivalence_crosscheck(f)[2] == full
        assert [n for _, n in shapes] == tables
