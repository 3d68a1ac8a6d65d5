import math
import random

import pytest

from padicdyn.arith import legendre_binomial_valuation, valuation
from padicdyn.errors import InputError
from padicdyn.identities import (
    abc_components,
    abc_suite,
    bip2_suite,
    bipro_suite,
    pzero_component,
    pzero_suite,
    valpro_suite,
    verify_identity_suite,
)


def test_abc_components_exact_and_integral():
    for p in (3, 5, 7, 11, 13):
        for r in range(1, p):
            A, B, C = abc_components(p, r)
            assert all(isinstance(x, int) for x in (A, B, C))
            assert (A + B + C) % (p * p) == 0


def test_pzero_component_exact_and_integral():
    for p in (3, 5, 7, 11, 13):
        for r in range(2, p):
            P = pzero_component(p, r)
            assert isinstance(P, int)
            assert P % (p * p) == 0


def test_abc_suite_small():
    report = abc_suite(p_max=13)
    assert report.passed
    assert report.checked == sum(p - 1 for p in (3, 5, 7, 11, 13))


def test_pzero_suite_small():
    report = pzero_suite(p_max=13)
    assert report.passed
    assert report.checked == sum(p - 2 for p in (3, 5, 7, 11, 13))


def test_valpro_statement_against_legendre():
    rng = random.Random(61)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        s = rng.randrange(1, 4)
        l = rng.randrange(1, p)
        n = l * p**s
        j = rng.randrange(1, n)
        assert legendre_binomial_valuation(n, j, p) == s - valuation(j, p)


def test_valpro_suite_small():
    report = valpro_suite(p_max=5, s_max=3)
    assert report.passed and report.checked > 0


def test_bipro_exact_small_scale():
    # p = 3, s = 2: C(n, k) = sum_j C(3, j) C(n-9, k-3j) mod 9 for n in [9, 18)
    p, s = 3, 2
    q = p * p
    shift = p**s
    sub = p ** (s - 1)
    for n in range(shift, 2 * shift):
        for k in range(n + 1):
            rhs = sum(
                math.comb(p, j) * math.comb(n - shift, k - j * sub)
                for j in range(p + 1)
                if 0 <= k - j * sub <= n - shift
            )
            assert (math.comb(n, k) - rhs) % q == 0


def test_bipro_suite_counts_and_families():
    report = bipro_suite(p_max=3, s_max=2)
    assert report.passed
    # pairs for p=3, s=2: sum of (n+1) for n in 9..17
    assert report.checked == sum(n + 1 for n in range(9, 18))
    fam = report.params["families"]["p3_s2"]
    assert fam["family1"] == 2 * 9
    assert fam["family2"] == fam["family3"] == 4 * 9


def test_bip2_congruences_exact_spot():
    C = math.comb
    for s in (2, 3, 4):
        h, f = 2 ** (s - 1), 2**s
        for a in range(h):
            for b in range(h):
                assert (C(a + f, b + h) - 2 * C(a, b)) % 4 == 0
                assert (C(a + f, b + f) - C(a, b)) % 4 == 0
                assert (C(a + h + f, b + h + f) - C(a + h, b + h)) % 4 == 0


def test_bip2_suite():
    report = bip2_suite(s_max=5)
    assert report.passed
    assert report.checked == 5 * sum(4 ** (s - 1) for s in range(2, 6))


def test_dispatcher_and_overrides():
    report = verify_identity_suite("abc", p_max=7)
    assert report.passed
    assert report.params["p_max"] == 7
    # irrelevant overrides are dropped rather than raising
    report = verify_identity_suite("bip2", p_max=97, s_max=3)
    assert report.passed and report.params["s_max"] == 3
    with pytest.raises(InputError):
        verify_identity_suite("nope")

