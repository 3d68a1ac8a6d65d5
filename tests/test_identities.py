import math
import random

import pytest
from scalar_reference import (
    abc_components,
    abc_reference,
    bip2_reference,
    legendre_binomial_valuation,
    pzero_component,
    pzero_reference,
    valpro_reference,
    valuation,
)

from padicdyn import backends, identities
from padicdyn.errors import InputError
from padicdyn.identities import (
    abc_suite,
    bip2_suite,
    bipro_suite,
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
    # the dispatcher times the suite; a suite run directly is not timed
    assert report.elapsed > 0.0 and abc_suite(p_max=7).elapsed == 0.0
    # irrelevant overrides are dropped rather than raising
    report = verify_identity_suite("bip2", p_max=97, s_max=3)
    assert report.passed and report.params["s_max"] == 3
    with pytest.raises(InputError):
        verify_identity_suite("nope")



# -- work limits ---------------------------------------------------------


def test_work_limits_admit_the_defaults_and_the_benchmark_ranges():
    identities.check_ranges(identities.all_suite_names(), {})  # 3.37e6 and 1.56e9
    for p_max, s_max in ((13, 3), (7, 4)):
        identities.check_ranges(["bipro"], {"p_max": p_max, "s_max": s_max})


@pytest.mark.parametrize(
    "name, admitted, refused",
    [
        ("valpro", (137, 2), (139, 2)),  # 959648804 and 1146289388 instances
        ("valpro", (36, 4), (37, 4)),  # 854137114 and 2136999490
        ("bipro", (29, 3), (31, 3)),  # 1233060831 and 2565717010
        ("bipro", (3, 9), (3, 10)),  # 653786820 and 5883992946
        ("valpro", (2, 28), (2, 29)),  # 536870882 and 1073741793: s, and so
        # every valuation valpro holds in int8, stays at most 28
    ],
)
def test_work_limits_on_both_sides(name, admitted, refused):
    identities.check_ranges([name], dict(zip(("p_max", "s_max"), admitted)))
    with pytest.raises(InputError, match="work limit"):
        identities.check_ranges([name], dict(zip(("p_max", "s_max"), refused)))
    with pytest.raises(InputError, match="work limit"):
        verify_identity_suite(name, **dict(zip(("p_max", "s_max"), refused)))


@pytest.mark.parametrize(
    "name, p_max, s_max", [("valpro", 5, 2), ("valpro", 7, 3), ("bipro", 5, 2), ("bipro", 7, 3)]
)
def test_work_limit_counts_what_the_suite_checks(monkeypatch, name, p_max, s_max):
    checked = verify_identity_suite(name, p_max=p_max, s_max=s_max).checked
    monkeypatch.setitem(identities._WORK_LIMITS, name, checked)
    assert verify_identity_suite(name, p_max=p_max, s_max=s_max).checked == checked
    monkeypatch.setitem(identities._WORK_LIMITS, name, checked - 1)
    with pytest.raises(InputError, match=f"more than {checked - 1} instances"):
        verify_identity_suite(name, p_max=p_max, s_max=s_max)


def test_bip2_work_limit_is_s_max_9():
    # s_max 9 takes about 8 s, so it is admitted by the limit check alone
    identities.check_ranges(["bip2"], {"s_max": 9})
    with pytest.raises(InputError, match="bip2 at s_max 10 is above s_max 9, its work limit"):
        identities.check_ranges(["bip2"], {"s_max": 10})
    with pytest.raises(InputError, match="work limit"):
        verify_identity_suite("bip2", s_max=10)


def test_work_limit_of_an_empty_valpro_range_reads_no_primes():
    identities.check_ranges(["valpro"], {"p_max": 10**15, "s_max": 0})
    assert valpro_suite(p_max=10**15, s_max=0).checked == 0


# -- array suites against their scalar sweeps ---------------------------


def _outcome(report):
    return report.checked, report.counterexamples


@pytest.mark.parametrize("p_max", [2, 3, 5, 13, 31])
def test_abc_and_pzero_match_scalar_sweeps(p_max):
    assert _outcome(abc_suite(p_max)) == abc_reference(p_max)
    assert _outcome(pzero_suite(p_max)) == pzero_reference(p_max)


@pytest.mark.parametrize("s_max", range(2, 8))
def test_bip2_matches_scalar_sweep(s_max):
    assert _outcome(bip2_suite(s_max)) == bip2_reference(s_max)


def _flip_pascal_entry(monkeypatch, entry):
    """Make every table of `backends.pascal_rows` that holds entry hold it
    one too large, mod the table's modulus."""
    build = backends.pascal_rows

    def flipped(first, count, modulus):
        rows = build(first, count, modulus)
        if entry[0] < rows.shape[0] and entry[1] < rows.shape[1]:
            rows[entry] = (rows[entry] + 1) % modulus
        return rows

    monkeypatch.setattr(backends, "pascal_rows", flipped)


@pytest.mark.parametrize("entry", [(5, 2), (12, 6), (3, 0), (31, 15)])
def test_perturbed_pascal_table_gives_the_same_counterexamples(monkeypatch, entry):
    _flip_pascal_entry(monkeypatch, entry)
    report = bip2_suite(5)
    comb = lambda n, k: math.comb(n, k) + ((n, k) == entry)  # noqa: E731
    assert _outcome(report) == bip2_reference(5, comb)
    assert not report.passed


@pytest.mark.parametrize("p_max, s_max", [(2, 1), (3, 2), (5, 3), (7, 3), (13, 1)])
def test_valpro_matches_scalar_sweep(p_max, s_max):
    assert _outcome(valpro_suite(p_max, s_max)) == valpro_reference(p_max, s_max)


def test_valpro_carries_the_running_valuation_across_chunks(monkeypatch):
    monkeypatch.setattr(identities, "_VALPRO_CHUNK", 7)
    assert _outcome(valpro_suite(7, 3)) == valpro_reference(7, 3)
    # a claim off by one wherever p^3 | j, seen across chunk boundaries
    monkeypatch.setattr(identities, "valpro_claim", lambda s, vj: s - vj + (vj >= 3))
    assert _outcome(valpro_suite(5, 4)) == valpro_reference(5, 4)


def test_perturbed_valpro_stops_at_the_fifth_counterexample(monkeypatch):
    monkeypatch.setattr(identities, "valpro_claim", lambda s, vj: s - vj + (vj >= 3))
    report = valpro_suite(5, 4)
    assert _outcome(report) == valpro_reference(5, 4)
    assert len(report.counterexamples) == 5
    assert report.counterexamples[0] == {"p": 2, "s": 4, "l": 1, "j": 8,
                                         "got": 1, "expected": 2}
    # the fifth is p = 3, s = 4, l = 2, j = 27: the sweep counts every j of
    # the rows before it and stops there
    assert report.counterexamples[-1] == {"p": 3, "s": 4, "l": 2, "j": 27,
                                          "got": 1, "expected": 2}
    before = sum(l * p**s - 1 for p in (2, 3) for s in range(1, 5) for l in range(1, p))
    assert report.checked == before - (2 * 81 - 1) + 27
    assert all(type(v) is int for c in report.counterexamples for v in c.values())


def test_perturbed_valpro_below_five_counterexamples_sweeps_everything(monkeypatch):
    monkeypatch.setattr(identities, "valpro_claim", lambda s, vj: s - vj + (vj >= 4))
    report = valpro_suite(3, 4)
    assert _outcome(report) == valpro_reference(3, 4)
    assert report.counterexamples == [{"p": 3, "s": 4, "l": 2, "j": 81, "got": 0,
                                       "expected": 1}]
    assert report.checked == 378


def test_perturbed_binomials_give_the_same_counterexamples(monkeypatch):
    # C(5, 2) one too large: it is a row entry for every p > 5 and a tap of p = 5
    _flip_pascal_entry(monkeypatch, (5, 2))
    comb = lambda n, k: math.comb(n, k) + ((n, k) == (5, 2))  # noqa: E731
    abc, pzero = abc_suite(13), pzero_suite(13)
    assert _outcome(abc) == abc_reference(13, comb)
    assert _outcome(pzero) == pzero_reference(13, comb)
    assert pzero.counterexamples == [{"p": 7, "r": 5, "residue": 28},
                                     {"p": 11, "r": 5, "residue": 44},
                                     {"p": 13, "r": 5, "residue": 13}]
    assert [(c["p"], c["r"]) for c in abc.counterexamples][:3] == [(5, 1), (5, 3), (5, 4)]
    assert not abc.passed and abc.checked == 34
    # C(7, 2) one too large: a tap of p = 7 only
    monkeypatch.undo()
    _flip_pascal_entry(monkeypatch, (7, 2))
    comb = lambda n, k: math.comb(n, k) + ((n, k) == (7, 2))  # noqa: E731
    assert _outcome(abc_suite(7)) == abc_reference(7, comb)
    assert abc_suite(7).counterexamples[:2] == [{"p": 7, "r": 1, "residue": 48},
                                                {"p": 7, "r": 3, "residue": 1}]


def test_abc_on_composite_moduli_matches_scalar_sweep(monkeypatch):
    monkeypatch.setattr(identities, "_ODD_PRIMES_97", [3, 9, 15, 21, 25])
    report = abc_suite(25)
    assert _outcome(report) == abc_reference(25)
    assert report.counterexamples[:3] == [{"p": 9, "r": 3, "residue": 27},
                                          {"p": 9, "r": 6, "residue": 27},
                                          {"p": 15, "r": 3, "residue": 75}]
    assert _outcome(pzero_suite(25)) == pzero_reference(25)
