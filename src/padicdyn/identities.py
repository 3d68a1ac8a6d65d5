"""Exhaustive finite verification of the binomial congruence identities.

Each suite sweeps a stated parameter range and reports the number of
instances checked plus any counterexamples found (expected: none).  Every
suite is exact integer arithmetic, in int64 numpy passes or Python ints:

- valpro walks each row n = l p^s in chunks of j and keeps the valuation
  of C(n, j) as a running sum of v_p(n-j+1) - v_p(j), each valuation a
  count of strided hits p^e | j.  Legendre's digit-sum formula is never
  used, so the suite checks the lemma instead of restating it.
- abc and pzero weigh, for each r, the tap sums of the row C(r, .) mod
  p^2 against C(p, j) mod p^2: one convolution (and for abc's third sum
  one correlation) per r, over row and weight tables built once per p.
- bipro keeps the Pascal rows C(m, .) and C(m + p^s, .) mod p^2 side by
  side in one uint16 row, advances both with one Pascal step, and compares
  16 rows at a time with their tap sums (`backends.bipro_scan`).
- bip2 evaluates the five p = 2 congruences with `math.comb`.

The abc, pzero and bipro sweeps stop at p = 97, which keeps every int64
sum below p^7 < 2^63; a larger p_max is refused.  valpro and bipro also
refuse a range with more instances than their work limit, since their work
grows as p^s_max and p^(2 s_max) whatever the prime bound; bip2 refuses an
s_max above 9.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import backends
from .arith import is_prime
from .errors import InputError

# abc, pzero and bipro sweep odd primes up to this bound and no further
_P_LIMIT = 97
_ODD_PRIMES_97 = [p for p in range(3, _P_LIMIT + 1) if is_prime(p)]

# valpro takes each row in chunks of at most this many j
_VALPRO_CHUNK = 1 << 13

# most instances a range of valpro or bipro may hold
_WORK_LIMITS = {"valpro": 10**9, "bipro": 1 << 31}

# largest s_max bip2 takes: each step of s costs it about 14 times the last,
# as math.comb works on ever longer integers
_BIP2_S_LIMIT = 9


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checked: int
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": {k: str(v) for k, v in self.params.items()},
            "checked": str(self.checked),
            "pass": self.passed,
            "counterexamples": [
                {k: str(v) for k, v in c.items()} for c in self.counterexamples
            ],
            "elapsed_seconds": round(self.elapsed, 3),
        }


def check_p_max(suite: str, p_max: int) -> None:
    """Refuse a p_max above the prime bound for the suites that have one,
    rather than cut the sweep to it."""
    if suite in ("abc", "pzero", "bipro") and p_max > _P_LIMIT:
        raise InputError(
            f"{suite} sweeps odd primes up to {_P_LIMIT}; p_max {p_max} is above "
            f"that limit"
        )


def _instance_counts(suite: str, p_max: int, s_max: int):
    """Yield the instances valpro or bipro checks at each (p, s) of its
    range: l p^s - 1 for each l < p, or the n + 1 pairs of each row
    n in [p^s, 2 p^s)."""
    if suite == "valpro":
        for p in range(2, p_max + 1) if s_max >= 1 else ():
            if is_prime(p):
                for s in range(1, s_max + 1):
                    yield p**s * p * (p - 1) // 2 - (p - 1)
    else:
        for p in _odd_primes(suite, p_max):
            for s in range(2, s_max + 1):
                yield p**s * (3 * p**s + 1) // 2


def _check_work(suite: str, args: dict) -> None:
    if suite == "bip2" and args["s_max"] > _BIP2_S_LIMIT:
        raise InputError(
            f"bip2 at s_max {args['s_max']} is above s_max {_BIP2_S_LIMIT}, "
            f"its work limit"
        )
    limit = _WORK_LIMITS.get(suite)
    if limit is None:
        return
    total = 0
    for count in _instance_counts(suite, **args):
        total += count
        if total > limit:
            raise InputError(
                f"{suite} over p_max {args['p_max']}, s_max {args['s_max']} would "
                f"check more than {limit} instances; that is its work limit"
            )


def _arguments(name: str, overrides: dict) -> dict:
    """The keyword arguments suite name runs with: its defaults, updated by
    the overrides it takes."""
    params = inspect.signature(_SUITES[name]).parameters
    args = {k: v.default for k, v in params.items()}
    args.update({k: v for k, v in overrides.items() if k in params})
    return args


def check_ranges(names, overrides: dict) -> dict:
    """Refuse, before any suite runs, a range that one of the named suites
    caps: first a p_max above the prime bound, then a range beyond the
    work limit.  Returns the keyword arguments each suite runs with."""
    for name in names:
        if name not in _SUITES:
            raise InputError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    args = {name: _arguments(name, overrides) for name in names}
    for name in names:
        if "p_max" in args[name]:
            check_p_max(name, args[name]["p_max"])
    for name in names:
        _check_work(name, args[name])
    return args


def _odd_primes(suite: str, p_max: int) -> list[int]:
    check_p_max(suite, p_max)
    return [p for p in _ODD_PRIMES_97 if p <= p_max]


def _binomial_rows(p: int):
    """Yield (r, C(r, .) mod p^2, taps, weights) for r = 1..p-1, as int64
    arrays: taps[j] = C(p, j) mod p^2 for j = 1..p-1 with taps[0] = 0, and
    weights[l] = (-1)^(r-l+1) l for l = 0..p-1, each a row of one table per p."""
    q = p * p
    taps = np.array([0] + [math.comb(p, j) % q for j in range(1, p)], dtype=np.int64)
    rows = np.zeros((p, p), dtype=np.int64)
    rows[np.tril_indices(p)] = [math.comb(r, t) % q for r in range(p) for t in range(r + 1)]
    ls = np.arange(p, dtype=np.int64)
    weights = np.where((ls[:, None] - ls + 1) % 2 == 0, ls, -ls)
    for r in range(1, p):
        yield r, rows[r, : r + 1], taps, weights[r]


def abc_suite(p_max: int = 97) -> SuiteReport:
    """(A + B + C)(p, r) = 0 mod p^2 for odd primes p <= p_max, 1 <= r < p.

    A + B is, for each l = 1..p-1, the tap sum of row C(r, .) at l, which
    is one convolution; C reads the row from l upward, which is one
    correlation.  Each sum is below p^7 < 2^63 for p <= 97, so int64 is
    exact.
    """
    checked = 0
    bad = []
    for p in _odd_primes("abc", p_max):
        q = p * p
        for r, row, taps, weights in _binomial_rows(p):
            # A + B: l = 1..p-1, j >= 1 with 0 <= l - j <= r
            total = int(weights[1:] @ np.convolve(row, taps)[1:p])
            # C: l = 1..r-1, j = 1..r-l, with the opposite sign
            total -= int(weights[1:r] @ np.correlate(row, taps[:r], "full")[r : 2 * r - 1])
            checked += 1
            if total % q != 0:
                bad.append({"p": p, "r": r, "residue": total % q})
    return SuiteReport("abc", {"p_max": p_max}, checked, bad)


def pzero_suite(p_max: int = 97) -> SuiteReport:
    """The complementary double sum is 0 mod p^2 for odd primes p <= p_max,
    2 <= r < p: the tap sums of row C(r, .) at l = 1..p-1, one convolution,
    with the taps cut to j < p - r."""
    checked = 0
    bad = []
    for p in _odd_primes("pzero", p_max):
        q = p * p
        for r, row, taps, weights in _binomial_rows(p):
            if r < 2:
                continue
            total = int(weights[1:] @ np.convolve(row, taps[: p - r])[1:p])
            checked += 1
            if total % q != 0:
                bad.append({"p": p, "r": r, "residue": total % q})
    return SuiteReport("pzero", {"p_max": p_max}, checked, bad)


def valpro_claim(s, vj):
    """The lemma's value of v_p(C(l p^s, j)), from s and v_p(j) (integers
    or arrays of them)."""
    return s - vj


def valpro_suite(p_max: int = 13, s_max: int = 4) -> SuiteReport:
    """v_p(C(l p^s, j)) = s - v_p(j) for 1 <= j < l p^s, 1 <= l <= p-1.

    The valuation of the binomial is maintained incrementally along the
    row, v_p(C(n, j)) = v_p(C(n, j-1)) + v_p(n-j+1) - v_p(j), which keeps
    the sweep independent of the digit-sum formula used elsewhere.  Each
    row is taken in chunks of j: v_p(j) and v_p(n-j+1) come from strided
    adds of 1 at j = 0 and j = n+1 mod p^e for every p^e <= n, and the
    running valuation is the carried value plus a cumulative sum.  The
    sweep stops at the fifth counterexample.
    """
    checked = 0
    bad = []
    params = {"p_max": p_max, "s_max": s_max}
    for p in range(2, p_max + 1) if s_max >= 1 else ():
        if not is_prime(p):
            continue
        for s in range(1, s_max + 1):
            for l in range(1, p):
                n = l * p**s
                powers = [p**e for e in range(1, s + 1)]  # p^e <= n < p^(s+1)
                v = 0
                for start in range(1, n, _VALPRO_CHUNK):
                    size = min(_VALPRO_CHUNK, n - start)
                    vj = np.zeros(size, dtype=np.int64)  # v_p(j), j = start + i
                    vnum = np.zeros(size, dtype=np.int64)  # v_p(n - j + 1)
                    for pe in powers:
                        vj[-start % pe :: pe] += 1
                        vnum[(n + 1 - start) % pe :: pe] += 1
                    running = v + np.cumsum(vnum - vj)
                    claim = valpro_claim(s, vj)
                    for i in np.flatnonzero(running != claim).tolist():
                        bad.append(
                            {"p": p, "s": s, "l": l, "j": start + i,
                             "got": int(running[i]), "expected": int(claim[i])}
                        )
                        if len(bad) > 4:
                            checked += i + 1
                            return SuiteReport("valpro", params, checked, bad)
                    checked += size
                    v = int(running[-1])
    return SuiteReport("valpro", params, checked, bad)


def bipro_suite(p_max: int = 13, s_max: int = 4) -> SuiteReport:
    """Digit-shift congruences mod p^2 for odd p <= p_max, 2 <= s <= s_max."""
    checked = 0
    bad = []
    families = {}
    for p in _odd_primes("bipro", p_max):
        for s in range(2, s_max + 1):
            pairs, witness = backends.bipro_scan(p, s)
            checked += pairs
            base = p ** (2 * (s - 1))
            families[f"p{p}_s{s}"] = {
                "pairs": pairs,
                "family1": base * (p - 1),
                "family2": base * (p - 1) ** 2,
                "family3": base * (p - 1) ** 2,
            }
            if witness is not None:
                witness = dict(witness)
                witness.update({"p": p, "s": s})
                bad.append(witness)
    params = {"p_max": p_max, "s_max": s_max, "backend": backends.current_backend(),
              "families": families}
    return SuiteReport("bipro", params, checked, bad)


def bip2_suite(s_max: int = 6) -> SuiteReport:
    """The five p = 2 digit-shift congruences mod 4, exhaustive in s <= s_max."""
    checked = 0
    bad = []
    C = math.comb
    for s in range(2, s_max + 1):
        h = 2 ** (s - 1)
        f = 2**s
        for a in range(h):
            for b in range(h):
                cases = [
                    ("1", C(a + f, b + h), 2 * C(a, b)),
                    ("2", C(a + f, b + f), C(a, b)),
                    ("3", C(a + h + f, b + h), C(a + h, b + h) + 2 * C(a + h, b)),
                    ("4", C(a + h + f, b + f), C(a + h, b) + 2 * C(a + h, b + h)),
                    ("5", C(a + h + f, b + h + f), C(a + h, b + h)),
                ]
                for tag, lhs, rhs in cases:
                    checked += 1
                    if (lhs - rhs) % 4 != 0:
                        bad.append(
                            {"case": tag, "s": s, "alpha": a, "beta": b,
                             "lhs_mod4": lhs % 4, "rhs_mod4": rhs % 4}
                        )
    return SuiteReport("bip2", {"s_max": s_max}, checked, bad)


_SUITES = {
    "abc": abc_suite,
    "pzero": pzero_suite,
    "valpro": valpro_suite,
    "bipro": bipro_suite,
    "bip2": bip2_suite,
}


def verify_identity_suite(name: str, **overrides) -> SuiteReport:
    """Run one suite by name, after `check_ranges`, and time it: a suite run
    directly reports 0.0 seconds.  Range overrides (p_max, s_max) apply only
    to the suites that take them; others are dropped."""
    args = check_ranges([name], overrides)[name]
    t0 = perf_counter()
    report = _SUITES[name](**args)
    report.elapsed = perf_counter() - t0
    return report


def all_suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))
