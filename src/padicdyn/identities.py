"""Exhaustive finite verification of the binomial congruence identities.

Each suite sweeps a stated parameter range and reports the number of
instances checked plus any counterexamples found (expected: none).  The
heavy digit-shift scan is a numpy Pascal-row kernel; everything else is
exact integer arithmetic.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from time import perf_counter

from . import backends
from .arith import is_prime
from .errors import InputError

_ODD_PRIMES_97 = [p for p in range(3, 98) if is_prime(p)]


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


def abc_components(p: int, r: int) -> tuple[int, int, int]:
    """The three alternating double sums, as exact integers.

    A runs over l = 1..r, j = 1..l with sign (-1)^(r-l+1) and weight
    l C(r, l-j) C(p, j); B extends l to r+1..p-1 with j = l-r..l;
    C runs over l = 1..r-1, j = 1..r-l with the opposite sign and
    weight l C(r, l+j) C(p, j).
    """
    def sgn(e: int) -> int:
        return 1 if e % 2 == 0 else -1

    A = sum(
        sgn(r - l + 1) * l * math.comb(r, l - j) * math.comb(p, j)
        for l in range(1, r + 1)
        for j in range(1, l + 1)
    )
    B = sum(
        sgn(r - l + 1) * l * math.comb(r, l - j) * math.comb(p, j)
        for l in range(r + 1, p)
        for j in range(l - r, l + 1)
    )
    C = sum(
        sgn(r - l) * l * math.comb(r, l + j) * math.comb(p, j)
        for l in range(1, r)
        for j in range(1, r - l + 1)
    )
    return A, B, C


def pzero_component(p: int, r: int) -> int:
    """Exact value of the complementary double sum, defined for 1 < r <= p-1."""
    return sum(
        (1 if (r - l + 1) % 2 == 0 else -1) * l * math.comb(r, l - j) * math.comb(p, j)
        for j in range(1, p - r)
        for l in range(j, j + r + 1)
    )


def _modular_abc(p: int) -> list[tuple[int, int]]:
    """(r, (A+B+C) mod p^2) for r = 1..p-1, via reduced tables."""
    q = p * p
    crow = [[math.comb(r, t) % q for t in range(r + 1)] for r in range(p)]
    cp = [math.comb(p, j) % q for j in range(p + 1)]
    out = []
    for r in range(1, p):
        total = 0
        for l in range(1, p):
            sign = 1 if (r - l + 1) % 2 == 0 else -1
            jlo = 1 if l <= r else l - r
            for j in range(jlo, l + 1):
                if 0 <= l - j <= r:
                    total += sign * l * crow[r][l - j] * cp[j]
        for l in range(1, r):
            sign = 1 if (r - l) % 2 == 0 else -1
            for j in range(1, r - l + 1):
                total += sign * l * crow[r][l + j] * cp[j]
        out.append((r, total % q))
    return out


def abc_suite(p_max: int = 97) -> SuiteReport:
    t0 = perf_counter()
    checked = 0
    bad = []
    for p in _ODD_PRIMES_97:
        if p > p_max:
            break
        for r, residue in _modular_abc(p):
            checked += 1
            if residue != 0:
                bad.append({"p": p, "r": r, "residue": residue})
    return SuiteReport("abc", {"p_max": p_max}, checked, bad, perf_counter() - t0)


def pzero_suite(p_max: int = 97) -> SuiteReport:
    t0 = perf_counter()
    checked = 0
    bad = []
    for p in _ODD_PRIMES_97:
        if p > p_max:
            break
        q = p * p
        cp = [math.comb(p, j) % q for j in range(p + 1)]
        ctab = [[math.comb(r, t) % q for t in range(r + 1)] for r in range(p)]
        for r in range(2, p):
            total = 0
            for j in range(1, p - r):
                for l in range(j, j + r + 1):
                    sign = 1 if (r - l + 1) % 2 == 0 else -1
                    if 0 <= l - j <= r:
                        total += sign * l * ctab[r][l - j] * cp[j]
            checked += 1
            if total % q != 0:
                bad.append({"p": p, "r": r, "residue": total % q})
    return SuiteReport("pzero", {"p_max": p_max}, checked, bad, perf_counter() - t0)


def valpro_suite(p_max: int = 13, s_max: int = 4) -> SuiteReport:
    """v_p(C(l p^s, j)) = s - v_p(j) for 1 <= j < l p^s, 1 <= l <= p-1.

    The valuation of the binomial is maintained incrementally along the
    row, which keeps the sweep independent of the digit-sum formula used
    elsewhere.
    """
    t0 = perf_counter()
    checked = 0
    bad = []
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        for s in range(1, s_max + 1):
            for l in range(1, p):
                n = l * p**s
                v = 0
                for j in range(1, n):
                    num = n - j + 1
                    while num % p == 0:
                        v += 1
                        num //= p
                    den = j
                    vj = 0
                    while den % p == 0:
                        vj += 1
                        den //= p
                    v -= vj
                    checked += 1
                    if v != s - vj:
                        bad.append(
                            {"p": p, "s": s, "l": l, "j": j, "got": v,
                             "expected": s - vj}
                        )
                        if len(bad) > 4:
                            return SuiteReport(
                                "valpro", {"p_max": p_max, "s_max": s_max},
                                checked, bad, perf_counter() - t0,
                            )
    return SuiteReport(
        "valpro", {"p_max": p_max, "s_max": s_max}, checked, bad, perf_counter() - t0
    )


def bipro_suite(p_max: int = 13, s_max: int = 4, s_min: int = 2) -> SuiteReport:
    """Digit-shift congruences mod p^2 for odd p <= p_max, s_min <= s <= s_max."""
    if s_min < 2:
        raise InputError("bipro needs s >= 2")
    t0 = perf_counter()
    checked = 0
    bad = []
    families = {}
    for p in _ODD_PRIMES_97:
        if p > p_max:
            break
        for s in range(s_min, s_max + 1):
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
    report = SuiteReport(
        "bipro", {"p_max": p_max, "s_max": s_max}, checked, bad, perf_counter() - t0
    )
    report.params["backend"] = backends.current_backend()
    report.params["families"] = families
    return report


def bip2_suite(s_max: int = 6) -> SuiteReport:
    """The five p = 2 digit-shift congruences mod 4, exhaustive in s <= s_max."""
    t0 = perf_counter()
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
    return SuiteReport("bip2", {"s_max": s_max}, checked, bad, perf_counter() - t0)


_SUITES = {
    "abc": abc_suite,
    "pzero": pzero_suite,
    "valpro": valpro_suite,
    "bipro": bipro_suite,
    "bip2": bip2_suite,
}


def verify_identity_suite(name: str, **overrides) -> SuiteReport:
    """Run one suite by name.  Range overrides (p_max, s_max) apply only to
    the suites that take them; others are dropped."""
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    fn = _SUITES[name]
    accepted = set(inspect.signature(fn).parameters)
    return fn(**{k: v for k, v in overrides.items() if k in accepted})


def all_suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))
