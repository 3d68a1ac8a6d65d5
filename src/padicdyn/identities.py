"""Exhaustive finite verification of the binomial congruence identities.

Each suite sweeps a stated parameter range and reports the number of
instances checked plus any counterexamples found (expected: none).  Every
suite is exact integer arithmetic in whole-array numpy passes:

- valpro keeps v_p(C(l p^s, j)) along each row as a running sum of
  v_p(n-j+1) - v_p(j), counted from strided hits p^e | j in int8, never
  from Legendre's formula, so it checks the lemma instead of restating it.
- abc and pzero weigh one table of rows C(r, .) mod p^2 against one table
  of running tap sums per p: one product per p for all r.
- bipro keeps the Pascal rows C(m, .) and C(m + p^s, .) mod p^2 side by
  side in one uint16 row, advances both with one Pascal step, and compares
  16 rows at a time with their tap sums (`backends.bipro_scan`).
- bip2 reads the five congruences of each s from one Pascal table mod 4.

The abc, pzero and bipro sweeps stop at p = 97, which keeps every int64
sum below p^7 < 2^63; a larger p_max is refused.  valpro and bipro also
refuse a range with more instances than their work limit, since their work
grows as p^s_max and p^(2 s_max) whatever the prime bound; bip2 refuses an
s_max above 9.
"""

from __future__ import annotations

import inspect
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
_VALPRO_CHUNK = 1 << 16

# most instances a range of valpro or bipro may hold
_WORK_LIMITS = {"valpro": 10**9, "bipro": 1 << 31}

# largest s_max bip2 takes: s_max 9 takes milliseconds, but its Pascal table
# holds 4^(s_max + 1) bytes, 1 MB at 9 and four times more at each step
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


def check_ranges(names, overrides: dict) -> dict:
    """Refuse, before any suite runs, a range that one of the named suites
    caps: first a p_max above the prime bound, then a range beyond the
    work limit.  Returns the keyword arguments each suite runs with: its
    defaults, updated by the overrides it takes."""
    args = {}
    for name in names:
        if name not in _SUITES:
            raise InputError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
        params = inspect.signature(_SUITES[name]).parameters
        args[name] = {k: v.default for k, v in params.items()}
        args[name].update({k: v for k, v in overrides.items() if k in params})
    for name in names:
        if "p_max" in args[name]:
            check_p_max(name, args[name]["p_max"])
    for name in names:
        _check_work(name, args[name])
    return args


def _odd_primes(suite: str, p_max: int) -> list[int]:
    check_p_max(suite, p_max)
    return [p for p in _ODD_PRIMES_97 if p <= p_max]


def _double_sums(p: int, tail: bool) -> np.ndarray:
    """The abc (tail) or pzero double sum of each row r = 0..p-1.  Its weight
    (-1)^(r-l+1) l is (-1)^(r+1) u(l), u(l) = (-1)^l l, so the sum of row r is
    (-1)^(r+1) sum_t C(r, t) K(t, .), with K(t, c) the running sum of
    C(p, j) u(t + j) over 1 <= j < c, t + j < p: pzero reads K(t, p - r),
    abc K(t, p) less the correlation sum_{j=1}^{t-1} C(p, j) u(t - j).  Each
    sum is below p^7 < 2^63 for p <= 97, so int64 is exact."""
    ls = np.arange(p, dtype=np.int64)
    # rows 0..p-1 of one Pascal table mod p^2 are C(r, .), row p the taps C(p, j)
    table = backends.pascal_rows([1] + [0] * (p - 1), p + 1, p * p).astype(np.int64)
    rows, taps = table[:p], np.where(ls > 0, table[p], 0)
    u = np.concatenate([np.where(ls % 2 == 0, ls, -ls), np.zeros_like(ls)])  # 0 past l = p - 1
    running = np.cumsum(taps * u[ls[:, None] + ls], axis=1)  # K(t, c) at column c - 1
    if tail:
        sums = rows @ (running[:, p - 1] - np.convolve(taps, u[:p])[:p])
    else:
        sums = np.einsum("rt,tr->r", rows, running[:, ::-1])
    return np.where(ls % 2 == 1, sums, -sums)


def _double_sum_suite(name: str, p_max: int, r_min: int) -> SuiteReport:
    checked = 0
    bad = []
    for p in _odd_primes(name, p_max):
        residues = _double_sums(p, name == "abc")[r_min:] % (p * p)
        checked += len(residues)
        bad += [{"p": p, "r": r_min + i, "residue": int(residues[i])}
                for i in np.flatnonzero(residues).tolist()]
    return SuiteReport(name, {"p_max": p_max}, checked, bad)


def abc_suite(p_max: int = 97) -> SuiteReport:
    """(A + B + C)(p, r) = 0 mod p^2 for odd primes p <= p_max, 1 <= r < p,
    from the running sums K(t, p) less one correlation (`_double_sums`)."""
    return _double_sum_suite("abc", p_max, 1)


def pzero_suite(p_max: int = 97) -> SuiteReport:
    """The complementary double sum is 0 mod p^2 for odd primes p <= p_max,
    2 <= r < p, from the running sums K(t, p - r) (`_double_sums`)."""
    return _double_sum_suite("pzero", p_max, 2)


def valpro_claim(s, vj):
    """The lemma's value of v_p(C(l p^s, j)), from s and v_p(j) (integers
    or arrays of them)."""
    return s - vj


def valpro_suite(p_max: int = 13, s_max: int = 4) -> SuiteReport:
    """v_p(C(l p^s, j)) = s - v_p(j) for 1 <= j < l p^s, 1 <= l <= p-1.

    Along each row, v_p(C(n, j)) = v_p(C(n, j-1)) + v_p(n-j+1) - v_p(j),
    taken in chunks of j: v_p(j) and v_p(n-j+1) are strided adds of 1 at
    j = 0 and j = n+1 mod p^e for every p^e <= n, and the running valuation
    is the carried value plus a cumulative sum, all in int8: a valuation in
    row l p^s is at most s, and the work limit admits s <= 28 (p = 2 up to
    s_max 28), so none passes 29.  The sweep stops at the fifth
    counterexample.
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
                    vj = np.zeros(size, dtype=np.int8)  # v_p(j), j = start + i
                    vnum = np.zeros(size, dtype=np.int8)  # v_p(n - j + 1)
                    for pe in powers:
                        vj[-start % pe :: pe] += 1
                        vnum[(n + 1 - start) % pe :: pe] += 1
                    running = np.cumsum(vnum - vj, dtype=np.int8) + v
                    claim = valpro_claim(s, vj)
                    for i in np.flatnonzero(running != claim).tolist():
                        bad.append({"p": p, "s": s, "l": l, "j": start + i,
                                    "got": int(running[i]), "expected": int(claim[i])})
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
    """The five p = 2 digit-shift congruences mod 4, exhaustive in s <= s_max,
    as one (alpha, beta, case) array per s over one Pascal table mod 4: its
    failures come out in the order of a loop over alpha, beta, case."""
    checked = 0
    bad = []
    size = 2 ** max(s_max + 1, 0)  # C(n, k) mod 4 for n, k < size, one byte each
    C = backends.pascal_rows([1] + [0] * (size - 1), size, 4)
    for s in range(2, s_max + 1):
        h = 2 ** (s - 1)
        # T[alpha, beta, n, k] = C(alpha + n h, beta + k h) for alpha, beta < h; f = 2h
        T = C[: 4 * h, : 4 * h].reshape(4, h, 4, h).transpose(1, 3, 0, 2)
        lhs = T[:, :, [2, 2, 3, 3, 3], [1, 2, 1, 2, 3]]
        rhs = np.stack([2 * T[:, :, 0, 0], T[:, :, 0, 0], T[:, :, 1, 1] + 2 * T[:, :, 1, 0],
                        T[:, :, 1, 0] + 2 * T[:, :, 1, 1], T[:, :, 1, 1]], axis=-1) & 3
        checked += lhs.size
        for a, b, c in zip(*(i.tolist() for i in np.nonzero(lhs != rhs))):
            bad.append({"case": str(c + 1), "s": s, "alpha": a, "beta": b,
                        "lhs_mod4": int(lhs[a, b, c]), "rhs_mod4": int(rhs[a, b, c])})
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
