"""Write the frozen CLI corpus that tests/test_corpus.py replays.

Each case is the argv (and optional stdin) of one `padic-dyn` call together
with the stdout and exit code the program gave when the corpus was frozen.
The replay test requires both to stay byte-identical, so a refactor of the
numeric core cannot change any answer unnoticed.  The one exception is the
wall time of a verify suite: `mask_timings` writes every
`"elapsed_seconds": <number>` as `"elapsed_seconds": null`, both here and in
the replay, and the rest of the output must still match byte for byte.

Regenerate only on purpose, when an output is meant to change:

    PYTHONPATH=src python3 tests/data/make_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

from padicdyn import cli

OUT = Path(__file__).with_name("cli_corpus.json")

PRIMES_DEPTHS = ((2, 6), (3, 4), (5, 3), (7, 3))


def _poly_table(coeffs, p, depth):
    mod = p**depth
    out = []
    for x in range(mod):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append(acc % mod)
    return out


def _vdp_terms(table, p):
    terms = []
    for m, value in enumerate(table):
        if m < p:
            terms.append(value)
            continue
        top = p
        while top * p <= m:
            top *= p
        terms.append(value - table[m % top])  # m % top drops the leading digit
    return terms


def _digits(n, p):
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def _cases(rng: random.Random) -> list[dict]:
    cases = []

    def add(argv, stdin=None):
        cases.append({"argv": argv, "stdin": stdin})

    for p, depth in PRIMES_DEPTHS:
        mod = p**depth
        top = p ** (depth - 1)
        ergodic = [1 + p * rng.randrange(mod), 1 + p * rng.randrange(mod)]
        ergodic += [p * rng.randrange(mod) for _ in range(3)]
        other = [rng.randrange(mod) for _ in range(5)]
        for coeffs in (ergodic, other):
            text = "+".join(f"{c}x^{i}" if i else str(c) for i, c in enumerate(coeffs))
            add(["classify", text, "-p", str(p), "--depth", str(depth)])
        add(["classify", ",".join(map(str, other)), "-p", str(p), "--depth", "2"])

        ud1_table = _poly_table(ergodic, p, depth)
        # 1-Lipschitz but not UD1: perturb the top digit only
        lip_table = [(v + top * rng.randrange(p)) % mod for v in ud1_table]
        wild_table = [rng.randrange(mod) for _ in range(mod)]
        for table in (ud1_table, lip_table, wild_table):
            blob = {"kind": "table", "p": p, "depth": depth, "values": table}
            add(["classify", "-"], json.dumps(blob))
        for table in (ud1_table, lip_table, wild_table):
            terms = [str(t) for t in _vdp_terms(table, p)]
            blob = {"kind": "vdp", "p": p, "k": depth, "terms": terms}
            add(["classify", "-"], json.dumps(blob))
            short = {"kind": "vdp", "p": p, "k": depth, "terms": terms[: p * p]}
            add(["classify", "-"], json.dumps(short))

        # Mahler series: the UD1 divisibility profile, the 1-Lipschitz floor
        # v_p(a_n) >= e(n) only, and unconstrained terms
        admissible = []
        for n in range(p * p):
            need = 0 if n < p else (2 if p > 2 and n // p >= 2 else 1)
            admissible.append(p**need * rng.randrange(mod) % mod)
        admissible[0], admissible[1] = 1, 1 + p * admissible[1] % mod
        floor = [p ** (len(_digits(n, p)) - 1 if n else 0) * rng.randrange(mod) % mod
                 for n in range(p**3)]
        free = [rng.randrange(mod) for _ in range(p * p)]
        for terms in (admissible, floor, free):
            blob = {"kind": "mahler", "p": p, "k": depth, "terms": [str(t) for t in terms]}
            add(["classify", "-"], json.dumps(blob))

        for basis in ("mahler", "vdp"):
            add(["expand", ",".join(map(str, other)), "-p", str(p), "--depth", str(depth),
                 "--basis", basis, "--count", str(mod), "--normalized"])
            add(["expand", "x^3+x+1", "-p", str(p), "--depth", "2", "--basis", basis,
                 "--count", str(3 * p * p)])
            for table in (lip_table, wild_table):
                blob = {"kind": "table", "p": p, "depth": depth, "values": table}
                add(["expand", "-", "--basis", basis, "--count", str(mod), "--normalized"],
                    json.dumps(blob))
            blob = {"kind": "mahler", "p": p, "k": depth,
                    "terms": [str(t) for t in admissible]}
            add(["expand", "-", "--basis", basis, "--count", str(2 * p * p),
                 "--normalized"], json.dumps(blob))

    add(["classify", "x+1", "-p", "3"])
    add(["classify", "x+1", "-p", "5", "--depth", "3"])
    add(["classify", "x+1", "-p", "7", "--depth", "3"])
    add(["classify", "1+3x+2x^3", "-p", "2"])
    add(["classify", "1+x-12345678901234567890123x^2", "-p", "3", "--depth", "5"])
    add(["expand", "x+1", "-p", "2147483647", "--depth", "2", "--count", "3",
         "--basis", "mahler"])
    add(["expand", "x^2+x+1", "-p", "2147483647", "--depth", "2", "--count", "4"])
    add(["expand", "x^2+7x+1", "-p", "65521", "--depth", "2", "--count", "4",
         "--basis", "mahler", "--normalized"])
    add(["expand", "x^2+7x+1", "-p", "65521", "--depth", "2", "--count", "4"])
    add(["expand", "99999999999999999999999x^3+x", "-p", "5", "--depth", "3",
         "--basis", "mahler", "--count", "6"])
    add(["enumerate", "--crosscheck"])
    add(["enumerate"])

    # generate on both routes (fixed seeds, several instances per call), the
    # explicit Mahler-route data, and the counterexample catalog
    for p in (5, 7, 11, 13):
        for route in ("mahler", "poly"):
            for seed in (1, 2):
                add(["generate", "-p", str(p), "--route", route, "--seed", str(seed),
                     "--count", "3"])
    add(["generate", "-p", "5", "--phi", "1,2,3,4,0", "--bvec", "2,3,1,1,1",
         "--lift", "1,0,2,0,3,0,4,1,0,2"])
    add(["generate", "-p", "7", "--lift", "1,2,3,4,5,6,0,1,2,3,4,5,6,0", "--seed", "3"])
    add(["verify", "--counterexamples"])
    _late_witness_cases(add)
    _verify_cases(add)
    return cases


def _series_blob(kind, p, k, terms):
    return json.dumps({"kind": kind, "p": p, "k": k, "terms": [str(t) for t in terms]})


def _late_witness_cases(add) -> None:
    """Inputs on which each coefficient route fails only at a late witness,
    so a route that scans in the wrong order or stops early is seen; and
    series carried beyond int64, which classify must reduce exactly."""
    p, depth = 3, 5
    mod = p**depth
    ud1 = _vdp_terms(_poly_table([1, 1, 3, 9], p, depth), p)
    # vdp relations at the top level s = 4 (step 81): level-linearity at
    # r = 60, l = 2; cross-level at r = 77 with linearity kept; the
    # normalization of B_{80 + 81}, which is not 1-Lipschitz (exit 2)
    linear = list(ud1)
    linear[60 + 162] = (linear[60 + 162] + 81) % mod
    cross = list(ud1)
    cross[77 + 81] = (cross[77 + 81] + 81) % mod
    cross[77 + 162] = (cross[77 + 162] + 162) % mod
    unnormal = list(ud1)
    unnormal[80 + 81] = (unnormal[80 + 81] + 1) % mod
    # measure preservation: equal branch residues at s = 4, k = 70
    branch = list(ud1)
    branch[70 + 162] = branch[70 + 81]
    for terms in (linear, cross, unnormal, branch):
        add(["classify", "-"], _series_blob("vdp", p, depth, terms))
    # p = 2 has no level-linearity; cross-level at s = 5, r = 29
    two = _vdp_terms(_poly_table([1, 5, 2, 4], 2, 6), 2)
    two[29 + 32] = (two[29 + 32] + 32) % 64
    add(["classify", "-"], _series_blob("vdp", 2, 6, two))

    # Mahler predicate: the UD1 profile except one late term one digit short,
    # at a leading digit >= 2 (p = 5, n = 24) and at level s = 2 (p = 3, n = 25)
    for p, depth, bad in ((5, 3, 24), (3, 4, 25)):
        mod = p**depth
        terms = [p ** required_valuation(n, p) * (n + 1) % mod for n in range(p * p * 3)]
        terms[:2] = [1, 1]
        terms[bad] = p ** (required_valuation(bad, p) - 1) * 2 % mod
        add(["classify", "-"], _series_blob("mahler", p, depth, terms[: bad + 2]))

    # 1-Lipschitz test failing first at index 61 in both bases (without
    # --normalized, which would refuse the series)
    table = _poly_table([1, 5, 2, 4], 2, 6)
    table[61] = (table[61] + 1) % 64
    blob = json.dumps({"kind": "table", "p": 2, "depth": 6, "values": table})
    for basis in ("vdp", "mahler"):
        add(["expand", "-", "--basis", basis, "--count", "64"], blob)

    # series known mod 3^45 > 2^63, classified at depth 4
    wide = 3**45
    mahler = [1, 1 + 3 * 10**20] + [3 ** required_valuation(n, 3) * (7**n + 10**19) % wide
                                    for n in range(2, 9)]
    add(["classify", "-", "--depth", "4"], _series_blob("mahler", 3, 45, mahler))
    vdp = [(t + 81 * 10**19 * (m + 1)) % wide
           for m, t in enumerate(_vdp_terms(_poly_table([2, 4, 3], 3, 4), 3))]
    add(["classify", "-", "--depth", "4"], _series_blob("vdp", 3, 45, vdp))


def _verify_cases(add) -> None:
    """Every identity suite at small ranges, and abc, pzero, valpro and bip2
    at their default ranges, alone and together."""
    for suite, p_max, s_max in (("abc", 13, None), ("pzero", 13, None),
                                ("valpro", 5, 2), ("valpro", 7, 3),
                                ("bipro", 5, 2), ("bipro", 3, 3), ("bip2", None, 4)):
        argv = ["verify", "--suite", suite]
        if p_max is not None:
            argv += ["--p-max", str(p_max)]
        if s_max is not None:
            argv += ["--s-max", str(s_max)]
        add(argv)
    for suite in ("abc", "pzero", "valpro", "bip2"):
        add(["verify", "--suite", suite])
    add(["verify", "--suite", "abc", "--suite", "pzero", "--suite", "valpro",
         "--p-max", "7", "--s-max", "2"])
    add(["verify", "--suite", "pzero", "--p-max", "3"])  # checks p = 3, r = 2 only
    add(["verify", "--suite", "pzero", "--p-max", "2"])  # checks nothing: exit 2


_ELAPSED = re.compile(r'"elapsed_seconds": [-+0-9.eE]+')


def mask_timings(stdout: str) -> str:
    """stdout with every suite's wall time replaced by null: the one field
    of a verify report that differs from run to run."""
    return _ELAPSED.sub('"elapsed_seconds": null', stdout)


def required_valuation(n: int, p: int) -> int:
    """v_p(a_n) that the Mahler UD1 predicate demands at index n."""
    if n < p:
        return 0
    s = len(_digits(n, p)) - 1
    return s + 1 if s >= 2 or (p > 2 and n // p**s >= 2) else s


def run_case(case: dict) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    stdin = io.StringIO(case["stdin"] or "")
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(case["argv"])
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    finally:
        sys.stdin = saved
    return code, mask_timings(out.getvalue())


def main() -> None:
    cases = _cases(random.Random("padicdyn-corpus"))
    for case in cases:
        case["exit"], case["stdout"] = run_case(case)
    OUT.write_text(json.dumps(cases, indent=1) + "\n")
    codes = [c["exit"] for c in cases]
    print(f"{len(cases)} cases, exit codes {sorted(set(codes))}: "
          + ", ".join(f"{k}x{codes.count(k)}" for k in sorted(set(codes))))


if __name__ == "__main__":
    main()
