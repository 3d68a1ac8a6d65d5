"""Seeded request lists for the three benchmark workloads.

Each request is the argv of one `padic-dyn` call, optional stdin text, and
what the benchmark expects of the answer.  The program sees only argv and
stdin.  Verdicts are fixed by a plan, not left to chance: inputs are drawn
from the seed and kept only when the benchmark's own oracle gives the
planned verdict, so every seed runs the same mix of code paths and costs
about the same.

Why these workloads:

- classify-deep: a ladder of classify requests at N = p^depth of 2401 to
  6561.  The per-point kernels (Mahler and van der Put series, the UD1
  sweep, the orbit oracle) do almost all the work; per-call overhead does
  almost none.
- cli-small-mix: over 200 small requests of every subcommand, where fixed
  per-request costs (parsing, prime checks, verdict objects, JSON output,
  the closed-form criteria) dominate.  A kernel that wins on big tables but
  adds overhead on tiny ones shows up here as a loss.
- verify-suites: the identity suites and the counterexample catalog, which
  run only `identities` and `backends.bipro_scan`, never `funcspace`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

import oracle

KINDS = ("polynomial", "table", "vdp", "mahler")

DEEP_LADDER = ((2, 12), (3, 8), (5, 5), (7, 4))

# (ud1, ergodic) per kind and rung of the deep ladder.  Polynomials and short
# Mahler series are always UD1.  A non-UD1 map at p = 2 is never ergodic.
DEEP_PLAN = {
    "polynomial": ((True, True), (True, False), (True, True), (True, False)),
    "mahler": ((True, False), (True, True), (True, False), (True, True)),
    "table": ((True, True), (False, True), (True, False), (False, False)),
    "vdp": ((False, False), (True, False), (False, True), (True, True)),
}

SMALL_CLASSIFY_DEPTHS = {2: (3, 5, 7, 9), 3: (3, 4, 5), 5: (2, 3, 4), 7: (2, 3)}
SMALL_EXPAND_DEPTHS = {2: (4, 6, 8), 3: (3, 4, 5), 5: (2, 3, 4), 7: (2, 3)}
GENERATE_PRIMES = (5, 7, 11)
GENERATE_EACH = 10
ENUMERATE_COUNT = 4

VERIFY_REQUESTS = (
    (("--suite", "bipro", "--p-max", "13", "--s-max", "3"), {"bipro": (13, 3)}),
    (("--suite", "bipro", "--p-max", "7", "--s-max", "4"), {"bipro": (7, 4)}),
    (("--suite", "abc"), {"abc": (None, None)}),
    (("--suite", "pzero"), {"pzero": (None, None)}),
    (("--suite", "valpro"), {"valpro": (None, None)}),
    (("--suite", "bip2"), {"bip2": (None, None)}),
    (("--counterexamples",), {}),
)

POLY_DEGREE = 5
MAX_DRAWS = 2000


@dataclass
class Request:
    argv: list[str]
    stdin: str | None = None
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    def wire(self) -> dict:
        """What the program is given: argv and stdin, nothing else."""
        return {"argv": self.argv, "stdin": self.stdin}


def _draw(make, accept, what: str):
    for _ in range(MAX_DRAWS):
        item = make()
        if accept(item):
            return item
    raise RuntimeError(f"no {what} found in {MAX_DRAWS} draws")


def _poly(rng, p, depth, ergodic):
    """Coefficients of a degree-5 polynomial with the planned verdict.

    Ergodic candidates are x + 1 + p h(x); others are unconstrained.
    """
    mod = p**depth

    def make():
        if ergodic:
            h = [rng.randrange(p ** (depth - 1)) for _ in range(POLY_DEGREE + 1)]
            coeffs = [p * c for c in h]
            coeffs[0] += 1
            coeffs[1] += 1
        else:
            coeffs = [rng.randrange(mod) for _ in range(POLY_DEGREE + 1)]
        return [c % mod for c in coeffs]

    def accept(coeffs):
        return oracle.is_single_cycle(oracle.poly_table(coeffs, p, depth)) == ergodic

    return _draw(make, accept, f"polynomial p={p} depth={depth} ergodic={ergodic}")


def _table(rng, p, depth, ud1, ergodic):
    """A value table with the planned UD1 and ergodicity verdicts.

    UD1 tables tabulate a polynomial.  The others start from an ergodic
    x + 1 + p h(x) and add p^(depth-1) c(b, d), where b = x mod p^(depth-1)
    and d is the top digit of x.  c is zero except at two base points b,
    where d + c(b, d) is a permutation of the digits (p > 2) or a constant
    (p = 2), and c(0, 1) != c(0, 0).  The map stays 1-Lipschitz and
    unchanged below the top level, the direct UD1 sweep fails at u = 0, and
    the orbit oracle has to walk every level.  For p = 2 such a map is never
    bijective, so a non-UD1 table at p = 2 is never ergodic.
    """
    if ud1:
        return oracle.poly_table(_poly(rng, p, depth, ergodic), p, depth)
    if depth < 3 or (p == 2 and ergodic):
        raise ValueError(f"no non-UD1 ergodic plan at p={p} depth={depth}")
    base = oracle.poly_table(_poly(rng, p, depth, True), p, depth)
    top = p ** (depth - 1)
    xs = np.arange(p**depth)
    low, digit = xs % top, xs // top

    def fiber_map():
        while True:
            perm = rng.sample(range(p), p) if p > 2 else [rng.randrange(2)] * 2
            if perm[1] != (perm[0] + 1) % p:
                return np.array([(perm[d] - d) % p for d in range(p)])

    def make():
        shift = np.zeros(p**depth, dtype=np.int64)
        for point in (0, rng.randrange(1, top)):
            at = low == point
            shift[at] = fiber_map()[digit[at]]
        return (base + top * shift) % p**depth

    def accept(table):
        return oracle.is_single_cycle(table) == ergodic

    table = _draw(make, accept, f"non-UD1 table p={p} depth={depth}")
    if oracle.is_ud1(table, p, depth) or not oracle.is_lipschitz(table, p, depth):
        raise RuntimeError("perturbed table is not a 1-Lipschitz non-UD1 map")
    return table


def _mahler(rng, p, depth, ergodic):
    """p^2 Mahler terms in the UD1 class with the planned verdict.

    a_n needs v_p(a_n) >= 1 for p <= n < p^2, and >= 2 when p is odd and the
    leading digit of n is at least 2.  Ergodic candidates reduce to x + 1 mod p.
    """
    mod = p**depth

    def make():
        terms = []
        for n in range(p * p):
            if n < p:
                if ergodic:
                    low = 1 if n < 2 else 0
                    terms.append((low + p * rng.randrange(mod // p)) % mod)
                else:
                    terms.append(rng.randrange(mod))
            else:
                need = 2 if p > 2 and n // p >= 2 else 1
                terms.append(p**need * rng.randrange(max(1, mod // p**need)) % mod)
        return terms

    def accept(terms):
        table = oracle.mahler_table(terms, p, depth)
        return oracle.is_single_cycle(table) == ergodic

    return _draw(make, accept, f"Mahler series p={p} depth={depth}")


def classify_request(rng, p, depth, kind, ud1, ergodic) -> Request:
    expect = {"p": p, "depth": depth, "kind": kind, "ud1": ud1, "ergodic": ergodic}
    if kind == "polynomial":
        coeffs = _poly(rng, p, depth, ergodic)
        text = "+".join(f"{c}x^{i}" if i else str(c) for i, c in enumerate(coeffs))
        return Request(["classify", text, "-p", str(p), "--depth", str(depth)], None, expect)
    if kind == "mahler":
        terms = _mahler(rng, p, depth, ergodic)
        data = {"kind": "mahler", "p": p, "k": depth, "terms": [str(t) for t in terms]}
    else:
        table = _table(rng, p, depth, ud1, ergodic)
        if kind == "table":
            data = {"kind": "table", "p": p, "depth": depth, "values": table.tolist()}
        else:
            terms = oracle.vdp_terms(table, p, p**depth)
            data = {"kind": "vdp", "p": p, "k": depth, "terms": [str(t) for t in terms]}
    return Request(["classify", "-"], json.dumps(data), expect)


def _classify_deep(rng) -> list[Request]:
    out = []
    for rung, (p, depth) in enumerate(DEEP_LADDER):
        for kind in KINDS:
            ud1, ergodic = DEEP_PLAN[kind][rung]
            out.append(classify_request(rng, p, depth, kind, ud1, ergodic))
    return out


def _small_plan(kind, p, depth):
    """Two (ud1, ergodic) variants per kind; non-UD1 maps need depth >= 3."""
    if kind == "table":
        return ((True, True), (False, False) if depth >= 3 else (True, False))
    if kind == "vdp":
        return ((False, p > 2) if depth >= 3 else (True, True), (True, False))
    return ((True, True), (True, False))


def expand_request(rng, p, depth, basis, inline) -> Request:
    coeffs = [rng.randrange(p**depth) for _ in range(POLY_DEGREE + 1)]
    table = oracle.poly_table(coeffs, p, depth)
    count = p**depth
    argv = ["expand"]
    stdin = None
    if inline:
        argv.append(",".join(str(c) for c in coeffs))
        argv += ["-p", str(p), "--depth", str(depth)]
    else:
        argv.append("-")
        stdin = json.dumps({"kind": "table", "p": p, "depth": depth, "values": table.tolist()})
    argv += ["--basis", basis, "--count", str(count), "--normalized"]
    expect = {"p": p, "k": depth, "basis": basis, "values": table.tolist()}
    return Request(argv, stdin, expect)


def _cli_small_mix(rng) -> list[Request]:
    out = []
    for p, depths in SMALL_CLASSIFY_DEPTHS.items():
        for depth in depths:
            for kind in KINDS:
                for ud1, ergodic in _small_plan(kind, p, depth):
                    out.append(classify_request(rng, p, depth, kind, ud1, ergodic))
    for p, depths in SMALL_EXPAND_DEPTHS.items():
        for depth in depths:
            for basis in ("mahler", "vdp"):
                for inline in (True, False):
                    out.append(expand_request(rng, p, depth, basis, inline))
    for p in GENERATE_PRIMES:
        for route in ("mahler", "poly"):
            for _ in range(GENERATE_EACH):
                argv = ["generate", "-p", str(p), "--seed", str(rng.randrange(10**6))]
                if route == "poly":
                    argv += ["--route", "poly"]
                out.append(Request(argv, None, {"p": p, "route": route}))
    for _ in range(ENUMERATE_COUNT):
        out.append(Request(["enumerate", "--crosscheck"], None, {}))
    rng.shuffle(out)
    return out


def _verify_suites(rng) -> list[Request]:
    out = []
    for args, ranges in VERIFY_REQUESTS:
        expect = {
            "suites": {
                name: oracle.suite_checked(name, p_max, s_max)
                for name, (p_max, s_max) in ranges.items()
            },
            "counterexamples": "--counterexamples" in args,
        }
        out.append(Request(["verify", *args], None, expect))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "classify-deep": _classify_deep,
    "cli-small-mix": _cli_small_mix,
    "verify-suites": _verify_suites,
}


def warmup() -> list[Request]:
    """Untimed requests that run the code paths of every workload: a third of
    a small-mix pass from a seed no run uses, and every suite at a tiny range."""
    small = _cli_small_mix(random.Random("warmup"))[::3]
    suites = Request(["verify", "--suite", "all", "--p-max", "5", "--s-max", "2",
                      "--counterexamples"])
    return small + [suites]


def build(name: str, seed: int) -> list[Request]:
    """The request list of one workload; the same seed gives the same list."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
