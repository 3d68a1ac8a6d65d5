"""Scalar reference oracles for the array value core.

These are the point-by-point computations the package used before its
series and the direct UD1 sweep were derived from one value array, and
before the formal derivative of a Mahler sum was converted to the power
basis once for all points: every value comes from `PadicFunction.evaluate`
or from exact rationals, every loop is plain Python.  They are slow on
purpose and serve only as independent references in tests.
"""

from fractions import Fraction

from padicdyn.analysis import DerivedFunction, UD1Report
from padicdyn.arith import inverse_mod, m_minus
from padicdyn.errors import InternalCheckError
from padicdyn.funcspace import CoefficientSeries, PadicFunction
from padicdyn.verdict import failing, passing


def mahler_reference(f: PadicFunction, count: int, k: int) -> CoefficientSeries:
    """a_n by iterated forward differences of f(0), f(1), ..., mod p^k."""
    mod = f.prime**k
    diffs = [f.evaluate(x, k) for x in range(count)]
    out = []
    for _ in range(count):
        out.append(diffs[0])
        diffs = [(diffs[i + 1] - diffs[i]) % mod for i in range(len(diffs) - 1)]
    return CoefficientSeries("mahler", f.prime, k, tuple(out))


def vdp_reference(f: PadicFunction, count: int, k: int) -> CoefficientSeries:
    """B_m = f(m) for m < p, else f(m) - f(m^-), mod p^k."""
    p = f.prime
    out = []
    for m in range(count):
        if m < p:
            out.append(f.evaluate(m, k))
        else:
            out.append(f.evaluate(m, k) - f.evaluate(m_minus(m, p), k))
    return CoefficientSeries("vdp", p, k, tuple(out))


def ud1_reference(f: PadicFunction, s_max: int | None = None) -> UD1Report:
    """The direct UD1 definition sweep, one point at a time: integrality of
    f(u + p) - f(u) for every u first, then every (u, s, h) in u-major,
    then s, then h order."""
    if s_max is None:
        s_max = f.depth - 1
    p = f.prime
    window = p**f.depth
    derived = []
    for u in range(window):
        base = f.evaluate(u)
        diff = f.evaluate(u + p) - base
        if diff % p != 0:
            return UD1Report(
                failing(
                    "ud1-direct",
                    "derivative-integrality",
                    witness={"u": u, "difference": diff % window},
                    depth=f.depth,
                ),
                None,
            )
        derived.append((diff // p) % p)
    for u in range(window):
        base = f.evaluate(u)
        d = derived[u]
        for s in range(1, s_max + 1):
            mod = p ** (s + 1)
            step = p**s
            for h in range(1, p):
                lhs = f.evaluate(u + step * h) % mod
                rhs = (base + step * h * d) % mod
                if lhs != rhs:
                    return UD1Report(
                        failing(
                            "ud1-direct",
                            "congruence",
                            witness={"u": u, "s": s, "h": h, "lhs": lhs, "rhs": rhs},
                            depth=f.depth,
                        ),
                        DerivedFunction(p, 1, tuple(derived)),
                    )
    return UD1Report(
        passing("ud1-direct", depth=f.depth, s_max=s_max),
        DerivedFunction(p, 1, tuple(derived)),
    )


def mahler_derivative_residue_reference(terms, x: int, p: int) -> int:
    """Formal derivative of a finite Mahler sum at one integer, mod p.

    The sum is converted to the power basis over exact rationals for this
    one point; the denominators are prime to p for the lengths used here
    (< 2p).
    """
    coeffs: list[Fraction] = [Fraction(0)] * (len(terms) + 1)
    binom_poly = [Fraction(1)]  # C(x, 0)
    for m, a in enumerate(terms):
        if m > 0:
            # C(x, m) = C(x, m-1) * (x - m + 1) / m
            new = [Fraction(0)] * (len(binom_poly) + 1)
            for i, coef in enumerate(binom_poly):
                new[i + 1] += coef / m
                new[i] += coef * Fraction(-(m - 1), m)
            binom_poly = new
        for i, coef in enumerate(binom_poly):
            coeffs[i] += a * coef
    value = Fraction(0)
    for i in range(1, len(coeffs)):
        value += i * coeffs[i] * x ** (i - 1)
    if value.denominator % p == 0:
        raise InternalCheckError("derivative residue has p in the denominator")
    return value.numerator * inverse_mod(value.denominator % p, p) % p
