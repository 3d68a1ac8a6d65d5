"""Finite-depth function space on Z_p and its two coefficient bases.

A function is carried in one of four interchangeable forms: integer
polynomial, value table mod p^depth, Mahler coefficient series, or van der
Put coefficient series.  Coefficient series live mod p^k.  Each form
yields one exact value array over a window of arguments, from which both
series, every level table and every reduced map are derived, so a change
of basis goes through the values; `evaluate` computes single points.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import backends
from .arith import require_nonnegative, require_prime
from .errors import InputError, NormalizationError, PreconditionError
from .verdict import CriterionVerdict, failing, passing

_TABLE_LIMIT = 1 << 26

# an integer given as text; text of ASCII digits and signs only, where int()
# reads exactly these integers and refuses the rest
_INT_TEXT = re.compile(r"[+-]?[0-9]+")
_INT_CHARS = re.compile(r"[0-9+-]*")

# the longest series of each kind, and its name: the Mahler difference table
# is quadratic in the length where its differences do not vanish mod p^k
# (tables of maps that are not polynomials, van der Put series, long Mahler
# input) and stops early where they do; a van der Put series is linear work,
# but expand holds it several times over (value array, terms, JSON text); its
# limit is at or above the Mahler one, so it never binds classify
_SERIES_LIMITS = {"mahler": ("Mahler", 1 << 18), "vdp": ("van der Put", 1 << 20)}

# the value array of a polynomial costs one Horner pass over the window per
# degree (`backends.poly_tables`): about 6 ns a point in int64, about 30
# times that on Python integers, where p^depth times the window passes int64
_HORNER_LIMIT = 10**8
_WIDE_HORNER_LIMIT = 1 << 22

# generate's 2p Mahler terms over p^3 points: 9.5 s at p = 149 (9.9e8), 2-vCPU Xeon
_MAHLER_WORK_LIMIT = 10**9

# residues live below p^depth; every modulus below this bound, (2^31 - 1)^12
# among them, keeps a residue short enough to compute with and to print
_MODULUS_BITS = 372


def _check_depth(p: int, depth: int) -> None:
    if not isinstance(depth, int) or depth < 1:
        raise InputError(f"depth must be a positive integer, got {depth!r}")
    _check_modulus(p, depth)


def _check_modulus(p: int, depth: int) -> None:
    """Refuse p^depth at or above 2^_MODULUS_BITS, without forming a huge
    power: p^depth >= 2^(depth (bitlen(p) - 1))."""
    if depth * (p.bit_length() - 1) >= _MODULUS_BITS or p**depth >> _MODULUS_BITS:
        raise InputError(
            f"the modulus {p}^{depth} is not below the modulus limit 2^{_MODULUS_BITS}"
        )


def check_window(p: int, depth: int, npoints: int, degree: int | None = None,
                 terms: int | None = None, count: int = 1) -> None:
    """Refuse a window of npoints values above the materialization limit, and
    a Mahler series of `terms` terms or else a polynomial of the given degree
    whose terms or degree times the window exceeds its budget, once or
    `count` times over (generate's --count)."""
    if npoints > _TABLE_LIMIT:
        raise InputError(
            f"a window of {npoints} values at p={p}, depth {depth} exceeds "
            f"the materialization limit of {_TABLE_LIMIT} points"
        )
    if terms is not None:
        size, limit, budget = terms, _MAHLER_WORK_LIMIT, "terms x window"
    elif degree is not None:
        wide = backends.int_dtype(p**depth, npoints) is object
        size, budget = degree, "degree x window"
        limit = _WIDE_HORNER_LIMIT if wide else _HORNER_LIMIT
    else:
        return
    if count * size * npoints <= limit:
        return
    what = (f"a Mahler series of {terms} terms" if terms is not None
            else f"a polynomial of degree {degree}")
    what += f" over a window of {npoints} values at p={p}, depth {depth}"
    budget = f"the {budget} budget of {limit}" + (
        " for residues beyond int64" if terms is None and wide else "")
    if size * npoints > limit:
        raise InputError(f"{what} exceeds {budget}")
    raise InputError(f"--count {count} instances of {what} exceed {budget}")


def parse_int(value) -> int:
    """An int (not a bool), or a string of ASCII decimal digits with an
    optional sign, as an exact integer.  Anything else is refused, not read
    as another number: int() reads the JSON float 1.5 and true as 1, and
    the strings "1_0", " 3 " and non-ASCII digits as integers too."""
    if isinstance(value, str) and _INT_TEXT.fullmatch(value):
        try:
            return int(value)
        except ValueError as exc:  # past int()'s digit limit
            raise InputError(f"not an integer: {exc}") from None
    if isinstance(value, (bool, str)) or not hasattr(value, "__index__"):
        raise InputError(f"not an integer: {value!r}")
    return operator.index(value)


def parse_ints(values) -> tuple[int, ...]:
    """parse_int of each entry; ints only are taken as is, and strings only
    are checked in one pass over their joined text."""
    values = tuple(values)
    types = set(map(type, values))
    if types <= {int}:
        return values
    if types == {str} and _INT_CHARS.fullmatch("".join(values)):
        try:
            return tuple(map(int, values))
        except ValueError:  # an empty entry, a stray sign, or past the digit limit
            pass
    return tuple(map(parse_int, values))


def check_series_length(kind: str, p: int, depth: int, count: int) -> None:
    """Refuse a series of the kind ("mahler" or "vdp") longer than its
    length limit."""
    name, limit = _SERIES_LIMITS[kind]
    if count > limit:
        raise InputError(
            f"a {name} series of {count} terms at p={p}, depth {depth} exceeds "
            f"the {name} length limit of {limit} terms"
        )


def index_levels(stop: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """e(i) and p^e(i) for 0 <= i < stop, as two int64 arrays."""
    level = np.zeros(stop, dtype=np.int64)
    lead = np.ones(stop, dtype=np.int64)
    power = p
    while power < stop:
        level[power:] += 1
        lead[power:] = power
        power *= p
    return level, lead


def _index_level(i: int, p: int) -> int:
    """e(i) for one index i, by a scalar loop."""
    return next(e for e in range(i + 1) if p ** (e + 1) > i)


def powers_of(p: int, exponents: np.ndarray, dtype) -> np.ndarray:
    """p^exponents elementwise, in dtype (exact Python integers for object)."""
    table = np.array([p**k for k in range(int(exponents.max(initial=0)) + 1)], dtype=dtype)
    return table[exponents]


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """A finite run of basis coefficients known mod p^exponent.

    kind is "mahler" (terms[n] = a_n) or "vdp" (terms[m] = B_m).  Terms are
    stored canonically in [0, p^exponent) as one read-only 1-D array: int64,
    or Python integers (dtype object) where p^exponent times the length
    would overflow int64.  Absent terms mean exact zero: a series of length
    L denotes the finite sum over indices < L.  Series compare and hash by
    value.
    """

    kind: str
    prime: int
    exponent: int
    terms: np.ndarray

    def __post_init__(self):
        if self.kind not in ("mahler", "vdp"):
            raise InputError(f"unknown series kind {self.kind!r}")
        require_prime(self.prime)
        if self.exponent < 1:
            raise InputError(f"series exponent must be >= 1, got {self.exponent}")
        _check_modulus(self.prime, self.exponent)
        if len(self.terms) < 1:
            raise InputError("series needs at least one term")
        if np.ndim(self.terms) != 1:
            raise InputError("series terms must be one flat sequence")
        terms = backends.reduced_rows([self.terms], self.modulus, len(self.terms))[0]
        terms.flags.writeable = False
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientSeries):
            return NotImplemented
        return (self.kind, self.prime, self.exponent) == (
            other.kind, other.prime, other.exponent
        ) and np.array_equal(self.terms, other.terms)

    def __hash__(self) -> int:
        return hash((self.kind, self.prime, self.exponent, self.term_list))

    @property
    def modulus(self) -> int:
        return self.prime**self.exponent

    @cached_property
    def term_list(self) -> tuple[int, ...]:
        """The terms as Python integers, for scalar arithmetic."""
        return tuple(self.terms.tolist())

    def term(self, i: int) -> int:
        return int(self.terms[i])

    @property
    def top_level(self) -> int:
        """The highest level s whose terms the series holds (p^(s+1) <= its
        length) with a residue mod p left (s < its exponent), else 0."""
        return max(min(_index_level(len(self), self.prime), self.exponent) - 1, 0)

    def normalization_error(self, i: int) -> NormalizationError:
        """What `normals` raises when term i is not divisible by p^e(i)."""
        return NormalizationError(f"{self.kind} term {i} = {self.term(i)} is not divisible by "
                                  f"{self.prime}^{_index_level(i, self.prime)}")

    def normals(self, start: int, stop: int) -> np.ndarray:
        """The normalized terms b_i = B_i / p^e(i) for start <= i < stop, as
        one array (int64, or Python integers where the terms are); b_i is a
        residue mod p^(exponent - e(i)).

        Raises at the first index it refuses: NormalizationError where p^e(i)
        does not divide the term, and InputError where e(i) >= exponent, so
        that no residue is left.
        """
        p = self.prime
        fine = min(stop, self.modulus)  # e(i) < exponent exactly where i < p^exponent
        lead = p ** _index_level(start, p)  # one divisor within a level
        if fine > lead * p:
            lead = index_levels(fine, p)[1][start:]
        terms = self.terms[start:fine]
        unnormal = terms % lead != 0
        if unnormal.any():
            raise self.normalization_error(start + int(unnormal.argmax()))
        if stop > fine:
            raise InputError(
                f"term {max(start, fine)} has no residual precision at exponent {self.exponent}"
            )
        # a canonical term divisible by p^e(i) is below p^exponent, so its
        # quotient is already reduced mod p^(exponent - e(i))
        return terms // lead

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.prime,
            "k": self.exponent,
            "length": len(self.terms),
            "terms": [str(t) for t in self.terms.tolist()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoefficientSeries":
        try:
            kind = data["kind"]
            p = parse_int(data["p"])
            k = parse_int(data["k"])
            terms = parse_ints(data["terms"])
        except KeyError as exc:
            raise InputError(f"series object has no {exc.args[0]!r} key") from None
        except (TypeError, InputError) as exc:
            raise InputError(f"malformed series object: {exc}") from exc
        if "length" in data and parse_int(data["length"]) != len(terms):
            raise InputError("series length field disagrees with terms")
        return cls(kind, p, k, terms)


class PadicFunction:
    """A function on Z_p pinned down to a finite depth.

    Polynomial and Mahler forms evaluate exactly at any nonnegative integer;
    table form folds the argument mod p^depth; van der Put form is a finite
    sum of locally constant indicators and needs no folding.
    """

    def __init__(self, kind, prime, depth, payload):
        require_prime(prime)
        _check_depth(prime, depth)
        self.kind = kind
        self.prime = prime
        self.depth = depth
        self.payload = payload
        self._values: np.ndarray | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[int], prime: int, depth: int) -> "PadicFunction":
        coeffs = parse_ints(coeffs)
        if not coeffs:
            raise InputError("empty polynomial")
        return cls("polynomial", prime, depth, coeffs)

    @classmethod
    def from_table(cls, values: Sequence[int], prime: int, depth: int) -> "PadicFunction":
        require_prime(prime)
        _check_depth(prime, depth)
        size = prime**depth
        values = parse_ints(values)
        if len(values) != size:
            raise InputError(
                f"table for depth {depth} needs {size} entries, got {len(values)}"
            )
        if min(values) < 0 or max(values) >= size:
            raise InputError("table entries must be canonical residues mod p^depth")
        return cls("table", prime, depth, values)

    @classmethod
    def from_mahler(cls, series: CoefficientSeries, depth: int | None = None) -> "PadicFunction":
        return cls._from_series(series, "mahler", depth)

    @classmethod
    def from_vdp(cls, series: CoefficientSeries, depth: int | None = None) -> "PadicFunction":
        return cls._from_series(series, "vdp", depth)

    @classmethod
    def _from_series(cls, series, kind, depth):
        if not isinstance(series, CoefficientSeries) or series.kind != kind:
            raise InputError(f"expected a {kind} CoefficientSeries")
        if depth is None:
            depth = series.exponent
        if depth > series.exponent:
            raise InputError(
                f"depth {depth} exceeds series precision p^{series.exponent}"
            )
        f = cls(kind, series.prime, depth, series)
        # a 1-Lipschitz map has v_p(term m) >= e(m) >= depth from m = p^depth on
        p, size = f.prime, f.prime**depth
        tail = series.terms[size:] % size != 0
        if tail.any():
            m = size + int(tail.argmax())
            raise InputError(
                f"{kind} term {m} = {series.term(m)} lies past the window of {p}^{depth} terms "
                f"and is not divisible by {p}^{depth}, so the map is not 1-Lipschitz"
            )
        return f

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x: int, k: int | None = None) -> int:
        require_nonnegative(x, "x")
        if k is None:
            k = self.depth
        if not 1 <= k <= self.depth:
            raise InputError(f"evaluation depth {k} outside 1..{self.depth}")
        mod = self.prime**k
        if self.kind == "polynomial":
            # Horner mod p^k: the accumulator stays below p^(2k) + |c|
            acc = 0
            x %= mod
            for c in reversed(self.payload):
                acc = (acc * x + c) % mod
            return acc
        if self.kind == "table":
            return self.payload[x % self.prime**self.depth] % mod
        if self.kind == "mahler":
            total = 0
            binom = 1
            for n, a in enumerate(self.payload.term_list):
                if n > 0:
                    if x < n:
                        break
                    binom = binom * (x - n + 1) // n
                total += a * binom
            return total % mod
        # vdp: walk the digit chain m_j = x mod p^(j+1), skipping zero digits
        terms = self.payload.term_list
        p = self.prime
        total = terms[x % p] if x % p < len(terms) else 0
        power = p
        rest = x // p
        while rest:
            digit = rest % p
            power *= p
            if digit:
                m = x % power
                if m < len(terms):
                    total += terms[m]
            rest //= p
        return total % mod

    def value_array(self, npoints: int) -> np.ndarray:
        """Exact values f(0..npoints-1) mod p^depth as one read-only array.

        int64, or Python integers (dtype object) where p^depth * npoints
        would overflow int64.  Built once per form by a vectorized pass and
        cached; a shorter window is a prefix of a longer one.  Windows above
        the materialization limit, and Mahler series and polynomials over
        their budgets, are refused by `check_budget` before any work.
        """
        self.check_budget(npoints)
        if self._values is None or len(self._values) < npoints:
            self._values = self._compute_values(npoints)
            self._values.flags.writeable = False
        return self._values[:npoints]

    def check_budget(self, npoints: int) -> None:
        """Refuse a window of npoints values that this form may not evaluate,
        without computing: `check_window` with the degree of a polynomial or
        the first p^depth terms of a Mahler series, the rest being 0 mod p^depth."""
        size = len(self.payload)
        check_window(self.prime, self.depth, npoints,
                     size - 1 if self.kind == "polynomial" else None,
                     min(size, self.prime**self.depth) if self.kind == "mahler" else None)

    @cached_property
    def vdp_window(self) -> CoefficientSeries:
        """B_0..B_{p^depth - 1} mod p^depth by `vdp_terms`, built once; held
        to the window limit, not to the vdp length limit that guards expand's
        output."""
        size = self.prime**self.depth
        terms = vdp_terms(self.value_array(size), self.prime)
        return CoefficientSeries("vdp", self.prime, self.depth, terms)

    @cached_property
    def lipschitz(self) -> CriterionVerdict:
        """`lipschitz_check` of the window series: v_p(B_m) >= e(m) for every
        m < p^depth, which holds exactly where the map is well defined mod
        p^k at every level k = 1..depth."""
        return lipschitz_check(self.vdp_window)

    @cached_property
    def orbit_walk(self) -> np.ndarray:
        """f^n(0) mod p^depth for n = 0..p^depth, read-only; reduced mod p^k,
        the orbit of 0 mod p^k wherever the map is well defined mod p^k."""
        size = self.prime**self.depth
        walk = backends.orbit_walks(self.value_array(size)[None, :], size)[0]
        walk.flags.writeable = False
        return walk

    def require_lipschitz(self) -> None:
        """Refuse, carrying the cached verdict, a map that is not 1-Lipschitz."""
        if not self.lipschitz:
            w = self.lipschitz.witness
            raise PreconditionError(f"vdp term {w['index']} = {w['term']} is not divisible by "
                                    f"{self.prime}^{w['required_valuation']}, so the map is not "
                                    "1-Lipschitz", self.lipschitz)

    def orbit_mod(self, k: int) -> np.ndarray:
        """f^n(0) mod p^k for n = 0..p^k, read from the cached walk.  Refuses,
        as `reduce_map(k)` does, a k outside 1..depth or a map that is not
        1-Lipschitz, where the reduced walk need be no orbit."""
        if not (self.lipschitz and 1 <= k <= self.depth):
            self.reduce_map(k)
        mod = self.prime**k
        walk = self.orbit_walk[: mod + 1]
        return walk if k == self.depth else walk % mod  # the walk is reduced mod p^depth

    def _compute_values(self, npoints: int) -> np.ndarray:
        p, mod = self.prime, self.prime**self.depth
        if self.kind == "polynomial":
            return backends.poly_tables([self.payload], npoints, mod)[0]
        if self.kind == "table":
            return np.asarray(self.payload, dtype=np.int64)[np.arange(npoints) % mod]
        terms = self.payload.terms
        if self.kind == "mahler":
            return backends.mahler_values(terms[:mod], p, self.depth, npoints)
        # vdp: f(m) = B_m below p, else B_m + f(m mod p^s) on level s
        # (p^s <= m < p^(s+1)), one block per level; absent terms are 0
        coeffs = backends.reduced_rows(terms[None, :npoints], mod, npoints)[0]
        values = np.pad(coeffs, (0, npoints - len(coeffs)))
        power = p
        while power < npoints:
            values[power : p * power] += _level_base(values, power, p)
            power *= p
        return values % mod

    def value_table(self, k: int) -> list[int]:
        """Values at 0..p^depth-1, reduced mod p^k: the value array reduced,
        since f(x) mod p^k = (f(x) mod p^depth) mod p^k."""
        if not 1 <= k <= self.depth:
            raise InputError(f"table depth {k} outside 1..{self.depth}")
        return (self.value_array(self.prime**self.depth) % self.prime**k).tolist()

    # -- reductions and conversions -----------------------------------

    def reduce_map(self, k: int) -> list[int]:
        """The induced map on Z/p^k, its first p^k values mod p^k, which a
        1-Lipschitz map (a polynomial is one) takes at every level; any other
        form is held to `require_lipschitz` first."""
        if not 1 <= k <= self.depth:
            raise InputError(f"reduction depth {k} outside 1..{self.depth}")
        if self.kind != "polynomial":
            self.require_lipschitz()
        mod = self.prime**k
        return (self.value_array(mod) % mod).tolist()

    def __repr__(self):
        return f"PadicFunction({self.kind}, p={self.prime}, depth={self.depth})"


def _coefficient_window(f: PadicFunction, kind: str, count, k):
    """count and k with their defaults, once both are within the depth window,
    count within the materialization limit and the kind's length limit."""
    if k is None:
        k = f.depth
    if not 1 <= k <= f.depth:
        raise InputError(f"coefficient depth {k} outside 1..{f.depth}")
    if count is None:
        count = min(f.prime**f.depth, _TABLE_LIMIT)
    if count < 1:
        raise InputError("count must be >= 1")
    if f.kind != "polynomial" and count > f.prime**f.depth:
        raise InputError(
            f"count {count} exceeds the depth window {f.prime}^{f.depth}"
        )
    check_window(f.prime, f.depth, count)  # an oversized window is named first
    check_series_length(kind, f.prime, f.depth, count)
    return count, k


def vdp_coefficients(
    f: PadicFunction, count: int | None = None, k: int | None = None
) -> CoefficientSeries:
    """The van der Put terms B_0..B_{count-1} mod p^k, read level by level
    from the value array."""
    count, k = _coefficient_window(f, "vdp", count, k)
    return CoefficientSeries("vdp", f.prime, k, vdp_terms(f.value_array(count), f.prime))


def vdp_terms(values: np.ndarray, p: int) -> np.ndarray:
    """B_m from the values f(0..count-1) along the last axis: f(m) below p,
    else f(m) - f(m mod p^s) on level s (p^s <= m < p^(s+1)), one block per
    level."""
    terms = np.array(values)
    power = p
    while power < values.shape[-1]:
        terms[..., power : p * power] -= _level_base(values, power, p)
        power *= p
    return terms


def _level_base(values: np.ndarray, power: int, p: int) -> np.ndarray:
    """f(m mod p^s) over the level block p^s = power <= m < p^(s+1) of the
    last axis, cut where the values end: f below p^s once per leading digit."""
    size = min((p - 1) * power, values.shape[-1] - power)
    return np.tile(values[..., :power], -(-size // power))[..., :size]


def mahler_coefficients(
    f: PadicFunction, count: int | None = None, k: int | None = None, floors=None
) -> CoefficientSeries:
    """a_n by iterated forward differences of the value sequence at 0,1,2,...

    With floors (divisors of p^k, one per index), the series may end early,
    at its first term that its floor does not divide (`backends.mahler_batch`).
    """
    count, k = _coefficient_window(f, "mahler", count, k)
    terms = backends.mahler_batch(f.value_array(count)[None, :], f.prime**k, floors)[0]
    return CoefficientSeries("mahler", f.prime, k, terms)


def lipschitz_check(series: CoefficientSeries) -> CriterionVerdict:
    """1-Lipschitz test through coefficient valuations.

    In either basis the condition is v_p(term_i) >= e(i); at precision p^k a
    term with e(i) >= k carries no information and is only required to
    vanish mod p^k.
    """
    name = f"lipschitz-{series.kind}"
    level, _ = index_levels(len(series), series.prime)
    need = np.minimum(level, series.exponent)
    bad = series.terms % powers_of(series.prime, need, series.terms.dtype) != 0
    if bad.any():
        i = int(bad.argmax())
        return failing(
            name,
            "coefficient-valuation",
            witness={"index": i, "term": series.term(i), "required_valuation": int(need[i])},
            depth=series.exponent,
        )
    return passing(name, depth=series.exponent, checked_terms=len(series))
