"""Acceptance gate: ten end-to-end checks, one summary line each.

Each test prints a single ``criterion NN <name>: PASS/FAIL`` line (visible
with -s or -rA) and then asserts.  Together they pin the package's main
claims: the cubic census over Z_2, counterexample fidelity, equivalence of
the per-prime closed forms with exhaustive orbit oracles, transitivity
lifting past the per-prime threshold, the binomial identity suites, the
divisibility characterization of differentiability mod p, the prescribed
p >= 5 generator with its return-residue linear form, level products, and
basis round trips through the value array.
"""

import random
import time

import numpy as np

import scalar_reference
from padicdyn import backends, criteria, dynamics, funcspace
from padicdyn import identities
from padicdyn.funcspace import CoefficientSeries, PadicFunction


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _all_cubics():
    out = []
    for a in range(8):
        for b in range(8):
            for c in range(8):
                for d in range(8):
                    out.append((d, c, b, a))
    return out


def test_c01_cubic_census():
    t0 = time.perf_counter()
    coeffs = np.array(_all_cubics(), dtype=np.int64)
    tables = backends.poly_tables(coeffs, 8, 8)
    transitive = backends.transitive_scan(tables).astype(bool)
    found = {tuple(int(v) for v in tables[i]) for i in np.nonzero(transitive)[0]}
    catalog = {
        tuple(PadicFunction.from_polynomial(entry, 2, 3).value_table(3))
        for entry in criteria.ergodic_cubic_catalog_p2()
    }
    elapsed = time.perf_counter() - t0
    ok = (
        len(coeffs) == 4096
        and int(transitive.sum()) == 64
        and found == catalog
        and len(found) == 16
        and elapsed < 5.0
    )
    _report(1, "cubic census", ok,
            f"4096 scanned, {int(transitive.sum())} transitive, "
            f"{len(found)} map classes, {elapsed:.2f}s")


def test_c02_counterexample_fidelity():
    ok = True
    notes = []
    for entry in criteria.counterexample_catalog():
        p = entry["p"]
        f = PadicFunction.from_polynomial(entry["coeffs"], p, entry["failing_level"])
        low = entry["transitive_level"]
        cyc = dynamics.cycle_structure(f, low)
        good = (
            cyc.transitive
            and tuple(cyc.cycles[0]) == tuple(entry["orbit"])
            and not dynamics.transitive_mod(f, entry["failing_level"]).passed
        )
        if "orbit_at_failing_level" in entry:
            got = dynamics.orbit_of(f, entry["failing_level"])
            good = good and got == tuple(entry["orbit_at_failing_level"])
        ok = ok and good
        notes.append(f"p={p}:{'ok' if good else 'BAD'}")
    for p in (5, 7):
        f = criteria.power_counterexample(p)
        good = (
            dynamics.transitive_mod(f, 1).passed
            and not dynamics.transitive_mod(f, 2).passed
        )
        ok = ok and good
        notes.append(f"x^{p}+1:{'ok' if good else 'BAD'}")
    _report(2, "counterexample fidelity", ok, ", ".join(notes))


def test_c03_cubic_criteria_equivalence():
    t0 = time.perf_counter()
    disagreements = 0
    for coeffs in _all_cubics():
        g = PadicFunction.from_polynomial(coeffs, 2, 3)
        lar = criteria.larin_transitive_mod8(coeffs).passed
        mah = criteria.mahler_ergodic_p2(funcspace.mahler_coefficients(g, 4)).passed
        vdp = criteria.vdp_ergodic_p2(funcspace.vdp_coefficients(g, 4)).passed
        orc = dynamics.ergodic_oracle(g).passed
        if not lar == mah == vdp == orc:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(3, "cubic criteria equivalence", disagreements == 0,
            f"4096 cubics, {disagreements} disagreements, {elapsed:.2f}s")


def test_c04_degree8_sweep_p3():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260824)
    n = 10_000
    coeffs = rng.integers(0, 27, size=(n, 9))
    tables = backends.poly_tables(coeffs, 27, 27)
    oracle = backends.transitive_scan(tables).astype(bool)

    # the three verdicts the closed form reads, on the coefficients, the
    # Mahler terms a_0..a_8 and the van der Put terms B_0..B_8 mod 27;
    # every polynomial is in the differentiable-mod-3 class
    mahler = backends.mahler_batch(tables[:, :9], 27)
    branch = tables[:, :9].copy()
    for m in range(3, 9):
        branch[:, m] = (tables[:, m] - tables[:, m % 3]) % 27
    exact = True
    for row, a, b, ergodic in zip(coeffs.tolist(), mahler.tolist(), branch.tolist(), oracle.tolist()):
        verdicts = [criteria.deg8_minimal_p3(row),
                    criteria.mahler_ergodic_p3(CoefficientSeries("mahler", 3, 3, a)),
                    criteria.vdp_ergodic_p3(CoefficientSeries("vdp", 3, 3, b))]
        assert not any(v.condition in ("normalization", "ud1-precondition") for v in verdicts)
        exact &= all(v.passed == ergodic for v in verdicts)
    elapsed = time.perf_counter() - t0
    _report(4, "degree-8 sweep over Z_3", exact and elapsed < 60.0,
            f"{n} polynomials, {int(oracle.sum())} ergodic, "
            f"3 routes == oracle: {exact}, {elapsed:.1f}s")


def test_c05_transitivity_lifting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    py = random.Random(5)
    notes = []
    ok = True
    for p in (2, 3, 5, 7):
        mu = dynamics.transitivity_threshold(p)
        width = max(9, 2 * p)
        rows = np.zeros((1000, width), dtype=np.int64)
        rows[:, :9] = rng.integers(0, p ** (mu + 2), size=(1000, 9))
        seeds = []
        for c in range(1, min(p, 4)):
            seeds.append([c, 1] + [0] * (width - 2))
        if p == 2:
            for entry in criteria.ergodic_cubic_catalog_p2():
                seeds.append(list(entry) + [0] * (width - 4))
        if p >= 5:
            for _ in range(25):
                alphas, _, _ = criteria.random_power_basis_poly(p, py)
                seeds.append(list(alphas) + [0] * (width - len(alphas)))
        pool = np.vstack([rows, np.array(seeds, dtype=np.int64)])
        t_mu = scalar_reference.batch_transitive_polys(pool, p, mu).astype(bool)
        # top up until the transitive stratum is clearly nonvacuous
        extra_rounds = 0
        while int(t_mu.sum()) < 12 and extra_rounds < 6:
            extra_rounds += 1
            more = np.zeros((500, width), dtype=np.int64)
            more[:, :9] = rng.integers(0, p ** (mu + 2), size=(500, 9))
            keep = scalar_reference.batch_transitive_polys(more, p, mu).astype(bool)
            pool = np.vstack([pool, more[keep]])
            t_mu = scalar_reference.batch_transitive_polys(pool, p, mu).astype(bool)
        t_up1 = scalar_reference.batch_transitive_polys(pool, p, mu + 1).astype(bool)
        t_up2 = scalar_reference.batch_transitive_polys(pool, p, mu + 2).astype(bool)
        viol = int((t_mu & ~t_up1).sum()) + int((t_mu & ~t_up2).sum())
        hits = int(t_mu.sum())
        ok = ok and viol == 0 and hits >= 10 and len(pool) >= 1000
        notes.append(f"p={p}:{len(pool)} polys,{hits} transitive,{viol} viol")
        # batch verdicts agree with the scalar walk on a sample
        for i in py.sample(range(len(pool)), 5):
            f = PadicFunction.from_polynomial([int(x) for x in pool[i]], p, mu)
            ok = ok and dynamics.transitive_mod(f, mu).passed == bool(t_mu[i])
    # the lower threshold is genuinely insufficient for p = 3
    bad = PadicFunction.from_polynomial((1, 4, 0, 4, 0, 2), 3, 3)
    sharp = (
        dynamics.transitive_mod(bad, 2).passed
        and not dynamics.transitive_mod(bad, 3).passed
    )
    ok = ok and sharp
    elapsed = time.perf_counter() - t0
    _report(5, "transitivity lifting", ok,
            "; ".join(notes) + f"; p=3 lower threshold refuted: {sharp}; "
            f"{elapsed:.1f}s")


def test_c06_identity_suites():
    ok = True
    notes = []
    for name in identities.all_suite_names():
        t0 = time.perf_counter()
        report = identities.verify_identity_suite(name)
        elapsed = time.perf_counter() - t0
        good = report.passed and not report.counterexamples
        if name == "abc":
            good = good and elapsed < 30.0
        if name == "bipro":
            # every pair of rows n in [p^s, 2 p^s) for odd p <= 13, 2 <= s <= 4
            good = good and report.checked == sum(
                n + 1 for p in (3, 5, 7, 11, 13) for s in (2, 3, 4) for n in range(p**s, 2 * p**s)
            )
        ok = ok and good
        notes.append(f"{name}:{report.checked} in {elapsed:.1f}s")
    _report(6, "identity suites", ok, ", ".join(notes))


def test_c07_differentiability_divisibility():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    py = random.Random(12)
    necessity_bad = 0
    for p in (2, 3, 5):
        mod = p ** 4
        for _ in range(30):
            deg = int(rng.integers(8, 41))
            coeffs = rng.integers(-50, 51, size=deg + 1)
            tables = backends.poly_tables(coeffs[None, :], mod, mod)
            mahler = backends.mahler_batch(tables, mod)[0]
            for n in range(mod):
                need = min(scalar_reference.required_ud1_valuation(n, p), 4)
                if mahler[n] % p ** need:
                    necessity_bad += 1
    sufficiency_bad = 0
    for p, count in ((2, 40), (3, 40), (5, 30)):
        for _ in range(500):
            terms = scalar_reference.random_ud1_mahler_series(p, 4, count, py).terms
            vals = backends.mahler_values(terms, p, 4, p ** 4 + p ** 3 * (p - 1))
            first, _ = backends.ud1_table_scan(vals, p, 4)
            sufficiency_bad += first is not None
    elapsed = time.perf_counter() - t0
    _report(7, "differentiability divisibility",
            necessity_bad == 0 and sufficiency_bad == 0,
            f"necessity violations {necessity_bad}, "
            f"sufficiency failures {sufficiency_bad}/1500, {elapsed:.1f}s")


def test_c08_prescribed_instances():
    t0 = time.perf_counter()
    py = random.Random(31)
    ok = True
    notes = []
    for p in (5, 7):
        mismatches = 0
        passing = 0
        for _ in range(100):
            phi = criteria.random_transitive_permutation(p, py)
            bvec = criteria.random_unit_product_one(p, py)
            lift = tuple(py.randrange(p) for _ in range(2 * p))
            form = criteria.p5_linear_form(p, phi, bvec, lift)
            inst = form["instance"]
            t2 = dynamics.transitive_mod(inst.function, 2).passed
            t3 = dynamics.transitive_mod(inst.function, 3).passed
            good = (
                inst.passed == t2 == t3
                and form["agree"]
                and (form["formula"] % p != 0)
                == inst.conditions["return_valuation"].passed
            )
            if not good:
                mismatches += 1
            if inst.passed:
                passing += 1
        ok = ok and mismatches == 0 and 0 < passing < 100
        notes.append(f"p={p}:{passing}/100 ergodic,{mismatches} mismatches")
    elapsed = time.perf_counter() - t0
    _report(8, "prescribed instances", ok, ", ".join(notes) + f", {elapsed:.1f}s")


def test_c09_level_products():
    t0 = time.perf_counter()
    py = random.Random(77)
    checked = 0
    bad = 0
    for p in (2, 3, 5):
        pool = []
        if p == 2:
            for entry in criteria.ergodic_cubic_catalog_p2():
                pool.append(PadicFunction.from_polynomial(entry, 2, 3))
        for c in range(1, p):
            pool.append(PadicFunction.from_polynomial([c, 1], p, 3))
        tries = 0
        while len(pool) < 25 and tries < 4000:
            tries += 1
            s = scalar_reference.random_ud1_mahler_series(p, 3, 2 * p * p, py)
            f = PadicFunction.from_mahler(s, 3)
            if dynamics.measure_preserving_vdp(funcspace.vdp_coefficients(f)).passed:
                pool.append(f)
        for f in pool:
            r1, r2 = dynamics.ergodic_conditions(f)["product"].details["products"]
            series = funcspace.vdp_coefficients(f, count=2 * p)
            manual = 1
            for j in range(p):
                manual = manual * scalar_reference.normalized(series, j + p, 1) % p
            checked += 1
            if not r1 == r2 == manual:
                bad += 1
    elapsed = time.perf_counter() - t0
    _report(9, "level products", bad == 0 and checked >= 75,
            f"{checked} measure-preserving maps, {bad} mismatches, {elapsed:.1f}s")


def _mahler_to_vdp(series):
    """The van der Put terms of a Mahler series, read from its values."""
    return funcspace.vdp_coefficients(PadicFunction.from_mahler(series), count=len(series))


def test_c10_round_trips_and_indicator_valuations():
    t0 = time.perf_counter()
    rng = random.Random(101)
    trip_bad = 0
    for p in (2, 3, 5):
        mod = p ** 3
        for length in range(1, p ** 3 + 1):
            m = CoefficientSeries(
                "mahler", p, 3, tuple(rng.randrange(mod) for _ in range(length))
            )
            if scalar_reference.vdp_to_mahler(_mahler_to_vdp(m)) != m:
                trip_bad += 1
            v = CoefficientSeries(
                "vdp", p, 3, tuple(rng.randrange(mod) for _ in range(length))
            )
            if _mahler_to_vdp(scalar_reference.vdp_to_mahler(v)) != v:
                trip_bad += 1
    bound_bad = 0
    for p in (2, 3, 5):
        for n in range(201):
            bound = (n - 1) // (p - 1) if n else 0
            for m in range(n + 1):
                level = scalar_reference.floor_log(m, p) + 1
                need = (n - 1) // (p ** level - 1) if n else 0
                coef = scalar_reference.indicator_mahler_coefficient(n, m, p)
                if scalar_reference.valuation(coef, p) < need:
                    bound_bad += 1
    elapsed = time.perf_counter() - t0
    _report(10, "basis round trips and indicator valuations",
            trip_bad == 0 and bound_bad == 0,
            f"round-trip failures {trip_bad}, valuation-bound failures "
            f"{bound_bad}, {elapsed:.1f}s")
