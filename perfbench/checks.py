"""Correctness checks on each answer, and the output digest.

A request fails on a wrong exit code, a wrong verdict, a schema violation,
output that is not JSON, or an exception.  Expected values come from the
request (fixed when the workload was built) or from `oracle`; schemas are
the package's own, read from its source tree.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

import oracle

SCHEMA_FILES = {
    "expand": "series.schema.json",
    "classify": "classify.schema.json",
    "enumerate": "enumerate.schema.json",
    "generate": "generate.schema.json",
    "verify": "verify.schema.json",
}

TIMING_FIELDS = frozenset({"elapsed_seconds"})


def strip_timing(obj):
    """A copy of a JSON value with every timing field removed."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_FIELDS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def canonical(rc, stdout: str) -> str:
    """Exit code and output as canonical JSON text, timing fields removed."""
    try:
        payload = strip_timing(json.loads(stdout))
    except json.JSONDecodeError:
        payload = stdout
    return json.dumps([rc, payload], sort_keys=True, separators=(",", ":"))


def digest(canonical_outputs) -> str:
    """SHA-256 over the canonical outputs of one pass, in request order."""
    h = hashlib.sha256()
    for text in canonical_outputs:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


class Checker:
    """Checks answers; remembers each distinct answer's result per request."""

    def __init__(self, schema_dir: Path):
        self._validators = {}
        for command, name in SCHEMA_FILES.items():
            schema = json.loads((schema_dir / name).read_text())
            self._validators[command] = jsonschema.Draft7Validator(schema)
        self._memo: dict[tuple[int, str], list[str]] = {}
        self._census = None

    def check(self, index: int, request, rc, stdout: str, error: str | None) -> list[str]:
        """Problems with one answer; empty when it is correct."""
        if error is not None:
            return [f"exception: {error}"]
        key = (index, canonical(rc, stdout))
        if key not in self._memo:
            self._memo[key] = self._check(request, rc, stdout)
        return self._memo[key]

    def _check(self, request, rc, stdout) -> list[str]:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return [f"exit {rc} without JSON output"]
        command = request.command
        problems = [
            f"schema: {e.message}" for e in self._validators[command].iter_errors(payload)
        ]
        if problems:
            return problems
        return getattr(self, f"_{command}")(request.expect, rc, payload)

    @staticmethod
    def _classify(expect, rc, out) -> list[str]:
        problems = []
        want_rc = 0 if expect["ergodic"] else 1
        if rc != want_rc:
            problems.append(f"exit {rc}, expected {want_rc}")
        for key in ("p", "depth", "kind"):
            if out[key] != expect[key]:
                problems.append(f"{key} {out[key]!r}, expected {expect[key]!r}")
        if out["ergodicity"]["ergodic"] != expect["ergodic"]:
            problems.append("ergodicity verdict differs from the single-cycle test")
        if out["ud1"]["direct"]["pass"] != expect["ud1"] or not out["ud1"]["agree"]:
            problems.append("UD1 verdict differs from the definition sweep")
        return problems

    @staticmethod
    def _expand(expect, rc, out) -> list[str]:
        if rc != 0:
            return [f"exit {rc}, expected 0"]
        p, k = expect["p"], expect["k"]
        mod = p**k
        values = expect["values"]
        if expect["basis"] == "mahler":
            terms = oracle.mahler_terms(values, mod)
        else:
            terms = oracle.vdp_terms(values, p, mod)
        problems = []
        if (out["kind"], out["p"], out["k"]) != (expect["basis"], p, k):
            problems.append("series header differs from the request")
        if [int(t) for t in out["terms"]] != terms:
            problems.append("terms differ from the difference-table reference")
        if [int(t) for t in out.get("normalized", [])] != oracle.normalized_terms(terms, p, k):
            problems.append("normalized terms differ from the reference")
        return problems

    @staticmethod
    def _generate(expect, rc, out) -> list[str]:
        if rc != 0:
            return [f"exit {rc}, expected 0"]
        p = expect["p"]
        problems = []
        if out["count"] != 1 or len(out["instances"]) != 1:
            problems.append("expected exactly one instance")
        for inst in out["instances"]:
            if inst["route"] != expect["route"]:
                problems.append(f"route {inst['route']!r}, expected {expect['route']!r}")
                continue
            if inst["route"] == "mahler":
                terms = [int(t) for t in inst["series"]["terms"]]
                table = oracle.mahler_table(terms, p, 2)
                if not inst["linear_form"]["agree"]:
                    problems.append("linear form missed the return residue")
            else:
                table = oracle.poly_table([int(a) for a in inst["alphas"]], p, 2)
            if inst["ergodic"] != oracle.is_single_cycle(table):
                problems.append("ergodic flag differs from the single-cycle test mod p^2")
        return problems

    def _enumerate(self, expect, rc, out) -> list[str]:
        if rc != 0:
            return [f"exit {rc}, expected 0"]
        if self._census is None:
            self._census = oracle.cubic_census_mod8()
        census = self._census
        problems = []
        if out["total"] != 8**4:
            problems.append(f"total {out['total']}, expected 4096")
        if out["ergodic"] != sum(len(m) for m in census.values()):
            problems.append("ergodic count differs from the single-cycle census")
        got = {
            tuple(int(v) for v in c["table"]): sorted(tuple(m) for m in c["members"])
            for c in out["classes"]
        }
        if got != {t: sorted(m) for t, m in census.items()}:
            problems.append("map classes differ from the single-cycle census")
        return problems

    @staticmethod
    def _verify(expect, rc, out) -> list[str]:
        problems = []
        if rc != 0 or out["pass"] is not True:
            problems.append(f"exit {rc}, pass {out['pass']!r}; expected 0 and true")
        got = {s["suite"]: int(s["checked"]) for s in out.get("suites", [])}
        if got != expect["suites"]:
            problems.append(f"checked {got}, expected {expect['suites']}")
        if expect["counterexamples"]:
            cases = out.get("counterexamples", [])
            if len(cases) != 9 or not all(c["pass"] for c in cases):
                problems.append("counterexample catalog not fully confirmed")
        return problems
