"""Per-layer tracing of padicdyn from outside the package.

`Tracer.install` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent span, request id) or, for the
per-point helpers, only bump a counter.  Names bound elsewhere with
`from .x import y` are rebound too, so every call site is seen.  Spans
stay in memory and are written out once, at the end of the run.

A span's self time is its duration minus the time of its direct child
spans.  Each CLI call is one request: its root span is `cli.<subcommand>`,
so that span's self time is parsing, object building and JSON output.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, owning class or None, extra work count)
SPANNED = (
    ("funcspace", "mahler_coefficients", None, "terms"),
    ("funcspace", "vdp_coefficients", None, "terms"),
    ("funcspace", "value_table", "PadicFunction", None),
    ("funcspace", "reduce_map", "PadicFunction", None),
    ("funcspace", "lipschitz_check", None, None),
    ("analysis", "ud1_check", None, None),
    ("analysis", "vdp_ud1_relations_check", None, None),
    ("analysis", "mahler_ud1_predicate", None, None),
    ("dynamics", "cycle_structure", None, "points"),
    ("dynamics", "ergodic_oracle", None, None),
    ("dynamics", "measure_preserving_vdp", None, None),
    ("dynamics", "decide_ergodicity", None, None),
    ("criteria", "closed_form_ergodic", None, None),
    ("criteria", "p5_conditions", None, None),
    ("criteria", "p5_linear_form", None, None),
    ("criteria", "random_power_basis_poly", None, None),
    ("identities", "abc_suite", None, "checked"),
    ("identities", "pzero_suite", None, "checked"),
    ("identities", "valpro_suite", None, "checked"),
    ("identities", "bipro_suite", None, "checked"),
    ("identities", "bip2_suite", None, "checked"),
    ("backends", "bipro_scan", None, "pairs"),
    ("backends", "poly_tables", None, None),
    ("backends", "mahler_batch", None, None),
    ("backends", "transitive_scan", None, None),
    ("backends", "ud1_table_scan", None, None),
)

# per-point functions: a call count only, so the trace stays affordable
COUNTED = (
    ("funcspace", "evaluate", "PadicFunction"),
    ("arith", "is_prime", None),
    ("arith", "binomial", None),
    ("arith", "m_minus", None),
    ("arith", "solve_fp", None),
    ("criteria", "larin_transitive_mod8", None),
)

SUBCOMMANDS = ("expand", "classify", "enumerate", "generate", "verify")


def _layer_name(module: str, attr: str) -> str:
    if module == "identities":
        return f"identities.{attr.removesuffix('_suite')}"
    return f"{module}.{attr}"


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for module, attr, _, extra in SPANNED:
        base = _layer_name(module, attr)
        if module == "identities":
            names += [f"{base}.self_s", f"{base}.{extra}"]
            continue
        names += [f"{base}.calls", f"{base}.self_s", f"{base}.total_s"]
        if extra:
            names.append(f"{base}.{extra}")
    names += [f"{_layer_name(m, a)}.calls" for m, a, _ in COUNTED]
    names += [f"cli.{c}.self_s" for c in SUBCOMMANDS]
    names += ["funcspace.series_reuse_ratio", "trace.overhead_ratio"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".terms", ".points", ".checked", ".pairs")):
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


def _extra_count(extra: str, result) -> int:
    if extra == "terms":
        return len(result.terms)
    if extra == "points":
        return result.size
    if extra == "checked":
        return result.checked
    return result[0]  # bipro_scan returns (pairs, witness)


class Tracer:
    """Spans and counters for one run; install() once, uninstall() to undo."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self.request_id = None
        self._stack: list[list] = []  # [span id, time spent in child spans]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._saved_suites: dict = {}
        self._series_seen: dict = {}
        self.terms_extracted = 0
        self.terms_distinct = 0

    # -- spans --------------------------------------------------------

    def _open(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, start, end):
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((frame[0], parent, self.request_id, name, start, end))
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]

    def request(self, request_id, subcommand, call):
        """Run one CLI call as a request with root span cli.<subcommand>."""
        self.request_id = request_id
        frame = self._open()
        start = perf_counter()
        try:
            return call()
        finally:
            self._close(f"cli.{subcommand}", frame, start, perf_counter())
            self.terms_distinct += sum(self._series_seen.values())
            self._series_seen = {}

    def _spanned(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, perf_counter())
            if extra:
                self.work[f"{name}.{extra}"] += _extra_count(extra, result)
            if extra == "terms":
                self._note_series(name, args[0], result)
            return result

        return wrapper

    def _note_series(self, name, f, series):
        # distinct (function, basis, k, index) terms: indices are a prefix
        key = (f.kind, f.prime, f.depth, f.payload, name, series.exponent)
        self._series_seen[key] = max(self._series_seen.get(key, 0), len(series.terms))
        self.terms_extracted += len(series.terms)

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, modules, module, attr, cls, make):
        if cls is not None:
            owner = getattr(modules[module], cls)
            self._rebind(owner, attr, make(owner.__dict__[attr]))
            return
        original = getattr(modules[module], attr)
        wrapper = make(original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, wrapper)

    def install(self):
        """Wrap every traced function of the imported padicdyn modules."""
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("padicdyn.")
        }
        for module, attr, cls, extra in SPANNED:
            name = _layer_name(module, attr)
            self._wrap(modules, module, attr, cls, lambda fn: self._spanned(name, fn, extra))
        for module, attr, cls in COUNTED:
            name = _layer_name(module, attr)
            self._wrap(modules, module, attr, cls, lambda fn: self._counted(name, fn))
        # verify_identity_suite dispatches through this table, not by name
        suites = modules["identities"]._SUITES
        self._saved_suites = dict(suites)
        for key, fn in self._saved_suites.items():
            suites[key] = getattr(modules["identities"], fn.__name__)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        sys.modules["padicdyn.identities"]._SUITES.update(self._saved_suites)

    # -- results ------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass averages of every per-layer metric except the overhead ratio."""
        out = {}
        for module, attr, _, extra in SPANNED:
            name = _layer_name(module, attr)
            if module != "identities":
                out[f"{name}.calls"] = self.calls[name] / passes
                out[f"{name}.total_s"] = self.total_s[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
            if extra:
                out[f"{name}.{extra}"] = self.work[f"{name}.{extra}"] / passes
        for module, attr, _ in COUNTED:
            name = _layer_name(module, attr)
            out[f"{name}.calls"] = self.calls[name] / passes
        for command in SUBCOMMANDS:
            out[f"cli.{command}.self_s"] = self.self_s[f"cli.{command}"] / passes
        out["funcspace.series_reuse_ratio"] = (
            self.terms_distinct / self.terms_extracted if self.terms_extracted else 0.0
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "request": request,
                         "name": name, "start": start, "end": end}
                    )
                )
                fh.write("\n")
