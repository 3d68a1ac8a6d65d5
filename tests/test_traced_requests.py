"""CLI requests under the benchmark's tracer answer as they do untraced.

`perfbench/tracer.py` rebinds package functions and classes' methods from
outside, and its wrappers read what passes through them: the function
argument of a series extraction (hashing its payload), the number of terms
of a series, the size of a cycle report and the count of a suite.  An
exception there is a wrong answer to the benchmark, though untraced runs
never meet it.  This module loads the tracer by path, without changing
it, runs one request of each kind the benchmark sends through `cli.main`
in process, traced and untraced, and requires the same exit code, stdout
and stderr, with the suites' `elapsed_seconds` masked.
"""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from padicdyn import cli
from padicdyn.funcspace import PadicFunction, mahler_coefficients, vdp_coefficients

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _series(extract, coeffs, p, depth):
    return json.dumps(extract(PadicFunction.from_polynomial(coeffs, p, depth)).to_json_dict())


def _table(values, p, depth):
    return json.dumps({"kind": "table", "p": p, "depth": depth, "values": values})


# x + 1 mod 27 with 9 added at x = 0: 1-Lipschitz, not UD1
_KINK = [(x + 1 + 9 * (x == 0)) % 27 for x in range(27)]

# f(5) - f(1) = 6 mod 8 is not divisible by 4: not 1-Lipschitz, refused with exit 2
_NOT_LIPSCHITZ = _table([7, 3, 1, 5, 7, 1, 5, 7], 2, 3)

REQUESTS = [
    ("classify 1+x+2x^2+4x^3 -p 2 --depth 5", None),
    ("classify 1+x+5x^5 -p 5 --depth 3", None),
    ("classify -", _table([(x + 1) % 27 for x in range(27)], 3, 3)),
    ("classify -", _table(_KINK, 3, 3)),
    ("classify -", _NOT_LIPSCHITZ),
    ("classify -", _series(vdp_coefficients, [1, 5, 2, 4], 2, 6)),
    ("classify -", _series(mahler_coefficients, [1, 1, 3, 9], 3, 3)),
    ("expand 1,2,3,4 -p 3 --depth 3 --basis mahler --count 27 --normalized", None),
    ("expand - --basis vdp --count 27 --normalized", _table(_KINK, 3, 3)),
    ("generate -p 5 --seed 1", None),
    ("generate -p 7 --route poly --seed 1", None),
    ("enumerate --crosscheck", None),
    ("verify --suite all --p-max 5 --s-max 2 --counterexamples", None),
]


def _call(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdin", io.StringIO(stdin or ""))
            code = cli.main(argv)
    out = re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0', out.getvalue())
    return code, out, err.getvalue()


def test_traced_requests_answer_as_untraced():
    untraced = [_call(argv.split(), stdin) for argv, stdin in REQUESTS]
    for (code, _, err), (_, stdin) in zip(untraced, REQUESTS):
        if stdin == _NOT_LIPSCHITZ:
            assert code == 2 and "not 1-Lipschitz" in err
        else:
            assert code in (0, 1) and err == ""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = [
            tracer.request(i, argv.split()[0], lambda: _call(argv.split(), stdin))
            for i, (argv, stdin) in enumerate(REQUESTS)
        ]
        tracer.layer_metrics(1)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.calls["cli.classify"] == 7 and tracer.calls["dynamics.ergodic_oracle"] >= 6
