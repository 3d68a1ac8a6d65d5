"""Replay the frozen CLI corpus: stdout and exit codes must stay byte-identical.

The corpus (tests/data/cli_corpus.json, written by tests/data/make_corpus.py)
covers classify on all four input kinds at p in {2, 3, 5, 7}, UD1-passing
and UD1-failing, non-Lipschitz inputs that exit 2, expand in both bases,
moduli beyond int64 products, enumerate with and without --crosscheck,
generate on both routes at p in {5, 7, 11, 13} (seeded and with explicit
--phi/--bvec/--lift data), verify --counterexamples, and verify on every
identity suite.  A suite's `elapsed_seconds` is the one field masked: it is
stored as null, and the live output gets the same rewrite before the
comparison.
"""

import io
import json
import re
import sys
from pathlib import Path

import pytest

from padicdyn import cli

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())

# the rewrite tests/data/make_corpus.py applies when freezing
_ELAPSED = re.compile(r'"elapsed_seconds": [-+0-9.eE]+')

# numbers of cases dropped from the corpus stay unused, so that every other
# case keeps its test id; 104 was `classify --mu`, a flag that is gone
_RETIRED = {104}
_NUMBERS = [n for n in range(len(CORPUS) + len(_RETIRED)) if n not in _RETIRED]


@pytest.mark.parametrize(
    "case", CORPUS, ids=[f"{n:03d}-{c['argv'][0]}" for n, c in zip(_NUMBERS, CORPUS)]
)
def test_corpus_replays_byte_identically(case, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"] or ""))
    code = cli.main(case["argv"])
    out = _ELAPSED.sub('"elapsed_seconds": null', capsys.readouterr().out)
    assert (code, out) == (case["exit"], case["stdout"])
