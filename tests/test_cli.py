"""End-to-end tests for the command line interface."""

import contextlib
import dataclasses
import io
import json
import os
import random
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padicdyn
from padicdyn import analysis, backends, cli, criteria, dynamics, funcspace, identities
from padicdyn.errors import InputError, InternalCheckError
from padicdyn.funcspace import PadicFunction, vdp_coefficients
from scalar_reference import random_ud1_mahler_series


def _schema(name):
    from importlib import resources

    with resources.files("padicdyn.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv, schema=None):
    code, out, err = _run(capsys, argv)
    payload = json.loads(out)
    if schema is not None:
        jsonschema.validate(payload, _schema(schema))
    return code, payload, err


def test_parse_polynomial_text():
    assert cli.parse_polynomial_text("1+3x+2x^3") == [1, 3, 0, 2]
    assert cli.parse_polynomial_text("x^5+1") == [1, 0, 0, 0, 0, 1]
    assert cli.parse_polynomial_text("2x**3 - x + 4") == [4, -1, 0, 2]
    assert cli.parse_polynomial_text("1,3,0,2") == [1, 3, 0, 2]
    assert cli.parse_polynomial_text("1, -3, 0, 2") == [1, -3, 0, 2]
    assert cli.parse_polynomial_text("x") == [0, 1]
    assert cli.parse_polynomial_text("-x^2+x") == [0, 1, -1]
    assert cli.parse_polynomial_text("1 + 2x") == [1, 2]
    assert cli.parse_polynomial_text(" 12 x ^ 2 - 3 ") == [-3, 0, 12]


def test_parse_polynomial_errors():
    for bad in ("", "2y+1", "x^", "1,two,3", "x+", "x++x", "1,,2", "1,2,",
                "1 2 3", "1 2+x", "x^1 0", "x^" + "9" * 5000, "9" * 5000 + "x"):
        with pytest.raises(InputError):
            cli.parse_polynomial_text(bad)


def test_polynomial_degree_bound():
    assert len(cli.parse_polynomial_text("x^65535")) == 65536
    with pytest.raises(InputError, match="degree 65536 is not below the degree bound 65536"):
        cli.parse_polynomial_text("x^65536")
    with pytest.raises(InputError, match="degree 65536 "):
        cli.parse_polynomial_text(",".join(["0"] * 65537))


def test_classify_refuses_huge_degree_text(capsys):
    code, out, err = _run(capsys, ["classify", "x^100000000", "-p", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "degree 100000000" in err and "65536" in err


def test_classify_refuses_huge_degree_json(capsys, monkeypatch):
    blob = {"kind": "polynomial", "p": 2, "coeffs": [0] * 65536 + [1]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, out, err = _run(capsys, ["classify", "-"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "degree 65536" in err and "65536" in err


def test_function_from_json_kinds():
    f = cli.function_from_json({"kind": "polynomial", "p": 2, "coeffs": [1, 1]}, 3)
    assert f.evaluate(3) == 4
    g = cli.function_from_json(
        {"kind": "table", "p": 2, "depth": 2, "values": [0, 2, 2, 0]}, None
    )
    assert g.evaluate(1) == 2
    h = cli.function_from_json(
        {"kind": "mahler", "p": 2, "k": 3, "terms": ["1", "5", "12", "12"]}, 3
    )
    assert [h.evaluate(x) for x in range(4)] == [1, 6, 7, 0]  # 1+3x+2x^3 mod 8


def test_function_from_json_malformed():
    with pytest.raises(InputError):
        cli.function_from_json({"p": 2}, 3)
    with pytest.raises(InputError):
        cli.function_from_json({"kind": "polynomial", "p": 2}, 3)
    with pytest.raises(InputError):
        cli.function_from_json({"kind": "table", "p": 2, "values": [0, 1]}, None)
    with pytest.raises(InputError):  # was a ValueError traceback
        cli.function_from_json({"kind": "table", "p": 2, "depth": "x", "values": [0, 1]}, None)
    with pytest.raises(InputError):
        cli.function_from_json({"kind": "spline", "p": 2}, 3)
    with pytest.raises(InputError, match="unknown function kind"):  # unhashable kind
        cli.function_from_json({"kind": ["table"], "p": 2}, 3)
    for coeffs in ("1,2", 5, ["1", "two"], [[1]]):
        with pytest.raises(InputError):
            cli.function_from_json({"kind": "polynomial", "p": 2, "coeffs": coeffs}, 3)


@pytest.mark.parametrize("command", ["classify", "expand"])
@pytest.mark.parametrize("blob", ["[1, 2]", "null", "5", "true", '"x+1"'])
def test_json_function_input_must_be_an_object(capsys, monkeypatch, command, blob):
    # each was refused with a message from Python's indexing of the value
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    code, out, err = _run(capsys, [command, "-"])
    assert (code, out) == (2, "")
    assert err == "error: a function must be given as one JSON object with a 'kind' key\n"


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"p": 2}, "function object has no 'kind' key"),
        ({"kind": "table", "depth": 1, "values": [1, 0]}, "function object has no 'p' key"),
        ({"kind": "vdp", "p": 2, "terms": [0, 1]}, "series object has no 'k' key"),
        ({"kind": "mahler", "p": 2, "k": 3}, "series object has no 'terms' key"),
    ],
)
def test_json_function_input_names_its_missing_key(capsys, monkeypatch, blob, message):
    # each named the key through Python's KeyError text, as "malformed ...: 'kind'"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    assert _run(capsys, ["classify", "-"]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "blob, key",
    [
        ({"kind": "polynomial", "p": 3, "coeffs": [1, 1], "k": 4}, "k"),
        ({"kind": "table", "p": 2, "depth": 2, "values": [1, 2, 3, 0], "extra": 1}, "extra"),
        ({"kind": "vdp", "p": 2, "k": 2, "terms": [1, 2, 2, 2], "lipschitz": {}}, "lipschitz"),
        ({"kind": "mahler", "p": 3, "k": 4, "terms": [1, 1], "depth": 4}, "depth"),
    ],
    ids=["polynomial", "table", "vdp", "mahler"],
)
def test_classify_refuses_unknown_json_keys(capsys, monkeypatch, blob, key):
    # each was once accepted with the key ignored; an expand report, which
    # adds lipschitz and normalized to a series, is not a function object
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, out, err = _run(capsys, ["classify", "-"])
    assert code == 2 and out == ""
    assert f"unknown key(s) in a {blob['kind']} object: {key}" in err
    del blob[key]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    assert _run(capsys, ["classify", "-"])[0] in (0, 1)


_JSON_INPUTS = {
    "polynomial": {"kind": "polynomial", "p": 3, "coeffs": [1, 1], "depth": 4},
    "table": {"kind": "table", "p": 2, "depth": 2, "values": [1, 2, 3, 0]},
    "mahler": {"kind": "mahler", "p": 3, "k": 4, "terms": [1, 1], "length": 2},
}


@pytest.mark.parametrize(
    "kind, field, index, bad",
    [
        ("polynomial", "p", None, 3.9),
        ("polynomial", "depth", None, 2.7),
        ("mahler", "k", None, 4.0),
        ("mahler", "length", None, 2.0),
        ("polynomial", "coeffs", 0, 1.5),
        ("table", "values", 3, 0.0),
        ("mahler", "terms", 0, True),
    ],
)
def test_json_numbers_must_be_integers(capsys, monkeypatch, kind, field, index, bad):
    # int() would truncate a float and read a boolean as 0 or 1
    def classify_with(value):
        blob = json.loads(json.dumps(_JSON_INPUTS[kind]))
        if index is None:
            blob[field] = value
        else:
            blob[field][index] = value
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
        return _run(capsys, ["classify", "-"])

    exact = _JSON_INPUTS[kind][field]
    exact = exact if index is None else exact[index]
    code, out, err = classify_with(bad)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"not an integer: {bad!r}" in err
    # a string of decimal digits is still read as the integer it spells
    as_int = classify_with(exact)
    assert as_int[0] in (0, 1)
    assert classify_with(str(exact)) == as_int


@pytest.mark.parametrize("values", [5, "0120", None])
def test_table_values_must_be_a_list(capsys, monkeypatch, values):
    # a digit string was read digit by digit, and a number raised a traceback
    blob = dict(_JSON_INPUTS["table"], values=values)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, out, err = _run(capsys, ["classify", "-"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "needs a 'values' list" in err


def _loose(form, n):
    """n spelled in a form int() reads but that is not ASCII digits with an
    optional sign."""
    digits = str(n)
    if form == "underscore":
        return f"0_{digits}"
    if form == "spaces":
        return f" {digits} "
    zero = {"arabic-indic": 0x660, "fullwidth": 0xFF10}[form]
    return "".join(chr(zero + int(d)) for d in digits)


_LOOSE_FORMS = ["underscore", "spaces", "arabic-indic", "fullwidth"]


@pytest.mark.parametrize("form", _LOOSE_FORMS + ["empty", "sign", "hex", "comma"])
def test_json_integer_strings_are_ascii_digits(capsys, monkeypatch, form):
    def classify_with(**fields):
        blob = dict(_JSON_INPUTS["mahler"], terms=["1", "1"], length=2)
        blob.update(fields)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
        return _run(capsys, ["classify", "-"])

    if form in _LOOSE_FORMS:
        zero, four = _loose(form, 0), _loose(form, 4)
        assert int(zero) == 0 and int(four) == 4  # what the parser used to read
    else:
        zero = four = {"empty": "", "sign": "+", "hex": "0x0", "comma": "1,0"}[form]
    # in a term list (checked in one pass) and in a scalar field alike
    for fields in ({"terms": ["1", "1", zero], "length": 3}, {"k": four}):
        code, out, err = classify_with(**fields)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not an integer" in err
    # a sign is part of the integer
    assert classify_with(terms=["+1", "1", "-0"], length=3) == classify_with(
        terms=["1", "1", "0"], length=3
    )


@pytest.mark.parametrize("form", _LOOSE_FORMS)
def test_integer_options_are_ascii_digits(capsys, form):
    # classify x+1 -p 3 --depth 1_0 ran at depth 10
    for argv in (
        ["classify", "x+1", "-p", "3", "--depth", _loose(form, 3)],
        ["classify", "x+1", "-p", _loose(form, 3)],
        ["expand", "x+1", "-p", "3", "--count", _loose(form, 4)],
        ["generate", "-p", "5", "--seed", _loose(form, 1)],
        ["generate", "-p", "5", "--phi", f"1,2,3,4,{_loose(form, 0)}"],
        ["verify", "--suite", "abc", "--p-max", _loose(form, 5)],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not an integer" in captured.err


def test_expand_mahler(capsys):
    code, payload, _ = _run_json(
        capsys,
        ["expand", "1+3x+2x^3", "-p", "2", "--basis", "mahler",
         "--count", "4", "--normalized"],
        schema="series.schema.json",
    )
    assert code == 0
    assert payload["terms"] == ["1", "5", "12", "12"]
    assert payload["normalized"] == ["1", "5", "6", "6"]
    assert payload["lipschitz"]["pass"] is True


def test_expand_vdp(capsys):
    code, payload, _ = _run_json(
        capsys,
        ["expand", "1,3,0,2", "-p", "2", "--count", "4"],
        schema="series.schema.json",
    )
    assert code == 0
    assert payload["kind"] == "vdp"
    assert payload["terms"] == ["1", "6", "22", "58"]


@pytest.mark.parametrize("p", [2147483647, 65521])
def test_expand_wide_modulus_is_exact(capsys, p):
    # p^2 is beyond 2^31; at p = 2^31 - 1, p^2 times the count is beyond int64
    for text, basis, terms in (
        ("x+1", "mahler", ["1", "1", "0"]),
        ("x+1", "vdp", ["1", "2", "3"]),
        ("x^2+7x+1", "mahler", ["1", "8", "2"]),
    ):
        code, payload, _ = _run_json(
            capsys,
            ["expand", text, "-p", str(p), "--depth", "2", "--count", "3",
             "--basis", basis],
            schema="series.schema.json",
        )
        assert code == 0
        assert payload["terms"] == terms


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expand", "x+1", "-p", "3", "--count", "100000000"],
         "window of 100000000 values at p=3, depth 6"),
        (["classify", "x+1", "-p", "5", "--depth", "12"],
         "window of 439453125 values at p=5, depth 12"),
    ],
)
def test_oversized_window_refused(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "x+1", "-p", "3", "--depth", "12"],
         "Mahler series of 531441 terms at p=3, depth 12 exceeds the Mahler "
         "length limit of 262144 terms"),
        (["expand", "x+1", "-p", "3", "--basis", "mahler", "--count", "262145"],
         "Mahler series of 262145 terms at p=3, depth 6 exceeds"),
    ],
)
def test_oversized_mahler_series_refused(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, terms, depth, message", [
    (["classify"], 1024, 19, "a Mahler series of 524288 terms at p=2, depth 19 exceeds "
                             "the Mahler length limit of 262144 terms"),
    (["classify"], 1 << 15, 15, "a Mahler series of 32768 terms over a window of 49152 values "
                                "at p=2, depth 15 exceeds the terms x window budget of 1000000000"),
    (["expand", "--basis", "vdp", "--count", "32768"], 1 << 15, 15,
     "a Mahler series of 32768 terms over a window of 32768 values at p=2, depth 15 "
     "exceeds the terms x window budget of 1000000000"),
])
def test_mahler_input_is_refused_before_any_value_is_computed(
        capsys, monkeypatch, tmp_path, argv, terms, depth, message):
    # classify used to evaluate the UD1 window first: 6.7 s in mahler_values
    # before the length limit at depth 19, and 13.5 s to answer 1.6e9
    # term-points at depth 15
    def boom(*args, **kwargs):
        raise AssertionError("a Mahler sum was evaluated")

    monkeypatch.setattr(backends, "mahler_values", boom)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": "mahler", "p": 2, "k": depth, "terms": ["1"] * terms}))
    code, out, err = _run(capsys, [argv[0], f"@{path}", *argv[1:]])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# no depth ceiling: the window, Mahler, vdp, degree and modulus limits bind
_DENSE_P2 = "7+3x+10x^2+6x^3+x^4+12x^5+1234567x^7"


def test_classify_p2_beyond_depth_12_is_answered(capsys):
    code, payload, _ = _run_json(
        capsys, ["classify", _DENSE_P2, "-p", "2", "--depth", "13"], "classify.schema.json"
    )
    assert code in (0, 1)
    assert payload["depth"] == 13 and payload["ud1"]["agree"]


def test_classify_p2_depth_19_meets_the_mahler_limit(capsys):
    code, out, err = _run(capsys, ["classify", _DENSE_P2, "-p", "2", "--depth", "19"])
    assert code == 2 and out == ""
    assert "Mahler series of 524288 terms at p=2, depth 19 exceeds the Mahler length limit" in err


def test_classify_x_plus_1_at_3_to_the_11(capsys):
    # N = 177147: the Mahler differences of x+1 vanish after two steps, so the
    # difference table stops at its first reduction instead of running N^2/2
    code, payload, _ = _run_json(
        capsys, ["classify", "x+1", "-p", "3", "--depth", "11"], "classify.schema.json"
    )
    assert code == 0
    assert payload["depth"] == 11 and payload["ergodicity"]["ergodic"] is True


@pytest.mark.parametrize(
    "argv, default",
    [(["classify"], 4), (["expand"], 6), (["expand", "--basis", "mahler"], 6)],
)
def test_json_polynomial_takes_the_inline_default_depth(capsys, monkeypatch, argv, default):
    inline = _run(capsys, [*argv, "x+1", "-p", "3"])
    blob = json.dumps({"kind": "polynomial", "p": 3, "coeffs": [1, 1]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    assert _run(capsys, [*argv, "-"]) == inline
    depth_key = "depth" if argv[0] == "classify" else "k"
    assert json.loads(inline[1])[depth_key] == default


def test_json_polynomial_depth_is_honoured(capsys, monkeypatch):
    inline = _run(capsys, ["classify", "x+1", "-p", "3", "--depth", "5"])
    blob = json.dumps({"kind": "polynomial", "p": 3, "coeffs": [1, 1], "depth": 5})
    for argv in (["classify", "-"], ["classify", "-", "--depth", "5"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
        assert _run(capsys, argv) == inline
    assert json.loads(inline[1])["depth"] == 5


@pytest.mark.parametrize(
    "blob",
    [
        {"kind": "polynomial", "p": 3, "coeffs": [1, 1], "depth": 3},
        {"kind": "table", "p": 3, "depth": 3, "values": [(x + 1) % 27 for x in range(27)]},
    ],
)
def test_depth_given_twice_must_agree(capsys, monkeypatch, blob):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, out, err = _run(capsys, ["classify", "-", "--depth", "5"])
    assert code == 2 and out == ""
    assert f"--depth 5 disagrees with the {blob['kind']}'s depth 3" in err


def test_depth_variable_of_old_releases_is_ignored(capsys, monkeypatch):
    argv = ["classify", "x+1", "-p", "3", "--depth", "5"]
    before = _run(capsys, argv)
    monkeypatch.setenv("PADIC_DYN_MAX_DEPTH", "1")
    assert _run(capsys, argv) == before
    assert before[0] == 0


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["-p", "2", "--depth", "371"], True),
        (["-p", "2", "--depth", "372"], False),
        (["-p", "2147483647", "--depth", "12"], True),
        (["-p", "2147483647", "--depth", "13"], False),
        (["-p", "3", "--depth", "10000000000"], False),
    ],
)
def test_modulus_limit(capsys, argv, accepted):
    code, out, err = _run(capsys, ["expand", "--count", "2", *argv, "--", "-1"])
    if accepted:
        assert code == 0 and int(json.loads(out)["terms"][0]) == int(argv[1]) ** int(argv[3]) - 1
    else:
        assert code == 2 and out == ""
        assert f"modulus {argv[1]}^{argv[3]} is not below the modulus limit 2^372" in err


def test_oversized_vdp_series_refused(capsys):
    # the default basis of expand; the window check (2^26) still comes first
    code, out, err = _run(capsys, ["expand", "x+1", "-p", "3", "--count", "1048577"])
    assert code == 2 and out == ""
    assert ("van der Put series of 1048577 terms at p=3, depth 6 exceeds the van der "
            "Put length limit of 1048576 terms") in err
    code, _, err = _run(capsys, ["expand", "x+1", "-p", "3", "--count", "100000000"])
    assert code == 2 and "window of 100000000 values" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # UD1 window 3^7 + 2 * 3^6 = 3645 points
        (["classify", "1+x+x^65535", "-p", "3", "--depth", "7"],
         "degree 65535 over a window of 3645 values at p=3, depth 7 exceeds the "
         "degree x window budget of 100000000"),
        (["expand", "x^30000+1", "-p", "3", "--depth", "12", "--count", "3334"],
         "degree 30000 over a window of 3334 values"),
        # p^2 * 4097 passes int64: the budget for Python integers applies
        (["expand", "x^1025+1", "-p", "2147483647", "--depth", "2", "--count", "4096"],
         "budget of 4194304 for residues beyond int64"),
    ],
)
def test_degree_times_window_refused(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and message in err


def test_degree_times_window_at_the_budget_accepted(capsys):
    # 65535 * (3^6 + 2 * 3^5) = 79625025 Horner steps
    code, payload, _ = _run_json(
        capsys, ["classify", "1+x+9x^65535", "-p", "3", "--depth", "6"],
        schema="classify.schema.json",
    )
    assert code == 0 and payload["ergodicity"]["ergodic"] is True
    code, _, _ = _run(capsys, ["expand", "x^1024+1", "-p", "2147483647", "--depth", "2",
                               "--count", "4096"])
    assert code == 0


def test_classify_not_ergodic(capsys):
    code, payload, _ = _run_json(
        capsys,
        ["classify", "1+3x+2x^3", "-p", "2"],
        schema="classify.schema.json",
    )
    assert code == 1
    assert payload["ergodicity"]["ergodic"] is False
    assert payload["ud1"]["agree"] is True
    assert payload["lipschitz"]["pass"] is True


def test_classify_ergodic(capsys):
    code, payload, _ = _run_json(
        capsys, ["classify", "x+1", "-p", "3"], schema="classify.schema.json"
    )
    assert code == 0
    assert payload["ergodicity"]["ergodic"] is True
    assert payload["measure_preserving"]["pass"] is True


def test_classify_table_input_uses_oracle(capsys, tmp_path):
    # a transitive table that is not given as a polynomial
    blob = {"kind": "table", "p": 2, "depth": 2, "values": [1, 2, 3, 0]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(blob))
    code, payload, _ = _run_json(
        capsys, ["classify", f"@{path}"], schema="classify.schema.json"
    )
    assert code == 0
    assert payload["ergodicity"]["method"] == "exhaustive-to-depth"
    assert payload["ergodicity"]["scope"] == "to-depth"


@pytest.mark.parametrize("text, code", [("x+1", 0), ("1+3x+2x^3", 1)])
def test_classify_decides_a_polynomial_below_its_threshold_on_z_p(capsys, text, code):
    # depth 2 is below the threshold 3 at p = 2: the walk runs mod 8, where
    # the cubic, transitive mod 4, splits into two 4-cycles
    got, payload, _ = _run_json(
        capsys, ["classify", text, "-p", "2", "--depth", "2"], schema="classify.schema.json"
    )
    assert got == code and payload["depth"] == 2
    decision = payload["ergodicity"]
    assert decision["scope"] == "Z_p" and decision["method"] == "exhaustive-to-depth"
    assert decision["evidence"]["threshold"]["depth"] == 3
    assert decision["evidence"]["threshold"]["pass"] is decision["ergodic"] is (code == 0)


def test_classify_exits_3_when_the_threshold_disagrees_with_the_walk(capsys, monkeypatch):
    # at threshold 1 the cubic, transitive mod 2 but not mod 8, breaks the
    # polynomial theorem that the threshold cross-check stands for
    threshold = dynamics.transitivity_threshold
    monkeypatch.setattr(dynamics, "transitivity_threshold", lambda p: 1 if p == 2 else threshold(p))
    code, out, err = _run(capsys, ["classify", "1+3x+2x^3", "-p", "2", "--depth", "3"])
    assert code == 3 and out == ""
    assert "ergodic-oracle passed=False" in err and "transitive-mod passed=True" in err


# a UD1 table whose reduction mod 16 has two 8-cycles
TWO_CYCLES_MOD_16 = {
    "kind": "table", "p": 2, "depth": 4,
    "values": [9, 2, 3, 4, 5, 6, 7, 8, 1, 10, 11, 12, 13, 14, 15, 0],
}


def _ud1_draw(p, depth, index, kind):
    """Draw `index` of random_ud1_mahler_series(p, depth, p^depth,
    Random(7)) as a JSON function of the given kind: a UD1 map that the
    closed form calls ergodic and that is not."""
    rng = random.Random(7)
    for _ in range(index + 1):
        series = random_ud1_mahler_series(p, depth, p**depth, rng)
    if kind == "mahler":
        return series.to_json_dict()
    f = PadicFunction.from_mahler(series)
    if kind == "vdp":
        return vdp_coefficients(f).to_json_dict()
    return {"kind": "table", "p": p, "depth": depth, "values": f.value_table(depth)}


@pytest.mark.parametrize(
    "draw, kind",
    [(None, "table")]
    # the orbit walk fails at level 4 and at level 5
    + [(draw, kind) for draw in ((2, 6, 5), (3, 5, 537)) for kind in ("mahler", "table", "vdp")],
)
def test_classify_rejects_ud1_maps_the_closed_form_admits(capsys, monkeypatch, draw, kind):
    blob = TWO_CYCLES_MOD_16 if draw is None else _ud1_draw(*draw, kind)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, payload, _ = _run_json(capsys, ["classify", "-"], schema="classify.schema.json")
    assert code == 1
    assert payload["ud1"]["direct"]["pass"]
    assert payload["ergodicity"]["method"] == "exhaustive-to-depth"
    assert payload["ergodicity"]["scope"] == "to-depth"
    assert payload["ergodicity"]["ergodic"] is False
    assert payload["closed_form"]["ergodic"] is True
    assert payload["closed_form"]["scope"] == "Z_p"


def _flipped(route):
    """route with every verdict it returns negated."""
    return lambda *args: dataclasses.replace(verdict := route(*args), passed=not verdict.passed)


@pytest.mark.parametrize("values", [TWO_CYCLES_MOD_16["values"], [(x + 1) % 16 for x in range(16)]])
def test_classify_exits_3_when_the_ergodicity_routes_disagree(capsys, monkeypatch, values):
    conditions = dynamics.ergodic_conditions

    def flipped(f):
        out = conditions(f)
        out["combined"] = dataclasses.replace(out["combined"], passed=not out["combined"].passed)
        return out

    blob = json.dumps(dict(TWO_CYCLES_MOD_16, values=values))
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    oracle = json.loads(_run(capsys, ["classify", "-"])[1])["ergodicity"]["ergodic"]
    monkeypatch.setattr(dynamics, "ergodic_conditions", flipped)
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    code, out, err = _run(capsys, ["classify", "-"])
    assert code == 3 and out == ""
    assert f"ergodic-oracle passed={oracle}" in err
    assert f"ergodic-conditions passed={not oracle}" in err


@pytest.mark.parametrize("module, name, argv, routes", [
    (criteria, "vdp_ergodic_p2", "classify x+1 -p 2 --depth 3", "ergodicity routes disagree: "
     "mahler-ergodic-p2 passed=True, vdp-ergodic-p2 passed=False, cubic-ergodic-p2 passed=True"),
    (criteria, "larin_transitive_mod8", "classify x+1 -p 2 --depth 3", "ergodicity routes disagree: "
     "mahler-ergodic-p2 passed=True, vdp-ergodic-p2 passed=True, cubic-ergodic-p2 passed=False"),
    (criteria, "vdp_ergodic_p3", "classify x+1 -p 3 --depth 3", "ergodicity routes disagree: "
     "mahler-ergodic-p3 passed=True, vdp-ergodic-p3 passed=False, deg8-ergodic-p3 passed=True"),
    (criteria, "deg8_minimal_p3", "classify x+1 -p 3 --depth 3", "ergodicity routes disagree: "
     "mahler-ergodic-p3 passed=True, vdp-ergodic-p3 passed=True, deg8-ergodic-p3 passed=False"),
    (analysis, "vdp_ud1_relations_check", "classify x+1 -p 3 --depth 3", "differentiability routes "
     "disagree: ud1-direct passed=True, ud1-vdp-relations passed=False, ud1-mahler-predicate passed=True"),
    (dynamics, "ergodic_oracle", "generate -p 5 --seed 1", "ergodicity routes disagree: "
     "ergodic-p5 passed=True, ergodic-oracle passed=False"),
    (dynamics, "ergodic_oracle", "generate -p 5 --route poly --seed 1", "ergodicity routes disagree: "
     "ergodic-p5 passed=True, ergodic-oracle passed=False"),
])
def test_exit_3_names_the_routes_that_disagree_and_their_verdicts(capsys, monkeypatch, module, name,
                                                                  argv, routes):
    monkeypatch.setattr(module, name, _flipped(getattr(module, name)))
    code, out, err = _run(capsys, argv.split())
    assert code == 3 and out == ""
    assert err == f"internal check failed: {routes}\n"


def test_exit_3_names_the_derivative_residue_routes(capsys, monkeypatch):
    # x+1 at p = 3 has d(u) = 1 and every branch term B_{r+3} = 3; the direct
    # sweep is made to report d(4) = 2
    ud1_check = analysis.ud1_check

    def bumped(f):
        report = ud1_check(f)
        derived = report.derived.copy()
        derived[4] = (derived[4] + 1) % 3
        return dataclasses.replace(report, derived=derived)

    monkeypatch.setattr(analysis, "ud1_check", bumped)
    code, out, err = _run(capsys, "classify x+1 -p 3 --depth 3".split())
    assert code == 3 and out == ""
    assert err == ("internal check failed: derivative residue routes disagree at u=4: "
                   "direct sweep d(u)=2, van der Put B_4/p=1\n")


@pytest.mark.parametrize("argv, walk", [("classify x+1 -p 3 --depth 3", True),
                                        ("classify x^2+1 -p 2 --depth 3", False)])
def test_exit_3_names_the_closed_form_and_the_orbit_walk(capsys, monkeypatch, argv, walk):
    closed_form = criteria.closed_form_ergodic

    def flipped(f):
        decision = closed_form(f)
        return dataclasses.replace(decision, ergodic=not decision.ergodic)

    monkeypatch.setattr(criteria, "closed_form_ergodic", flipped)
    code, out, err = _run(capsys, argv.split())
    assert code == 3 and out == ""
    assert err == ("internal check failed: ergodicity routes disagree: "
                   f"exhaustive-to-depth passed={walk}, closed-form passed={not walk}\n")


def test_classify_builds_the_window_series_and_its_verdict_once(capsys, monkeypatch):
    # a UD1 table: the crosscheck, the Lipschitz report, measure
    # preservation and the ergodicity conditions all read the 81-term series
    counts = {"lipschitz_check": 0, "window series": 0}
    check = funcspace.lipschitz_check
    post_init = funcspace.CoefficientSeries.__post_init__

    def counting_check(series):
        counts["lipschitz_check"] += 1
        return check(series)

    def counting_post_init(series):
        counts["window series"] += series.kind == "vdp" and len(series.terms) == 81
        post_init(series)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("padicdyn") and hasattr(module, "lipschitz_check"):
            monkeypatch.setattr(module, "lipschitz_check", counting_check)
    monkeypatch.setattr(funcspace.CoefficientSeries, "__post_init__", counting_post_init)
    blob = {"kind": "table", "p": 3, "depth": 4, "values": [(x + 1) % 81 for x in range(81)]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, payload, _ = _run_json(capsys, ["classify", "-"], schema="classify.schema.json")
    assert code == 0 and payload["ud1"]["direct"]["pass"]
    assert counts == {"lipschitz_check": 1, "window series": 1}


@pytest.mark.parametrize("blob, depth, m", [
    ({"kind": "vdp", "p": 2, "k": 2, "terms": [1, 1, 2, 2, 1]}, [], 4),
    ({"kind": "mahler", "p": 2, "k": 2, "terms": [1, 1, 0, 0, 1]}, [], 4),
    ({"kind": "vdp", "p": 3, "k": 2, "terms": [1, 1, 1, 3, 3, 3, 6, 6, 6, 1]}, [], 9),
    ({"kind": "mahler", "p": 3, "k": 2, "terms": [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]}, [], 9),
    ({"kind": "vdp", "p": 2, "k": 3, "terms": [1, 1, 2, 2, 1, 0, 0, 0]}, ["--depth", "2"], 4),
    ({"kind": "mahler", "p": 2, "k": 3, "terms": [1, 1, 2, 2, 1, 0, 0, 0]}, ["--depth", "2"], 4),
    ({"kind": "vdp", "p": 2, "k": 3, "terms": [1, 1, 2, 2, 2, 0, 0, 0]}, ["--depth", "2"], 4),
    ({"kind": "mahler", "p": 2, "k": 3, "terms": [1, 1, 2, 2, 2, 0, 0, 0]}, ["--depth", "2"], 4),
])
def test_series_terms_past_the_depth_window_are_refused(capsys, monkeypatch, blob, depth, m):
    # a 1-Lipschitz map needs p^depth | term m for m >= p^depth; the direct
    # sweep read these terms and the other routes did not, which ended in exit 3
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, out, err = _run(capsys, ["classify", "-", *depth])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {blob['kind']} term {m} = ") and err.count("\n") == 1
    assert "is not divisible by" in err and "not 1-Lipschitz" in err


def test_series_tail_divisible_past_the_depth_window_is_answered(capsys, monkeypatch):
    blob = {"kind": "vdp", "p": 2, "k": 2, "terms": [1, 1, 2, 2, 4]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, payload, _ = _run_json(capsys, ["classify", "-"], "classify.schema.json")
    assert code == 1 and payload["ud1"]["agree"] is True


@pytest.mark.parametrize("depth, length", [(10, 1 << 16), (12, 1 << 18)])
def test_mahler_series_padded_past_the_window_reads_as_unpadded(capsys, monkeypatch, depth, length):
    # terms past p^depth are 0 mod p^depth, so the value pass and the terms x
    # window budget read only the first p^depth: x + 1 zero-padded to 2^16
    # terms took 1.2 s at depth 10, and padded to 2^18 terms at depth 12 was
    # refused by the budget
    reports = []
    for terms in ([1, 1], [1, 1] + [0] * (length - 2)):
        blob = {"kind": "mahler", "p": 2, "k": depth, "terms": terms}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
        reports.append(_run(capsys, ["classify", "-"]))
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_classify_refuses_an_empty_coeffs_list(capsys, monkeypatch):
    # exit 1 once, the "criterion false" code; the text form '' is exit 2 too
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"kind":"polynomial","p":2,"coeffs":[]}'))
    assert _run(capsys, ["classify", "-"]) == (2, "", "error: empty polynomial\n")
    assert _run(capsys, ["classify", "", "-p", "2"]) == (2, "", "error: empty polynomial\n")


@pytest.mark.parametrize("text, term", [
    ("x^-1", "x^-1"), ("2x^+3", "2x^+3"), ("1+x^-2+x", "+x^-2"), ("x^+1x", "x^+1x"),
])
def test_classify_refuses_a_signed_exponent_by_its_whole_term(capsys, text, term):
    # the sign after ^ once split the term, so the error named 'x^' or '2x^'
    message = f"error: cannot parse term {term!r}; exponents are non-negative integers\n"
    assert _run(capsys, ["classify", text, "-p", "3"]) == (2, "", message)


# strings with quotes, backslashes, control characters and non-ASCII text
_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e')
                     | st.characters(), max_size=6)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
                 | st.floats() | _JSON_TEXT)
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4)), max_leaves=20)


@settings(derandomize=True, database=None, max_examples=150)
@given(_JSON_VALUES)
@example({"p": 3, "empty": {}, "none": [], "pair": (True, None), "nested": [[{"k": "\u00e9\""}]],
          "elapsed_seconds": 0.125, "big": -(10**40)})
def test_report_writer_is_json_dumps_with_indent_2(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(obj)
    assert out.getvalue() == json.dumps(obj, indent=2) + "\n"


def test_classify_stdin(capsys, monkeypatch):
    blob = {"kind": "polynomial", "p": 2, "coeffs": [1, 1]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
    code, payload, _ = _run_json(
        capsys, ["classify", "-", "--depth", "4"], schema="classify.schema.json"
    )
    assert code == 0
    assert payload["depth"] == 4


@pytest.mark.parametrize("source", ["stdin", "bad-file", "missing-file"])
def test_classify_rejects_unreadable_input(capsys, monkeypatch, tmp_path, source):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    path = tmp_path / "f.json"
    if source == "bad-file":
        path.write_text("[1, 2")
    arg = "-" if source == "stdin" else f"@{path}"
    code, out, err = _run(capsys, ["classify", arg])
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_classify_rejects_shallow_depth(capsys):
    code, _, err = _run(capsys, ["classify", "x+1", "-p", "2", "--depth", "1"])
    assert code == 2
    assert "depth" in err


def test_inline_requires_prime(capsys):
    code, _, err = _run(capsys, ["expand", "x+1"])
    assert code == 2
    assert "prime" in err


def test_composite_prime_rejected(capsys):
    code, _, _ = _run(capsys, ["classify", "x+1", "-p", "4"])
    assert code == 2


def test_enumerate(capsys):
    code, payload, _ = _run_json(
        capsys, ["enumerate"], schema="enumerate.schema.json"
    )
    assert code == 0
    assert payload["total"] == 8 ** 4
    assert payload["ergodic"] == 64
    assert len(payload["classes"]) == 16
    assert all(len(c["members"]) == 4 for c in payload["classes"])


def test_enumerate_rejects_other_settings(capsys):
    # enumerate takes no prime or degree: argparse refuses either flag
    for flag in (["-p", "3"], ["--degree", "4"], ["-p", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_enumerate_exits_3_naming_the_first_cubic_the_criteria_disagree_on(capsys, monkeypatch):
    rows = criteria.larin_transitive_mod8_rows

    def flipped(coeffs):
        first, values = rows(coeffs)
        first = first.copy()
        first[1234] = -1 if first[1234] >= 0 else 0
        return first, values

    monkeypatch.setattr(criteria, "larin_transitive_mod8_rows", flipped)
    code, out, err = _run(capsys, ["enumerate", "--crosscheck"])
    a, b, c, d = (int(i) for i in np.unravel_index(1234, (8, 8, 8, 8)))  # loop order
    assert code == 3 and out == ""
    assert err == f"internal check failed: criteria disagree on {(d, c, b, a)}\n"


def test_enumerate_makes_no_scalar_criterion_call(capsys, monkeypatch):
    # every cubic is decided as one row of Larin's criterion (one scalar call
    # per cubic, 4096, before the row form)
    calls = []
    scalar = criteria.larin_transitive_mod8
    monkeypatch.setattr(criteria, "larin_transitive_mod8", lambda c: calls.append(c) or scalar(c))
    code, payload, _ = _run_json(capsys, ["enumerate", "--crosscheck"])
    assert code == 0 and payload["ergodic"] == 64
    assert payload["p"] == 2 and payload["degree"] == 3
    assert calls == []


def test_generate_builds_no_separate_vdp_series(capsys, monkeypatch):
    # the branch residues are read from each function's window series (four
    # 2p-term series per instance before)
    calls = []
    extract = funcspace.vdp_coefficients
    for module in list(sys.modules.values()):
        if module.__name__.startswith("padicdyn") and hasattr(module, "vdp_coefficients"):
            monkeypatch.setattr(
                module, "vdp_coefficients", lambda *a, **k: calls.append(a) or extract(*a, **k)
            )
    code, payload, _ = _run_json(capsys, ["generate", "-p", "7", "--seed", "1"])
    assert code == 0 and payload["instances"][0]["linear_form"]["agree"]
    assert calls == []


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    _, first, _ = _run_json(capsys, ["verify", "--suite", "abc", "--p-max", "5"])
    _, second, _ = _run_json(capsys, ["verify", "--suite", "pzero", "--p-max", "5"])
    assert [r["suite"] for r in first["suites"]] == ["abc"]
    assert [r["suite"] for r in second["suites"]] == ["pzero"]
    _, deep, _ = _run_json(capsys, ["classify", "x+1", "-p", "3", "--depth", "5"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "x+1", "-p", "3", "--depth", "five"])
    assert exc.value.code == 2
    _, default, _ = _run_json(capsys, ["classify", "x+1", "-p", "3"])
    assert (deep["depth"], default["depth"]) == (5, 4)


def test_generate_deterministic(capsys):
    argv = ["generate", "-p", "5", "--count", "2", "--seed", "11"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    jsonschema.validate(payload, _schema("generate.schema.json"))
    assert payload["count"] == 2
    for inst in payload["instances"]:
        assert inst["linear_form"]["agree"] is True


def test_generate_explicit_data(capsys):
    code, payload, _ = _run_json(
        capsys,
        ["generate", "-p", "5", "--phi", "1,2,3,4,0", "--bvec", "1,1,1,1,1",
         "--lift", ",".join("0" * 10)],
        schema="generate.schema.json",
    )
    assert code == 0
    assert payload["count"] == 1
    inst = payload["instances"][0]
    assert inst["phi"] == ["1", "2", "3", "4", "0"]


def test_generate_poly_route(capsys):
    code, payload, _ = _run_json(
        capsys,
        ["generate", "-p", "5", "--route", "poly", "--count", "2", "--seed", "3"],
        schema="generate.schema.json",
    )
    assert code == 0
    for inst in payload["instances"]:
        assert inst["route"] == "poly"
        assert set(inst["conditions"]) == {
            "transitive_mod_p", "branch_product", "return_valuation", "combined",
        }


def test_generate_poly_route_refused_over_the_horner_budget(capsys):
    # the oracle's depth-3 table of a degree-177 polynomial over 89^3 points
    # exceeds the degree x window budget of the value array
    code, out, err = _run(capsys, ["generate", "-p", "89", "--route", "poly", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "degree x window budget" in err


def test_generate_needs_prime(capsys):
    code, _, _ = _run(capsys, ["generate"])
    assert code == 2


@pytest.mark.parametrize("extra", [[], ["--phi", "1,2,0"]])
@pytest.mark.parametrize("p", ["0", "1", "9", "25"])
def test_generate_refuses_a_prime_that_is_not_prime(capsys, p, extra):
    # -p 0 used to end in a ZeroDivisionError traceback with exit 1, and
    # -p 9 / -p 25 in "... is not invertible mod p"
    code, out, err = _run(capsys, ["generate", "-p", p, *extra])
    assert (code, out, err) == (2, "", f"error: expected a prime, got {p}\n")


@pytest.mark.parametrize("argv", ["-p 2", "-p 3", "-p 3 --phi 1,2,0", "-p 3 --route poly"])
def test_generate_refuses_a_prime_below_5_by_name(capsys, argv):
    # these named the library check that refused them, p5_instance or
    # solve_power_basis_system
    code, out, err = _run(capsys, ["generate", *argv.split()])
    assert (code, out) == (2, "")
    assert err.startswith("error: generate ") and err.count("\n") == 1
    assert "p5_instance" not in err and "solve_power_basis_system" not in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_rejects_count_below_one(capsys, count):
    code, out, err = _run(capsys, ["generate", "-p", "5", "--count", count])
    assert code == 2
    assert out == "" and "count must be >= 1" in err


@pytest.mark.parametrize("argv", [
    "--count 3 --phi 1,2,3,4,0", "--count 2 --bvec 1,1,1,1,1", "--count 2 --lift " + "0," * 9 + "0",
    "--route poly --phi 1,2,3,4,0", "--route poly --bvec 1,1,1,1,1", "--route poly --lift 1",
    "--route poly --count 2 --phi 1,2,3,4,0",
])
def test_generate_refuses_flags_it_would_ignore(capsys, argv):
    # the count was forced to 1, and the poly route drew its own data
    code, out, err = _run(capsys, ["generate", "-p", "5", "--seed", "1", *argv.split()])
    assert code == 2 and out == ""
    assert err.startswith("error: --phi, --bvec and --lift build ") and err.count("\n") == 1


@pytest.mark.parametrize("lift", [[], ["--lift", ",".join("0" * 10)]])
def test_generate_refuses_a_seed_it_would_not_draw_from(capsys, lift):
    # with --phi and --bvec given, and an omitted --lift zero, nothing is
    # drawn: --seed 1 and --seed 2 printed the same bytes
    for seed in ("1", "2"):
        argv = ["generate", "-p", "5", "--phi", "1,2,3,4,0", "--bvec", "1,1,1,1,1", "--seed", seed]
        code, out, err = _run(capsys, argv + lift)
        assert (code, out, err) == (2, "", "error: --seed draws nothing once --phi and --bvec "
                                           "are both given\n")


def test_generate_exits_3_where_the_linear_form_misses_the_return_residue(capsys, monkeypatch):
    # C(x_4, 0) reads one too many at x_4 = phi^-1(0) = 4, the last point of
    # the orbit before 0, whose g_1 term has weight 1: with z_0 = 1 the
    # formula comes out one above the residue of the lifted map's orbit
    phi, bvec, lift = (1, 2, 3, 4, 0), (1,) * 5, (1,) + (0,) * 9
    argv = ["generate", "-p", "5", "--phi", "1,2,3,4,0", "--bvec", "1,1,1,1,1",
            "--lift", ",".join(map(str, lift))]
    assert criteria.p5_linear_form(5, phi, bvec, lift)["agree"]
    binomial = criteria.binomial
    monkeypatch.setattr(criteria, "binomial", lambda x, m: binomial(x, m) + (x == 4 and m == 0))
    with pytest.raises(InternalCheckError, match="^linear form missed the return residue$"):
        criteria.p5_linear_form(5, phi, bvec, lift)
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (3, "", "internal check failed: linear form missed the return residue\n")


@pytest.mark.parametrize("argv, message", [
    ("-p 10007", "a window of 1002101470343 values at p=10007, depth 3 exceeds "
                 "the materialization limit of 67108864 points"),
    ("-p 409", "a window of 68417929 values at p=409, depth 3 exceeds "
               "the materialization limit of 67108864 points"),
    ("-p 401 --route poly", "a polynomial of degree 801 over a window of 64481201 values "
                            "at p=401, depth 3 exceeds the degree x window budget of 100000000"),
    ("-p 1009 --route poly", "a window of 1027243729 values at p=1009, depth 3 exceeds "
                             "the materialization limit of 67108864 points"),
    ("-p 401", "a Mahler series of 802 terms over a window of 64481201 values at p=401, "
               "depth 3 exceeds the terms x window budget of 1000000000"),
    ("-p 151", "a Mahler series of 302 terms over a window of 3442951 values at p=151, "
               "depth 3 exceeds the terms x window budget of 1000000000"),
    # one instance fits its budget, --count of them do not
    ("-p 149 --count 2", "--count 2 instances of a Mahler series of 298 terms over a window "
                         "of 3307949 values at p=149, depth 3 exceed the terms x window "
                         "budget of 1000000000"),
    ("-p 83 --route poly --count 2", "--count 2 instances of a polynomial of degree 165 over "
                                     "a window of 571787 values at p=83, depth 3 exceed the "
                                     "degree x window budget of 100000000"),
])
def test_generate_refuses_its_window_before_any_instance_is_drawn(capsys, monkeypatch, argv, message):
    # these limits used to fire only once an instance was solved and built:
    # after 5.2 s at -p 10007, 16.7 s at -p 401 --route poly, and past 100 s
    # at -p 1009 --route poly, inside the O(p^3) solve that interpolation replaced
    def boom(*args, **kwargs):
        raise AssertionError("an instance was drawn or solved")

    for name in ("random_transitive_permutation", "random_power_basis_poly",
                 "solve_power_basis_system", "p5_linear_form"):
        monkeypatch.setattr(criteria, name, boom)
    code, out, err = _run(capsys, ["generate", *argv.split(), "--seed", "1"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("p", ["5", "7", "11", "89"])
def test_generate_answers_below_the_mahler_budget(capsys, p):
    # p = 89 holds 2p x p^3 = 1.25e8 term-points, an eighth of the budget
    code, payload, _ = _run_json(capsys, ["generate", "-p", p, "--seed", "1"],
                                 schema="generate.schema.json")
    assert code == 0 and payload["count"] == 1


def test_generate_answers_a_count_within_the_budget(capsys):
    code, payload, _ = _run_json(capsys, ["generate", "-p", "11", "--count", "3", "--seed", "1"],
                                 schema="generate.schema.json")
    assert code == 0 and payload["count"] == 3


def test_verify_single_suite(capsys):
    code, payload, _ = _run_json(
        capsys,
        ["verify", "--suite", "abc", "--p-max", "7"],
        schema="verify.schema.json",
    )
    assert code == 0
    assert payload["pass"] is True
    assert payload["suites"][0]["suite"] == "abc"
    assert payload["suites"][0]["counterexamples"] == []


def test_verify_all_suites_small(capsys):
    code, payload, _ = _run_json(
        capsys,
        ["verify", "--suite", "all", "--p-max", "5", "--s-max", "2"],
        schema="verify.schema.json",
    )
    assert code == 0
    assert {r["suite"] for r in payload["suites"]} == set(
        identities.all_suite_names()
    )
    assert all(r["pass"] for r in payload["suites"])


def test_verify_counterexamples(capsys):
    code, payload, _ = _run_json(
        capsys, ["verify", "--counterexamples"], schema="verify.schema.json"
    )
    assert code == 0
    assert payload["pass"] is True
    families = [c for c in payload["counterexamples"] if "family" in c]
    assert {c["p"] for c in families} == {2, 3, 5, 7, 11, 13}
    polys = [c for c in payload["counterexamples"] if "checks" in c]
    assert all(all(c["checks"].values()) for c in polys)


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "valpro", "--s-max", "0"],
        ["--suite", "bipro", "--p-max", "2"],
        ["--suite", "bipro", "--s-max", "1"],
    ],
)
def test_verify_refuses_empty_range(capsys, argv):
    code, out, err = _run(capsys, ["verify", *argv])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "suites", [["abc"], ["pzero"], ["bipro"], ["all"], ["valpro", "bip2", "pzero"]]
)
@pytest.mark.parametrize("p_max", ["98", "200"])
def test_verify_refuses_p_max_above_97(capsys, suites, p_max):
    # valpro at p_max 200 would run for days: the bound of a later suite is
    # checked before it starts
    argv = ["verify", "--p-max", p_max]
    for suite in suites:
        argv += ["--suite", suite]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and f"p_max {p_max} is above that limit" in err
    assert "up to 97" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "valpro", "--p-max", "97"],  # 1.2e12 instances
        ["--suite", "bipro", "--s-max", "5"],  # 2.5e11 pairs
        ["--suite", "bip2", "--suite", "valpro", "--p-max", "139", "--s-max", "2"],
        ["--suite", "all", "--p-max", "31", "--s-max", "3"],
    ],
)
def test_verify_refuses_a_range_beyond_the_work_limit(capsys, monkeypatch, argv):
    def boom(name, **overrides):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(cli.identities, "verify_identity_suite", boom)
    code, out, err = _run(capsys, ["verify", *argv])
    assert code == 2
    assert out == "" and "work limit" in err


def test_verify_refuses_bip2_beyond_s_max_9(capsys, monkeypatch):
    def boom(name, **overrides):
        raise AssertionError(f"suite {name} ran")

    monkeypatch.setattr(cli.identities, "verify_identity_suite", boom)
    code, out, err = _run(capsys, ["verify", "--suite", "bip2", "--s-max", "10"])
    assert code == 2
    assert out == "" and "bip2 at s_max 10 is above s_max 9, its work limit" in err


@pytest.mark.parametrize("argv, option", [
    ("--suite bip2 --p-max 5", "--p-max"),
    ("--suite abc --s-max 3", "--s-max"),
    ("--suite abc --suite pzero --s-max 3 --counterexamples", "--s-max"),
    ("--counterexamples --p-max 5", "--p-max"),
    ("--counterexamples --p-max 5 --s-max 3", "--p-max"),
])
def test_verify_refuses_a_range_option_no_suite_takes(capsys, monkeypatch, argv, option):
    # each exited 0 and dropped the option without a word
    def boom(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli.identities, "verify_identity_suite", boom)
    monkeypatch.setattr(cli.criteria, "counterexample_catalog", boom)
    code, out, err = _run(capsys, ["verify", *argv.split()])
    assert (code, out, err) == (2, "", f"error: {option} applies to none of the suites that run\n")


@pytest.mark.parametrize("argv", ["--suite abc --suite abc --p-max 5", "--suite all --suite abc"])
def test_verify_refuses_a_repeated_suite(capsys, monkeypatch, argv):
    # the first printed two identical abc reports, the second dropped abc
    # without a word; both are refused before any suite runs
    def boom(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli.identities, "verify_identity_suite", boom)
    code, out, err = _run(capsys, ["verify", *argv.split()])
    message = "--suite names each suite at most once, and all only alone"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    "--suite all --p-max 5 --s-max 2 --counterexamples",
    "--suite bipro --p-max 13 --s-max 3",
    "--suite bip2 --suite abc --p-max 5 --s-max 3",
])
def test_verify_takes_a_range_option_that_some_suite_takes(capsys, argv):
    code, payload, _ = _run_json(capsys, ["verify", *argv.split()], schema="verify.schema.json")
    assert code == 0 and payload["pass"] is True


def test_global_jobs_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--jobs", "2", "expand", "x+1", "-p", "3"])
    assert exc.value.code == 2


def test_classify_mu_flag_removed(capsys):
    # --mu 2 once reported this non-ergodic cubic as ergodic
    with pytest.raises(SystemExit) as exc:
        cli.main("classify 1+3x+2x^3 -p 2 --depth 2 --mu 2".split())
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("p, text", [(2, "1+3x+2x^3"), (3, "x+1"), (5, "x^2+x+1")])
def test_classify_sweeps_ud1_once(capsys, monkeypatch, p, text):
    calls = []
    scan = backends.ud1_table_scan

    def counted(*args):
        calls.append(args[1:])
        return scan(*args)

    monkeypatch.setattr(backends, "ud1_table_scan", counted)
    _, payload, _ = _run_json(capsys, ["classify", text, "-p", str(p)])
    assert payload["ud1"]["direct"]["pass"] and "closed_form" in payload
    assert calls == [(p, 4)]


@pytest.mark.parametrize("argv", [
    ["1+x+509x^3", "-p", "509", "--depth", "2"], ["x+1", "-p", "3"], ["1+3x+2x^3", "-p", "2"],
    ["x^2+x+1", "-p", "5", "--depth", "3"], ["1+x+7x^2", "-p", "7", "--depth", "3"],
])
def test_classify_runs_no_literal_sweep_on_a_ud1_map(capsys, monkeypatch, argv):
    # the direct sweep decides a UD1 map by its h = 1 and periodicity checks
    # alone; at p = 509 the literal sweep took over a second
    def literal(*args):
        raise AssertionError("the literal sweep ran on a UD1 map")

    monkeypatch.setattr(backends, "_first_failure", literal)
    _, payload, _ = _run_json(capsys, ["classify", *argv])
    assert payload["ud1"]["direct"]["pass"] and payload["ud1"]["mahler"]["pass"]


def test_verify_without_flags(capsys):
    code, _, err = _run(capsys, ["verify"])
    assert code == 2
    assert "nothing to verify" in err


def test_internal_check_exit_code(capsys, monkeypatch):
    def boom(name, **overrides):
        raise InternalCheckError("forced")

    monkeypatch.setattr(cli.identities, "verify_identity_suite", boom)
    code, _, err = _run(capsys, ["verify", "--suite", "abc"])
    assert code == 3
    assert "internal check" in err


@pytest.mark.parametrize(
    "p, route",
    [
        (2, "measure_preserving_ud_p2"),
        (2, "measure_preserving_ud_p2_mahler"),
        (3, "measure_preserving_ud_odd"),
        (5, "measure_preserving_ud_odd"),
    ],
)
@pytest.mark.parametrize("text", ["x+1", "x^2"])
def test_classify_exits_3_when_a_ud_criterion_disagrees(capsys, monkeypatch, p, route, text):
    # x+1 preserves measure and x^2 does not; the flipped criterion disagrees
    # with the van der Put route either way
    criterion = getattr(dynamics, route)
    argv = ["classify", text, "-p", str(p)]
    preserving = json.loads(_run(capsys, argv)[1])["measure_preserving"]["pass"]
    monkeypatch.setattr(dynamics, route, _flipped(criterion))
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    name = criterion.__name__.replace("_", "-")
    assert f"measure-preserving-vdp passed={preserving}" in err
    assert f"{name} passed={not preserving}" in err


def _declared_console_script(name):
    """The ``console_scripts`` entry point that the project declares for ``name``.

    Read from ``[project.scripts]`` in ``pyproject.toml``. Python 3.10 has no
    ``tomllib``; there the installed distribution's entry point is used when
    there is one, and otherwise ``tomli``, which pytest itself needs on 3.10.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        installed = entry_points(group="console_scripts", name=name)
        if installed:
            return next(iter(installed))
        import tomli as tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    return EntryPoint(name=name, value=target, group="console_scripts")


def _child_env():
    """The environment for a child interpreter.  The checkout test command
    puts a relative ``src`` on PYTHONPATH, which does not hold under another
    cwd; point at the package this test imported."""
    package_root = str(Path(padicdyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def test_console_script(tmp_path):
    """The declared ``padic-dyn`` entry point, run as its own process.

    The script is the wrapper an installer writes for a console script
    (``sys.exit(main())``), so the JSON on stdout and ``main``'s return code
    must reach the shell. Where ``padic-dyn`` is installed on PATH, it is run
    too and must give the same stdout and exit code.
    """
    ep = _declared_console_script("padic-dyn")
    script = tmp_path / "padic-dyn"
    script.write_text(
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({ep.attr}())\n"
    )
    env = _child_env()
    installed = shutil.which("padic-dyn")

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, str(script), *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        if installed is not None:
            other = subprocess.run(
                [installed, *argv],
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )
            assert (other.returncode, other.stdout) == (proc.returncode, proc.stdout)
        return proc

    proc = run("expand", "x+1", "-p", "3", "--basis", "mahler", "--count", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["terms"] == ["1", "1", "0"]

    assert run("classify", "x^2", "-p", "3").returncode == 1

    proc = run("classify", "x+1", "-p", "4")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "x+1", "-p", "3", "--depth", "6"],  # breaks while writing
        ["classify", "x^2", "-p", "3"],  # criterion false, breaks at the flush
    ],
)
def test_closed_stdout_exits_2_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "padicdyn.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
