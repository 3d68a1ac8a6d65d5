"""Properties of `classify` and `expand` on generated input, run through
`cli.main` in process.

The contract: every JSON function object gets exit 0, 1 or 2.  Exit 2
writes nothing to stdout and exactly one `error:` line to stderr, with no
traceback; exit 0 or 1 writes a report that validates against the classify
schema, and only for a 1-Lipschitz map, since 1 means "criterion false".
Objects of every kind are drawn at p in {2, 3, 5, 7}, with series shorter
than, as long as and longer than p^depth, and terms on both sides of their
Lipschitz floors.

`expand -` of the same objects, in either basis, with or without
`--count` (up to p^depth, and past it for polynomials), `--depth` (at or
below the object's) and `--normalized`, gets exit 0 or 2.  Exit 2 is one
`error:` line as above; exit 0 writes a series that validates against the
series schema, whose normalized terms, when asked for, are the scalar
reference's on the printed terms.

Cross-kind invariance: one polynomial at depth >= mu, given as polynomial,
value table, van der Put and Mahler series, gets the same verdicts and the
same exit code.  One 1-Lipschitz table drawn digit by digit, given as the
table, its van der Put series and its Mahler series, gets the same exit
code and the same report apart from `kind`.

`generate` with -p in {2, 3, 4, 5, 7, 11, 13}, --count 0..3, --seed and
--route each given or not, and --phi, --bvec and --lift each absent, valid
or one entry off, gets exit 0 or 2: exit 0 writes a report that validates
against the generate schema and holds --count instances, exit 2 is one
`error:` line.

`verify` with a subset of the identity suites (or `all`), `--p-max` up to
31 and `--s-max` up to 3, each given or left at its default, gets exit 0
or 2: exit 0 reports every suite passing with a positive `checked`, exit 2
is one `error:` line.  Where bipro runs, the range keeps its scan small.
Hypothesis runs derandomized with a bounded number of examples.
"""

import contextlib
import io
import json
import math
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padicdyn import cli, identities
from padicdyn.dynamics import transitivity_threshold
from padicdyn.funcspace import (
    CoefficientSeries,
    PadicFunction,
    mahler_coefficients,
    vdp_coefficients,
)
from scalar_reference import floor_log, normals_reference, required_ud1_valuation

SCHEMAS = resources.files("padicdyn.schemas")
CLASSIFY_SCHEMA = json.loads(SCHEMAS.joinpath("classify.schema.json").read_text())
SERIES_SCHEMA = json.loads(SCHEMAS.joinpath("series.schema.json").read_text())
VERIFY_SCHEMA = json.loads(SCHEMAS.joinpath("verify.schema.json").read_text())
GENERATE_SCHEMA = json.loads(SCHEMAS.joinpath("generate.schema.json").read_text())

MAX_DEPTH = {2: 4, 3: 4, 5: 3, 7: 3}

cli_settings = settings(
    derandomize=True,
    database=None,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(argv, obj):
    """(exit code, stdout, stderr) of the command line argv with the JSON
    object on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def classify(obj):
    return run(["classify", "-"], obj)


def refused_with_one_line(code, out, err):
    """Exit 2 with no stdout and one `error:` line, or another exit code
    with no traceback."""
    assert "Traceback" not in err
    if code != 2:
        return False
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return True


@st.composite
def function_objects(draw):
    """JSON function objects of every kind.  Series terms and the Mahler
    terms behind a table sit at their Lipschitz floors e(m) or at the
    higher floors of the Mahler UD1 predicate, times a random residue; one
    term may be drawn a power of p below its Lipschitz floor."""
    p = draw(st.sampled_from(sorted(MAX_DEPTH)))
    depth = draw(st.integers(1, MAX_DEPTH[p]))
    size = p**depth
    kind = draw(st.sampled_from(["table", "vdp", "mahler", "polynomial"]))
    if kind == "polynomial":
        coeffs = draw(st.lists(st.integers(-size, size), max_size=6))
        return {"kind": kind, "p": p, "depth": depth, "coeffs": coeffs}
    if kind == "table":
        length = size
    else:
        length = draw(st.sampled_from(sorted({1, max(1, size // p), size - 1 or 1, size,
                                              size + 1, p * size})))
    rng = draw(st.randoms(use_true_random=False))
    floor = required_ud1_valuation if draw(st.booleans()) else floor_log
    terms = [p ** min(floor(m, p), depth) * rng.randrange(size) for m in range(length)]
    if length > p and draw(st.booleans()):
        m = rng.randrange(p, length)
        unit = rng.randrange(1, p) + p * rng.randrange(size)
        terms[m] = p ** (min(floor_log(m, p), depth) - 1) * unit
    if kind == "table":
        series = CoefficientSeries("mahler", p, depth, terms)
        values = PadicFunction.from_mahler(series).value_table(depth)
        return {"kind": kind, "p": p, "depth": depth, "values": values}
    return {"kind": kind, "p": p, "k": depth, "terms": terms}


@cli_settings
@given(function_objects())
@example({"kind": "table", "p": 2, "depth": 3, "values": [7, 3, 1, 5, 7, 1, 5, 7]})
def test_classify_answers_a_lipschitz_map_or_refuses_with_one_error_line(obj):
    code, out, err = classify(obj)
    assert code in (0, 1, 2)
    if refused_with_one_line(code, out, err):
        return
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, CLASSIFY_SCHEMA)
    assert report["lipschitz"]["pass"]


@st.composite
def expand_requests(draw):
    """(argv, obj): `expand -` of a function object in either basis, at a
    --depth at or below the object's, with a --count up to p^depth (past it
    for a polynomial), with and without --normalized."""
    obj = draw(function_objects())
    p, depth = obj["p"], obj.get("depth", obj.get("k"))
    argv = ["expand", "-", "--basis", draw(st.sampled_from(["mahler", "vdp"]))]
    if draw(st.booleans()):
        depth = draw(st.integers(1, depth))
        argv += ["--depth", str(depth)]
    if draw(st.booleans()):
        limit = p ** (depth + (obj["kind"] == "polynomial"))
        argv += ["--count", str(draw(st.integers(1, limit)))]
    if draw(st.booleans()):
        argv.append("--normalized")
    return argv, obj


@settings(cli_settings, max_examples=100)
@given(expand_requests())
@example((["expand", "-", "--basis", "vdp", "--count", "5", "--normalized"],
          {"kind": "polynomial", "p": 2, "depth": 2, "coeffs": [1, 1]}))
def test_expand_prints_a_series_or_refuses_with_one_error_line(request):
    argv, obj = request
    code, out, err = run(argv, obj)
    assert code in (0, 2)
    if refused_with_one_line(code, out, err):
        return
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, SERIES_SCHEMA)
    if "--normalized" in argv:
        series = CoefficientSeries.from_json_dict(report)
        assert report["normalized"] == [str(b) for b in normals_reference(series, 0, len(series))]
    else:
        assert "normalized" not in report


@st.composite
def polynomials_past_mu(draw):
    """(p, depth, coeffs) with depth >= mu; half of them x + 1 + p g(x),
    transitive mod p, so that both exit codes occur at every prime."""
    p = draw(st.sampled_from(sorted(MAX_DEPTH)))
    mu = transitivity_threshold(p)
    depth = draw(st.integers(mu, mu + 1))
    coeffs = draw(st.lists(st.integers(0, p**depth - 1), min_size=2, max_size=6))
    if draw(st.booleans()):
        coeffs = [p * c + (i < 2) for i, c in enumerate(coeffs)]
    return p, depth, coeffs


def _verdicts(obj):
    code, out, _ = classify(obj)
    report = json.loads(out)
    ud1 = report["ud1"]
    return (code, report["lipschitz"]["pass"], ud1["direct"]["pass"], ud1["vdp"]["pass"],
            ud1["mahler"]["pass"], report["measure_preserving"]["pass"],
            report["ergodicity"]["ergodic"])


@cli_settings
@given(polynomials_past_mu())
def test_every_kind_of_one_map_gets_the_same_verdicts(case):
    p, depth, coeffs = case
    f = PadicFunction.from_polynomial(coeffs, p, depth)
    objects = [
        {"kind": "polynomial", "p": p, "depth": depth, "coeffs": coeffs},
        {"kind": "table", "p": p, "depth": depth, "values": f.value_table(depth)},
        vdp_coefficients(f).to_json_dict(),
        mahler_coefficients(f).to_json_dict(),
    ]
    verdicts = [_verdicts(obj) for obj in objects]
    assert verdicts[0][0] in (0, 1)
    assert verdicts == [verdicts[0]] * 4


@st.composite
def lipschitz_tables(draw):
    """(p, depth, values): a 1-Lipschitz table mod p^depth, p in {2, 3, 5},
    depth 2..4, drawn digit by digit: digit k of f(x) depends on x mod
    p^(k+1) only.  Either every digit is drawn at random, or digit 0 is a
    permutation of the residues and digit k is x's digit k plus a drawn
    shift of x mod p^k, a UD1 bijection that is ergodic or not."""
    p = draw(st.sampled_from([2, 3, 5]))
    depth = draw(st.integers(2, 4))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        digits = [[rng.randrange(p) for _ in range(p ** (k + 1))] for k in range(depth)]
    else:
        shifts = [[rng.randrange(p) for _ in range(p**k)] for k in range(depth)]
        digits = [rng.sample(range(p), p)] + [
            [(x // p**k + shifts[k][x % p**k]) % p for x in range(p ** (k + 1))]
            for k in range(1, depth)
        ]
    values = [sum(digits[k][x % p ** (k + 1)] * p**k for k in range(depth))
              for x in range(p**depth)]
    return p, depth, values


@cli_settings
@given(lipschitz_tables())
def test_a_lipschitz_table_gets_one_report_in_every_kind(case):
    p, depth, values = case
    f = PadicFunction.from_table(values, p, depth)
    objects = [
        {"kind": "table", "p": p, "depth": depth, "values": values},
        vdp_coefficients(f).to_json_dict(),
        mahler_coefficients(f).to_json_dict(),
    ]
    answers = []
    for obj in objects:
        code, out, err = classify(obj)
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        assert report.pop("kind") == obj["kind"]
        answers.append((code, report))
    assert answers == [answers[0]] * 3


@st.composite
def generate_argv(draw):
    """`generate` argv: -p from {2, 3, 4, 5, 7, 11, 13}, --count 0..3, --seed
    and --route each given or not, and --phi, --bvec and --lift each
    absent, valid (a p-cycle, p units of product 1, 2p residues) or one
    entry off (one value moved by one, one entry dropped or one added)."""
    p = draw(st.sampled_from([2, 3, 4, 5, 7, 11, 13]))
    argv = ["generate", "-p", str(p)]
    count = draw(st.none() | st.integers(0, 3))
    seed = draw(st.none() | st.integers(-5, 10**6))
    route = draw(st.none() | st.sampled_from(["mahler", "poly"]))
    for flag, value in (("--count", count), ("--seed", seed), ("--route", route)):
        if value is not None:
            argv += [flag, str(value)]
    order = draw(st.permutations(range(1, p)))
    cycle = [0, *order]
    phi = [0] * p
    for i in range(p):
        phi[cycle[i]] = cycle[(i + 1) % p]
    units = draw(st.lists(st.integers(1, p - 1), min_size=p - 1, max_size=p - 1))
    prod = math.prod(units) % p
    bvec = units + [pow(prod, -1, p) if math.gcd(prod, p) == 1 else 1]
    lift = draw(st.lists(st.integers(0, p - 1), min_size=2 * p, max_size=2 * p))
    for flag, vec in (("--phi", phi), ("--bvec", bvec), ("--lift", lift)):
        mode = draw(st.sampled_from(["absent", "valid", "moved", "dropped", "added"]))
        if mode == "absent":
            continue
        i = draw(st.integers(0, len(vec) - 1))
        if mode == "moved":
            vec = vec[:i] + [vec[i] + 1] + vec[i + 1:]
        elif mode == "dropped":
            vec = vec[:i] + vec[i + 1:]
        elif mode == "added":
            vec = vec + [vec[i]]
        argv += [flag, ",".join(map(str, vec))]
    return argv, count


@settings(cli_settings, max_examples=150)
@given(generate_argv())
@example((["generate", "-p", "7", "--count", "3", "--route", "poly"], 3))
@example((["generate", "-p", "5", "--phi", "1,2,3,4,0", "--lift", "0,0,0,0,0,0,0,0,0,1"], None))
def test_generate_prints_its_instances_or_refuses_with_one_error_line(request):
    argv, count = request
    code, out, err = run(argv, None)
    assert code in (0, 2)
    if refused_with_one_line(code, out, err):
        return
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, GENERATE_SCHEMA)
    assert report["count"] == len(report["instances"]) == (1 if count is None else count)


@st.composite
def verify_argv(draw):
    """`verify` with one to three --suite options and the range options.
    valpro and bipro always get an --s-max, and bipro at s_max 3 a p_max
    of at most 7, since their defaults (13, 4) and bipro at (31, 3) take
    seconds to minutes."""
    names = draw(st.lists(st.sampled_from(identities.all_suite_names() + ("all",)),
                          min_size=1, max_size=3))
    runs = set(identities.all_suite_names()) if "all" in names else set(names)
    s_max = draw(st.integers(-1, 3) if runs & {"valpro", "bipro"}
                 else st.none() | st.integers(-1, 3))
    small = "bipro" in runs and s_max == 3
    p_max = draw(st.integers(-2, 7) if small else st.none() | st.integers(-2, 31))
    argv = ["verify"] + [arg for name in names for arg in ("--suite", name)]
    for flag, value in (("--p-max", p_max), ("--s-max", s_max)):
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(cli_settings, max_examples=60)
@given(verify_argv())
@example(["verify", "--suite", "abc", "--suite", "bip2", "--p-max", "31", "--s-max", "3"])
@example(["verify", "--suite", "pzero", "--s-max", "2"])
def test_verify_passes_every_suite_or_refuses_with_one_error_line(argv):
    code, out, err = run(argv, None)
    assert code in (0, 2)
    if refused_with_one_line(code, out, err):
        return
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, VERIFY_SCHEMA)
    assert report["pass"] and report["suites"]
    for suite in report["suites"]:
        assert suite["pass"] and int(suite["checked"]) > 0
