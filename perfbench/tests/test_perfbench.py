"""Tests for the benchmark's own code: inputs, oracle, checks and tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import refspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from padicdyn import cli  # noqa: E402


def _pass(requests, tracer_=None):
    runner = worker.Runner(cli, [r.wire() for r in requests], tracer_)
    return runner, runner.run_pass()


def _score(requests, runner, passes):
    return run.score(requests, passes, runner.texts, checks.Checker(run.SRC / "padicdyn" / "schemas"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    assert [(r.wire(), r.expect) for r in first] == [(r.wire(), r.expect) for r in again]


def test_other_seed_other_inputs():
    first = workloads.build("classify-deep", 7)
    other = workloads.build("classify-deep", 8)
    assert [r.wire() for r in first] != [r.wire() for r in other]


def test_small_mix_pass_is_large_enough_for_p95():
    requests = workloads.build("cli-small-mix", 1)
    assert len(requests) >= run.P95_MIN_REQUESTS
    assert {r.command for r in requests} == {"classify", "expand", "generate", "enumerate"}


def test_same_seed_same_digest():
    requests = workloads.build("cli-small-mix", 3)[:12]
    digests = []
    for _ in range(2):
        runner, one = _pass(requests)
        verdict = _score(requests, runner, [one])
        assert verdict["failed"] == 0, verdict["problems"]
        digests.append(verdict["digest"])
    assert digests[0] == digests[1]


def test_digest_ignores_timing_fields():
    a = checks.canonical(0, json.dumps({"suites": [{"checked": "3", "elapsed_seconds": 0.1}]}))
    b = checks.canonical(0, json.dumps({"suites": [{"checked": "3", "elapsed_seconds": 0.2}]}))
    assert a == b
    assert checks.canonical(1, "{}") != checks.canonical(0, "{}")


@pytest.mark.parametrize(
    "coeffs, p, depth, ergodic",
    [([1, 1], 3, 4, True), ([1, 3, 0, 2], 2, 3, False), ([1, 0, 0, 0, 0, 1], 5, 2, False)],
)
def test_oracle_known_cases(coeffs, p, depth, ergodic):
    assert oracle.is_single_cycle(oracle.poly_table(coeffs, p, depth)) is ergodic


def test_oracle_series_references():
    # 1 + 3x + 2x^3 at p = 2: Mahler terms (1, 5, 12, 12) mod 16
    values = oracle.poly_table([1, 3, 0, 2], 2, 4)
    assert oracle.mahler_terms(values[:4], 16) == [1, 5, 12, 12]
    assert oracle.mahler_table([1, 5, 12, 12], 2, 4).tolist() == values.tolist()
    vdp = oracle.vdp_terms(values, 2, 16)
    assert vdp[:3] == [1, 6, 6]  # f(0), f(1), f(2) - f(0) mod 16


def test_oracle_ud1_definition():
    assert oracle.is_ud1(oracle.poly_table([1, 1, 3], 3, 4), 3, 4)
    requests = workloads.build("classify-deep", 2)
    for r in requests:
        if r.expect["kind"] == "table" and not r.expect["ud1"]:
            data = json.loads(r.stdin)
            table = data["values"]
            assert oracle.is_lipschitz(table, data["p"], data["depth"])
            assert not oracle.is_ud1(table, data["p"], data["depth"])


def test_suite_sizes_match_the_program():
    from padicdyn import identities

    for name, p_max, s_max in [("abc", 13, None), ("pzero", 11, None), ("valpro", 5, 2),
                               ("bipro", 5, 2), ("bip2", None, 4)]:
        overrides = {k: v for k, v in (("p_max", p_max), ("s_max", s_max)) if v}
        report = identities.verify_identity_suite(name, **overrides)
        assert report.checked == oracle.suite_checked(name, p_max, s_max)


def test_wrong_expected_verdict_is_counted_as_failed():
    requests = [
        workloads.Request(["classify", "x+1", "-p", "3", "--depth", "3"], None,
                          {"p": 3, "depth": 3, "kind": "polynomial", "ud1": True,
                           "ergodic": False}),
        workloads.Request(["classify", "1+x^5", "-p", "5", "--depth", "2"], None,
                          {"p": 5, "depth": 2, "kind": "polynomial", "ud1": True,
                           "ergodic": False}),
    ]
    runner, one = _pass(requests)
    verdict = _score(requests, runner, [one])
    assert verdict["attempted"] == 2
    assert verdict["failed"] == 1
    assert list(verdict["problems"]) == [0]


def test_exception_and_bad_exit_are_failures():
    requests = [workloads.Request(["verify", "--suite", "bip2", "--s-max", "3"], None,
                                  {"suites": {"bip2": 1}, "counterexamples": False})]
    runner, one = _pass(requests)
    assert _score(requests, runner, [one])["failed"] == 1
    checker = checks.Checker(run.SRC / "padicdyn" / "schemas")
    assert checker.check(0, requests[0], None, "", "ValueError: boom")
    assert checker.check(0, requests[0], 2, "error", None)


def test_tracer_counts_layers_and_uninstalls():
    from padicdyn import funcspace, identities

    original = funcspace.PadicFunction.evaluate
    requests = [workloads.Request(["verify", "--suite", "bip2", "--s-max", "3"], None, {}),
                workloads.Request(["classify", "x+1", "-p", "3"], None, {})]
    t = tracer.Tracer()
    t.install()
    try:
        _pass(requests, t)
    finally:
        t.uninstall()
    layers = t.layer_metrics(1)
    assert set(layers) | {"trace.overhead_ratio"} == set(tracer.layer_metric_names())
    assert layers["identities.bip2.checked"] == oracle.suite_checked("bip2", None, 3)
    assert layers["funcspace.mahler_coefficients.calls"] >= 1
    assert layers["funcspace.evaluate.calls"] > 0
    assert layers["arith.is_prime.calls"] > 0
    roots = [s for s in t.spans if s[1] is None]
    assert [s[3] for s in roots] == ["cli.verify", "cli.classify"]
    assert {s[2] for s in t.spans} == {0, 1}
    assert funcspace.PadicFunction.evaluate is original
    assert identities._SUITES["bip2"] is identities.bip2_suite


def test_rescaled_time_follows_the_reference_speed():
    assert refspeed.rescale(1.0, refspeed.REF_S) == 1.0
    assert refspeed.rescale(1.0, 2 * refspeed.REF_S) == 0.5  # host at half speed
    assert refspeed.chunk() == refspeed.chunk()
    assert refspeed.chunk_seconds(0.0) > 0
    assert refspeed.request_chunk_seconds(1.0, [], 3.0) == 2.0
    # the slowest tenth of the samples is left out
    assert refspeed.request_chunk_seconds(1.0, [1.0] * 8 + [50.0], 1.0) == 1.0


def test_sampler_times_the_chunk_during_a_request():
    with refspeed.Sampler() as during:
        start = perf_counter()
        while perf_counter() - start < 5 * refspeed.SAMPLE_S:
            pass
    assert len(during.times) >= 3
    assert 0 < during.spent < perf_counter() - start


def test_pass_keeps_raw_and_rescaled_time():
    requests = workloads.build("cli-small-mix", 3)[:4]
    runner = worker.Runner(cli, [r.wire() for r in requests])
    passes = runner.run_for(0.0, 2)
    assert len(passes) == 2
    for one in passes:
        assert one["wall_s"] == sum(one["latencies"])
        assert one["ref_s"] > 0


def test_setup_is_timed_raw_and_rescaled():
    (raw, rescaled), = run.setup_times(1)
    assert raw > 0 and rescaled > 0


def test_peak_rss_excludes_the_parent():
    ballast = bytearray(64 << 20)  # the parent's peak is now above 64 MB
    ballast[::4096] = b"x" * len(ballast[::4096])
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import worker; print(worker.peak_rss_mb())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert 0 < float(out.stdout) < 48
    del ballast


def test_benchmark_file_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.layer_metric_names()
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
