"""padicdyn benchmark: seeded closed-loop workloads over the padic-dyn CLI.

    python3 perfbench/run.py --workload classify-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  The workload's requests are built from the
seed, then run in a fresh interpreter (`worker.py`) that calls
`padicdyn.cli.main` in-process for each one.  Every answer is checked (see
`checks.py`); a request with a wrong answer counts as failed.

End-to-end metrics (--trace 0):
  wall_ref_s      median time of one pass over the request list, with each
                  request's time rescaled to the reference speed of
                  `refspeed.py`, measured just before and after it
  peak_rss_mb     peak resident memory of the process running the passes
  setup_s         median time of a fresh interpreter that imports
                  padicdyn.cli and answers `classify 'x+1' -p 3`; five
                  start before the passes and five after them, each
                  rescaled by bare interpreters that import only numpy
Per-layer metrics (--trace 1) come from `tracer.py`, averaged per traced
pass, plus trace.overhead_ratio = traced / untraced median raw pass time.

The last line of stdout is the result object.  The line before it records
the raw median pass time wall_s, the raw set-up time setup_raw_s,
failed_ratio, the output digest, the environment, and request latency:
latency_p50_ms over every request of every pass with its sample count, and
latency_p95_ms where a pass has at least 200 requests.  These are reported, not bounded: on a 2-vCPU host the
run-to-run spread of raw times exceeded the largest bound a metric may
have (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

SETUP_RUNS = 5  # before the passes, and again after them
P95_MIN_REQUESTS = 200
CHILD_TIMEOUT_S = 150
SETUP_PROGRAM = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from padicdyn import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = cli.main(['classify', 'x+1', '-p', '3'])\n"
    "sys.exit(rc)\n"
)
BARE_PROGRAM = "import numpy\n"
BARE_START_S = 0.17  # a bare start took 0.14 to 0.18 s on a 2-vCPU host
UNSET = ("PADIC_DYN_BACKEND", "PADIC_DYN_MAX_DEPTH")
END_TO_END = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def clean_env() -> dict:
    """The caller's environment with padicdyn's tuning variables unset."""
    return {k: v for k, v in os.environ.items() if k not in UNSET}


def interpreter_seconds(program: str, *args: str) -> float:
    """Wall time of one fresh interpreter running program."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", program, *args],
        env=clean_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"interpreter failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def setup_times(count: int) -> list[tuple[float, float]]:
    """(raw, rescaled) set-up times of count fresh interpreters.

    Each is rescaled by the mean time of the bare interpreters started just
    before and just after it, to the speed at which a bare one takes
    BARE_START_S.  Those start Python and numpy like the set-up does, so a
    slow period of the host slows both, but they leave out padicdyn.
    """
    out = []
    before = interpreter_seconds(BARE_PROGRAM)
    for _ in range(count):
        raw = interpreter_seconds(SETUP_PROGRAM, str(SRC))
        after = interpreter_seconds(BARE_PROGRAM)
        out.append((raw, raw * BARE_START_S / ((before + after) / 2)))
        before = after
    return out


def run_worker(requests, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    job = {
        "src": str(SRC),
        "warmup": [r.wire() for r in workloads.warmup()],
        "requests": [r.wire() for r in requests],
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job).encode(), env=clean_env(),
        capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout)


def score(requests, passes, texts, checker) -> dict:
    """Check every answer of every pass; digest the first pass."""
    attempted = failed = 0
    problems: dict[int, list[str]] = {}
    first = None
    for run in passes:
        canon = []
        for index, key in enumerate(run["answers"]):
            rc, stdout, _stderr, error = texts[key]
            canon.append(checks.canonical(rc, stdout))
            found = checker.check(index, requests[index], rc, stdout, error)
            if first is not None and canon[-1] != first[index]:
                found = found + ["answer differs from the first pass"]
            attempted += 1
            if found:
                failed += 1
                problems.setdefault(index, found)
        first = first or canon
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": checks.digest(first),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = workloads.build(name, seed)
    checker = checks.Checker(SRC / "padicdyn" / "schemas")
    spans_path = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
    if not trace:
        # The first interpreter may compile bytecode and is not counted.
        setup = setup_times(SETUP_RUNS + 1)[1:]
    result = run_worker(requests, seconds, trace, spans_path)
    if not trace:
        setup += setup_times(SETUP_RUNS)
    passes = result["passes"] + result.get("traced_passes", [])
    verdict = score(requests, passes, result["texts"], checker)
    walls = [p["wall_s"] for p in result["passes"]]
    ref_walls = [p["ref_s"] for p in result["passes"]]
    latencies = [t for p in result["passes"] for t in p["latencies"]]
    info = {
        "workload": name,
        "seed": seed,
        "requests_per_pass": len(requests),
        "pass_wall_s": walls,
        "pass_wall_ref_s": ref_walls,
        "wall_s": statistics.median(walls),
        "latency_samples": len(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "failed_ratio": verdict["failed"] / verdict["attempted"],
        "digest": verdict["digest"],
        "env": result["env"],
        "env_note": f"run with {' and '.join(UNSET)} unset",
    }
    if len(requests) >= P95_MIN_REQUESTS:
        info["latency_p95_ms"] = statistics.quantiles(latencies, n=20)[-1] * 1000
    if verdict["problems"]:
        info["problems"] = {
            f"{i}: {' '.join(requests[i].argv)[:120]}": found
            for i, found in list(verdict["problems"].items())[:10]
        }
    if trace:
        traced = [p["wall_s"] for p in result["traced_passes"]]
        values = dict(result["layers"])
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls)
        metrics = {k: (values[k], tracer.metric_unit(k)) for k in tracer.layer_metric_names()}
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        info["setup_raw_s"] = statistics.median(raw for raw, _ref in setup)
        values = {
            "wall_ref_s": statistics.median(ref_walls),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(ref for _raw, ref in setup),
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    return {
        "info": info,
        "result": {
            "correct": verdict["failed"] == 0,
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "padicdyn" / "cli.py").is_file():
        print(f"error: padicdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, entry in report["result"]["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        info = report["info"]
        print(f"{name} wall_s {info['wall_s']:.6g} s (raw, not rescaled)")
        if "setup_raw_s" in info:
            print(f"{name} setup_raw_s {info['setup_raw_s']:.6g} s (raw, not rescaled)")
        print(f"{name} failed_ratio {info['failed_ratio']:.6g} ratio"
              f" ({report['result']['failed']} of {report['result']['attempted']})")
        print(f"{name} latency_p50_ms {info['latency_p50_ms']:.6g} ms"
              f" ({info['latency_samples']} samples)")
        if "latency_p95_ms" in info:
            print(f"{name} latency_p95_ms {info['latency_p95_ms']:.6g} ms")
        print(json.dumps(report["info"], sort_keys=True))
        print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
