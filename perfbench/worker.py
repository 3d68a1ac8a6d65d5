"""Runs one workload's requests in a fresh interpreter and reports timings.

Reads a JSON job from stdin: the source directory of padicdyn, warm-up
requests, the requests to time (argv and stdin text only), the seconds to
measure, and whether to trace.  The warm-up requests run once, untimed, so
that lazy set-up and the interpreter's specialisation are done before
timing.  Each request is one in-process call of `padicdyn.cli.main` with
stdin and stdout swapped for in-memory buffers; the next request is sent
only after the previous one returns (closed loop, one client).  The
reference chunk of `refspeed.py` measures the host's current speed just
before and after each request and, from a timer signal, during it (not in
traced passes); the chunk's own time is not part of the request's.  Each
request's time is also kept rescaled to the reference speed.  The request
list is run in whole passes until the time is used, at least twice.  With
tracing, half the time runs untraced passes and half traced ones, at least
one of each.

Writes one JSON object to stdout: per-pass wall times, raw and rescaled to
the reference speed, per-request latencies, exit codes and output texts
(each distinct text once), peak resident memory, the environment, and the
per-layer metrics when traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from time import perf_counter

import refspeed


def call(cli, argv, stdin_text):
    """One CLI call; returns (exit code, stdout, stderr, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    error = None
    rc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue(), error


class Runner:
    """Runs passes over a request list and keeps what the checks need."""

    def __init__(self, cli, requests, tracer=None):
        self.cli = cli
        self.requests = requests
        self.tracer = tracer
        self.texts: dict[str, list] = {}  # output hash -> [rc, stdout, stderr, error]
        self.sent = 0  # requests sent so far; a traced request's id

    def run_pass(self) -> dict:
        latencies, answers = [], []
        ref_s = 0.0
        before = refspeed.chunk_seconds(0.0)
        for req in self.requests:
            with refspeed.Sampler(enabled=self.tracer is None) as during:
                t0 = perf_counter()
                if self.tracer is None:
                    answer = call(self.cli, req["argv"], req["stdin"])
                else:
                    answer = self.tracer.request(
                        self.sent, req["argv"][0],
                        lambda: call(self.cli, req["argv"], req["stdin"]),
                    )
                elapsed = perf_counter() - t0
            latencies.append(elapsed - during.spent)
            after = refspeed.chunk_seconds(latencies[-1])
            chunk_s = refspeed.request_chunk_seconds(before, during.times, after)
            ref_s += refspeed.rescale(latencies[-1], chunk_s)
            before = after
            self.sent += 1
            key = hashlib.sha256(json.dumps(answer).encode()).hexdigest()
            self.texts.setdefault(key, list(answer))
            answers.append(key)
        return {
            "wall_s": sum(latencies),
            "ref_s": ref_s,
            "latencies": latencies,
            "answers": answers,
        }

    def run_for(self, seconds: float, min_passes: int) -> list[dict]:
        """At least min_passes whole passes, then more while the next one,
        if as long as the last, still fits in the time."""
        passes = []
        start = perf_counter()
        while True:
            began = perf_counter()
            passes.append(self.run_pass())
            now = perf_counter()
            if len(passes) >= min_passes and (now - start) + (now - began) > seconds:
                return passes


def peak_rss_mb() -> float:
    """Peak resident memory of this process, from VmHWM.

    Not ru_maxrss: Linux carries the parent's peak over fork and exec, so a
    child would report the benchmark driver's memory instead of its own.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def environment(backends) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "numba_importable": backends.HAVE_NUMBA,
        "backend": backends.current_backend(),
        "PADIC_DYN_BACKEND": os.environ.get("PADIC_DYN_BACKEND"),
        "PADIC_DYN_MAX_DEPTH": os.environ.get("PADIC_DYN_MAX_DEPTH"),
    }


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from padicdyn import backends, cli

    for req in job["warmup"]:
        call(cli, req["argv"], req["stdin"])
    runner = Runner(cli, job["requests"])
    result = {"env": environment(backends)}
    if not job["trace"]:
        result["passes"] = runner.run_for(job["seconds"], 2)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        import tracer as tracing

        result["passes"] = runner.run_for(job["seconds"] / 2, 1)
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        result["traced_passes"] = runner.run_for(job["seconds"] / 2, 1)
        runner.tracer.uninstall()
        result["layers"] = runner.tracer.layer_metrics(len(result["traced_passes"]))
        runner.tracer.write_spans(job["spans_path"])
    result["texts"] = runner.texts
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
