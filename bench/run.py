#!/usr/bin/env python3
"""Benchmark of cantor-hankel: run one workload in a fresh process.

    python3 bench/run.py --workload {certify,tables,exact} --seed N --seconds S --trace {0,1}

It imports the library from `src/` beside this directory, builds the
seeded request list, sends the requests one after another (a closed
loop with one caller), checks every answer, and prints each metric by
name and unit.  The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` first runs
the same job untraced in a child process, then traced in this one,
and reports the per-layer metrics plus the tracing overhead; the spans
go to `.bench_out/spans-<workload>-<seed>.json` at exit.  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# All before the job: processes started after it start measurably slower,
# and a median over both groups jumps between them.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
REF_LOOP = 4_000
REF_FRACTION_STEPS = 30
REF_EVERY_S = 0.05  # between requests; about 1% of the job
REF_THREAD_EVERY_S = 0.2  # from the sampler thread during certify's one call
REF_EDGE_SAMPLES = 5
# A request is scaled by the mean of the reference samples taken within
# this many seconds of it, so each request is judged by the machine's
# speed while it ran.
REF_WINDOW_S = 0.05
# Times are reported scaled to a machine on which the reference task takes
# this long, so that the box's slow and fast phases cancel out.
REF_NOMINAL_MS = 0.6
TAIL_BEYOND = 10

VERIFY_GROUPS = ("oracle", "structure", "recurrences", "closed-forms", "series",
                 "periods", "kernel", "dfao", "pade", "feq")


def load_library() -> None:
    """Import cantor_hankel from this checkout's src/, or stop."""
    if not (SRC / "cantor_hankel" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {SRC}/cantor_hankel; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cantor_hankel
    if Path(cantor_hankel.__file__).resolve().parent != SRC / "cantor_hankel":
        sys.exit(f"bench: imported cantor_hankel from {cantor_hankel.__file__}, not {SRC}")


def ref_unit_s() -> float:
    """A fixed task independent of the library: an integer loop and a
    Fraction recurrence, like the interpreter and bigint work the library
    does.  Its time shows how fast the machine runs now.  The collector
    is off meanwhile, so a collection owed to the job is not charged here."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        x = Fraction(1)
        for k in range(1, REF_FRACTION_STEPS):
            x = x * Fraction(3 * k + 1, 2 * k + 1) + Fraction(1, k)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def ref_sample() -> tuple[float, float]:
    """(when, how long) of one run of the reference task."""
    when = time.perf_counter()
    return when, ref_unit_s()


def inputs_digest(requests: list[tuple]) -> str:
    return hashlib.sha256(repr(requests).encode()).hexdigest()


def child_argv(args: argparse.Namespace, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def time_setups(args: argparse.Namespace, digest: str, count: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that import the library and build the
    inputs, raw and scaled like a request by the reference samples taken
    just before and after each; each must build the same inputs as this one."""
    raw, scaled = [], []
    before = [ref_unit_s() for _ in range(REF_EDGE_SAMPLES)]
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(child_argv(args, "--setup-only"), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        raw.append(time.perf_counter() - start)
        if done.stdout.strip() != digest:
            sys.exit("bench: a fresh process built different inputs from the same seed")
        after = [ref_unit_s() for _ in range(REF_EDGE_SAMPLES)]
        scaled.append(raw[-1] * REF_NOMINAL_MS / (trimmed_mean(before + after) * 1000))
        before = after
    return raw, scaled


class RefSampler(threading.Thread):
    """Runs the reference task every REF_THREAD_EVERY_S while the main
    thread is inside one long library call (the single request of
    `certify`).  Other workloads sample between requests instead: a
    second thread contending for the interpreter slows their short
    requests."""

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        super().__init__(daemon=True)
        self.samples = samples
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(REF_THREAD_EVERY_S):
            self.samples.append(ref_sample())


def run_job(runner, requests: list[tuple], sample_in_thread: bool) -> dict:
    latencies: list[float] = []
    starts: list[float] = []
    failures: list[str] = []
    cells = 0
    ref = [ref_sample() for _ in range(REF_EDGE_SAMPLES)]
    sampler = RefSampler(ref) if sample_in_thread else None
    if sampler:
        sampler.start()
    last_ref = time.perf_counter()
    try:
        for req in requests:
            if not sampler and time.perf_counter() - last_ref >= REF_EVERY_S:
                ref.append(ref_sample())
                last_ref = time.perf_counter()
            start = time.perf_counter()
            starts.append(start)
            try:
                with runner.tracer.span("bench.request"):
                    answer, delivered = runner.execute(req)
            except Exception:  # counted as a failed request; the run goes on
                latencies.append(time.perf_counter() - start)
                failures.append(f"{req!r}: {traceback.format_exc()}")
                continue
            latencies.append(time.perf_counter() - start)
            cells += delivered
            try:
                runner.check(req, answer)
            except Exception:  # a malformed answer can break the checker too
                failures.append(f"{req!r}: {traceback.format_exc()}")
            del answer
    finally:
        if sampler:
            sampler.done.set()
            sampler.join()
    ref += [ref_sample() for _ in range(REF_EDGE_SAMPLES)]
    return {"latencies": latencies, "starts": starts, "failures": failures, "cells": cells,
            "ref": sorted(ref)}


def local_refs(job: dict) -> list[float]:
    """For each request, the mean reference time over the samples taken
    during it or within REF_WINDOW_S of it (at least the nearest one on
    each side), without the fastest and slowest tenth of them."""
    when = [w for w, _ in job["ref"]]
    took = [t for _, t in job["ref"]]
    out = []
    for start, lat in zip(job["starts"], job["latencies"]):
        end = start + lat
        lo = min(bisect.bisect_left(when, start - REF_WINDOW_S), bisect.bisect_left(when, start) - 1)
        hi = max(bisect.bisect_right(when, end + REF_WINDOW_S), bisect.bisect_right(when, end) + 1)
        out.append(trimmed_mean(took[max(lo, 0):hi]))
    return out


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    index = max(0, math.ceil(q / 100 * len(ordered)) - 1)
    return ordered[index], len(ordered) - 1 - index


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    that is the (TAIL_BEYOND + 1)-th largest sample; the largest when
    there are too few samples."""
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    return 100 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1], TAIL_BEYOND


def library_counts(workload: str, requests: list[tuple]) -> dict:
    """Exact counts; they repeat for a fixed seed, so later changes can cite them."""
    from cantor_hankel import engine, kernel
    infos = (engine.gamma_mod3.cache_info(), engine.delta_mod3.cache_info())
    hits = sum(i.hits for i in infos)
    misses = sum(i.misses for i in infos)
    states = {}
    if workload == "certify":  # built by the job and cached, so free here
        states = {s: len(kernel.kernel_closure(s).states) for s in ("gamma", "delta")}
    return {
        "memo_hits": hits,
        "memo_misses": misses,
        "memo_entries": sum(i.currsize for i in infos),
        "memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "det_mod3_ops": sum(r[3] ** 3 for r in requests if r[0] == "det_mod3"),
        "closure_states": states,
    }


def end_to_end(job: dict, setups: list[float]) -> tuple[dict, dict]:
    raw = sorted(job["latencies"])
    local = local_refs(job)
    lat = sorted(t * REF_NOMINAL_MS / (r * 1000) for t, r in zip(job["latencies"], local))
    job_s = sum(lat)
    p50, p50_beyond = percentile(lat, 50)
    q, tail_value, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "certify_s": (job_s, "s"),
        "queries_per_s": (len(lat) / job_s, "1/s"),
        "query_p50_ms": (p50 * 1000, "ms"),
        "query_tail_ms": (tail_value * 1000, "ms"),
        "cells_per_s": (job["cells"] / job_s, "cells/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"samples": len(lat), "p50_beyond": p50_beyond, "tail_percentile": q,
                     "tail_beyond": beyond, "cells": job["cells"], "ref_scale": job_s / sum(raw),
                     "unscaled_p50_ms": percentile(raw, 50)[0] * 1000,
                     "unscaled_tail_ms": tail(raw)[1] * 1000}


def per_layer(tracer, runner, counts: dict, ref_ms: float, overhead: float) -> dict:
    totals = tracer.totals()

    def pick(field, *names):
        return sum(totals[n][field] for n in names if n in totals)

    seq = ("sequences.sequence_slice", "sequences.substitution_word")
    ser = ("series.series_gamma", "series.series_delta")
    cli_spans = [n for n in totals if n.startswith("cli.")]
    states = counts["closure_states"]
    m = {
        "sequences.busy_s": (pick("busy_s", *seq), "s"),
        "sequences.terms": (pick("work", *seq), "count"),
        "hankel.build_busy_s": (pick("busy_s", "hankel.hankel_matrix"), "s"),
        "hankel.det_mod3_calls": (pick("calls", "hankel.det_mod3"), "count"),
        "hankel.det_mod3_busy_s": (pick("busy_s", "hankel.det_mod3"), "s"),
        "hankel.det_mod3_ops": (pick("work", "hankel.det_mod3"), "computed-ops"),
        "hankel.det_exact_calls": (pick("calls", "hankel.det_exact"), "count"),
        "hankel.det_exact_busy_s": (pick("busy_s", "hankel.det_exact"), "s"),
        "hankel.structure_busy_s": (pick("busy_s", "hankel.verify_structure"), "s"),
        "engine.cell_calls": (pick("calls", "engine.cell"), "count"),
        "engine.cell_busy_s": (pick("busy_s", "engine.cell"), "s"),
        "engine.grid_cells": (pick("work", "engine.grid"), "count"),
        "engine.grid_busy_s": (pick("busy_s", "engine.grid"), "s"),
        "engine.period_busy_s": (pick("busy_s", "engine.column_period"), "s"),
        "engine.memo_hits": (counts["memo_hits"], "count"),
        "engine.memo_misses": (counts["memo_misses"], "count"),
        "engine.memo_hit_ratio": (counts["memo_hit_ratio"], "ratio"),
        "engine.memo_entries": (counts["memo_entries"], "count"),
        "series.calls": (pick("calls", *ser), "count"),
        "series.busy_s": (pick("busy_s", *ser), "s"),
        "kernel.closure_gamma_s": (pick("busy_s", "kernel.closure_gamma"), "s"),
        "kernel.closure_delta_s": (pick("busy_s", "kernel.closure_delta"), "s"),
        "kernel.closure_states": (sum(states.values()) / len(states) if states else 0, "count"),
        "kernel.dfao_build_s": (pick("busy_s", "kernel.build_dfao"), "s"),
    }
    for group in VERIFY_GROUPS:
        m[f"checks.{group}_s"] = (pick("busy_s", f"cli.verify.{group}"), "s")
    m["checks.oracle_sweep_s"] = (pick("busy_s", "cli.verify.sweep"), "s")
    for short, name in (("pade", "pade"), ("error_law", "verify_pade_error"),
                        ("irr", "irrationality_estimates"), ("eta", "eta_identity_check"),
                        ("feq", "verify_functional_equation")):
        m[f"pade.{short}_busy_s"] = (pick("busy_s", f"pade.{name}"), "s")
    m["cli.calls"] = (runner.cli_calls, "count")
    m["cli.busy_s"] = (pick("busy_s", *cli_spans), "s")
    m["cli.bytes_out"] = (runner.bytes_out, "bytes")
    m["cli.render_s"] = (pick("busy_s", "cli.grid"), "s")
    m["bench.ref_unit_ms"] = (ref_ms, "ms")
    m["bench.trace_overhead"] = (overhead, "ratio")
    return m


def untraced_job_s(args: argparse.Namespace) -> float:
    """Job time of the same run without tracing, in a fresh process."""
    done = subprocess.run(child_argv(args, "--trace", "0"), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    for line in done.stdout.splitlines():
        if line.startswith("diagnostics "):
            return json.loads(line[len("diagnostics "):])["job_s"]
    sys.exit("bench: the untraced child printed no diagnostics")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("certify", "tables", "exact"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, print their digest, exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    load_library()
    import numpy
    import mpmath
    import tracing
    import workloads

    requests = workloads.make_requests(args.workload, args.seed, args.seconds)
    digest = inputs_digest(requests)
    if args.setup_only:
        print(digest)
        return 0

    if args.trace:
        overhead_base = untraced_job_s(args)
        raw_setups, setups = [], []
    else:
        raw_setups, setups = time_setups(args, digest, SETUP_SAMPLES)

    tracer = tracing.Tracer(enabled=bool(args.trace))
    runner = workloads.Runner(tracer)
    job = run_job(runner, requests, sample_in_thread=args.workload == "certify")
    counts = library_counts(args.workload, requests)

    job_s = sum(job["latencies"])
    ref_ms = statistics.median(t for _, t in job["ref"]) * 1000
    attempted, failed = len(requests), len(job["failures"])
    diag = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "inputs_sha256": digest,
        "requests": attempted, "repeat_share": workloads.repeat_share(requests),
        "job_s": job_s, "failed_ratio": failed / attempted, "failures": job["failures"][:5],
        "setup_samples_s": setups, "unscaled_setup_samples_s": raw_setups,
        "ref_unit_ms": ref_ms, "ref_samples": len(job["ref"]),
        "counts": counts,
    }
    if args.trace:
        overhead = job_s / overhead_base
        metrics = per_layer(tracer, runner, counts, ref_ms, overhead)
        layer_self = tracer.layer_self_times()
        diag.update(untraced_job_s=overhead_base, layer_self_s=layer_self,
                    self_within_job=sum(layer_self.values()) <= job_s)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(tracer.dump()))
    else:
        metrics, stats = end_to_end(job, setups)
        diag.update(stats)

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit}")
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
