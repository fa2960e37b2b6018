"""Closed-loop client: set-up probes, the timed loop, the traced run.

One client sends the next request only after the previous one has
completed and been checked.  Request 0 warms the process up (lazy
imports, first-touch allocations) and is checked but not timed.  The
loop then runs requests 1, 2, ... until `seconds` of wall time have
passed and at least MIN_TIMED requests have completed, so the tail
percentile always has ten samples beyond it.

The end-to-end loop also times the reference loop right after each
request (see refloop.py) and reports latency and throughput in its
units, next to the same figures in seconds.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import checks, layers, refloop, stats
from .meta import run_metadata
from .tracer import Tracer
from .workloads import Workload

SETUP_PROBES = 5
MIN_TIMED = 2 * stats.TAIL_BEYOND + 1
PROBE_TIMEOUT_S = 60


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)  # timed requests only
    refloops: list[float] = field(default_factory=list)  # reference-loop time after each
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # first few, for the log

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def reference_key(workload: str, seed: int, k: int) -> str:
    return f"{workload}/{seed}/{k}"


def run_request(workload: Workload, k: int, reference: dict, loop: LoopResult,
                tracer: Tracer | None = None, timed: bool = True,
                calibrate: bool = False) -> None:
    """Execute, time and check request k; a failure is counted, never dropped.

    With `calibrate`, the reference loop is timed right after the
    request, before its outputs are checked.
    """
    req = workload.request(k)
    loop.attempted += 1
    out, problems = None, []
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.request", request=k) if tracer else nullcontext():
            out = workload.execute(req)
    except Exception:  # a failed request is a result; keep the loop running
        problems = [traceback.format_exc(limit=3)]
    latency = time.perf_counter() - t0
    if timed:
        loop.latencies.append(latency)
        if calibrate:
            loop.refloops.append(refloop.time_after(latency))
    if not problems:
        try:
            ref = reference.get(reference_key(workload.name, workload.seed, k))
            problems = checks.problems(req, out, workload.models, ref)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
    if problems:
        loop.failed += 1
        if len(loop.failures) < 5:
            loop.failures.append(f"request {k} ({req.family}): {'; '.join(problems)}")


def timed_loop(workload: Workload, reference: dict, seconds: float, min_requests: int,
               first: int = 1, last: int | None = None, tracer: Tracer | None = None,
               before_request=None, calibrate: bool = False) -> LoopResult:
    """Requests first, first+1, ... until time and count are met, or `last`."""
    loop = LoopResult()
    start = time.perf_counter()
    k = first
    while True:
        if last is not None and k > last:
            break
        if last is None and k - first >= min_requests and time.perf_counter() - start >= seconds:
            break
        if before_request is not None:
            before_request()
        run_request(workload, k, reference, loop, tracer, calibrate=calibrate)
        k += 1
    return loop


def measure_setup(run_py: str, workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to its 'ready' line."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, run_py, "--setup-probe", "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, reference: dict, seconds: int, run_py: str, log) -> tuple[dict, dict]:
    """Set-up probes, then the timed loop; the result and the figures in seconds."""
    setup = measure_setup(run_py, workload.name, workload.seed)
    warm = LoopResult()
    run_request(workload, 0, reference, warm, timed=False)
    loop = timed_loop(workload, reference, seconds, MIN_TIMED, calibrate=True)
    lat = loop.latencies
    rel = [d / r for d, r in zip(lat, loop.refloops)]  # latency in refloop units
    tail = stats.tail(lat)
    tail_rel = stats.tail(rel)
    attempted = warm.attempted + loop.attempted
    failed = warm.failed + loop.failed
    busy = sum(lat)
    in_seconds = {
        "throughput_rps": _metric(loop.succeeded / busy, "1/s"),
        "latency_p50_s": _metric(stats.median(lat), "s"),
        "latency_tail_s": _metric(tail.value, "s"),
        "refloop_p50_s": _metric(stats.median(loop.refloops), "s"),
    }
    metrics = {
        "setup_s": _metric(stats.median(setup), "s"),
        "throughput_per_refloop": _metric(loop.succeeded / sum(rel), "1/refloop"),
        "latency_p50_refloops": _metric(stats.median(rel), "refloop"),
        "latency_tail_refloops": _metric(tail_rel.value, "refloop"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "success_rate": _metric((attempted - failed) / attempted, "frac"),
    }
    log(f"setup_s                 {metrics['setup_s']['value']:.4f} s    median of {len(setup)} fresh interpreters")
    log(f"throughput_rps          {in_seconds['throughput_rps']['value']:.4f} 1/s  {loop.succeeded} succeeded over {busy:.2f} s busy")
    log(f"latency_p50_s           {in_seconds['latency_p50_s']['value']:.4f} s    n={len(lat)}")
    log(f"latency_tail_s          {tail.value:.4f} s    p{tail.percentile:.1f}, {tail.beyond} of n={tail.n} beyond")
    log(f"peak_rss_mb             {metrics['peak_rss_mb']['value']:.1f} MB   n=1 (process peak)")
    log(f"error_rate              {failed / attempted:.4f}      {failed} of {attempted} attempted (1 warm-up)")
    log(f"success_rate            {metrics['success_rate']['value']:.4f}")
    log(f"refloop_p50_s           {in_seconds['refloop_p50_s']['value']:.5f} s   reference loop, one median per request, n={len(loop.refloops)}")
    log(f"throughput_per_refloop  {metrics['throughput_per_refloop']['value']:.5f} 1/refloop  {loop.succeeded} succeeded over {sum(rel):.1f} refloop busy")
    log(f"latency_p50_refloops    {metrics['latency_p50_refloops']['value']:.4f} refloop  n={len(rel)}")
    log(f"latency_tail_refloops   {tail_rel.value:.4f} refloop  p{tail_rel.percentile:.1f}, {tail_rel.beyond} of n={tail_rel.n} beyond")
    for msg in warm.failures + loop.failures:
        log("FAILED " + msg)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, in_seconds


def traced(workload: Workload, reference: dict, seconds: int, out_dir: str, meta: dict, log) -> dict:
    """Untraced, then traced, over the same requests; per-layer metrics."""
    warm = LoopResult()
    run_request(workload, 0, reference, warm, timed=False)
    plain = timed_loop(workload, reference, seconds / 2, 1)
    last = plain.attempted  # requests 1..last
    tracer = Tracer()
    ledger = layers.install(tracer)
    try:
        with_trace = timed_loop(workload, reference, 0, 0, last=last, tracer=tracer,
                                before_request=ledger.seen.clear)
    finally:
        tracer.restore()
    spans = tracer.spans()
    counts = tracer.counts()
    per_layer = layers.per_layer_metrics(spans, counts, with_trace.attempted)
    overhead = sum(with_trace.latencies) / sum(plain.latencies)
    per_layer["trace.overhead_ratio"] = (overhead, "ratio")
    for name, (value, unit) in per_layer.items():
        log(f"{name:44s} {value:.6g} {unit}")
    log(f"traced {last} requests; traced/untraced wall time {overhead:.3f}")

    threads = {}
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{workload.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "meta": meta,
                "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
                "counts": counts,
                "span_fields": ["id", "parent", "name", "start_s", "end_s", "request", "thread"],
                "spans": [
                    [s.id, s.parent, s.name, s.start, s.end, s.request,
                     threads.setdefault(s.thread, len(threads))]
                    for s in spans
                ],
            },
            fh,
            separators=(",", ":"),
        )
    log(f"spans written to {os.path.relpath(path)}")
    attempted = warm.attempted + plain.attempted + with_trace.attempted
    failed = warm.failed + plain.failed + with_trace.failed
    for msg in warm.failures + plain.failures + with_trace.failures:
        log("FAILED " + msg)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, u) for k, (v, u) in per_layer.items()},
    }


def run(name: str, seed: int, seconds: int, trace: bool, run_py: str, bench_dir: str) -> dict:
    def log(line: str) -> None:
        print(line, flush=True)

    reference = load_reference(os.path.join(bench_dir, "reference.json"))
    workload = Workload(name, seed)
    meta = run_metadata(workload, seconds, trace)
    out_dir = os.path.join(bench_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    log(f"# {name} seed {seed}: {'traced' if trace else 'untraced'} run of {seconds} s")
    if trace:
        result, in_seconds = traced(workload, reference, seconds, out_dir, meta, log), {}
    else:
        result, in_seconds = end_to_end(workload, reference, seconds, run_py, log)
    record = {"meta": meta, "result": result, "in_seconds": in_seconds}
    path = os.path.join(out_dir, f"result-{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    log("# meta " + json.dumps(meta, separators=(",", ":")))
    return result
