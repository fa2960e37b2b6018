"""Run metadata recorded next to every result."""

from __future__ import annotations

import glob
import os
import platform

import numpy as np

from dwde import experiments

from . import refloop


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def run_metadata(workload, seconds: int, trace: bool) -> dict:
    worker_count = getattr(experiments, "_worker_count", None)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "client": "closed loop, 1 client, 1 outstanding request",
        "refloop": {"iterations": refloop.ITERATIONS, "sample_every_s": refloop.SAMPLE_EVERY_S},
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "DWDE_THREADS": os.environ.get("DWDE_THREADS", "unset"),
        # pool size experiments.classify uses for a request with this
        # many distinct DP solves (at most n_envs)
        "dp_workers_for_n_envs": (
            worker_count(workload.scan_shape.n_envs)
            if worker_count is not None and workload.scan_shape is not None
            else None
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "request_shape": workload.shape(),
    }
