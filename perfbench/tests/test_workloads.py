import json
import os
import subprocess
import sys

from dwdebench.workloads import ORACLE_FAMILIES, ORACLE_MIX, WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _stream(name, seed, n=30):
    wl = Workload(name, seed)
    return [(r.family, r.params) for r in map(wl.request, range(n))]


def test_inputs_are_a_pure_function_of_the_seed():
    for name in WORKLOADS:
        assert _stream(name, 5) == _stream(name, 5)
        assert _stream(name, 5) != _stream(name, 6)


def test_inputs_do_not_depend_on_the_interpreter_hash_seed():
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3];"
        "from dwdebench.workloads import Workload;"
        "wl = Workload('oracle-mix', 9);"
        "print(json.dumps([wl.request(k).params for k in range(20)]))"
    )
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code, SRC_DIR, BENCH_DIR],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        outs.append(json.loads(proc.stdout))
    wl = Workload(ORACLE_MIX, 9)
    assert outs[0] == outs[1] == [wl.request(k).params for k in range(20)]


def test_every_round_visits_every_oracle_family_once():
    wl = Workload(ORACLE_MIX, 2)
    n = len(ORACLE_FAMILIES)
    for start in (0, n, 5 * n):
        assert sorted(wl.request(k).family for k in range(start, start + n)) == sorted(ORACLE_FAMILIES)


def test_scan_requests_are_never_repeated():
    for name in ("mc-scan", "dp-certify"):
        wl = Workload(name, 1)
        seeds = [wl.request(k).params["seeds"]["master"] for k in range(200)]
        assert len(set(seeds)) == len(seeds)
