"""Replay requests recorded in perfbench/reference.json.

The benchmark checks every request it runs against these recorded
outputs (Monte Carlo digests bit-equal, DP fields within 1e-9).  Running
a few of them here makes a bit-identity break show in the test suite,
not only in a benchmark run.  The reference file is only read.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from dwdebench.runner import LoopResult, load_reference, reference_key, run_request  # noqa: E402
from dwdebench.workloads import ORACLE_MIX, Workload, oracle_request  # noqa: E402

# (workload, seed, request indices): the first three requests of both
# scan workloads, two rounds of the fourteen oracle families on two
# seeds, so each family runs on four environment seeds, and the first
# request of both scan workloads on eight more seeds, so a bit-identity
# break in the batch engine or the float DP shows on ten of them
REPLAYS = [
    ("mc-scan", 0, range(3)),
    ("mc-scan", 1, range(3)),
    ("dp-certify", 0, range(3)),
    ("dp-certify", 1, range(3)),
    ("oracle-mix", 0, range(28)),
    ("oracle-mix", 1, range(28)),
] + [(name, seed, range(1)) for seed in range(2, 10) for name in ("mc-scan", "dp-certify")]


def recorded(family: str) -> list[tuple[int, int]]:
    """(seed, request) of every oracle-mix request of one family recorded
    in the reference file (seeds 0-20, requests 0-27)."""
    return [
        (seed, k)
        for seed in range(21)
        for k in range(28)
        if oracle_request(seed, k).family == family
    ]


# the Monte Carlo family whose walks the batch engine drops once they
# are decided, so a bit-identity break there shows per seed
TABOO_REPLAYS = recorded("taboo_hit")

# the two +/-1 lattice-path counts computed by closed forms, each
# replayed against its recorded table or count
PATH_COUNT_REPLAYS = [
    (family, seed, k)
    for family in ("path_counts", "return_cylinder_count")
    for seed, k in recorded(family)
]


@pytest.fixture(scope="module")
def reference():
    return load_reference(os.path.join(BENCH_DIR, "reference.json"))


@pytest.mark.parametrize("name, seed, requests", REPLAYS)
def test_requests_match_reference(reference, name, seed, requests):
    workload = Workload(name, seed)
    loop = LoopResult()
    for k in requests:
        assert reference_key(name, seed, k) in reference
        run_request(workload, k, reference, loop, timed=False)
    assert loop.attempted == len(requests)
    assert loop.failed == 0, loop.failures


def replay_oracle_request(reference, seed: int, k: int) -> None:
    assert reference_key(ORACLE_MIX, seed, k) in reference
    loop = LoopResult()
    run_request(Workload(ORACLE_MIX, seed), k, reference, loop, timed=False)
    assert loop.attempted == 1
    assert loop.failed == 0, loop.failures


@pytest.mark.parametrize("seed, k", TABOO_REPLAYS)
def test_taboo_requests_match_reference(reference, seed, k):
    replay_oracle_request(reference, seed, k)


@pytest.mark.parametrize("family, seed, k", PATH_COUNT_REPLAYS)
def test_path_count_requests_match_reference(reference, family, seed, k):
    replay_oracle_request(reference, seed, k)
