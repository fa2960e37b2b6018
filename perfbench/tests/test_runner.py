import pytest

from dwde import exact, reports

from dwdebench import checks, refloop
from dwdebench.runner import LoopResult, run_request, timed_loop
from dwdebench.workloads import ORACLE_MIX, Workload


def _index_of(workload, family):
    return next(k for k in range(100) if workload.request(k).family == family)


def test_clean_requests_pass():
    wl = Workload("mc-scan", 1)
    loop = timed_loop(wl, {}, seconds=0, min_requests=2)
    assert (loop.attempted, loop.failed, len(loop.latencies)) == (2, 0, 2)


def test_corrupted_scan_output_counts_as_failed(monkeypatch):
    wl = Workload("mc-scan", 1)
    render = reports.verdicts_csv
    monkeypatch.setattr(reports, "verdicts_csv", lambda result: render(result).rsplit("\n", 2)[0] + "\n")
    loop = LoopResult()
    run_request(wl, 1, {}, loop)
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "verdict CSV" in loop.failures[0]


def test_corrupted_oracle_answer_counts_as_failed(monkeypatch):
    wl = Workload(ORACLE_MIX, 1)
    k = _index_of(wl, "path_counts")
    counts = exact.path_counts

    def corrupted(n_max, k_max):
        table = counts(n_max, k_max)
        table[-1][3] += 1
        return table

    monkeypatch.setattr(exact, "path_counts", corrupted)
    loop = timed_loop(wl, {}, seconds=0, min_requests=0, first=k, last=k + 1)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert loop.failed / loop.attempted == 0.5  # the error_rate the run reports


def test_raising_request_counts_as_failed(monkeypatch):
    wl = Workload(ORACLE_MIX, 1)
    k = _index_of(wl, "path_counts")

    def broken(n_max, k_max):
        raise RuntimeError("boom")

    monkeypatch.setattr(exact, "path_counts", broken)
    loop = LoopResult()
    run_request(wl, k, {}, loop)
    assert loop.failed == 1 and "boom" in loop.failures[0]
    assert len(loop.latencies) == 1  # its time still counts


def test_calibrated_requests_each_get_a_reference_time(monkeypatch):
    wl = Workload(ORACLE_MIX, 1)
    k = _index_of(wl, "path_counts")

    def broken(n_max, k_max):
        raise RuntimeError("boom")

    loop = timed_loop(wl, {}, seconds=0, min_requests=0, first=k, last=k, calibrate=True)
    monkeypatch.setattr(exact, "path_counts", broken)
    run_request(wl, k, {}, loop, calibrate=True)  # a failed request is still timed
    run_request(wl, k, {}, loop, timed=False, calibrate=True)  # a warm-up is not
    assert (loop.attempted, loop.failed) == (3, 2)
    assert len(loop.refloops) == len(loop.latencies) == 2
    assert all(r > 0 for r in loop.refloops)


def test_reference_loop_samples_scale_with_latency(monkeypatch):
    calls = []
    monkeypatch.setattr(refloop, "time_once", lambda: calls.append(1) or float(len(calls)))
    assert refloop.time_after(0.01) == 1.0  # at least one sample
    calls.clear()
    assert refloop.time_after(5 * refloop.SAMPLE_EVERY_S) == 3.0  # median of 1..5
    assert len(calls) == 5


def test_reference_mismatch_counts_as_failed():
    wl = Workload("mc-scan", 2)
    req = wl.request(1)
    out = wl.execute(req)
    ref = checks.fingerprint(req, out)
    assert checks.problems(req, out, None, ref) == []
    moved = dict(ref, dp=[[v + 1e-6 for v in row] for row in ref["dp"]])
    assert any("reference" in p for p in checks.problems(req, out, None, moved))
    changed = dict(ref, mc="0" * 64)
    assert any("bit-identical" in p for p in checks.problems(req, out, None, changed))


@pytest.mark.parametrize("n,k", [(0, 1), (1, 1), (0, 2), (3, 2), (4, 3), (7, 5), (12, 9)])
def test_reflection_count_matches_path_counts(n, k):
    assert checks._corridor_count(n, k) == exact.path_counts(12, 9)[n][k]
