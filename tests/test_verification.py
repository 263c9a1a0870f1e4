from types import SimpleNamespace

from qonf import verification
from qonf.verification import CheckResult, run_suites


def test_each_check_is_timed_alone(monkeypatch):
    now = [0.0]

    def stub(seed):
        now[0] += 1.0
        yield CheckResult("a", True)
        now[0] += 5.0  # the slow step belongs to the second check only
        yield CheckResult("b", True)
        yield CheckResult("c", True)

    monkeypatch.setattr(verification, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setitem(verification.SUITES, "stub", stub)
    results = run_suites(["stub"])
    assert [(r.name, r.seconds) for r in results] == [("a", 1.0), ("b", 5.0), ("c", 0.0)]


def test_every_result_is_timed():
    results = run_suites(["qspecial"])
    assert results and all(r.seconds > 0 for r in results)
