"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import threading

import pytest

import gate
import run
import spans
from workloads import PARTS, Part

TINY = {"grid": {"M": 15}, "time": {"T": 0.0625, "delta": 2.0**-8},
        "lambda_schedule": [0.25, 0.125], "cauchy_tol": 1.0, "seeds": {"n_paths": 2}}


@pytest.fixture
def cli_main(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.load_cli()


def _span(sid, start, end, parent=None, thread=1, name="x"):
    return spans.Span(sid, name, start, end, parent, thread)


def test_self_time_subtracts_direct_same_thread_children_only():
    tree = [
        _span(1, 0.0, 10.0),                      # root
        _span(2, 1.0, 4.0, parent=1),             # child
        _span(3, 2.0, 3.5, parent=2),             # grandchild
        _span(4, 5.0, 6.0, parent=1),             # second child
        _span(5, 1.0, 9.0, parent=1, thread=2),   # pool work for the root
        _span(6, 2.0, 7.0, parent=5, thread=2),
    ]
    st = spans.self_times(tree)
    assert st == pytest.approx({1: 6.0, 2: 1.5, 3: 1.5, 4: 1.0, 5: 3.0, 6: 5.0})


def test_recorder_links_parents_per_thread():
    rec = spans.SpanRecorder()

    def worker(parent):
        rec.call("pool", lambda: rec.call("leaf", lambda: None), parent=parent)

    def outer():
        t = threading.Thread(target=worker, args=(rec.current(),))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        rec.call("inner", lambda: None)

    rec.call("root", outer)
    by_name = {s.name: s for s in rec.spans}
    root = by_name["root"]
    assert by_name["inner"].parent == root.id
    assert by_name["pool"].parent == root.id
    assert by_name["pool"].thread != root.thread
    assert by_name["leaf"].parent == by_name["pool"].id


def _attributes():
    out = {}
    for owner, attr, _ in spans.SPAN_TARGETS + spans.COUNT_TARGETS:
        obj = spans._owner(owner)
        out[(owner, attr)] = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
    return out


def test_wrappers_fully_restored(cli_main):
    before = _attributes()
    with pytest.raises(RuntimeError, match="boom"):
        with spans.Wrappers(spans.SpanRecorder()):
            during = _attributes()
            raise RuntimeError("boom")
    after = _attributes()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_traced_invocation_is_transparent(cli_main):
    session = run.Session(cli_main, Part("tiny", ("solve",), TINY), seed=7, workers=1)
    _, plain = session.invoke()
    rec = spans.SpanRecorder()
    with spans.Wrappers(rec):
        _, traced = session.invoke(rec)
    assert session.failed == 0 and session.attempted == 4
    assert traced.digests == plain.digests
    by_id = {s.id: s for s in rec.spans}
    resolves = [s for s in rec.spans if s.name == "scalar_monotone.yosida_array"]
    parents = {by_id[s.parent].name for s in resolves}
    assert parents == {"solver.solve_regularized", "solver.extract_g"}
    metrics = run.layer_metrics(rec, 1)
    assert metrics["solver.steps"] == 2 * 2 * 16
    assert metrics["semigroup.substep.flop"] == 4 * 15**2 * 2 * 2 * 16
    assert 0.0 <= metrics["trace.unattributed_frac"] < 1.0


def test_rejected_config_counts_as_failed_operations(cli_main):
    bad = Part("bad", ("solve",), {"grid": {"M": 1}, "seeds": {"n_paths": 3}})
    session = run.Session(cli_main, bad, seed=1, workers=1)
    wall, outcome = session.invoke()
    assert outcome.attempted == 3 and outcome.failed == 3
    assert session.failed == 3 and session.attempted == 3
    assert any("exit code 1" in p for p in session.problems)


def test_crashing_cli_counts_as_failed_operation(cli_main):
    def crash(argv):
        raise ValueError("injected")

    session = run.Session(crash, PARTS["study-apriori"], seed=1, workers=1)
    session.invoke()
    assert (session.attempted, session.failed) == (1, 1)


def test_digest_and_reference_mismatches_fail_their_operation():
    part = Part("w", ("solve",), {"seeds": {"n_paths": 2}})
    first = gate.Outcome(2, digests={"manifest.json": "a", "solution0_u.csv": "b",
                                     "solution1_u.csv": "c"})
    later = gate.Outcome(2, digests={"manifest.json": "a", "solution0_u.csv": "b",
                                     "solution1_u.csv": "changed"})
    gate.compare_digests(part, first, later)
    assert later.failed_ops == {1}

    ref = {"path0": {"gaps": [1e-3]}, "path1": {"gaps": [2e-3]}}
    near = gate.Outcome(2, record={"path0": {"gaps": [1e-3 * (1 + 1e-9)]},
                                   "path1": {"gaps": [2e-3 * (1 + 1e-4)]}})
    gate.compare_reference(part, ref, near)
    assert near.failed_ops == {1}
