"""Tests of the benchmark itself: span recorder, wrappers, metric names, smoke runs."""

import json
import re
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, Spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "config": {
        "grid": {"nx": 12, "nt": 24, "T": 1.0},
        "mc": {"n_paths": 16},
        "girsanov": {"n_sheets": 50},
    },
    "fp_grid": (8, 16, 0.1),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bound_attrs():
    out = []
    for owner_path, attr, _, _ in child.BOUNDARIES:
        owner = child._owner(owner_path)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        out.append((owner, attr, raw))
    return out


def test_wrappers_restored_after_traced_run(tmp_path):
    before = _bound_attrs()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY["config"]))
    spans_path = tmp_path / "spans.npz"
    argv = ["--trace", str(spans_path), "cli", "mc", "--config", str(cfg), "--threads", "2"]
    code = child.main([*argv, "--out", str(tmp_path), "--no-timestamp"])
    assert code == 0
    for (owner, attr, raw), (_, _, now) in zip(before, _bound_attrs()):
        assert now is raw, f"{owner}.{attr} was not restored"
    spans = Spans.load(spans_path)
    assert spans.total("deviations.mc_run")["calls"] == 1
    # worker-thread chunks are attributed to mc_run, not left at the top
    assert spans.under("solvers.heat_solve", "deviations.mc_run").sum() == spans.total(
        "solvers.heat_solve"
    )["calls"] > 0


def test_wrap_keeps_classmethod_and_reports_absent():
    class Owner:
        @classmethod
        def build(cls, x):
            return (cls, x)

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    rec = SpanRecorder()
    assert rec.wrap(Owner, "build", "owner.build")
    assert rec.wrap(mod, "f", "mod.f", probe=lambda r, a, k, res: float(res))
    assert not rec.wrap(mod, "absent", "mod.absent")
    assert Owner.build(3) == (Owner, 3) and mod.f(1) == 2
    rec.restore()
    assert isinstance(vars(Owner)["build"], classmethod) and mod.f.__name__ == "<lambda>"
    spans = rec.spans()
    assert spans.total("owner.build")["calls"] == 1
    assert spans.total("mod.f")["amount"] == 2.0
    assert spans.missing == ["SimpleNamespace.absent"]


def test_self_time_plus_children_equals_parent():
    rec = SpanRecorder()
    with rec.span("parent"):
        time.sleep(0.002)
        with rec.span("child"):
            time.sleep(0.003)
            with rec.span("grandchild"):
                time.sleep(0.001)
        with rec.span("child"):
            time.sleep(0.001)
    s = rec.spans()
    dur, own = s.duration(), s.self_time
    p = np.flatnonzero(s.mask("parent"))[0]
    kids = s.parent == p
    assert own[p] + dur[kids].sum() == pytest.approx(dur[p], abs=1e-12)
    for c in np.flatnonzero(s.mask("child")):
        assert own[c] + dur[s.parent == c].sum() == pytest.approx(dur[c], abs=1e-12)
    assert (own >= 0).all()


def test_overlapping_thread_children_counted_once():
    rec = SpanRecorder()
    mod = types.SimpleNamespace(work=lambda: time.sleep(0.02))
    rec.wrap(mod, "work", "work")
    with rec.span("parent"):
        threads = [threading.Thread(target=mod.work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
    rec.restore()
    assert not any(t.is_alive() for t in threads)
    s = rec.spans()
    p = np.flatnonzero(s.mask("parent"))[0]
    w = s.mask("work")
    assert (s.parent[w] == p).all()
    union = s.end[w].max() - s.start[w].min()  # the two calls overlap
    assert s.self_time[p] == pytest.approx(s.duration()[p] - union, abs=1e-9)


def test_metric_names_and_limits_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    for name, (unit, better) in {**metrics.END_TO_END, **metrics.PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_run(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    res = run.run(workload, seed=0, seconds=0.0, trace=trace, scale=TINY)
    assert res.problems == [] and res.failed == 0
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(res.metrics) == set(table)
    if not trace:
        assert all(v > 0 for v in res.metrics.values())

