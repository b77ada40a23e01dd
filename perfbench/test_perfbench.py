"""Smoke test of the benchmark at tiny sizes (synthweb scale 2, 100
documents): every workload, untraced and traced, emits every metric named
in BENCHMARK.json with its unit and passes its oracle checks; a perturbed
crawl order and a perturbed operator output are caught.

    python3 -m pytest perfbench -q
"""

import json
import os
from types import SimpleNamespace

import pytest

from perfbench import crawl as C
from perfbench import inputs, run
from perfbench.ops import frame_digest

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    out = run.measure(workload, seed=3, seconds=0.1, trace=trace,
                      size="smoke")
    res = out["result"]
    assert out["errors"] == []
    assert res["attempted"] >= (2 if trace else 1)
    assert res["failed"] == 0 and res["correct"] is True
    assert out["notes"]["failed_frac"] == (0.0, "ratio")
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    else:
        assert res["metrics"]["crawl.coverage"]["value"] >= 0.95
        assert res["metrics"]["fetch.urls"]["value"] > 0
        # the ops chain runs (and is oracle-checked) in crawl-bulk's
        # traced run only
        ran_ops = res["metrics"]["ops.wall_s"]["value"] > 0
        assert ran_ops == (workload == "crawl-bulk")


def test_perturbed_crawl_order_is_caught(monkeypatch):
    fixture = inputs.ensure("synthweb", 3, run.SIZES["smoke"]["crawl-bulk"])
    oracle, _, _ = C.reference("crawl-bulk", fixture, 3,
                               run.SIZES["smoke"]["crawl-bulk"])
    swapped = list(oracle.crawl_order)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert C.matches_oracle(oracle, oracle)
    assert not C.matches_oracle(
        SimpleNamespace(crawl_order=swapped, seen_set=oracle.seen_set),
        oracle)

    # end to end: against a perturbed oracle every unit counts as failed
    real = C.reference

    def perturbed(*args):
        ref, serial_s, web = real(*args)
        ref.crawl_order[0], ref.crawl_order[1] = (ref.crawl_order[1],
                                                  ref.crawl_order[0])
        return ref, serial_s, web

    monkeypatch.setattr(C, "reference", perturbed)
    res = run.measure("crawl-bulk", seed=3, seconds=0.1, trace=False,
                      size="smoke")["result"]
    assert res["failed"] == res["attempted"] >= 1
    assert res["correct"] is False


def test_perturbed_operator_output_is_caught():
    import pandas as pd

    df = pd.DataFrame({"doc_id": [1, 2, 3], "keep": [True, False, True]})
    assert frame_digest(df) == frame_digest(df.iloc[::-1])
    bad = df.copy()
    bad.loc[1, "keep"] = True
    assert frame_digest(df) != frame_digest(bad)
