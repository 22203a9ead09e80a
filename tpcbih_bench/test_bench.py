"""Self-tests of the benchmark (not part of the engine's test suite).

    python -m pytest tpcbih_bench -q

They run the real workloads at a tiny scale, so they take about a minute.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import requestgen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TINY = (0.0005, 0.0005)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3):
    out = io.StringIO()
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace)],
        scale=TINY, out=out,
    )
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric(workload, trace):
    code, lines, result = _run(workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        printed = [line for line in lines if line.split()[:1] == [metric["name"]]]
        assert printed and metric["unit"] in printed[0].split() and "n=" in printed[0]


def test_oracle_shifted_by_one_tick_fails_the_run(monkeypatch):
    shifted = oracle.sys_as_of
    monkeypatch.setattr(oracle, "sys_as_of", lambda v, tick: shifted(v, tick + 1))
    _code, _lines, result = _run("history_scan", 0, seed=4)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_shifted_oracle_disagrees_on_a_real_answer():
    workload = workloads.generate(5, TINY)
    store = workloads.oracle_store(workload)
    begins, ends = {}, {}
    for version in store.versions("orders"):
        begins[version.sys_begin] = begins.get(version.sys_begin, 0) + 1
        if version.sys_end != oracle.OPEN:
            ends[version.sys_end] = ends.get(version.sys_end, 0) + 1
    tick = min(t for t in begins if t > 2 and begins[t] != ends.get(t, 0))
    system = workloads.setup(5, TINY, ingest=False).systems["A"]
    template = requestgen.templates(["T6.sysslice"])[0]
    params = {"sys_point": tick - 1}
    got = system.db.execute(template.sql, params).rows
    assert oracle.matches(got, oracle.ORACLES["T6.sysslice"](store, params, None))
    planted = {"sys_point": tick}
    assert not oracle.matches(got, oracle.ORACLES["T6.sysslice"](store, planted, None))


def test_literal_renderer_substitutes_whole_tokens():
    sql = "SELECT 1 WHERE a >= :sys_begin AND b < :sys_b AND c = :Key"
    text = requestgen.render_literal(sql, {"sys_begin": 10, "sys_b": 2, "key": 7.5})
    assert text == "SELECT 1 WHERE a >= 10 AND b < 2 AND c = 7.5"


def test_multiset_comparison_uses_relative_tolerance_not_rounding():
    # the same T1.sys average summed in two orders: rounding to fixed
    # decimals would split them, relative tolerance does not
    a = [(501.67856250000017, 40)]
    b = [(501.6785624999999, 40)]
    assert oracle.same_multiset(a, b)
    assert not oracle.same_multiset(a, [(501.6786, 40)])
    assert not oracle.same_multiset([(1, "x")], [(1, "y")])
    assert oracle.same_multiset([(1, 2.0), (1, 1.0)], [(1, 1.0), (1, 2.0)])


def test_speedometer_scales_by_the_probe_and_leaves_probes_out():
    meter = speed.Speedometer()
    probe = 2 * speed.REFERENCE_S  # the machine runs at half the reference speed
    meter.starts = [i * 0.01 for i in range(101)]
    meter.durations = [probe] * 101
    meter._build()
    # 0.1 s of wall time holds ten probes; the rest counts at half speed
    assert meter.work(0.205, 0.305) == pytest.approx((0.1 - 10 * probe) / 2)
    assert meter.work(0.255, 0.2551) == pytest.approx(0.0001 / 2)
    assert meter.work(0.25, 0.25 + probe) == pytest.approx(0.0, abs=1e-12)


def test_speedometer_probes_while_it_runs():
    with speed.Speedometer() as meter:
        started = speed._clock()
        while speed._clock() - started < 0.2:
            speed._probe()
        ended = speed._clock()
    assert len(meter.durations) >= 5
    assert 0 < meter.work(started, ended) < 100 * (ended - started)
