"""Layer-attributed tracing from outside the engine.

:class:`Tracer` patches the engine's layer entry points with timing shims
while a traced pass runs, and restores them afterwards.  Each name is
patched where the caller looks it up (``parse_statement`` in the session
module, ``rewrite_logical`` in the planner module, methods on their
classes).  Spans live in memory — name, start, end, busy time, parent and
request id — and are written out when the benchmark ends.  A span's self
time is its busy time minus its children's.

``BPlusTree.range_scan`` is a generator: its span accumulates the time
spent inside each ``next()`` and is closed when the scan is exhausted or
abandoned, so its busy time can be shorter than ``end - start``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Dict, List

from repro.engine import session as session_mod
from repro.engine.database import Database
from repro.engine.index.btree import BPlusTree
from repro.engine.index.hashindex import HashIndex
from repro.engine.index.timeline import TimelineIndex
from repro.engine.plan import planner as planner_mod
from repro.engine.plan.access import TableAccessPlan
from repro.engine.storage.versioned import VersionedTable
from repro.engine.txn import Transaction

_clock = time.perf_counter

DML = (
    "insert_row", "update_by_key", "sequenced_update_by_key",
    "sequenced_delete_by_key", "delete_by_key",
)

#: (owner, attribute, span name) — every patched entry point
SHIMS = [
    (session_mod, "parse_statement", "sql.parse"),
    (planner_mod, "rewrite_logical", "plan.rewrite"),
    (planner_mod.Planner, "plan_select", "plan.plan_select"),
    (planner_mod.PlannedQuery, "rows", "exec.rows"),
    (TableAccessPlan, "batches", "access.batches"),
    (TableAccessPlan, "rows", "access.rows"),
    (BPlusTree, "search", "index.search"),
    (BPlusTree, "range_scan", "index.range_scan"),
    (BPlusTree, "insert", "index.maintain"),
    (BPlusTree, "remove", "index.maintain"),
    (HashIndex, "search", "index.search"),
    (HashIndex, "insert", "index.maintain"),
    (HashIndex, "remove", "index.maintain"),
    (TimelineIndex, "snapshot_rids", "index.search"),
    (TimelineIndex, "activate", "index.maintain"),
    (TimelineIndex, "invalidate", "index.maintain"),
    (VersionedTable, "insert_version", "storage.insert_version"),
    (VersionedTable, "invalidate", "storage.invalidate"),
    (VersionedTable, "drain_undo", "storage.drain_undo"),
    (VersionedTable, "merge_column_store", "storage.merge"),
    (Database, "analyze", "stats.analyze"),
    (Transaction, "commit", "txn.commit"),
] + [(Database, name, "write.dml") for name in DML]

_GENERATORS = {"index.range_scan"}

# span record layout (lists, to keep the per-call cost low)
NAME, START, END, BUSY, PARENT, REQUEST = range(6)


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request = -1
        self._saved = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        span = self.spans[index]
        span[END] = _clock()
        span[BUSY] = span[END] - span[START]
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return shim

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, _clock(), 0.0, 0.0, parent, tracer.request]
            tracer.spans.append(span)
            inner = fn(*args, **kwargs)

            def pull():
                try:
                    while True:
                        started = _clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span[END] = _clock()
                            span[BUSY] += span[END] - started
                        yield item
                finally:
                    inner.close()

            return pull()

        return shim

    # -- installation ----------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in SHIMS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            wrap = self._wrap_generator if name in _GENERATORS else self._wrap
            setattr(owner, attr, wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- output ------------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "busy": span[BUSY],
                    "parent": span[PARENT], "request": span[REQUEST],
                }) + "\n")

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, outermost calls, inclusive busy seconds of
        the outermost spans of that name, and self seconds of all spans."""
        spans = self.spans
        child_busy = defaultdict(float)
        for span in spans:
            if span[PARENT] >= 0:
                child_busy[span[PARENT]] += span[BUSY]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "outer_calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(spans):
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[BUSY] - child_busy[index]
            if not _has_ancestor(spans, span, span[NAME]):
                entry["outer_calls"] += 1
                entry["inclusive_s"] += span[BUSY]
        return out

    def inside(self, name: str, ancestor: str) -> float:
        """Busy seconds of outermost *name* spans nested under *ancestor*."""
        spans = self.spans
        total = 0.0
        for span in spans:
            if span[NAME] == name and not _has_ancestor(spans, span, name):
                if _has_ancestor(spans, span, ancestor):
                    total += span[BUSY]
        return total


def _has_ancestor(spans, span, name) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


# ---------------------------------------------------------------------------
# counters read from public surfaces, outside the timed region
# ---------------------------------------------------------------------------


def view(db, name):
    """Rows of a ``repro_stat_*`` view as dicts, read without SQL."""
    columns = db.system_view_columns(name)
    return [dict(zip(columns, row)) for row in db.system_view_rows(name)]


def counters(systems) -> Dict[str, float]:
    """Engine counters summed over the archetypes.

    The ``repro_stat_*`` views are materialised through
    ``Database.system_view_rows`` (quiet partition scans, no SQL), so
    reading them moves neither the counters they report nor the plan cache.
    """
    total: Dict[str, float] = defaultdict(float)
    for system in systems.values():
        db = system.db
        for row in view(db, "repro_stat_tables"):
            total["rows_read"] += row["rows_read"] or 0
            if row["partition"] == "history":
                total["history_rows_read"] += row["rows_read"] or 0
        for row in view(db, "repro_stat_indexes"):
            for column in ("probes", "range_scans", "rows_returned"):
                total[column] += row[column] or 0
        for key, value in db.cache_stats().items():
            total[f"cache_{key}"] += value
        total["auto_analyze_runs"] += db.metrics.counters().get(
            "stats.auto_analyze_runs", 0
        )
    return total


def _throughput(ops, meter) -> float:
    return len(ops) / sum(meter.work(op.started, op.ended) for op in ops)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, traced, before, after, setups, untraced, meter):
    """Per-layer metrics of one traced pass; returns (metrics, samples).

    *untraced* are the run's untraced passes, the base of the overhead.
    Set-up times and both throughputs are scaled by *meter*, the run's
    :class:`speed.Speedometer`; span times are raw."""
    summary = tracer.summary()
    metrics, samples = {}, {}
    delta = {key: after[key] - before.get(key, 0) for key in after}

    def put(name, value, unit, count):
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = count

    def inclusive(*names):
        return sum(summary[n]["inclusive_s"] for n in names if n in summary)

    def outer(*names):
        return sum(summary[n]["outer_calls"] for n in names if n in summary)

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def ms_per_call(*names):
        return _ratio(inclusive(*names) * 1000.0, outer(*names))

    op_s = inclusive("op.read", "op.write")
    reads = [op for op in traced.ops if op.kind == "read"]
    rows_out = sum(len(op.rows) for op in reads if op.rows is not None)
    write_s = inclusive("op.write")
    analyze_in_dml = tracer.inside("stats.analyze", "write.dml")
    lookups = calls("sql.parse")
    hits, misses = delta.get("cache_hits", 0), delta.get("cache_misses", 0)

    put("sql.parse_calls", lookups, "count", lookups)
    put("sql.parse_ms_per_call", ms_per_call("sql.parse"), "ms", lookups)
    put("sql.parse_share", _ratio(inclusive("sql.parse"), op_s), "ratio", lookups)
    plans = outer("plan.plan_select")
    put("plan.plan_select_calls", plans, "count", plans)
    put("plan.plan_select_ms_per_call", ms_per_call("plan.plan_select"), "ms", plans)
    put("plan.rewrite_ms_per_call", ms_per_call("plan.rewrite"), "ms",
        outer("plan.rewrite"))
    put("plan.share", _ratio(inclusive("plan.plan_select"), op_s), "ratio", plans)
    put("session.plan_cache_hit_ratio", _ratio(hits, hits + misses), "ratio",
        int(hits + misses))
    put("session.plan_cache_invalidations", delta.get("cache_invalidations", 0),
        "count", 1)
    put("session.self_ms_per_op",
        _ratio(summary.get("op.read", {}).get("self_s", 0.0) * 1000.0, len(reads)),
        "ms", len(reads))
    put("exec.rows_ms_per_call", ms_per_call("exec.rows"), "ms", outer("exec.rows"))
    put("exec.operator_self_share",
        _ratio(summary.get("exec.rows", {}).get("self_s", 0.0), op_s), "ratio",
        calls("exec.rows"))
    put("exec.rows_out", rows_out, "count", len(reads))
    access = ("access.batches", "access.rows")
    put("access.batches_ms_per_call", ms_per_call(*access), "ms", outer(*access))
    put("access.share", _ratio(inclusive(*access), op_s), "ratio", outer(*access))
    put("storage.rows_read", delta.get("rows_read", 0), "count", 1)
    put("storage.history_rows_read_share",
        _ratio(delta.get("history_rows_read", 0), delta.get("rows_read", 0)),
        "ratio", 1)
    put("storage.rows_read_per_row_out",
        _ratio(delta.get("rows_read", 0), rows_out), "ratio", len(reads))
    for column in ("probes", "range_scans", "rows_returned"):
        put(f"index.{column}", delta.get(column, 0), "count", 1)
    search = ("index.search", "index.range_scan")
    put("index.search_ms_per_call", ms_per_call(*search), "ms", outer(*search))
    put("index.maintain_ms_per_call", ms_per_call("index.maintain"), "ms",
        outer("index.maintain"))
    dml = outer("write.dml")
    put("write.dml_ms_per_op",
        _ratio((inclusive("write.dml") - analyze_in_dml) * 1000.0, dml), "ms", dml)
    put("storage.insert_version_calls", calls("storage.insert_version"), "count", 1)
    put("storage.invalidate_calls", calls("storage.invalidate"), "count", 1)
    writes = ("storage.insert_version", "storage.invalidate")
    put("storage.write_ms_per_call", ms_per_call(*writes), "ms", outer(*writes))
    put("storage.drain_undo_ms", inclusive("storage.drain_undo") * 1000.0, "ms",
        calls("storage.drain_undo"))
    put("storage.merge_ms", inclusive("storage.merge") * 1000.0, "ms",
        calls("storage.merge"))
    put("txn.commit_ms_per_call", ms_per_call("txn.commit"), "ms", calls("txn.commit"))
    put("stats.analyze_runs", delta.get("auto_analyze_runs", 0), "count", 1)
    put("stats.analyze_ms_per_call", ms_per_call("stats.analyze"), "ms",
        outer("stats.analyze"))
    put("stats.analyze_share_of_write",
        _ratio(tracer.inside("stats.analyze", "op.write"), write_s), "ratio",
        outer("op.write"))
    for phase in ("generate", "load", "analyze"):
        put(f"setup.{phase}_s",
            statistics.median(s.phase_s(phase, meter) for s in setups), "s",
            len(setups))
    plain_ops = sum(len(p.ops) for p in untraced)
    plain = _throughput([op for p in untraced for op in p.ops], meter)
    shimmed = _throughput(traced.ops, meter)
    put("trace.untraced_throughput_ops_s", plain, "1/s", plain_ops)
    put("trace.traced_throughput_ops_s", shimmed, "1/s", len(traced.ops))
    put("trace.overhead_ratio", _ratio(plain, shimmed), "ratio", 1)
    put("trace.spans", len(tracer.spans), "count", 1)
    return metrics, samples
