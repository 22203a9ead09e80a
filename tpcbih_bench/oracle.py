"""Independent output oracle for the benchmark.

Nothing here imports the engine.  Expected answers are computed in plain
Python over the generator's version feed (``GeneratedWorkload.
all_versions()``): one ``(values, sys_begin, sys_end)`` triple per row
version ever created.  Temporal clauses use the half-open ``[begin, end)``
reading the SQL:2011 dialect documents:

* ``AS OF t``        — ``begin <= t < end``;
* ``FROM a TO b``    — ``begin < b and end > a``;
* no system-time clause — the current state (the version is still open);
* no application-time clause — every application-time version.

A NULL period end is open (``+inf``); a NULL begin never qualifies.  Plain
column predicates (T9) follow SQL NULL logic instead: a NULL operand makes
the comparison unknown, so the row does not qualify.

Results are compared as multisets: integers and strings exactly, floats
by relative tolerance :data:`REL_TOL`.  Values are never rounded to fixed
decimals — rounding flips at .5 between two correct sums.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

REL_TOL = 1e-9
OPEN = math.inf

_K_COLUMNS = (
    "c_custkey", "c_name", "c_address", "c_nationkey", "c_phone", "c_acctbal",
    "sys_begin",
)
#: (begin, end) column of each table's first application period — the
#: period ``FOR BUSINESS_TIME`` addresses
_APP = {
    "customer": ("c_visible_begin", "c_visible_end"),
    "partsupp": ("ps_valid_begin", "ps_valid_end"),
    "orders": ("o_active_begin", "o_active_end"),
}


class Version:
    """One row version with its system period."""

    __slots__ = ("values", "sys_begin", "sys_end")

    def __init__(self, values: dict, sys_begin: int, sys_end):
        self.values = values
        self.sys_begin = sys_begin
        self.sys_end = sys_end

    def get(self, column):
        if column == "sys_begin":
            return self.sys_begin
        if column == "sys_end":
            return self.sys_end
        return self.values.get(column)


class VersionStore:
    """The version feed of the tables the oracle answers for.

    ``horizon`` cuts the history at a system-time tick: versions created
    later are invisible and versions closed later are still open.  The
    ingest workload checks its reads against the store cut at the tick the
    read ran at.
    """

    def __init__(self, feed: Dict[str, Iterable[Tuple[dict, int, int]]], open_end):
        """*open_end* is the feed's end-of-time marker for open versions."""
        self._tables: Dict[str, List[Version]] = {}
        for table, triples in feed.items():
            self._tables[table] = [
                Version(values, begin, OPEN if end is None or end == open_end else end)
                for values, begin, end in triples
            ]
        self._by_customer: Dict[int, List[Version]] = defaultdict(list)
        for version in self._tables.get("customer", ()):
            self._by_customer[version.values["c_custkey"]].append(version)
        self._cut: Dict[Tuple[str, int], List[Version]] = {}

    def versions(self, table: str, horizon: Optional[int] = None) -> List[Version]:
        if horizon is None:
            return self._tables[table]
        key = (table, horizon)
        cut = self._cut.get(key)
        if cut is None:
            cut = _cut(self._tables[table], horizon)
            self._cut = {key: cut}  # ingest reads advance monotonically
        return cut

    def customer(self, key: int, horizon: Optional[int] = None) -> List[Version]:
        chain = self._by_customer.get(key, [])
        return chain if horizon is None else _cut(chain, horizon)


def _cut(versions: List[Version], horizon: int) -> List[Version]:
    return [
        v if v.sys_end <= horizon else Version(v.values, v.sys_begin, OPEN)
        for v in versions
        if v.sys_begin <= horizon
    ]


# ---------------------------------------------------------------------------
# temporal predicates
# ---------------------------------------------------------------------------


def _open(value):
    return OPEN if value is None else value


def sys_current(v: Version) -> bool:
    return v.sys_end == OPEN


def sys_as_of(v: Version, tick) -> bool:
    return v.sys_begin <= tick < v.sys_end


def sys_overlap(v: Version, low, high) -> bool:
    return v.sys_begin < high and v.sys_end > low


def app_as_of(v: Version, table: str, point) -> bool:
    begin_col, end_col = _APP[table]
    begin = v.values.get(begin_col)
    if begin is None:
        return False
    return begin <= point < _open(v.values.get(end_col))


def app_overlap(v: Version, table: str, low, high) -> bool:
    begin_col, end_col = _APP[table]
    begin = v.values.get(begin_col)
    if begin is None:
        return False
    return begin < high and _open(v.values.get(end_col)) > low


# ---------------------------------------------------------------------------
# expected answers
# ---------------------------------------------------------------------------


class Expected:
    """An expected answer: rows, plus the ORDER BY / LIMIT contract.

    Each row carries the sort key of its version (the sort column need not
    be projected); rows with equal keys may come back in any order.
    ``limit`` keeps the first rows of that order, and a tie straddling the
    cut may be resolved either way.
    """

    def __init__(self, rows, order=None, descending=False, limit=None):
        #: list of (sort key or None, row tuple)
        self.rows = rows
        self.ordered = order is not None
        self.descending = descending
        self.limit = limit


def _project(versions: Iterable[Version], columns: Sequence[str], order_col=None):
    return [
        (v.get(order_col) if order_col else None, tuple(v.get(c) for c in columns))
        for v in versions
    ]


def _avg_count(versions: List[Version], column: str, avg_first=True):
    values = [v.values.get(column) for v in versions]
    present = [x for x in values if x is not None]
    avg = math.fsum(present) / len(present) if present else None
    return (avg, len(values)) if avg_first else (len(values), avg)


def _k_history(store, p, now, sys_filter, app_filter, columns, order_col=None,
               descending=False, limit=None):
    chain = [
        v for v in store.customer(p["key"], now)
        if sys_filter(v) and app_filter(v)
    ]
    return Expected(
        _project(chain, columns, order_col),
        order=order_col, descending=descending, limit=limit,
    )


def _everything(_v):
    return True


def _k1_app(store, p, now):
    return _k_history(
        store, p, now, sys_current,
        lambda v: app_overlap(v, "customer", p["app_begin"], p["app_end"]),
        _K_COLUMNS, "c_visible_begin",
    )


def _k1_app_past(store, p, now):
    return _k_history(
        store, p, now, lambda v: sys_as_of(v, p["sys_past"]),
        lambda v: app_overlap(v, "customer", p["app_begin"], p["app_end"]),
        _K_COLUMNS, "c_visible_begin",
    )


def _k1_both(store, p, now):
    return _k_history(
        store, p, now, lambda v: sys_overlap(v, p["sys_begin"], p["sys_end"]),
        lambda v: app_overlap(v, "customer", p["app_begin"], p["app_end"]),
        _K_COLUMNS, "sys_begin",
    )


def _k_sys_range(high_name, columns, order_col):
    def evaluate(store, p, now):
        return _k_history(
            store, p, now,
            lambda v: sys_overlap(v, p["sys_begin"], p[high_name]),
            lambda v: app_as_of(v, "customer", p["app_point"]),
            columns, order_col,
        )

    return evaluate


def _k_app_range(high_name, columns, order_col):
    def evaluate(store, p, now):
        return _k_history(
            store, p, now, sys_current,
            lambda v: app_overlap(v, "customer", p["app_begin"], p[high_name]),
            columns, order_col,
        )

    return evaluate


def _k4_app(store, p, now):
    return _k_history(
        store, p, now, sys_current, _everything,
        _K_COLUMNS, "c_visible_begin", descending=True, limit=3,
    )


def _k4_sys(store, p, now):
    return _k_history(
        store, p, now, lambda v: sys_overlap(v, p["sys_begin"], p["sys_end"]),
        lambda v: app_as_of(v, "customer", p["app_point"]),
        _K_COLUMNS, "sys_begin", descending=True, limit=3,
    )


def _k5_sys(store, p, now):
    chain = store.customer(p["key"], now)
    earlier = [v.sys_begin for v in chain if v.sys_end < p["sys_end"]]
    if not earlier:
        return Expected([])
    latest = max(earlier)
    return Expected(_project(
        [v for v in chain if v.sys_begin == latest],
        ("c_custkey", "c_acctbal", "sys_begin"),
    ))


def _k6(sys_filter, app_filter):
    def evaluate(store, p, now):
        rows = [
            v for v in store.versions("customer", now)
            if sys_filter(v, p) and app_filter(v, p)
            and v.values.get("c_acctbal") is not None
            and v.values["c_acctbal"] > p["balance"]
        ]
        return Expected(_project(rows, ("c_custkey", "c_acctbal")))

    return evaluate


def _t4(store, p, now):
    rows = [v for v in store.versions("orders", now) if sys_as_of(v, p["sys_point"])]
    return Expected(
        _project(rows, ("o_orderkey", "o_totalprice"), "o_orderkey"),
        order="o_orderkey", limit=10,
    )


def _point(table, column, sys_mode):
    """T1/T1c/T2: avg(column), count(*) at one (system, application) point."""

    def evaluate(store, p, now):
        if sys_mode:
            rows = [
                v for v in store.versions(table, now)
                if sys_as_of(v, p["sys_point"])
                and app_as_of(v, table, p["app_point"])
            ]
        else:
            rows = [
                v for v in store.versions(table, now)
                if sys_current(v) and app_as_of(v, table, p["app_point"])
            ]
        return Expected([(None, _avg_count(rows, column))])

    return evaluate


def _t3(store, p, now):
    orders = store.versions("orders", now)
    count = sum(1 for v in orders if sys_as_of(v, p["sys_a"]))
    count += sum(1 for v in orders if sys_as_of(v, p["sys_b"]))
    return Expected([(None, (count,))])


def _orders_count_avg(row_filter):
    def evaluate(store, p, now):
        rows = [v for v in store.versions("orders", now) if row_filter(v, p)]
        return Expected([(None, _avg_count(rows, "o_totalprice", avg_first=False))])

    return evaluate


def _t9_filter(v, p):
    # plain predicates: NULL operands make the comparison unknown
    begin, end = v.values.get("o_active_begin"), v.values.get("o_active_end")
    if begin is None or end is None:
        return False
    return begin <= p["app_point"] and end > p["app_point"]


#: query id -> evaluate(store, params, horizon) -> Expected
ORACLES: Dict[str, Callable] = {
    "K1.app": _k1_app,
    "K1.app_past": _k1_app_past,
    "K1.both": _k1_both,
    "K1.sys": _k_sys_range("sys_end", _K_COLUMNS, "sys_begin"),
    "K2.app": _k_app_range("app_mid", _K_COLUMNS, "c_visible_begin"),
    "K2.sys": _k_sys_range("sys_mid", _K_COLUMNS, "sys_begin"),
    "K3.app": _k_app_range("app_mid", ("c_acctbal",), None),
    "K3.sys": _k_sys_range("sys_mid", ("c_acctbal",), None),
    "K4.app": _k4_app,
    "K4.sys": _k4_sys,
    "K5.sys": _k5_sys,
    "K6.app": _k6(
        lambda v, p: sys_current(v),
        lambda v, p: app_overlap(v, "customer", p["app_begin"], p["app_end"]),
    ),
    "K6.app_past": _k6(
        lambda v, p: sys_as_of(v, p["sys_past"]),
        lambda v, p: app_overlap(v, "customer", p["app_begin"], p["app_end"]),
    ),
    "K6.sys": _k6(
        lambda v, p: sys_overlap(v, p["sys_begin"], p["sys_end"]),
        lambda v, p: True,
    ),
    "T4": _t4,
    "T1.app": _point("partsupp", "ps_supplycost", sys_mode=False),
    "T1.sys": _point("partsupp", "ps_supplycost", sys_mode=True),
    "T1c.app": _point("customer", "c_acctbal", sys_mode=False),
    "T1c.sys": _point("customer", "c_acctbal", sys_mode=True),
    "T2.app": _point("orders", "o_totalprice", sys_mode=False),
    "T2.sys": _point("orders", "o_totalprice", sys_mode=True),
    "T3": _t3,
    "T5.all": _orders_count_avg(lambda v, p: True),
    "T6.appslice": _orders_count_avg(
        lambda v, p: app_as_of(v, "orders", p["app_point"])
    ),
    "T6.sysslice": _orders_count_avg(lambda v, p: sys_as_of(v, p["sys_point"])),
    "T7.implicit": _orders_count_avg(lambda v, p: sys_current(v)),
    "T9": _orders_count_avg(_t9_filter),
}

#: tables the oracles read
TABLES = ("customer", "partsupp", "orders")


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def values_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, float) or isinstance(b, float):
        return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))


def _sort_key(row):
    return tuple(
        (0, 0) if x is None else (1, x) if isinstance(x, (int, float)) else (2, str(x))
        for x in row
    )


def same_multiset(got: Sequence[tuple], expected: Sequence[tuple]) -> bool:
    """Multiset equality under :func:`values_equal`."""
    if len(got) != len(expected):
        return False
    got_sorted = sorted(got, key=_sort_key)
    exp_sorted = sorted(expected, key=_sort_key)
    if all(rows_equal(g, e) for g, e in zip(got_sorted, exp_sorted)):
        return True
    # near-equal floats can sort differently on the two sides: match greedily
    unmatched = list(exp_sorted)
    for row in got_sorted:
        for index, candidate in enumerate(unmatched):
            if rows_equal(row, candidate):
                del unmatched[index]
                break
        else:
            return False
    return True


def _is_sub_multiset(got: Sequence[tuple], pool: Sequence[tuple]) -> bool:
    unmatched = list(pool)
    for row in got:
        for index, candidate in enumerate(unmatched):
            if rows_equal(row, candidate):
                del unmatched[index]
                break
        else:
            return False
    return True


def matches(got: Sequence[tuple], expected: Expected) -> bool:
    """Whether *got* (rows in engine order) satisfies *expected*."""
    got = [tuple(row) for row in got]
    if not expected.ordered:
        return same_multiset(got, [row for _key, row in expected.rows])
    groups: Dict = {}
    for key, row in expected.rows:
        groups.setdefault(key, []).append(row)
    keys = sorted(
        groups, key=lambda k: (k is None, k), reverse=expected.descending
    )
    want = sum(len(g) for g in groups.values())
    if expected.limit is not None:
        want = min(want, expected.limit)
    if len(got) != want:
        return False
    position = 0
    for key in keys:
        if position == len(got):
            break
        group = groups[key]
        take = min(len(group), len(got) - position)
        segment = got[position:position + take]
        if take == len(group):
            if not same_multiset(segment, group):
                return False
        elif not _is_sub_multiset(segment, group):
            return False  # a tie cut by LIMIT: any subset of the tie is right
        position += take
    return True


def majority(results: Dict[str, Sequence[tuple]]) -> Dict[str, bool]:
    """Five-archetype agreement: which archetypes share the majority answer.

    Results are grouped into classes of equal multisets; an archetype
    agrees when its class holds more than half of all archetypes.
    """
    names = list(results)
    classes: List[List[str]] = []
    for name in names:
        rows = [tuple(r) for r in results[name]]
        for members in classes:
            if same_multiset(rows, [tuple(r) for r in results[members[0]]]):
                members.append(name)
                break
        else:
            classes.append([name])
    winners = set()
    for members in classes:
        if len(members) * 2 > len(names):
            winners = set(members)
    return {name: name in winners for name in names}
