"""Seeded request generator and literal renderer.

A request is one query plus its parameters (or, in ``ingest``, one
history transaction); the benchmark issues each to all five archetypes.
Requests come in *rounds*: every template of the workload once per round,
in a seeded shuffled order, so each run measures the same query mix and a
seed only moves parameters and data.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import _ALIGN_NATIVE, _TEMPORAL_AGG_NATIVE
from repro.core.queries import Workload
from repro.core.queries.tpch import tpch_query
from repro.engine.types import END_OF_TIME

#: a ``:name`` bind, matched token-wise (``:sys_b`` never hits ``:sys_begin``)
BIND = re.compile(r":([A-Za-z_]\w*)")

#: customers with the most closed versions, the K queries' hot keys
HOT_CUSTOMERS = 16

KEY_AUDIT_QIDS = (
    "K1.app", "K1.app_past", "K1.both", "K1.sys", "K2.app", "K2.sys",
    "K3.app", "K3.sys", "K4.app", "K4.sys", "K5.sys",
    "K6.app", "K6.app_past", "K6.sys", "T4",
)
HISTORY_SCAN_QIDS = (
    "T1.sys", "T1.app", "T1c.sys", "T1c.app", "T2.sys", "T2.app", "T3",
    "T5.all", "T6.appslice", "T6.sysslice", "T9",
    "R1", "R2", "R4", "R6", "R7", "B3.2", "B3.5", "B3.8", "B3.11",
)
#: sys-mode TPC-H numbers.  Q4, Q17 and Q22 are left out because their
#: 0.3-5 s cells would let one query set the throughput.  Q21 is left out
#: because its correlated EXISTS / NOT EXISTS runs once per outer row: on
#: data where the outer side is not empty (seed 11) one cell runs for
#: minutes, on other seeds it takes 30-130 ms.
HISTORY_SCAN_TPCH = (1, 2, 3, 5, 6, 9, 10, 12, 14, 18)
INGEST_READ_QIDS = ("K1.app", "K4.sys", "T7.implicit")


@dataclass(frozen=True)
class Template:
    qid: str
    sql: str

    def bind_names(self) -> List[str]:
        return sorted({name.lower() for name in BIND.findall(self.sql)})


@dataclass
class Request:
    """One sampled request.  ``sql``/``params`` are what the engine sees;
    ``bound`` keeps the parameter values for the oracle either way."""

    qid: str
    sql: str
    params: Optional[Dict]
    bound: Dict
    #: the parameterized text, for the literal-vs-parameterized self-check
    template: str
    literal: bool = False


def render_literal(sql: str, params: Dict) -> str:
    """Inline every ``:name`` bind as a ``repr`` literal, as a
    string-formatting DB-API client would send the statement."""

    def substitute(match):
        value = params[match.group(1).lower()]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"cannot inline {value!r} for :{match.group(1)}")
        return repr(value)

    return BIND.sub(substitute, sql)


def templates(qids: Sequence[str]) -> List[Template]:
    catalogue = Workload()
    return [Template(qid, catalogue.query(qid).sql) for qid in qids]


def history_scan_templates() -> List[Template]:
    out = templates(HISTORY_SCAN_QIDS)
    out += [Template(f"H{n}.sys", tpch_query(n, "sys")) for n in HISTORY_SCAN_TPCH]
    out.append(Template("R3a.native", _TEMPORAL_AGG_NATIVE["R3a"]))
    out.append(Template("R5.align", _ALIGN_NATIVE))
    return out


def hot_customers(workload, count: int = HOT_CUSTOMERS) -> List[int]:
    """Live customer keys with the most closed versions."""
    closed: Dict[int, int] = {}
    live = set()
    for values, _begin, end in workload.all_versions("customer"):
        key = values["c_custkey"]
        if end == END_OF_TIME:
            live.add(key)
        else:
            closed[key] = closed.get(key, 0) + 1
    ranked = sorted((k for k in closed if k in live), key=lambda k: (-closed[k], k))
    return ranked[:count] or sorted(live)[:count]


class Sampler:
    """Uniform parameter draws over the generated history.  Each *stream*
    of one seed draws its own sequence."""

    def __init__(self, workload, seed: int, stream: int):
        self.meta = workload.meta
        self.rng = random.Random(f"{seed}/{stream}")
        self.hot = hot_customers(workload)
        self.part_count = workload.meta.initial_counts.get("part", 1)

    def tick(self, high: Optional[int] = None) -> int:
        return self.rng.randint(self.meta.initial_tick, high or self.meta.last_tick)

    def day(self) -> int:
        return self.rng.randint(self.meta.first_history_day, self.meta.last_history_day)

    def ordered3(self, low: int, high: int) -> Tuple[int, int, int]:
        return tuple(sorted(self.rng.sample(range(low, high + 1), 3)))

    def customer(self) -> int:
        if self.rng.random() < 0.5:
            return self.rng.choice(self.hot)
        return self.rng.randint(1, max(1, self.meta.max_custkey))

    def key_params(self, now: Optional[int] = None) -> Dict:
        meta = self.meta
        last = now or meta.last_tick
        sys_begin, sys_mid, sys_end = self.ordered3(meta.initial_tick, last)
        app_begin, app_mid, app_end = self.ordered3(
            meta.first_history_day, meta.last_history_day + 1
        )
        return {
            "key": self.customer(),
            "sys_begin": sys_begin, "sys_mid": sys_mid, "sys_end": sys_end,
            "sys_point": self.tick(last), "sys_past": self.tick(last),
            "app_begin": app_begin, "app_mid": app_mid, "app_end": app_end,
            "app_point": self.day(),
            "balance": 9000.0 + self.rng.random() * 999.0,
        }

    def scan_params(self) -> Dict:
        sys_a, sys_b = sorted((self.tick(), self.tick()))
        return {
            "sys_point": self.tick(), "app_point": self.day(),
            "sys_a": sys_a, "sys_b": sys_b, "sys_end": self.tick(),
            "sys_sentinel": END_OF_TIME, "sys_now": self.meta.last_tick,
            "sys_past": self.tick(), "sys_tt": self.tick(),
            "part": self.rng.randint(1, max(1, self.part_count)),
        }


def make_request(template: Template, params: Dict, literal: bool = False) -> Request:
    bound = {name: params[name] for name in template.bind_names()}
    if literal:
        text = render_literal(template.sql, bound)
        return Request(template.qid, text, None, bound, template.sql, True)
    return Request(template.qid, template.sql, bound, bound, template.sql)


def key_audit_round(sampler: Sampler, catalogue: List[Template]) -> List[Request]:
    """Every K template once parameterized and once literal-inlined."""
    out = [
        make_request(t, sampler.key_params(), literal)
        for t in catalogue
        for literal in (False, True)
    ]
    sampler.rng.shuffle(out)
    return out


def history_scan_round(sampler: Sampler, catalogue: List[Template]) -> List[Request]:
    out = [make_request(t, sampler.scan_params()) for t in catalogue]
    sampler.rng.shuffle(out)
    return out
