"""Set-up and timed phases of the three workloads.

One process, one client thread, closed loop: each request goes to the
five archetypes back to back (the starting archetype rotates per request)
and every archetype call is timed as one operation.  Timings are kept as
raw clock readings; :mod:`speed` scales them once the run has ended.
Telemetry, the slow log and tracer sinks stay off.  Results are kept and
checked after the timed phase, never inside it.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.generator import BitemporalDataGenerator, GeneratorConfig
from repro.core.loader import Loader
from repro.engine.database import DEFAULT_AUTO_ANALYZE_THRESHOLD
from repro.engine.errors import QueryCancelled, QueryTimeout
from repro.engine.types import END_OF_TIME
from repro.systems import make_system

import oracle
import requestgen

ARCHETYPES = "ABCDE"
#: the scale every timed run uses
FULL_SCALE = (0.002, 0.006)
#: full set-ups per run, each followed by its own timed pass; set-up time
#: is their median.  Two: one set-up of the five archetypes takes 5-10 s
#: of wall time, and the 70 runs of a two-set comparison of all three
#: workloads must fit in under an hour
SETUP_REPEATS = 2
#: ingest: one current-state read after every this many transactions
READ_EVERY = 8
#: ingest: transactions a pass replays per second of its time, about what
#: the reference speed of :mod:`speed` gets through.  The count is fixed
#: because each transaction costs more than the one before (the tables and
#: their ANALYZE runs grow), so a count set by the wall clock would make a
#: fast moment of the machine replay dearer transactions.
INGEST_TXNS_PER_S = 150
#: reads checked twice, literal-inlined against parameterized
LITERAL_SELF_CHECKS = 40

_clock = time.perf_counter


#: the set-up phases, in order
PHASES = ("generate", "load", "analyze")


@dataclass
class Setup:
    workload: object
    systems: Dict[str, object]
    #: per phase: the (start, end) clock readings of its steps
    phases: Dict[str, List[Tuple[float, float]]]
    #: (start, end) of each replayed history transaction, all archetypes
    replay: List[Tuple[float, float]]

    def phase_s(self, phase: str, meter) -> float:
        return sum(meter.work(start, end) for start, end in self.phases[phase])

    def total_s(self, meter) -> float:
        return sum(self.phase_s(phase, meter) for phase in PHASES)


@dataclass
class Op:
    request: int
    archetype: str
    kind: str  # "read" | "write"
    #: clock readings at the op's start and end
    started: float
    ended: float
    rows: Optional[list] = None
    error: Optional[str] = None


@dataclass
class Pass:
    """What one timed pass did."""

    ops: List[Op] = field(default_factory=list)
    requests: List[requestgen.Request] = field(default_factory=list)
    #: per request: the horizon its answer is checked at (None: whole history)
    horizons: List[Optional[int]] = field(default_factory=list)
    rounds: int = 0
    transactions: int = 0


def generate(seed: int, scale) -> object:
    h, m = scale
    return BitemporalDataGenerator(GeneratorConfig(h=h, m=m, seed=seed)).generate()


def ingest_split(workload) -> int:
    """Transactions replayed during set-up; the rest is the timed phase."""
    return len(workload.transactions) // 3


def setup(seed: int, scale, ingest: bool) -> Setup:
    """Generate, load every archetype, ANALYZE, arm auto-ANALYZE."""
    phases = {phase: [] for phase in PHASES}
    started = _clock()
    workload = generate(seed, scale)
    phases["generate"].append((started, _clock()))
    transactions = workload.transactions
    if ingest:
        transactions = transactions[:ingest_split(workload)]
    systems, replay = {}, []
    for name in ARCHETYPES:
        system = make_system(name)
        started = _clock()
        _load(Loader(system, workload), transactions, replay)
        phases["load"].append((started, _clock()))
        started = _clock()
        system.analyze()
        phases["analyze"].append((started, _clock()))
        system.db.auto_analyze_threshold = DEFAULT_AUTO_ANALYZE_THRESHOLD
        systems[name] = system
    return Setup(workload, systems, phases, replay)


def _load(loader: Loader, transactions, replay) -> None:
    """``Loader.load()`` with one transaction per scenario, recording each
    transaction's clock readings so they can be scaled."""
    db = loader.db
    loader.create_schema()
    loader._load_initial()
    for ops in transactions:
        started = _clock()
        with db.begin():
            for op in ops:
                loader._apply(db, op)
        replay.append((started, _clock()))
    db.drain_all_undo()
    db.merge_all()


@contextlib.contextmanager
def settled_heap():
    """Collect, then freeze every object that exists before a timed phase.

    Before a pass, the loaded tables, the generated history the oracle
    reads and the benchmark's own bookkeeping are then left out of the
    collector's generation-2 walks, as a long-running host that freezes its
    heap after loading would have it.  Unfrozen, each such walk is a
    200-260 ms stall that lands on whichever op happens to be running.
    Before a set-up, what earlier passes left behind is left out, so every
    set-up of a run collects alike.  Objects the phase allocates are still
    collected as usual.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _rotation(index: int) -> str:
    shift = index % len(ARCHETYPES)
    return ARCHETYPES[shift:] + ARCHETYPES[:shift]


def _traced(tracer, name, index):
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request = index
    return tracer.span(name)


def _read(system, request, index, tracer) -> Op:
    db = system.db
    with _traced(tracer, "op.read", index):
        started = _clock()
        try:
            rows = db.execute(request.sql, request.params).rows
        except Exception as exc:  # a failed op is counted, the run goes on
            return Op(index, system.name, "read", started, _clock(), error=repr(exc))
        return Op(index, system.name, "read", started, _clock(), rows)


def warm_plan_cache(systems, requests) -> None:
    """Plan every parameterized template once on every archetype, as a
    long-running client's first calls would.  The plan is cached before
    execution starts; a deadline in the past then stops the execution at
    its first batch, so warming costs planning time only."""
    for request in requests:
        for system in systems.values():
            try:
                system.db.execute(request.template, request.bound, timeout_s=1e-9)
            except (QueryTimeout, QueryCancelled):
                pass


def run_rounds(systems, next_round, seconds: float, tracer=None) -> Pass:
    """Issue whole rounds of requests while less than *seconds* have passed.

    A round always finishes, so every run measures whole copies of the
    request mix and can overrun *seconds* by up to one round.
    """
    result = Pass()
    started = _clock()
    while _clock() - started < seconds:
        for request in next_round():
            index = len(result.requests)
            result.requests.append(request)
            result.horizons.append(None)
            for name in _rotation(index):
                result.ops.append(_read(systems[name], request, index, tracer))
        result.rounds += 1
    return result


def run_ingest(setup_: Setup, seed: int, stream: int, seconds: float,
               tracer=None) -> Pass:
    """Replay the next ``seconds * INGEST_TXNS_PER_S`` transactions of the
    history, one scenario per transaction, through the ``Database`` DML API
    exactly as ``Loader`` does, with a current-state read after every
    :data:`READ_EVERY` transactions."""
    workload, systems = setup_.workload, setup_.systems
    sampler = requestgen.Sampler(workload, seed, stream)
    reads = requestgen.templates(requestgen.INGEST_READ_QIDS)
    queue: List[requestgen.Template] = []
    loaders = {name: Loader(system, workload) for name, system in systems.items()}
    transactions = workload.transactions
    position = ingest_split(workload)
    end = min(len(transactions), position + round(seconds * INGEST_TXNS_PER_S))
    result = Pass()
    while position < end:
        ops = transactions[position]
        index = len(result.requests)
        result.requests.append(None)
        result.horizons.append(None)
        for name in _rotation(index):
            result.ops.append(_write(loaders[name], ops, index, name, tracer))
        position += 1
        result.transactions += 1
        if result.transactions % READ_EVERY == 0:
            if not queue:  # the read templates in shuffled thirds: a fixed mix
                queue = sampler.rng.sample(reads, len(reads))
            now = systems["A"].db.now()
            request = requestgen.make_request(queue.pop(), sampler.key_params(now))
            index = len(result.requests)
            result.requests.append(request)
            result.horizons.append(now)
            for name in _rotation(index):
                result.ops.append(_read(systems[name], request, index, tracer))
    return result


def _write(loader, ops, index, name, tracer) -> Op:
    db = loader.db
    error = None
    with _traced(tracer, "op.write", index):
        started = _clock()
        try:
            with db.begin():
                for op in ops:
                    loader._apply(db, op)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = repr(exc)
        ended = _clock()
    return Op(index, name, "write", started, ended, error=error)


# ---------------------------------------------------------------------------
# output checks (outside the timed region)
# ---------------------------------------------------------------------------


def oracle_store(workload) -> oracle.VersionStore:
    return oracle.VersionStore(
        {t: workload.all_versions(t) for t in oracle.TABLES}, END_OF_TIME
    )


def check_reads(result: Pass, store: oracle.VersionStore) -> int:
    """Mark ops that returned a wrong answer; return how many failed.

    T- and K-class answers come from the oracle; every other request must
    agree across the five archetypes.
    """
    by_request: Dict[int, List[Op]] = {}
    for op in result.ops:
        if op.kind == "read":
            by_request.setdefault(op.request, []).append(op)
    failed = 0
    for index, ops in by_request.items():
        request = result.requests[index]
        evaluate = oracle.ORACLES.get(request.qid)
        if evaluate is not None:
            expected = evaluate(store, request.bound, result.horizons[index])
            verdict = {
                op.archetype: op.error is None and oracle.matches(op.rows, expected)
                for op in ops
            }
        else:
            answered = {op.archetype: op.rows for op in ops if op.error is None}
            verdict = oracle.majority(answered) if answered else {}
        for op in ops:
            if not verdict.get(op.archetype, False):
                op.error = op.error or f"wrong answer for {request.qid}"
                failed += 1
    failed += sum(1 for op in result.ops if op.kind == "write" and op.error)
    return failed


def literal_self_check(result: Pass, systems, seed: int) -> Tuple[int, int]:
    """Re-run a sample of literal-inlined requests parameterized on the
    same archetype; both forms must return identical rows."""
    literal = [
        (index, r) for index, r in enumerate(result.requests)
        if r is not None and r.literal
    ]
    sample = random.Random(seed).sample(literal, min(LITERAL_SELF_CHECKS, len(literal)))
    mismatches = 0
    for index, request in sample:
        db = systems[_rotation(index)[0]].db
        as_literal = db.execute(request.sql).rows
        as_params = db.execute(request.template, request.bound).rows
        if not oracle.same_multiset(as_literal, as_params):
            mismatches += 1
    return len(sample), mismatches


def check_ingest_counts(setup_: Setup, result: Pass, scale, seed: int) -> Tuple[int, int]:
    """Current and ``FOR SYSTEM_TIME ALL`` row counts per table must equal
    the generator's version counts at the point the replay stopped."""
    applied = ingest_split(setup_.workload) + result.transactions
    h, _m = scale
    prefix = BitemporalDataGenerator(
        GeneratorConfig(h=h, m=applied / 1_000_000, seed=seed)
    ).generate()
    if prefix.transactions != setup_.workload.transactions[:applied]:
        raise RuntimeError("generator prefix does not reproduce the replayed history")
    checks = failed = 0
    for table in ("supplier", "part", "partsupp", "customer", "orders", "lineitem"):
        counts = prefix.version_counts(table)
        for system in setup_.systems.values():
            current = system.db.execute(f"SELECT count(*) FROM {table}").scalar()
            every = system.db.execute(
                f"SELECT count(*) FROM {table} FOR SYSTEM_TIME ALL"
            ).scalar()
            checks += 2
            failed += (current != counts["live"]) + (every != counts["total"])
    return checks, failed
