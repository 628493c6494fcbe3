"""Differential tests: calendar engine vs the reference slot walk.

The event-calendar kernel's contract is *bit-for-bit equivalence* with the
sequential reference walk: same reads, same timing, same counters and the
same generator state after every round, for every strategy, session mode,
loss rate, deadline and numpy bit generator.  These tests drive both
engines over that space and compare everything observable, both at the
engine level (raw :class:`InventoryLog` plus ``bit_generator.state``) and
at the reader level (post-fault report streams under a :class:`FaultPlan`).
Rounds the kernel cannot express fall back to the reference walk on the
same generator, so engines whose rounds alternate between kernel and
fallback must match a pure reference run too.
"""

import json
import pickle
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults import FaultPlan, FaultyReader
from repro.gen2 import _ckernel
from repro.gen2.aloha import FixedQ, IdealDFSA, QAdaptive
from repro.gen2.epc import EPC
from repro.gen2.inventory import InventoryEngine, InventoryLog
from repro.gen2.timing import R420_PROFILE
from repro.obs.tracer import Tracer, use_tracer
from repro.world.motion import CircularPath, Stationary
from repro.world.scene import Antenna, Scene, TagInstance

ENGINES = ("calendar", "reference")

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
    "mt19937": np.random.MT19937,
}


def _factory(kind, q):
    if kind == "qadaptive":
        return lambda: QAdaptive(initial_q=q)
    if kind == "fixedq":
        return lambda: FixedQ(q)
    return IdealDFSA


def _engine(engine_name, factory, rng, with_replacement=True, loss=0.0):
    return InventoryEngine(
        R420_PROFILE,
        factory,
        rng=rng,
        with_replacement=with_replacement,
        read_loss_probability=loss,
        engine=engine_name,
    )


def _run_rounds(engine_name, kind, q, n_tags, seed, with_replacement,
                loss, deadline, rounds):
    engine = _engine(
        engine_name, _factory(kind, q), seed, with_replacement, loss
    )
    logs = [
        engine.run_round(range(n_tags), max_duration_s=deadline)
        for _ in range(rounds)
    ]
    return engine, logs


def _log_signature(log):
    return (
        list(log.reads),
        log.n_empty,
        log.n_single,
        log.n_collision,
        log.n_duplicate,
        log.n_lost,
        log.n_rounds,
        log.n_adjusts,
        log.n_frames,
        log.start_time_s,
        log.end_time_s,
        log.truncated,
    )


def _round_signatures(engine, n_tags, rounds, deadline=None,
                      before=lambda i: nullcontext()):
    """Per-round log signature plus the full generator state after it.

    ``before(i)`` returns a context manager entered around round ``i``.
    """
    out = []
    for i in range(rounds):
        with before(i):
            log = engine.run_round(range(n_tags), max_duration_s=deadline)
        out.append((_log_signature(log), _generator_state(engine)))
    return out


def _generator_state(engine):
    """The full bit-generator state, comparable for every generator kind
    (MT19937 keeps its key as an array)."""
    return json.dumps(
        engine.rng.bit_generator.state,
        default=lambda value: value.tolist(),
        sort_keys=True,
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["qadaptive", "fixedq", "dfsa"]),
    q=st.integers(min_value=0, max_value=7),
    n_tags=st.sampled_from([0, 1, 3, 17, 60]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    with_replacement=st.booleans(),  # S0 vs S1 session models
    loss=st.sampled_from([0.0, 0.1, 0.5]),
    deadline=st.sampled_from([None, 0.02]),
)
def test_calendar_matches_reference(
    kind, q, n_tags, seed, bit_generator, with_replacement, loss, deadline
):
    original_cap = InventoryEngine.MAX_SLOTS_PER_ROUND
    # A low cap makes the truncation path reachable (FixedQ(0) over many
    # tags collides forever) without hypothesis-hostile runtimes.
    InventoryEngine.MAX_SLOTS_PER_ROUND = 1500
    try:
        signatures = {}
        for name in ENGINES:
            engine = _engine(
                name,
                _factory(kind, q),
                np.random.Generator(BIT_GENERATORS[bit_generator](seed)),
                with_replacement,
                loss,
            )
            # The generator state after every round pins RNG consumption
            # exactly, numpy's buffered 32-bit lane included.
            signatures[name] = _round_signatures(
                engine, n_tags, rounds=2, deadline=deadline
            )
    finally:
        InventoryEngine.MAX_SLOTS_PER_ROUND = original_cap
    assert signatures["calendar"] == signatures["reference"]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["qadaptive", "fixedq"]),
    q=st.integers(min_value=1, max_value=6),
    n_tags=st.sampled_from([1, 5, 23]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_replacement=st.booleans(),
    rounds=st.integers(min_value=1, max_value=4),
)
def test_merged_logs_are_engine_invariant(
    kind, q, n_tags, seed, with_replacement, rounds
):
    """Merging per-round logs commutes with the engine choice.

    The property the rest of the stack relies on: consumers that fold
    per-round logs into a running total (``run_duration``, the site
    simulation's per-reader totals) see one identical merged log whichever
    engine produced the rounds.
    """
    merged = {}
    for name in ENGINES:
        _, logs = _run_rounds(
            name, kind, q, n_tags, seed, with_replacement,
            loss=0.0, deadline=None, rounds=rounds,
        )
        total = InventoryLog(
            start_time_s=logs[0].start_time_s,
            end_time_s=logs[0].start_time_s,
        )
        for log in logs:
            total.merge(log)
        merged[name] = _log_signature(total)
    assert merged["calendar"] == merged["reference"]


# ----------------------------------------------------------------------
# Reader-level differential under fault plans
# ----------------------------------------------------------------------
FAULT_PLANS = {
    "none": FaultPlan.none(),
    "iid_loss": FaultPlan(report_loss=0.3),
    "burst": FaultPlan(burst_enter=0.2, burst_exit=0.5),
    "spikes_dupes": FaultPlan(
        phase_spike=0.2, phase_spike_std_rad=0.8, duplicate=0.2
    ),
    "delay_reorder": FaultPlan(delay=0.3, reorder=0.5),
}


def _scene(seed):
    tags = [
        TagInstance(EPC(i + 1, 96), Stationary((0.5 + 0.3 * i, 1.0, 0.0)))
        for i in range(6)
    ]
    tags.append(
        TagInstance(
            EPC(99, 96),
            CircularPath(center=(1.0, 1.0, 0.0), radius=0.4, speed=0.8),
        )
    )
    return Scene(
        antennas=[Antenna(position=(0.0, 0.0, 1.0), range_m=8.0)],
        tags=tags,
        seed=seed,
    )


def _reader_trace(engine_name, plan, seed):
    reader = FaultyReader(
        _scene(seed), plan, seed=seed, engine=engine_name
    )
    observations, log = reader.run_duration(0.4)
    return (
        [
            (o.epc.value, o.antenna_index, o.channel_index,
             o.time_s, o.phase_rad, o.rss_dbm)
            for o in observations
        ],
        _log_signature(log),
        reader.time_s,
    )


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("seed", [0, 7])
def test_reader_reports_engine_invariant_under_faults(plan_name, seed):
    """The post-fault report stream is byte-identical across engines.

    Fault injection happens above the engine, so any engine divergence —
    a read at a different time, a different slot draw — would cascade into
    differently faulted reports; equality here pins the full pipeline.
    """
    plan = FAULT_PLANS[plan_name]
    traces = {
        name: _reader_trace(name, plan, seed) for name in ENGINES
    }
    assert traces["calendar"] == traces["reference"]


# ----------------------------------------------------------------------
# Kernel and fallback rounds on one generator
# ----------------------------------------------------------------------
def _count_fallbacks(monkeypatch):
    """Count reference-walk rounds, whichever engine asks for them."""
    calls = []
    walk = InventoryEngine._run_round_reference

    def counted(self, *args, **kwargs):
        calls.append(self.engine)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(InventoryEngine, "_run_round_reference", counted)
    return calls


def _alternating_factory():
    """Q-adaptive on even rounds, ideal DFSA (a fallback) on odd ones."""
    made = []

    def factory():
        made.append(None)
        if len(made) % 2:
            return QAdaptive(initial_q=4)
        return IdealDFSA()

    return factory


@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("bit_generator", sorted(BIT_GENERATORS))
def test_strategy_fallback_rounds_interleave_exactly(
    monkeypatch, bit_generator, loss
):
    calls = _count_fallbacks(monkeypatch)
    signatures = {}
    for name in ENGINES:
        engine = _engine(
            name,
            _alternating_factory(),
            np.random.Generator(BIT_GENERATORS[bit_generator](11)),
            loss=loss,
        )
        signatures[name] = _round_signatures(engine, 23, rounds=6)
    assert signatures["calendar"] == signatures["reference"]
    # Three of the calendar engine's six rounds were IdealDFSA fallbacks.
    assert calls.count("calendar") == 3
    assert calls.count("reference") == 6


def _trace_signature(tracer):
    """Every span's name, ids, depth, simulated times and args (the
    engines emit no events)."""
    return [
        (s.name, s.span_id, s.parent_id, s.depth, s.category,
         s.start_s, s.end_s, s.args)
        for s in tracer.records
    ]


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_traced_rounds_stay_on_kernel_and_trace_alike(monkeypatch, loss):
    """Tracing never picks the engine, and both engines trace the same."""
    calls = _count_fallbacks(monkeypatch)
    signatures, traces = {}, {}
    for name in ENGINES:
        tracer = Tracer()

        def traced_on_odd_rounds(i):
            return use_tracer(tracer if i % 2 else None)

        engine = _engine(
            name, lambda: QAdaptive(initial_q=3), np.random.default_rng(5),
            loss=loss,
        )
        signatures[name] = _round_signatures(
            engine, 31, rounds=6, before=traced_on_odd_rounds
        )
        traces[name] = _trace_signature(tracer)
    assert signatures["calendar"] == signatures["reference"]
    assert calls.count("calendar") == 0
    assert [record[0] for record in traces["calendar"]] == ["round"] * 3
    assert traces["calendar"] == traces["reference"]


def test_without_kernel_calendar_runs_the_reference_walk(monkeypatch):
    monkeypatch.setattr(_ckernel, "load_kernel", lambda: None)
    calls = _count_fallbacks(monkeypatch)
    signatures = {}
    for name in ENGINES:
        engine = _engine(
            name, lambda: QAdaptive(initial_q=4), np.random.default_rng(3),
            loss=0.2,
        )
        signatures[name] = _round_signatures(engine, 17, rounds=3)
        if name == "calendar":
            assert engine._cal.fn is None
    assert signatures["calendar"] == signatures["reference"]
    assert calls.count("calendar") == 3


def test_engine_pickles_without_kernel_state():
    engine = _engine("calendar", QAdaptive, 9)
    engine.run_round(range(12))
    clone = pickle.loads(pickle.dumps(engine))
    assert clone._cal is None
    assert _round_signatures(clone, 12, rounds=2) == _round_signatures(
        engine, 12, rounds=2
    )


# ----------------------------------------------------------------------
# Fuzzing the C boundary
# ----------------------------------------------------------------------
def _slots_deadline(slots):
    """A round budget of start-up plus ``slots`` empty slots (every other
    slot is longer), so no example runs more than ``slots`` slots."""
    return R420_PROFILE.startup_cost + slots * R420_PROFILE.empty_slot_duration


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["fixedq", "qadaptive", "dfsa"]),
    q=st.sampled_from([0, 1, 4, 15]),
    n_tags=st.sampled_from([0, 1, 7, 300]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    with_replacement=st.booleans(),
    loss=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
    slots=st.integers(min_value=0, max_value=400),
)
@example(kind="fixedq", q=0, n_tags=300, seed=1, bit_generator="pcg64",
         with_replacement=True, loss=0.99, slots=400)
@example(kind="fixedq", q=15, n_tags=300, seed=2, bit_generator="mt19937",
         with_replacement=False, loss=0.0, slots=400)
@example(kind="fixedq", q=15, n_tags=1, seed=3, bit_generator="philox",
         with_replacement=True, loss=0.5, slots=1)
@example(kind="qadaptive", q=15, n_tags=0, seed=4, bit_generator="sfc64",
         with_replacement=True, loss=0.99, slots=1)
# Enough contenders that collisions push Q-adaptive past its upper clamp.
@example(kind="qadaptive", q=15, n_tags=20000, seed=0, bit_generator="pcg64",
         with_replacement=True, loss=0.0, slots=50)
def test_kernel_boundary_matches_reference(
    kind, q, n_tags, seed, bit_generator, with_replacement, loss, slots
):
    """Extreme inputs at the C call give the reference walk's rounds.

    Per-round logs and the full generator state must match; rounds the
    kernel refuses (no participants, a strategy it cannot express) must
    come back through the reference walk rather than raise.
    """
    rounds = 2
    signatures = {}
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_fallbacks(patch)
        for name in ENGINES:
            engine = _engine(
                name,
                _factory(kind, q),
                np.random.Generator(BIT_GENERATORS[bit_generator](seed)),
                with_replacement,
                loss,
            )
            signatures[name] = _round_signatures(
                engine, n_tags, rounds=rounds, deadline=_slots_deadline(slots)
            )
    assert signatures["calendar"] == signatures["reference"]
    refused = n_tags == 0 or kind == "dfsa" or _ckernel.load_kernel() is None
    assert calls.count("calendar") == (rounds if refused else 0)


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_env_var_selects_calendar(monkeypatch):
    """Unset or ``0``, ``REPRO_REFERENCE`` leaves the kernel the default."""
    monkeypatch.delenv("REPRO_REFERENCE", raising=False)
    engine = InventoryEngine(R420_PROFILE, lambda: QAdaptive(initial_q=4))
    assert engine.engine == "calendar"
    monkeypatch.setenv("REPRO_REFERENCE", "0")
    engine = InventoryEngine(R420_PROFILE, lambda: QAdaptive(initial_q=4))
    assert engine.engine == "calendar"


def test_engine_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_REFERENCE", "1")
    engine = InventoryEngine(R420_PROFILE, lambda: QAdaptive(initial_q=4))
    assert engine.engine == "reference"
    # An explicit engine still wins over the mode.
    engine = InventoryEngine(
        R420_PROFILE, lambda: QAdaptive(initial_q=4), engine="calendar"
    )
    assert engine.engine == "calendar"


def test_engine_rejects_unknown():
    # "fast" named the frame-granular engine the kernel replaced.
    for name in ("fast", "warp"):
        with pytest.raises(ValueError, match="'calendar' or 'reference'"):
            InventoryEngine(
                R420_PROFILE, lambda: QAdaptive(initial_q=4), engine=name
            )
