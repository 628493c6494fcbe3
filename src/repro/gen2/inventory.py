"""Slot-accurate inventory-round engine.

Simulates framed-slotted-ALOHA rounds over an abstract tag population.  The
engine works on integer tag indices; binding indices to EPCs, RF observations
and antennas happens one layer up in :mod:`repro.reader`.

Two session models are supported:

- ``with_replacement=True`` (default, session-S0 behaviour): every
  participating tag contends in every frame, even after it has been read;
  the reader reports each distinct tag once per round (round-level
  de-duplication, as an ImpinJ ROReportSpec configures) and the round is
  complete when every distinct tag has been seen.  The slot count is then the
  coupon-collector quantity ``n * e * H_n ~ n e ln n`` — exactly the paper's
  inventory-cost model (Definition 1), and the reason their measured
  per-round time fits ``tau_0 + n e tau_bar ln n``.

- ``with_replacement=False`` (session-S1 behaviour): a read tag flips its
  inventoried flag and stays silent for the rest of the round, giving the
  leaner ``~ n e`` slot count of an idealised dedicated session.  Used by the
  ablation benchmarks.

Two engines settle rounds, and both produce identical results — reads,
counters, timestamps and the generator state afterwards — for identical
seeds:

- ``engine="calendar"`` (the default) settles whole rounds through the
  compiled event-calendar kernel (:mod:`repro.gen2.calendar`): one C call
  per round draws straight from the engine generator's numpy bit generator,
  so Python-level work is O(rounds) instead of O(slots).  Rounds the kernel
  cannot express — strategies other than Q-adaptive and FixedQ, frame-level
  tracing, or a missing C compiler — fall back to the reference walk, which
  draws from the same generator, so kernel and fallback rounds interleave
  exactly.
- ``engine="reference"`` consumes slot outcomes one at a time with one
  ``numpy`` draw per frame; it is the differential-testing oracle (see
  ``tests/gen2/test_calendar_engine.py``) and is the default under
  ``REPRO_REFERENCE=1`` (:mod:`repro.runtime.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.gen2.aloha import FixedQ, FrameStrategy, QAdaptive, SlotOutcome
from repro.gen2.timing import LinkTiming
from repro.obs.tracer import get_tracer
from repro.runtime.oracle import reference_enabled
from repro.util.rng import SeedLike, make_rng


class TagRead(NamedTuple):
    """One reported EPC read of a tag, in simulated time.

    A named tuple rather than a (frozen) dataclass: reads are produced in
    the hot settlement loops of every engine, and tuple construction is
    several times cheaper than a frozen dataclass ``__init__`` while
    keeping immutability and field access identical.
    """

    tag_index: int
    time_s: float
    round_index: int
    slot_in_round: int


@dataclass
class InventoryLog:
    """Everything that happened during one or more inventory rounds."""

    reads: List[TagRead] = field(default_factory=list)
    n_empty: int = 0
    n_single: int = 0
    n_collision: int = 0
    n_duplicate: int = 0
    n_lost: int = 0
    n_rounds: int = 0
    n_adjusts: int = 0
    start_time_s: float = 0.0
    end_time_s: float = 0.0
    truncated: bool = False

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def n_slots(self) -> int:
        return self.n_empty + self.n_single + self.n_collision

    def merge(self, other: "InventoryLog") -> None:
        """Fold a later log into this one (rounds must be consecutive)."""
        self.reads.extend(other.reads)
        self.n_empty += other.n_empty
        self.n_single += other.n_single
        self.n_collision += other.n_collision
        self.n_duplicate += other.n_duplicate
        self.n_lost += other.n_lost
        self.n_rounds += other.n_rounds
        self.n_adjusts += other.n_adjusts
        self.end_time_s = other.end_time_s
        self.truncated = self.truncated or other.truncated


class InventoryEngine:
    """Runs inventory rounds with a pluggable frame strategy.

    Parameters
    ----------
    timing:
        Link timing profile providing slot/command durations.
    strategy_factory:
        Zero-argument callable returning a *fresh* :class:`FrameStrategy`
        per round (strategies are stateful).
    rng:
        Seed or generator for slot draws.
    with_replacement:
        Session model; see the module docstring.
    engine:
        ``"calendar"`` (compiled event-calendar kernel, the default) or
        ``"reference"`` (sequential slot walk).  Both produce identical
        results for identical seeds; ``None`` picks ``"reference"`` under
        ``REPRO_REFERENCE=1`` and ``"calendar"`` otherwise.
    """

    #: Hard cap on slots per round; prevents pathological strategies (e.g.
    #: FixedQ(0) over many tags, which collides forever) from hanging.
    MAX_SLOTS_PER_ROUND = 500_000

    def __init__(
        self,
        timing: LinkTiming,
        strategy_factory: Callable[[], FrameStrategy],
        rng: SeedLike = None,
        with_replacement: bool = True,
        read_loss_probability: float = 0.0,
        engine: Optional[str] = None,
    ) -> None:
        if not 0.0 <= read_loss_probability < 1.0:
            raise ValueError("read loss probability must be in [0, 1)")
        if engine is None:
            engine = "reference" if reference_enabled() else "calendar"
        if engine not in ("calendar", "reference"):
            raise ValueError(
                f"engine must be 'calendar' or 'reference', got {engine!r}"
            )
        self.engine = engine
        self.timing = timing
        self.strategy_factory = strategy_factory
        self.rng = make_rng(rng)
        self.with_replacement = with_replacement
        #: Probability that a singleton slot's EPC fails CRC at the reader
        #: (low SNR, interference).  The slot's air time is spent, no report
        #: is produced, and the tag stays uninventoried — it retries in a
        #: later frame, exactly like real link-level loss.
        self.read_loss_probability = read_loss_probability
        self._round_counter = 0
        #: Lazily created compiled-kernel state for ``engine="calendar"``
        #: (:class:`repro.gen2.calendar.CalendarKernel`).
        self._cal = None

    def __getstate__(self) -> dict:
        # The kernel state holds ctypes scratch and the address of the
        # generator's C struct, both meaningful in this process only; a
        # copy rebuilds its own on first use.
        state = self.__dict__.copy()
        state["_cal"] = None
        return state

    # ------------------------------------------------------------------
    def run_round(
        self,
        participant_ids: Sequence[int],
        start_time_s: float = 0.0,
        max_duration_s: Optional[float] = None,
    ) -> InventoryLog:
        """Run one inventory round that reports every participant once.

        The round ends when all participants have been identified (the real
        reader detects this via a run of empty slots at Q=0; that detection
        time is part of the profile's ``round_overhead_s``), when
        ``max_duration_s`` elapses, or when the slot cap trips.
        """
        if self.engine == "calendar":
            return self._run_round_calendar(
                participant_ids, start_time_s, max_duration_s
            )
        return self._run_round_reference(
            participant_ids, start_time_s, max_duration_s
        )

    # ------------------------------------------------------------------
    def _run_round_calendar(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        max_duration_s: Optional[float],
    ) -> InventoryLog:
        """Settle the whole round through the compiled calendar kernel.

        One C call per round draws from the engine's bit generator in the
        reference walk's order, so results — reads, counters, timestamps
        and the generator state afterwards — are bit-identical to
        :meth:`_run_round_reference`.  Rounds the kernel cannot express
        (no compiled kernel, a strategy other than Q-adaptive or FixedQ,
        frame-detail tracing, or no participants) run the reference walk
        instead, with an already-created strategy passed through to keep
        the one-factory-call-per-round contract.
        """
        cal = self._cal
        if cal is None:
            from repro.gen2.calendar import CalendarKernel

            cal = self._cal = CalendarKernel()
        tracer = get_tracer()
        traced = tracer.enabled
        n = len(participant_ids)
        if cal.fn is None or n == 0 or (traced and tracer.frame_detail):
            return self._run_round_reference(
                participant_ids, start_time_s, max_duration_s
            )

        strategy = self.strategy_factory()
        strategy_type = type(strategy)
        if strategy_type is QAdaptive:
            strat_code = 1
            q_const = strategy.c
        elif strategy_type is FixedQ:
            strat_code = 0
            q_const = 0.0
        else:
            return self._run_round_reference(
                participant_ids, start_time_s, max_duration_s, strategy
            )
        first_frame = max(1, strategy.start_round(n))
        q0 = first_frame.bit_length() - 1

        timing = self.timing
        if cal.timing_src is not timing:
            cal.bind_timing(timing)
        bit_generator = self.rng.bit_generator
        if cal.bitgen_src is not bit_generator:
            cal.bind_bit_generator(bit_generator)
        t_startup = cal.t_startup

        round_index = self._round_counter
        self._round_counter += 1
        round_span = None
        if traced:
            round_span = tracer.begin(
                "round",
                t=start_time_s,
                category="gen2",
                round_index=round_index,
                n_participants=n,
                startup_s=t_startup,
            )

        dpar = cal.dpar
        ipar = cal.ipar
        dpar[0] = start_time_s + t_startup
        dpar[1] = (
            start_time_s + max_duration_s
            if max_duration_s is not None
            else float("inf")
        )
        dpar[7] = q_const
        dpar[8] = self.read_loss_probability
        ipar[0] = n
        ipar[1] = strat_code
        ipar[2] = q0
        ipar[3] = 1 if self.with_replacement else 0
        ipar[4] = self.MAX_SLOTS_PER_ROUND

        cal.prepare(n)
        # ctypes releases the GIL for the call; numpy's own draws hold the
        # generator's lock, so the kernel must too.
        with bit_generator.lock:
            cal.fn(
                cal.dpar_ptr,
                cal.ipar_ptr,
                cal.bitgen_ptr,
                cal.seen_ptr,
                cal.counts_ptr,
                cal.owner_ptr,
                cal.unseen_ptr,
                cal.out_i_ptr,
                cal.out_d_ptr,
                cal.read_pos_ptr,
                cal.read_slot_ptr,
                cal.read_time_ptr,
            )

        (
            n_empty,
            n_single,
            n_collision,
            n_duplicate,
            n_adjusts,
            n_frames,
            truncated,
            n_reads,
            n_slots,
            n_lost,
        ) = cal.out_i_np.tolist()
        end_t = cal.out_d[0]
        log = InventoryLog(start_time_s=start_time_s, end_time_s=end_t)
        log.n_rounds = 1
        log.n_empty = n_empty
        log.n_single = n_single
        log.n_collision = n_collision
        log.n_duplicate = n_duplicate
        log.n_lost = n_lost
        log.n_adjusts = n_adjusts
        log.truncated = bool(truncated)
        if n_reads:
            if type(participant_ids) is list:
                ids_list = participant_ids
            else:
                ids_list = np.asarray(participant_ids, dtype=np.int64).tolist()
            log.reads = [
                TagRead(ids_list[p_i], time_s, round_index, slot)
                for p_i, slot, time_s in zip(
                    cal.read_pos_np[:n_reads].tolist(),
                    cal.read_slot_np[:n_reads].tolist(),
                    cal.read_time_np[:n_reads].tolist(),
                )
            ]
        if round_span is not None:
            tracer.end(
                round_span,
                t=end_t,
                n_slots=n_slots,
                n_empty=n_empty,
                n_single=n_single,
                n_collision=n_collision,
                n_adjusts=n_adjusts,
                n_reads=n_reads,
                n_frames=n_frames,
                truncated=log.truncated,
            )
        return log

    # ------------------------------------------------------------------
    def _run_round_reference(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        max_duration_s: Optional[float],
        strategy: Optional[FrameStrategy] = None,
    ) -> InventoryLog:
        """Sequential slot walk: the original engine, kept as the oracle.

        ``strategy`` is the round's strategy when the calendar engine has
        already created it before falling back here.
        """
        log = InventoryLog(start_time_s=start_time_s, end_time_s=start_time_s)
        log.n_rounds = 1
        round_index = self._round_counter
        self._round_counter += 1

        n_frames = 0
        tracer = get_tracer()
        traced = tracer.enabled
        frame_traced = traced and tracer.frame_detail
        round_span = None
        if traced:
            round_span = tracer.begin(
                "round",
                t=start_time_s,
                category="gen2",
                round_index=round_index,
                n_participants=len(participant_ids),
                startup_s=self.timing.startup_cost,
            )

        def _finish(end_s: float) -> InventoryLog:
            log.end_time_s = end_s
            if round_span is not None:
                tracer.end(
                    round_span,
                    t=end_s,
                    n_slots=log.n_slots,
                    n_empty=log.n_empty,
                    n_single=log.n_single,
                    n_collision=log.n_collision,
                    n_adjusts=log.n_adjusts,
                    n_reads=len(log.reads),
                    n_frames=n_frames,
                    truncated=log.truncated,
                )
            return log

        t = start_time_s + self.timing.startup_cost
        deadline = (
            start_time_s + max_duration_s if max_duration_s is not None else None
        )

        ids = np.asarray(participant_ids, dtype=np.int64)
        if ids.size == 0:
            # The reader still pays the start-up cost and probes one slot.
            log.n_empty = 1
            return _finish(t + self.timing.empty_slot_duration)

        if strategy is None:
            strategy = self.strategy_factory()
        frame_length = max(1, strategy.start_round(int(ids.size)))
        seen_mask = np.zeros(ids.size, dtype=bool)
        slot_counter_in_round = 0

        timing = self.timing
        t_empty = timing.empty_slot_duration
        t_single = timing.success_slot_duration
        t_collision = timing.collision_slot_duration
        t_adjust = timing.query_adjust_duration
        t_query = timing.query_duration

        while not seen_mask.all():
            n_frames += 1
            if self.with_replacement:
                contenders = np.arange(ids.size)
            else:
                contenders = np.flatnonzero(~seen_mask)
            draws = self.rng.integers(0, frame_length, size=contenders.size)
            counts = np.bincount(draws, minlength=frame_length)
            # Map each singleton slot to the position of its tag.
            slot_owner = np.full(frame_length, -1, dtype=np.int64)
            singles = counts[draws] == 1
            slot_owner[draws[singles]] = contenders[singles]

            frame_span = None
            if frame_traced:
                frame_span = tracer.begin(
                    "frame",
                    t=t,
                    category="gen2",
                    frame_length=int(frame_length),
                    n_contenders=int(contenders.size),
                )
            slots_before = log.n_slots
            adjust_to: Optional[int] = None
            for slot in range(frame_length):
                if (deadline is not None and t >= deadline) or (
                    log.n_slots >= self.MAX_SLOTS_PER_ROUND
                ):
                    log.truncated = True
                    break

                occupancy = counts[slot]
                if occupancy == 0:
                    t += t_empty
                    log.n_empty += 1
                    outcome = SlotOutcome.EMPTY
                elif occupancy == 1:
                    owner = slot_owner[slot]
                    t += t_single
                    log.n_single += 1
                    outcome = SlotOutcome.SINGLE
                    if (
                        self.read_loss_probability > 0.0
                        and self.rng.random() < self.read_loss_probability
                    ):
                        # EPC failed CRC: air time spent, nothing decoded.
                        log.n_lost += 1
                    elif not seen_mask[owner]:
                        read = TagRead(
                            tag_index=int(ids[owner]),
                            time_s=t,
                            round_index=round_index,
                            slot_in_round=slot_counter_in_round,
                        )
                        seen_mask[owner] = True
                        log.reads.append(read)
                    else:
                        # Re-read of an already-inventoried tag (S0 mode);
                        # air time is spent but the report is de-duplicated.
                        log.n_duplicate += 1
                else:
                    t += t_collision
                    log.n_collision += 1
                    outcome = SlotOutcome.COLLISION

                slot_counter_in_round += 1
                request = strategy.on_slot(outcome)
                if request is not None:
                    if request == -1:
                        # Restart sentinel (ideal DFSA): new frame sized to
                        # the updated remaining-tag count, free of charge —
                        # this is the genie-aided idealisation.
                        remaining = (
                            ids.size
                            if self.with_replacement
                            else int((~seen_mask).sum())
                        )
                        adjust_to = max(1, strategy.next_frame(remaining))
                    else:
                        t += t_adjust
                        log.n_adjusts += 1
                        adjust_to = max(1, int(request))
                    break
                if seen_mask.all():
                    break

            if frame_span is not None:
                tracer.end(
                    frame_span,
                    t=t,
                    n_slots=log.n_slots - slots_before,
                )
            if log.truncated:
                return _finish(t)

            if adjust_to is not None:
                frame_length = adjust_to
            elif not seen_mask.all():
                # Frame exhausted: new Query command starts the next one.
                t += t_query
                remaining = (
                    ids.size if self.with_replacement else int((~seen_mask).sum())
                )
                frame_length = max(1, strategy.next_frame(remaining))

        return _finish(t)

    # ------------------------------------------------------------------
    def run_for_duration(
        self,
        participant_ids: Sequence[int],
        start_time_s: float,
        duration_s: float,
    ) -> InventoryLog:
        """Run back-to-back rounds until ``duration_s`` of simulated time passes.

        Each round reports the whole participant set once (the inventoried
        flags are re-targeted between rounds), which is how a COTS reader in
        continuous-inventory mode behaves.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        total = InventoryLog(start_time_s=start_time_s, end_time_s=start_time_s)
        t = start_time_s
        deadline = start_time_s + duration_s
        while t < deadline:
            round_log = self.run_round(
                participant_ids,
                start_time_s=t,
                max_duration_s=deadline - t,
            )
            total.merge(round_log)
            if round_log.end_time_s <= t:  # pragma: no cover - safety net
                break
            t = round_log.end_time_s
        return total
