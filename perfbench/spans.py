"""Spans around calls into the simulator, recorded from outside it.

The benchmark never edits the program to time it.  Instead it replaces a
public function or method with a thin wrapper for the length of one traced
run: the wrapper opens a span, calls the original, closes the span and
feeds the layer's counters from the call's arguments and result.  Spans
stay in memory (layer, start, end, parent) until the run ends, then
:func:`summarize` turns them into per-layer self time.

A span's *self time* is its duration minus the time covered by its direct
children.  Calls run on one thread and spans nest, so self times partition
the time covered by top-level spans; whatever the wall clock saw outside
every span is reported as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(args, kwargs, result) -> {counter name: amount}``.
CountFn = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Probe:
    """One public callable to wrap, the layer it belongs to, its counters.

    ``owner`` is the module or class whose own ``__dict__`` binds ``attr``;
    a class that merely inherits the attribute is refused, so restoring
    the original never leaves a shadowing copy behind.
    """

    owner: object
    attr: str
    layer: str
    count: Optional[CountFn] = None


class SpanRecorder:
    """In-memory span store plus counters, for one traced run.

    ``guard`` runs at every span start; the benchmark passes a check that
    the program's own tracer is still disabled, so a span can never be
    opened while the program traces itself (which would change the engine
    that runs).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        guard: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.clock = clock
        self.guard = guard
        #: ``[layer, start, end, parent index or -1]`` per span.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.guard_failures = 0
        self._open: List[int] = []

    def add(self, counts: Dict[str, float]) -> None:
        for name, amount in counts.items():
            self.counters[name] += amount


@dataclass
class LayerTimes:
    calls: int = 0
    self_s: float = 0.0
    #: Inclusive duration of each call, in call order.
    durations: Tuple[float, ...] = ()


def summarize(
    spans: Sequence[Sequence], wall_s: float
) -> Tuple[Dict[str, LayerTimes], float]:
    """Per-layer calls and self time, plus wall time outside every span."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: Dict[str, List[float]] = defaultdict(list)
    self_s: Dict[str, float] = defaultdict(float)
    covered = 0.0
    for index, (layer, start, end, parent) in enumerate(spans):
        durations[layer].append(end - start)
        self_s[layer] += (end - start) - child_time[index]
        if parent < 0:
            covered += end - start
    layers = {
        layer: LayerTimes(len(times), self_s[layer], tuple(times))
        for layer, times in durations.items()
    }
    return layers, wall_s - covered


def _wrap(fn: Callable, layer: str, count: Optional[CountFn],
          recorder: SpanRecorder) -> Callable:
    # Locals keep the per-call cost down: a soak run opens ~10^5 spans.
    spans, open_spans = recorder.spans, recorder._open
    clock, guard = recorder.clock, recorder.guard

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if guard is not None and not guard():
            recorder.guard_failures += 1
        span = [layer, 0.0, 0.0, open_spans[-1] if open_spans else -1]
        open_spans.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            open_spans.pop()
        if count is not None:
            recorder.add(count(args, kwargs, result))
        return result

    return wrapper


@contextmanager
def patched(
    probes: Sequence[Probe],
    make: Callable[[Probe, Callable], Callable],
) -> Iterator[List[Tuple[Probe, Callable]]]:
    """Replace every probed attribute with ``make(probe, original)``.

    Yields ``(probe, original)`` pairs and restores every original on
    exit, including when the body raises.
    """
    originals: List[Tuple[Probe, Callable]] = []
    try:
        for probe in probes:
            original = vars(probe.owner).get(probe.attr)
            if original is None:
                raise AttributeError(
                    f"{probe.owner!r} does not itself define {probe.attr!r}"
                )
            setattr(probe.owner, probe.attr, make(probe, original))
            originals.append((probe, original))
        yield originals
    finally:
        for probe, original in reversed(originals):
            setattr(probe.owner, probe.attr, original)


@contextmanager
def traced(
    probes: Sequence[Probe], recorder: SpanRecorder
) -> Iterator[List[Tuple[Probe, Callable]]]:
    """Span every probed callable into ``recorder`` for the ``with`` body."""
    with patched(
        probes,
        lambda probe, fn: _wrap(fn, probe.layer, probe.count, recorder),
    ) as originals:
        yield originals


def restored(originals: Sequence[Tuple[Probe, Callable]]) -> bool:
    """True when every probed attribute is its original object again."""
    return all(
        vars(probe.owner).get(probe.attr) is original
        for probe, original in originals
    )
