"""One oracle switch for every fast path, and the differential harness.

Tagwatch changes how fast tags are read, never what is reported; the
simulator holds its own fast paths to the same standard.  Each has a plain
oracle that must produce byte-identical output:

- the compiled calendar kernel (:mod:`repro.gen2.calendar`) against the
  reference slot walk (``InventoryEngine(engine="reference")``);
- visibility-culled site shards
  (:func:`repro.site.site.reachable_tag_indices`) against full shards
  (``build_reader(..., cull=False)``);
- columnar fusion against the scalar fold
  (``FusionLayer(engine="reference")``).

``REPRO_REFERENCE=1`` turns every default to its oracle at once.  It is
the only fast-path switch: the per-object ``engine=``/``cull=`` arguments
remain for side-by-side tests.  Worker processes inherit the environment,
so the mode reaches sharded runs too.

:func:`differential` is the harness over it: run a workload as given,
re-run it sequentially in reference mode, and compare the fast leg's
canonical bytes with the reference leg's ``canonical()`` rendered by
stdlib JSON, so the check also crosses the canonical-bytes writer.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "REFERENCE_ENV",
    "Mismatch",
    "differential",
    "reference_enabled",
    "reference_mode",
]

#: The one environment variable that selects every oracle.
REFERENCE_ENV = "REPRO_REFERENCE"


def reference_enabled() -> bool:
    """Whether ``REPRO_REFERENCE`` asks for the oracles (unset/``0``: no)."""
    return os.environ.get(REFERENCE_ENV, "").strip().lower() not in (
        "",
        "0",
        "off",
        "false",
        "no",
    )


@contextmanager
def reference_mode() -> Iterator[None]:
    """Set ``REPRO_REFERENCE=1`` for the block, then restore what was there.

    Pool workers started inside the block inherit the setting.
    """
    previous = os.environ.get(REFERENCE_ENV)
    os.environ[REFERENCE_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(REFERENCE_ENV, None)
        else:
            os.environ[REFERENCE_ENV] = previous


@dataclass(frozen=True)
class Mismatch:
    """Where the fast leg's bytes first leave the reference leg's."""

    offset: int
    fast_size: int
    reference_size: int

    def __str__(self) -> str:
        return (
            f"first difference at byte {self.offset}; "
            f"{self.fast_size} B fast, {self.reference_size} B reference"
        )


def differential(
    run: Callable[[Optional[int]], Any], workers: Optional[int] = None
) -> Optional[Mismatch]:
    """``None`` when ``run(workers)`` matches ``run(1)`` under the oracles.

    ``run`` maps a worker count to a report with ``canonical()`` and
    ``canonical_bytes()`` (a :class:`~repro.site.site.SiteRun` or a
    :class:`~repro.site.supervisor.SiteChaosReport`).  The fast leg runs
    as given; the reference leg runs sequentially inside
    :func:`reference_mode` and renders ``canonical()`` through stdlib JSON.
    The reference leg runs with tracing and telemetry off, so the ambient
    tracer and metrics registry describe the fast leg alone.
    """
    # Imported here so that, at import time, this module needs only the
    # standard library and every layer can import it without a cycle.
    from repro.obs import use_metrics, use_tracer

    fast = run(workers).canonical_bytes()
    with reference_mode(), use_tracer(None), use_metrics(None):
        reference = run(1)
    expected = (
        json.dumps(reference.canonical(), indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    if fast == expected:
        return None
    offset = next(
        (i for i, (a, b) in enumerate(zip(fast, expected)) if a != b),
        min(len(fast), len(expected)),
    )
    return Mismatch(offset, len(fast), len(expected))
