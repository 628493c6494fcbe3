"""Differential properties: columnar fusion engine vs the scalar reference.

The columnar engine batches a whole reader's reports through one
vectorized arbitration-order ``lexsort`` instead of a per-report Python
loop; its contract is *byte-identical state* with ``engine="reference"``
for every ingest surface (``ingest_many``, ``ingest_rows``, ``merge``),
any report order, any duplication, and any interleaving of the three.
These properties drive both engines over that space and compare every
observable surface.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.site.fusion import FUSION_ENGINES, FusionLayer, TagReport


# Small domains force key collisions (exact replays) alongside distinct
# reads of the same EPC — the two regimes the dedup must separate.
reports = st.builds(
    TagReport,
    epc_value=st.integers(min_value=1, max_value=6),
    reader_id=st.integers(min_value=0, max_value=3),
    time_s=st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]),
    antenna_index=st.integers(min_value=0, max_value=1),
    channel_index=st.integers(min_value=0, max_value=3),
    phase_rad=st.floats(0.0, 6.25, allow_nan=False),
    rss_dbm=st.floats(-80.0, -40.0, allow_nan=False),
)

# Every batch size takes the columnar path, so the draws cover empty,
# single-row and small (< 32 rows) batches as well as larger ones.
report_batches = st.lists(reports, max_size=40)


def _state_bytes(layer):
    """Every observable surface of a layer, rendered to comparison bytes."""
    state = {
        "snapshot": layer.snapshot(),
        "reports": [r.to_row() for r in layer.reports()],
        "by_reader": {
            str(k): v for k, v in layer.reports_by_reader().items()
        },
        "epcs": layer.epc_values(),
    }
    return json.dumps(state, sort_keys=True).encode()


def _reference_fold(batches):
    layer = FusionLayer(engine="reference")
    for batch in batches:
        layer.ingest_many(batch)
    return layer


@settings(max_examples=80, deadline=None)
@given(report_batches)
@example([])
@example([TagReport(1, 0, 0.25, 0, 1, 1.5, -60.0)])
def test_ingest_many_matches_reference(batch):
    """One columnar batch fuses to the exact scalar-ingest state."""
    columnar = FusionLayer(engine="columnar")
    n_columnar = columnar.ingest_many(batch)
    reference = _reference_fold([batch])
    assert n_columnar == reference.n_reports
    assert _state_bytes(columnar) == _state_bytes(reference)


@settings(max_examples=60, deadline=None)
@given(st.lists(report_batches, max_size=4))
def test_chunked_ingest_rows_matches_reference(batches):
    """Row batches — the cross-worker wire format — fuse identically.

    Feeding the chunks sequentially exercises the cross-batch watermark
    dedup: later chunks can replay earlier chunks' reads at or below the
    per-reader time watermark.
    """
    columnar = FusionLayer(engine="columnar")
    for batch in batches:
        columnar.ingest_rows([r.to_row() for r in batch])
    reference = FusionLayer(engine="reference")
    for batch in batches:
        reference.ingest_rows([r.to_row() for r in batch])
    assert _state_bytes(columnar) == _state_bytes(reference)


@settings(max_examples=60, deadline=None)
@given(report_batches, report_batches, report_batches)
def test_interleaved_merge_matches_reference(a, b, c):
    """Interleaving ingest and whole-layer merges commutes with the engine.

    The site runner's exact shape: per-reader batches ingested directly,
    checkpointed layers folded back in via ``merge`` — with replays across
    the two paths.
    """
    columnar = FusionLayer(engine="columnar")
    columnar.ingest_many(a)
    columnar.merge(_reference_fold([b]))
    columnar.ingest_rows([r.to_row() for r in c])
    columnar.merge(_reference_fold([a]))  # pure replay
    reference = _reference_fold([a, b, c, a])
    assert _state_bytes(columnar) == _state_bytes(reference)


@settings(max_examples=40, deadline=None)
@given(report_batches, st.randoms(use_true_random=False))
def test_columnar_order_insensitive(batch, rng):
    """The columnar fold is commutative over batch order, like the scalar."""
    shuffled = list(batch)
    rng.shuffle(shuffled)
    a = FusionLayer(engine="columnar")
    a.ingest_many(batch)
    b = FusionLayer(engine="columnar")
    b.ingest_many(shuffled)
    assert _state_bytes(a) == _state_bytes(b)


@pytest.mark.parametrize("size", [0, 1, 2, 31, 32, 33])
def test_every_batch_size_matches_reference(size):
    """Small batches take the columnar path too, with no scalar detour.

    Reports come in pairs whose times differ below the key precision, so
    each pair is one read (in-batch dedup); the rows are then fed again
    (cross-batch dedup).
    """
    batch = [
        TagReport(
            epc_value=1 + i // 2 % 5,
            reader_id=i // 2 % 3,
            time_s=0.125 * (i // 2 % 7) + 1e-12 * i,
            antenna_index=i // 2 % 2,
            channel_index=i // 2 % 4,
            phase_rad=0.1 * (i // 2 % 6),
            rss_dbm=-50.0 - i // 2 % 3,
        )
        for i in range(size)
    ]
    rows = [r.to_row() for r in batch]
    columnar = FusionLayer(engine="columnar")
    assert columnar.ingest_many(batch) == columnar.n_reports
    assert columnar.ingest_rows(rows) == 0
    by_rows = FusionLayer(engine="columnar")
    by_rows.ingest_rows(rows)
    reference = _reference_fold([batch, batch])
    assert _state_bytes(columnar) == _state_bytes(reference)
    assert _state_bytes(by_rows) == _state_bytes(reference)


def test_engine_registry_and_copy_preserve_engine():
    assert FUSION_ENGINES == ("columnar", "reference")
    for engine in FUSION_ENGINES:
        layer = FusionLayer(engine=engine)
        assert layer.copy().engine == engine
    with pytest.raises(ValueError, match="unknown fusion engine"):
        FusionLayer(engine="gpu")
