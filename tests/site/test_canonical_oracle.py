"""Oracle: canonical bytes rendered from fused state equal stdlib JSON.

``SiteRun.canonical_bytes()`` and ``SiteChaosReport.canonical_bytes()``
render report rows and fused records with ``%`` templates straight from
the reader summaries and the :class:`FusionLayer` state.  The oracle is
``json.dumps(canonical(), indent=2, sort_keys=True) + "\\n"``; these
properties hold the renderer to it byte for byte over simulated sites
(ring and line, at least 10 readers so reader-id keys sort as strings,
faults, mobile tags, silent readers) and over fusion layers fed
unrounded, replayed and merged batches through both engines.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import site_soak
from repro.faults.site import (
    AntennaDegradation,
    ReaderChannelJam,
    ReaderOutage,
    SiteFaultPlan,
)
from repro.site.channels import ChannelCoordinator
from repro.site.fusion import FUSION_ENGINES, FusionLayer, TagReport
from repro.site.site import SiteConfig, SiteRun, simulate_site
from repro.site.topology import line_site, ring_site

DURATION_S = 0.05


def _oracle(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )


def _assert_matches_oracle(report) -> None:
    assert report.canonical_bytes() == _oracle(report.canonical())


@st.composite
def site_configs(draw):
    n_readers = draw(st.integers(min_value=10, max_value=12))
    n_tags = draw(st.integers(min_value=1, max_value=30))
    build = draw(st.sampled_from([ring_site, line_site]))
    faults = SiteFaultPlan.none()
    if draw(st.booleans()):
        dead = draw(st.integers(min_value=0, max_value=n_readers - 1))
        faults = SiteFaultPlan(
            # Down for the whole interval: a reader with no reports.
            outages=(ReaderOutage(dead, 0.0, 2 * DURATION_S),),
            degradations=(
                AntennaDegradation((dead + 1) % n_readers, 0.0, 0.03, 0.5),
            ),
            jams=(ReaderChannelJam((dead + 2) % n_readers, -1, 0.01, 0.02),),
        )
    return SiteConfig(
        topology=build(n_readers, n_tags),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        duration_s=DURATION_S,
        base_read_loss=0.2,
        coordinator=ChannelCoordinator(n_channels=4),
        faults=faults,
        n_mobile=draw(st.integers(min_value=0, max_value=min(3, n_tags))),
    )


@settings(max_examples=15, deadline=None)
@given(site_configs())
def test_simulated_site_matches_oracle(config):
    run = simulate_site(config, workers=1)
    _assert_matches_oracle(run)


# Unrounded floats: ``ingest_many`` keeps the original reports, so the
# renderer must print the rounded values ``to_row``/``to_dict`` print.
reports = st.builds(
    TagReport,
    epc_value=st.integers(min_value=1, max_value=8),
    reader_id=st.integers(min_value=0, max_value=12),
    time_s=st.floats(0.0, 5.0),
    antenna_index=st.integers(min_value=0, max_value=1),
    channel_index=st.integers(min_value=0, max_value=3),
    phase_rad=st.floats(0.0, 6.3),
    rss_dbm=st.floats(-1e3, 1e3),
)


@st.composite
def fused_layers(draw):
    """A layer fed fresh, replayed and merged batches, by either engine."""
    engine = draw(st.sampled_from(FUSION_ENGINES))
    batches = draw(st.lists(st.lists(reports, max_size=12), max_size=4))
    layer = FusionLayer(engine=engine)
    for batch in batches:
        layer.ingest_many(batch)
    if batches:
        replay = draw(st.sampled_from(batches))
        layer.ingest_rows([report.to_row() for report in replay])
        other = FusionLayer(engine=engine)
        other.ingest_many(replay + draw(st.lists(reports, max_size=6)))
        layer.merge(other)
    return layer


def _synthetic_run(layer: FusionLayer) -> SiteRun:
    """A 13-reader run whose summaries carry the layer's own rows."""
    config = SiteConfig(topology=line_site(13, 10), duration_s=DURATION_S)
    rows = {reader: [] for reader in range(13)}
    for report in layer.reports():
        rows[report.reader_id].append(report.to_row())
    summaries = [
        {"reader_id": reader, "reports": rows[reader], "n_rounds": 1}
        for reader in range(13)
    ]
    return SiteRun(
        config=config,
        reader_summaries=summaries,
        fusion=layer,
        truth_epc_values=list(range(1, 11)),
    )


@settings(max_examples=60, deadline=None)
@given(fused_layers())
def test_fused_state_matches_oracle(layer):
    _assert_matches_oracle(_synthetic_run(layer))


@pytest.fixture(scope="module")
def chaos_report():
    config = site_soak.SiteSoakConfig(
        n_readers=10,
        n_tags=30,
        n_mobile=2,
        layout="ring",
        seed=3,
        n_epochs=6,
        epoch_s=0.1,
        n_outages=2,
        downtime_min_s=0.2,
        downtime_max_s=0.3,
    )
    return site_soak.run(config, workers=1)


def test_chaos_report_matches_oracle(chaos_report):
    assert chaos_report.n_deaths > 0
    _assert_matches_oracle(chaos_report)


@settings(max_examples=30, deadline=None)
@given(fused_layers())
def test_chaos_report_with_any_fused_state_matches_oracle(
    chaos_report, layer
):
    _assert_matches_oracle(dataclasses.replace(chaos_report, fusion=layer))


def test_non_finite_floats_render_as_json_does():
    """``%s`` prints ``nan``/``inf``; the renderer writes JSON's spelling."""
    layer = FusionLayer()
    layer.ingest_many(
        [
            TagReport(0xA, 0, 0.5, 0, 1, float("nan"), float("inf")),
            TagReport(0xB, 11, 0.25, 1, 0, 1.0, float("-inf")),
        ]
    )
    data = _synthetic_run(layer).canonical_bytes()
    assert data == _oracle(_synthetic_run(layer).canonical())
    assert b"NaN" in data and b"-Infinity" in data
    assert b"nan" not in data and b"inf" not in data
