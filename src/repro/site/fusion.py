"""Cross-reader fusion: dedup/merge tag reports with provenance.

Every reader at a site independently reports ``(EPC, time, antenna,
channel, phase, RSS)`` tuples.  The fusion layer turns those streams into
one site-level inventory while preserving three things the single-reader
pipeline never had to care about:

- **identity dedup** — the same physical read must not be counted twice,
  however many times its report batch is replayed or merged (at-least-once
  transport upstream, exactly-once accounting here);
- **provenance** — each fused record remembers which readers saw the tag,
  how often, and when last — the raw material for coverage analysis and
  for the redundancy experiment's missed-tag accounting;
- **staleness arbitration** — "where/when was this tag last seen" must be
  a *deterministic* choice even when two readers report in the same
  microsecond: reports are totally ordered by ``(time, reader, antenna,
  channel, phase, rss)`` and the maximum wins.

The merge is a commutative, idempotent monoid fold over report *sets*:
``merge`` of any permutation of any duplication of the same reports yields
a byte-identical :meth:`FusionLayer.snapshot`.  The property tests in
``tests/site/test_fusion_properties.py`` hold it to that contract, and the
sharded site runner relies on it to fuse worker outputs in any grouping.

Two engines implement the fold.  ``engine="reference"`` is the original
one-report-at-a-time scalar ingest; ``engine="columnar"`` (the default,
togglable via ``REPRO_FUSION_ENGINE``) absorbs whole batches through a
vectorized arbitration-order ``lexsort`` — dedup, per-EPC aggregation and
winner selection all happen on numpy columns, and rows absorbed through
:meth:`FusionLayer.ingest_rows` stay bare keys (only each EPC's latest
sighting becomes a ``TagReport``) until :meth:`FusionLayer.reports` asks
for them.  Both engines drive the exact same internal state, so every
downstream surface (:meth:`FusionLayer.snapshot`, :meth:`reports`,
:meth:`records`) is byte-identical between them — the differential
property tests in ``tests/site/test_fusion_columnar.py`` pin that across
arbitrary orders, duplications and batch sizes from zero up.

Canonical bytes are rendered from the same state: :func:`render_rows` and
:func:`render_records` print the :meth:`TagReport.to_row` and
:meth:`FusedRecord.to_dict` shapes with one ``%`` template per row or
record, byte-identical to ``json.dumps(..., indent=2, sort_keys=True)``
(CPython's C encoder never runs with ``indent`` set).  Stdlib JSON of
:meth:`FusionLayer.snapshot` stays the oracle;
``tests/site/test_canonical_oracle.py`` holds the renderers to it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.radio.measurement import TagObservation
from repro.util.jsontext import (
    dumps_at,
    json_nonfinite,
    render_array,
    render_object,
)

#: Report timestamps are rounded to this many decimals when forming the
#: dedup key, matching the precision of every serialised trace in the repo.
TIME_PRECISION = 9

ReportKey = Tuple[int, int, float, int, int, float, float]
ArbitrationOrder = Tuple[float, int, int, int, float, float]


def _arbitration(key: ReportKey) -> ArbitrationOrder:
    """:attr:`TagReport.arbitration_order` from an already-rounded key."""
    return (key[2], key[1], key[3], key[4], key[5], key[6])


def _report_order(key: ReportKey) -> Tuple:
    """The EPC, then the arbitration order, from an already-rounded key."""
    return (key[0],) + _arbitration(key)


@dataclass(frozen=True)
class TagReport:
    """One tag read as reported by one reader of the site."""

    epc_value: int
    reader_id: int
    time_s: float
    antenna_index: int
    channel_index: int
    phase_rad: float
    rss_dbm: float

    @property
    def key(self) -> ReportKey:
        """Identity of the underlying physical read (dedup key).

        The *full* rounded payload is part of the identity: replays of the
        same report are exact duplicates and fuse away, while two reports
        that differ in any field are distinct reads and both survive —
        which is what makes fusion a pure set union, commutative and
        idempotent by construction rather than by tie-breaking.
        """
        return (
            self.epc_value,
            self.reader_id,
            round(self.time_s, TIME_PRECISION),
            self.antenna_index,
            self.channel_index,
            round(self.phase_rad, TIME_PRECISION),
            round(self.rss_dbm, TIME_PRECISION),
        )

    @property
    def arbitration_order(self) -> ArbitrationOrder:
        """Total order used to pick the authoritative latest sighting.

        Total over *distinct* reports (the payload fields break any tie in
        time/reader/antenna/channel), so the arbitration winner never
        depends on ingest order.
        """
        return (
            round(self.time_s, TIME_PRECISION),
            self.reader_id,
            self.antenna_index,
            self.channel_index,
            round(self.phase_rad, TIME_PRECISION),
            round(self.rss_dbm, TIME_PRECISION),
        )

    @classmethod
    def from_observation(
        cls, observation: TagObservation, reader_id: int
    ) -> "TagReport":
        return cls(
            epc_value=observation.epc.value,
            reader_id=reader_id,
            time_s=observation.time_s,
            antenna_index=observation.antenna_index,
            channel_index=observation.channel_index,
            phase_rad=observation.phase_rad,
            rss_dbm=observation.rss_dbm,
        )

    def to_row(self) -> List[object]:
        """Primitive row for pickling across workers / canonical JSON."""
        return [
            format(self.epc_value, "x"),
            self.reader_id,
            round(self.time_s, TIME_PRECISION),
            self.antenna_index,
            self.channel_index,
            round(self.phase_rad, TIME_PRECISION),
            round(self.rss_dbm, TIME_PRECISION),
        ]

    @classmethod
    def from_row(cls, row: List[object]) -> "TagReport":
        return cls(
            epc_value=int(row[0], 16),
            reader_id=int(row[1]),
            time_s=float(row[2]),
            antenna_index=int(row[3]),
            channel_index=int(row[4]),
            phase_rad=float(row[5]),
            rss_dbm=float(row[6]),
        )


def _row_template(pad: str, epc: str = "%s") -> str:
    """``%`` template of one :meth:`TagReport.to_row` row at ``pad``.

    ``epc`` formats the first field: ``%s`` for a row's hex string, ``%x``
    for the EPC value of a :attr:`TagReport.key`.
    """
    field = ",\n" + pad + "  %s"
    return "[\n" + pad + '  "' + epc + '"' + field * 6 + "\n" + pad + "]"


def render_rows(rows: Sequence[Sequence[object]], pad: str) -> str:
    """A list of :meth:`TagReport.to_row` rows as canonical JSON text.

    Exactly ``json.dumps(rows, indent=2, sort_keys=True)`` nested at
    ``pad`` (see :mod:`repro.util.jsontext`), one ``%`` template per row.
    """
    template = _row_template(pad + "  ")
    return json_nonfinite(
        render_array([template % tuple(row) for row in rows], pad)
    )


@dataclass
class FusedRecord:
    """Site-level state of one EPC, merged across every reader."""

    epc_value: int
    first_seen_s: float
    last_seen_s: float
    n_reports: int = 0
    #: reader id -> number of distinct reads contributed.
    reports_by_reader: Dict[int, int] = field(default_factory=dict)
    #: reader id -> simulated time of its newest read.
    last_seen_by_reader: Dict[int, float] = field(default_factory=dict)
    #: The authoritative latest sighting under the arbitration order.
    latest: Optional[TagReport] = None

    @property
    def reader_ids(self) -> List[int]:
        """Every reader that saw this tag, ascending."""
        return sorted(self.reports_by_reader)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON shape (sorted keys, rounded floats)."""
        assert self.latest is not None
        return {
            "epc": format(self.epc_value, "x"),
            "first_seen_s": round(self.first_seen_s, TIME_PRECISION),
            "last_seen_s": round(self.last_seen_s, TIME_PRECISION),
            "n_reports": self.n_reports,
            "reports_by_reader": {
                str(reader): self.reports_by_reader[reader]
                for reader in sorted(self.reports_by_reader)
            },
            "last_seen_by_reader": {
                str(reader): round(
                    self.last_seen_by_reader[reader], TIME_PRECISION
                )
                for reader in sorted(self.last_seen_by_reader)
            },
            "latest": self.latest.to_row(),
        }


def render_records(
    records: Sequence[FusedRecord],
    latest_keys: Dict[int, ReportKey],
    pad: str,
) -> str:
    """A :class:`FusionLayer`'s records as canonical JSON text.

    Exactly the :meth:`FusedRecord.to_dict` list through ``json.dumps(...,
    indent=2, sort_keys=True)``, nested at ``pad``, one ``%`` template per
    record.  It renders the layer's own state, where every time is already
    rounded to :data:`TIME_PRECISION` at ingest (so ``to_dict``'s rounding
    is a no-op) and ``latest_keys`` holds each ``latest`` report's rounded
    :attr:`TagReport.key` (what ``to_row`` prints), because ``ingest_many``
    keeps unrounded originals.  Both per-reader maps of a record share its
    reader ids, keyed in *string* order (``"10"`` before ``"2"``), as
    ``sort_keys`` orders them.
    """
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    template = "{" + ",".join(
        "\n" + p2 + member
        for member in (
            '"epc": "%x"',
            '"first_seen_s": %s',
            '"last_seen_by_reader": %s',
            '"last_seen_s": %s',
            '"latest": ' + _row_template(p2, "%x"),
            '"n_reports": %s',
            '"reports_by_reader": %s',
        )
    ) + "\n" + p1 + "}"
    entry = "\n" + p3 + '"%s": %s'
    close = "\n" + p2 + "}"
    items = []
    for record in records:
        epc_value = record.epc_value
        by_reader = record.reports_by_reader
        last_seen = record.last_seen_by_reader
        readers = sorted(by_reader, key=str)
        items.append(
            template
            % (
                (
                    epc_value,
                    record.first_seen_s,
                    "{"
                    + ",".join(
                        [entry % (r, last_seen[r]) for r in readers]
                    )
                    + close,
                    record.last_seen_s,
                )
                + latest_keys[epc_value]
                + (
                    record.n_reports,
                    "{"
                    + ",".join(
                        [entry % (r, by_reader[r]) for r in readers]
                    )
                    + close,
                )
            )
        )
    return json_nonfinite(render_array(items, pad))


#: Engines selectable via ``FusionLayer(engine=...)`` / REPRO_FUSION_ENGINE.
FUSION_ENGINES = ("columnar", "reference")


def default_fusion_engine() -> str:
    """The engine ``FusionLayer()`` picks (``REPRO_FUSION_ENGINE``)."""
    return os.environ.get("REPRO_FUSION_ENGINE", "columnar")


class FusionLayer:
    """Merge tag reports from any number of readers into one inventory.

    Reports are absorbed with :meth:`ingest` / :meth:`ingest_many` /
    :meth:`ingest_rows`, whole layers with :meth:`merge`.  All of them are
    order-insensitive and replay-safe; see the module docstring for the
    exact contract and the two-engine implementation note.
    """

    def __init__(self, engine: Optional[str] = None) -> None:
        if engine is None:
            engine = default_fusion_engine()
        if engine not in FUSION_ENGINES:
            raise ValueError(
                f"unknown fusion engine {engine!r}; known: {FUSION_ENGINES}"
            )
        self.engine = engine
        #: Every distinct report by key.  ``None`` stands for
        #: ``TagReport(*key)`` — a row absorbed by the columnar
        #: :meth:`ingest_rows`, built only when :meth:`reports` asks.
        self._reports: Dict[ReportKey, Optional[TagReport]] = {}
        self._records: Dict[int, FusedRecord] = {}
        #: reader id -> distinct reads, maintained incrementally so the
        #: health/canonicalization surfaces never rescan ``_reports``.
        self._by_reader: Dict[int, int] = {}
        #: reader id -> newest (rounded) report time ever ingested.  Any
        #: incoming report strictly newer than its reader's watermark
        #: cannot be a replay, so the columnar path skips the per-key
        #: dedup probe for entire batches of fresh reports.
        self._max_time_by_reader: Dict[int, float] = {}
        #: EPC -> rounded key of its record's ``latest`` report: the
        #: columnar fold compares these stored tuples instead of
        #: recomputing :attr:`TagReport.arbitration_order`, and the
        #: canonical renderer prints them as the ``latest`` row.
        self._latest_key: Dict[int, ReportKey] = {}
        #: Cached ascending EPC order for :meth:`records`/:meth:`epc_values`
        #: (invalidated only when a *new* EPC appears — in-place record
        #: updates never change the order).
        self._epc_order: Optional[List[int]] = None

    # ------------------------------------------------------------------
    def ingest(self, report: TagReport) -> bool:
        """Absorb one report; returns False when it was already fused."""
        key = report.key
        if key in self._reports:
            return False
        self._reports[key] = report
        t = key[2]
        reader_id = report.reader_id
        self._by_reader[reader_id] = self._by_reader.get(reader_id, 0) + 1
        watermark = self._max_time_by_reader.get(reader_id)
        if watermark is None or t > watermark:
            self._max_time_by_reader[reader_id] = t
        record = self._records.get(report.epc_value)
        if record is None:
            record = FusedRecord(
                epc_value=report.epc_value, first_seen_s=t, last_seen_s=t
            )
            self._records[report.epc_value] = record
            self._epc_order = None
        record.first_seen_s = min(record.first_seen_s, t)
        record.last_seen_s = max(record.last_seen_s, t)
        record.n_reports += 1
        record.reports_by_reader[reader_id] = (
            record.reports_by_reader.get(reader_id, 0) + 1
        )
        previous = record.last_seen_by_reader.get(reader_id)
        if previous is None or t > previous:
            record.last_seen_by_reader[reader_id] = t
        if (
            record.latest is None
            or report.arbitration_order > record.latest.arbitration_order
        ):
            record.latest = report
            self._latest_key[report.epc_value] = key
        return True

    def ingest_many(self, reports: Iterable[TagReport]) -> int:
        """Absorb a batch; returns how many were new."""
        if self.engine != "columnar":
            return sum(1 for report in reports if self.ingest(report))
        batch = list(reports)
        return self._ingest_columns(
            [r.epc_value for r in batch],
            [r.reader_id for r in batch],
            [round(r.time_s, TIME_PRECISION) for r in batch],
            [r.antenna_index for r in batch],
            [r.channel_index for r in batch],
            [round(r.phase_rad, TIME_PRECISION) for r in batch],
            [round(r.rss_dbm, TIME_PRECISION) for r in batch],
            originals=batch,
        )

    def ingest_rows(self, rows: Sequence[Sequence[object]]) -> int:
        """Absorb a batch of :meth:`TagReport.to_row` rows; returns new count.

        The site fast path: row batches are what cross worker process
        boundaries and what checkpoints replay, and their fields are
        already rounded — so the columnar engine ingests them without
        materialising a ``TagReport`` per row (only a new ``latest``
        sighting is built; a pure replay builds none at all).  The fold is
        commutative, so one batch holding every reader's rows fuses to the
        same state as one batch per reader.
        """
        if self.engine != "columnar":
            return self.ingest_many(TagReport.from_row(row) for row in rows)
        if not rows:
            return 0
        epcs, readers, times, antennas, channels, phases, rsss = zip(*rows)
        return self._ingest_columns(
            [int(value, 16) for value in epcs],
            readers,
            times,
            antennas,
            channels,
            phases,
            rsss,
            originals=None,
        )

    # ------------------------------------------------------------------
    def _ingest_columns(
        self,
        epc_vals: List[int],
        readers: Sequence[int],
        times: Sequence[float],
        antennas: Sequence[int],
        channels: Sequence[int],
        phases: Sequence[float],
        rsss: Sequence[float],
        originals: Optional[List[TagReport]],
    ) -> int:
        """Columnar fold: vectorized dedup + arbitration over one batch.

        All float columns arrive pre-rounded to :data:`TIME_PRECISION`
        (exactly the key/arbitration precision), so numpy equality and
        ordering below agree bit-for-bit with the scalar engine's tuple
        comparisons.  ``originals`` supplies the report objects to store
        (``ingest_many``); when ``None`` (``ingest_rows``) survivors are
        stored as bare keys, and only a new ``latest`` sighting is built
        from its key fields — identical, field for field, to what
        ``TagReport.from_row`` would have produced.
        """
        n = len(epc_vals)
        # Dense EPC ids: values are 96-bit ints, too wide for an int64
        # column, so sort/group on compact ids instead.
        id_of: Dict[int, int] = {}
        epc_ids = np.asarray(
            [id_of.setdefault(value, len(id_of)) for value in epc_vals],
            dtype=np.int64,
        )
        uniq_epcs = list(id_of)
        reader_c = np.asarray(readers, dtype=np.int64)
        time_c = np.asarray(times, dtype=np.float64)
        ant_c = np.asarray(antennas, dtype=np.int64)
        chan_c = np.asarray(channels, dtype=np.int64)
        phase_c = np.asarray(phases, dtype=np.float64)
        rss_c = np.asarray(rsss, dtype=np.float64)
        # One stable sort orders the whole batch by (epc, arbitration
        # order): EPC groups become contiguous with each group's
        # arbitration winner last, and exact duplicates become adjacent
        # with the *first-ingested* copy first — the copy the scalar
        # engine would have kept.
        order = np.lexsort(
            (rss_c, phase_c, chan_c, ant_c, reader_c, time_c, epc_ids)
        )
        eid_s = epc_ids[order]
        reader_s = reader_c[order]
        time_s = time_c[order]
        ant_s = ant_c[order]
        chan_s = chan_c[order]
        phase_s = phase_c[order]
        rss_s = rss_c[order]
        keep = np.ones(n, dtype=bool)
        if n > 1:
            same = eid_s[1:] == eid_s[:-1]
            for column in (
                reader_s, time_s, ant_s, chan_s, phase_s, rss_s
            ):
                same &= column[1:] == column[:-1]
            keep[1:] = ~same
        # Cross-batch dedup: only rows at or below their reader's time
        # watermark can possibly be replays; probe just those keys.
        if self._reports:
            suspect = np.zeros(n, dtype=bool)
            for reader_id in np.unique(reader_s).tolist():
                watermark = self._max_time_by_reader.get(reader_id)
                if watermark is not None:
                    suspect |= (reader_s == reader_id) & (
                        time_s <= watermark
                    )
            suspect &= keep
            for j in np.nonzero(suspect)[0].tolist():
                key = (
                    uniq_epcs[eid_s[j]],
                    int(reader_s[j]),
                    float(time_s[j]),
                    int(ant_s[j]),
                    int(chan_s[j]),
                    float(phase_s[j]),
                    float(rss_s[j]),
                )
                if key in self._reports:
                    keep[j] = False
        new_idx = np.nonzero(keep)[0]
        n_new = int(new_idx.size)
        if n_new == 0:
            return 0
        eid_n = eid_s[new_idx]
        time_n = time_s[new_idx]
        reader_n = reader_s[new_idx]
        keys = list(
            zip(
                [uniq_epcs[i] for i in eid_n.tolist()],
                reader_n.tolist(),
                time_n.tolist(),
                ant_s[new_idx].tolist(),
                chan_s[new_idx].tolist(),
                phase_s[new_idx].tolist(),
                rss_s[new_idx].tolist(),
            )
        )
        survivors: Optional[List[TagReport]] = None
        if originals is not None:
            survivors = [originals[k] for k in order[new_idx].tolist()]
            self._reports.update(zip(keys, survivors))
        else:
            self._reports.update(dict.fromkeys(keys))
        # Per-EPC aggregation: groups are contiguous and time-ascending
        # in the arbitration sort, so first/last seen are the group's
        # edge elements and the winner is the group's last survivor.
        records = self._records
        latest_key = self._latest_key
        boundary = np.nonzero(np.r_[True, eid_n[1:] != eid_n[:-1]])[0]
        group_end = np.r_[boundary[1:], n_new]
        for a, b in zip(boundary.tolist(), group_end.tolist()):
            key = keys[b - 1]
            epc_value = key[0]
            t_min = keys[a][2]
            record = records.get(epc_value)
            if record is None:
                records[epc_value] = FusedRecord(
                    epc_value=epc_value,
                    first_seen_s=t_min,
                    last_seen_s=key[2],
                    n_reports=b - a,
                    latest=(
                        TagReport(*key)
                        if survivors is None
                        else survivors[b - 1]
                    ),
                )
                latest_key[epc_value] = key
                self._epc_order = None
                continue
            record.first_seen_s = min(record.first_seen_s, t_min)
            record.last_seen_s = max(record.last_seen_s, key[2])
            record.n_reports += b - a
            if _arbitration(key) > _arbitration(latest_key[epc_value]):
                record.latest = (
                    TagReport(*key) if survivors is None else survivors[b - 1]
                )
                latest_key[epc_value] = key
        # Per-(EPC, reader) aggregation: a second grouped pass gives each
        # pair's count and newest time in O(pairs), not O(rows).
        order2 = np.lexsort((time_n, reader_n, eid_n))
        eid_p = eid_n[order2]
        reader_p = reader_n[order2]
        time_p = time_n[order2]
        starts2 = np.nonzero(
            np.r_[
                True,
                (eid_p[1:] != eid_p[:-1]) | (reader_p[1:] != reader_p[:-1]),
            ]
        )[0]
        ends2 = np.r_[starts2[1:], n_new]
        for epc_id, reader_id, count, t_last in zip(
            eid_p[starts2].tolist(),
            reader_p[starts2].tolist(),
            (ends2 - starts2).tolist(),
            time_p[ends2 - 1].tolist(),
        ):
            record = records[uniq_epcs[epc_id]]
            record.reports_by_reader[reader_id] = (
                record.reports_by_reader.get(reader_id, 0) + count
            )
            previous = record.last_seen_by_reader.get(reader_id)
            if previous is None or t_last > previous:
                record.last_seen_by_reader[reader_id] = t_last
            self._by_reader[reader_id] = (
                self._by_reader.get(reader_id, 0) + count
            )
            watermark = self._max_time_by_reader.get(reader_id)
            if watermark is None or t_last > watermark:
                self._max_time_by_reader[reader_id] = t_last
        return n_new

    # ------------------------------------------------------------------
    def merge(self, other: "FusionLayer") -> int:
        """Fold another layer's reports into this one; returns new count."""
        return self.ingest_many(other.reports())

    # ------------------------------------------------------------------
    def reports(self) -> List[TagReport]:
        """Every distinct fused report, by EPC, then arbitration order."""
        out = []
        for key in sorted(self._reports, key=_report_order):
            report = self._reports[key]
            if report is None:
                report = self._reports[key] = TagReport(*key)
            out.append(report)
        return out

    def records(self) -> List[FusedRecord]:
        """Per-EPC fused records, ascending by EPC value."""
        if self._epc_order is None:
            self._epc_order = sorted(self._records)
        return [self._records[value] for value in self._epc_order]

    def record(self, epc_value: int) -> FusedRecord:
        """The fused record of one EPC; raises ``KeyError`` if unseen."""
        return self._records[epc_value]

    def epc_values(self) -> List[int]:
        """Every EPC the site has seen, ascending."""
        if self._epc_order is None:
            self._epc_order = sorted(self._records)
        return list(self._epc_order)

    @property
    def n_reports(self) -> int:
        """Distinct physical reads fused so far."""
        return len(self._reports)

    def reports_by_reader(self) -> Dict[int, int]:
        """Distinct reads contributed per reader id.

        Maintained incrementally on every ingest — no rescan of the
        fused report set, however often health reports or canonical
        snapshots ask.
        """
        return {
            reader: self._by_reader[reader]
            for reader in sorted(self._by_reader)
        }

    def _snapshot_head(self) -> Dict[str, object]:
        """The :meth:`snapshot` members other than ``records``."""
        return {
            "n_epcs": len(self._records),
            "n_reports": self.n_reports,
            "reports_by_reader": {
                str(reader): count
                for reader, count in self.reports_by_reader().items()
            },
        }

    def snapshot(self) -> Dict[str, object]:
        """Canonical, byte-stable summary of the fused inventory."""
        snapshot = self._snapshot_head()
        snapshot["records"] = [record.to_dict() for record in self.records()]
        return snapshot

    def render_snapshot(self, pad: str) -> str:
        """:meth:`snapshot` as canonical JSON text nested at ``pad``.

        The records go through :func:`render_records`, the other members
        through :func:`json.dumps`.
        """
        inner = pad + "  "
        members = {
            key: dumps_at(value, inner)
            for key, value in self._snapshot_head().items()
        }
        members["records"] = render_records(
            self.records(), self._latest_key, inner
        )
        return render_object(members, pad)

    def copy(self) -> "FusionLayer":
        """An independent layer holding the same fused reports."""
        duplicate = FusionLayer(engine=self.engine)
        duplicate.ingest_many(self.reports())
        return duplicate
