"""Chaos soak acceptance: thousands of cycles, dozens of faults, zero
invariant violations.

The full-scale run here is the PR's headline guarantee, so it runs in
tier-1 despite costing ~a minute of wall time.  Everything is simulated
time, so the run is deterministic for a given seed.
"""

import json

import pytest

from repro.experiments import soak


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    checkpoint_dir = tmp_path_factory.mktemp("soak-full")
    config = soak.SoakConfig(
        n_cycles=2000, seed=0, checkpoint_dir=checkpoint_dir
    )
    return soak.run(config)


class TestAcceptance:
    def test_survives_two_thousand_cycles(self, full_report):
        assert full_report.n_cycles == 2000
        assert full_report.violations == []
        assert full_report.ok

    def test_enough_chaos_was_actually_injected(self, full_report):
        assert full_report.n_crashes_fired >= 20
        assert full_report.n_kills >= 1
        assert full_report.n_corruptions >= 1

    def test_recovery_machinery_was_exercised(self, full_report):
        assert full_report.n_restarts >= full_report.n_kills
        assert full_report.n_warm_restarts >= 1
        assert full_report.n_checkpoints >= 50
        assert full_report.n_unhealthy > 0  # chaos actually hurt
        assert full_report.n_healthy > full_report.n_unhealthy * 10

    def test_report_serializes(self, full_report, tmp_path):
        document = full_report.to_dict()
        assert document["ok"] is True
        assert document["config"]["n_cycles"] == 2000
        path = tmp_path / "report.json"
        path.write_text(json.dumps(document))
        assert json.loads(path.read_text())["n_cycles"] == 2000


class TestDeterminism:
    def test_same_seed_same_report(self, tmp_path):
        def run_once(subdir):
            config = soak.SoakConfig(
                n_cycles=60,
                seed=9,
                crash_every=25,
                kill_every=40,
                corrupt_every=50,
                checkpoint_dir=tmp_path / subdir,
            )
            document = soak.run(config).to_dict()
            document.pop("wall_s")
            document["config"].pop("checkpoint_dir", None)
            return document

        assert run_once("a") == run_once("b")


class TestReporting:
    def test_format_report_mentions_the_verdict(self, tmp_path):
        config = soak.SoakConfig(
            n_cycles=30,
            seed=2,
            crash_every=0,
            kill_every=0,
            corrupt_every=0,
            jam_every=0,
            blackout_every=0,
            churn_tags=0,
            checkpoint_dir=tmp_path,
        )
        report = soak.run(config)
        text = soak.format_report(report)
        assert "SURVIVED" in text
        assert "cycles" in text

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            soak.SoakConfig(n_cycles=0)
        with pytest.raises(ValueError):
            soak.SoakConfig(crash_every=-1)
        with pytest.raises(ValueError):
            soak.SoakConfig(crash_downtime_s=(5.0, 1.0))


class TestScratchCleanup:
    def test_default_checkpoint_dir_is_removed(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        config = soak.SoakConfig(n_cycles=25, seed=3, checkpoint_every=5)
        assert config.checkpoint_dir is None
        report = soak.run(config)
        assert report.n_checkpoints >= 1  # checkpoints were really written
        assert list(tmp_path.iterdir()) == []


class TestCLI:
    def test_soak_command_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(
            [
                "soak",
                "--cycles", "40",
                "--seed", "4",
                "--crash-every", "15",
                "--kill-every", "0",
                "--corrupt-every", "0",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] and report["n_cycles"] == 40
