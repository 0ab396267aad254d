"""CampaignRunner integration with the pluggable result store.

Covers the ``store=`` kwarg wiring, bit-compatibility of the json
backend with the historical one-file-per-hash cache, cross-backend result
equality, and the lease hand-off paths a single process can exercise
(waiting on another party's result, taking over a crashed lease).
"""

import threading
import time

from repro.core.campaign import run_threat_catalogue
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig
from repro.store import JsonDirStore, SqliteStore, migrate

TINY = ScenarioConfig(n_vehicles=4, duration=30.0, warmup=6.0, seed=7)


class TestRunnerStoreWiring:
    def test_store_url_string_resolved(self, tmp_path):
        runner = CampaignRunner(store=f"sqlite:{tmp_path / 'store.db'}")
        assert runner.store.backend == "sqlite"
        assert not hasattr(runner, "cache_dir")     # the alias is gone

    def test_store_instance_passed_through(self, tmp_path):
        store = SqliteStore(tmp_path / "store.db")
        assert CampaignRunner(store=store).store is store

    def test_runner_cache_files_survive_migration_byte_identical(
            self, tmp_path):
        # JSON-dir files written by a real campaign, round-tripped
        # json -> sqlite -> json, come back byte-for-byte identical.
        run_threat_catalogue(TINY, threats=["jamming"],
                             runner=CampaignRunner(
                                 store=f"json:{tmp_path / 'legacy'}"))
        legacy = JsonDirStore(tmp_path / "legacy")
        db = SqliteStore(tmp_path / "store.db")
        back = JsonDirStore(tmp_path / "back")
        assert migrate(legacy, db)[1] == []
        assert migrate(db, back)[1] == []
        files = sorted((tmp_path / "legacy").glob("*.json"))
        assert files
        for path in files:
            assert path.read_bytes() == \
                (tmp_path / "back" / path.name).read_bytes()

    def test_legacy_cache_dir_files_hit_through_store_url(self, tmp_path):
        # Warm caches in the historical layout (a bare directory path,
        # which is what the removed cache_dir alias wrote) must keep
        # hitting through a json: URL with zero migration.
        first = run_threat_catalogue(TINY, threats=["jamming"],
                                     runner=CampaignRunner(store=tmp_path))
        fresh = CampaignRunner(store=f"json:{tmp_path}")
        second = run_threat_catalogue(TINY, threats=["jamming"],
                                      runner=fresh)
        report = fresh.report()
        assert report.computed == 0 and report.cache_hits == 2
        assert first == second

    def test_sqlite_persists_across_runner_instances(self, tmp_path):
        url = f"sqlite:{tmp_path / 'store.db'}"
        first = run_threat_catalogue(TINY, threats=["jamming"],
                                     runner=CampaignRunner(store=url))
        fresh = CampaignRunner(store=url)
        second = run_threat_catalogue(TINY, threats=["jamming"],
                                      runner=fresh)
        report = fresh.report()
        assert report.computed == 0 and report.cache_hits == 2
        assert {u.source for u in report.units} == {"disk"}
        assert first == second

    def test_backends_produce_equal_results(self, tmp_path):
        via_json = run_threat_catalogue(
            TINY, threats=["jamming"],
            runner=CampaignRunner(store=f"json:{tmp_path / 'j'}"))
        via_sqlite = run_threat_catalogue(
            TINY, threats=["jamming"],
            runner=CampaignRunner(store=f"sqlite:{tmp_path / 'store.db'}"))
        assert via_json == via_sqlite


class TestLeaseHandOff:
    def _warm_store(self, tmp_path):
        """A store holding the jamming catalogue, plus its unit keys."""
        warm = SqliteStore(tmp_path / "warm.db")
        runner = CampaignRunner(store=warm)
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        return warm, [u.key for u in runner.report().units]

    def test_waiting_runner_adopts_anothers_result(self, tmp_path):
        # Another "process" holds the leases and finishes while we wait:
        # the waiting runner must adopt the stored results as disk hits
        # instead of recomputing.
        warm, keys = self._warm_store(tmp_path)
        cold = SqliteStore(tmp_path / "cold.db")
        for key in keys:
            assert cold.acquire(key, "other-process", ttl=60) == "acquired"

        def finish_elsewhere():
            time.sleep(0.1)
            for key in keys:
                cold.store(key, warm.load(key))

        thread = threading.Thread(target=finish_elsewhere)
        thread.start()
        try:
            runner = CampaignRunner(store=cold, lease_poll=0.02)
            results = run_threat_catalogue(TINY, threats=["jamming"],
                                           runner=runner)
        finally:
            thread.join()
        report = runner.report()
        assert report.computed == 0 and report.cache_hits == 2
        assert {u.source for u in report.units} == {"disk"}
        assert results == run_threat_catalogue(
            TINY, threats=["jamming"], runner=CampaignRunner(store=warm))

    def test_crashed_lease_expires_and_unit_is_taken_over(self, tmp_path):
        # The holder died without storing a result or releasing: after
        # the TTL the waiting runner claims the lease and computes.
        _, keys = self._warm_store(tmp_path)
        cold = SqliteStore(tmp_path / "cold.db")
        for key in keys:
            cold.acquire(key, "crashed-worker", ttl=0.2)
        runner = CampaignRunner(store=cold, lease_poll=0.02)
        run_threat_catalogue(TINY, threats=["jamming"], runner=runner)
        report = runner.report()
        assert report.computed == 2 and report.cache_hits == 0
        assert cold.keys() == sorted(keys)
        assert cold.active_leases() == 0
