"""Tests for campaign-result persistence and regression diffing."""

import pytest

from repro.analysis.results import (
    diff_catalogues,
    load_records,
    save_records,
)
from repro.core.campaign import MatrixCell, ThreatOutcome


def outcome(**overrides):
    defaults = dict(threat_key="jamming", variant="barrage",
                    metric_name="degraded_fraction", baseline_value=0.0,
                    attacked_value=0.87, effect_present=True,
                    attack_observables={"power_dbm": 30.0})
    defaults.update(overrides)
    return ThreatOutcome(**defaults)


class TestRoundTrip:
    def test_threat_catalogue_roundtrip(self, tmp_path):
        records = [outcome(), outcome(threat_key="dos", attacked_value=0.0,
                                      baseline_value=1.0)]
        path = save_records(tmp_path / "catalogue.json", "threat_catalogue",
                            records)
        kind, loaded = load_records(path)
        assert kind == "threat_catalogue"
        assert len(loaded) == 2
        assert loaded[0].threat_key == "jamming"
        assert loaded[0].attacked_value == pytest.approx(0.87)
        assert loaded[0].attack_observables == {"power_dbm": 30.0}

    def test_matrix_roundtrip(self, tmp_path):
        cells = [MatrixCell("secret_public_keys", "replay", "gap_open_time_s",
                            28.0, 36.0, 24.0)]
        path = save_records(tmp_path / "matrix.json", "defense_matrix", cells)
        kind, loaded = load_records(path)
        assert kind == "defense_matrix"
        assert loaded[0].mitigation == pytest.approx(1.5)

    def test_wrong_kind_rejected_on_save(self, tmp_path):
        with pytest.raises(TypeError):
            save_records(tmp_path / "x.json", "defense_matrix", [outcome()])
        with pytest.raises(ValueError):
            save_records(tmp_path / "x.json", "nonsense", [outcome()])

    def test_sweep_points_roundtrip(self, tmp_path):
        from repro.sweep.aggregate import SweepPointSummary, summary_stats

        points = [SweepPointSummary(
            index=0, label="attack.power_dbm=10", metric="degraded_fraction",
            values={"attack.power_dbm": 10.0}, replicates=3,
            baseline=summary_stats([0.0, 0.0, 0.0]),
            attacked=summary_stats([0.5, 0.6, 0.7]),
            impact_ratio=None, effect_rate=1.0,
            collisions=summary_stats([0.0]), disband_rate=2 / 3,
            detection_rate=0.0)]
        path = save_records(tmp_path / "sweep.json", "sweep_points", points)
        kind, loaded = load_records(path)
        assert kind == "sweep_points"
        assert loaded[0].attacked["mean"] == pytest.approx(0.6)
        assert loaded[0].values == {"attack.power_dbm": 10.0}
        assert loaded[0].response("disband_rate") == pytest.approx(2 / 3)

    def test_real_sweep_points_roundtrip(self, tmp_path):
        from repro.sweep import SweepAxis, SweepSpec, run_sweep

        spec = SweepSpec(name="t", threat="jamming", root_seed=3,
                         axes=(SweepAxis("attack.power_dbm",
                                         values=(30.0,)),),
                         base={"n_vehicles": 4, "duration": 20.0,
                               "warmup": 5.0})
        result = run_sweep(spec)
        path = save_records(tmp_path / "sweep.json", "sweep_points",
                            result.points)
        _, loaded = load_records(path)
        assert loaded[0].attacked == result.points[0].attacked

    def test_bad_format_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other/9", "kind": "metrics", '
                        '"records": []}')
        with pytest.raises(ValueError, match="unsupported results format"):
            load_records(path)

    def test_unknown_kind_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "platoonsec-results/1", '
                        '"kind": "sweep_surprise", "records": []}')
        with pytest.raises(ValueError, match="unknown record kind "
                                             "'sweep_surprise'"):
            load_records(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "platoonsec-results/1", '
                        '"kind": "threat_catalogue", '
                        '"records": [{"surprise": 1}]}')
        with pytest.raises(ValueError):
            load_records(path)


class TestDiff:
    def test_identical_runs_clean(self):
        assert diff_catalogues([outcome()], [outcome()]) == []

    def test_effect_disappearance_flagged(self):
        problems = diff_catalogues([outcome()],
                                   [outcome(effect_present=False)])
        assert problems and "disappeared" in problems[0]

    def test_shrunken_impact_flagged(self):
        problems = diff_catalogues([outcome(attacked_value=0.87)],
                                   [outcome(attacked_value=0.30)])
        assert problems and "shrank" in problems[0]

    def test_small_drift_tolerated(self):
        assert diff_catalogues([outcome(attacked_value=0.87)],
                               [outcome(attacked_value=0.80)]) == []

    def test_new_threats_ignored(self):
        assert diff_catalogues([], [outcome()]) == []

    def test_stronger_impact_not_flagged(self):
        assert diff_catalogues([outcome(attacked_value=0.5)],
                               [outcome(attacked_value=0.9)]) == []


class TestEndToEnd:
    def test_save_real_campaign(self, tmp_path):
        from repro.core.campaign import run_experiment_spec
        from repro.core.scenario import ScenarioConfig
        from repro.experiments import experiment_spec

        config = ScenarioConfig(n_vehicles=5, duration=35.0, warmup=8.0,
                                seed=606)
        result = run_experiment_spec(experiment_spec("eavesdropping"),
                                     config).outcome
        path = save_records(tmp_path / "run.json", "threat_catalogue",
                            [result])
        _, loaded = load_records(path)
        assert loaded[0].effect_present
        assert diff_catalogues(loaded, [result]) == []
