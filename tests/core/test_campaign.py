"""Tests for the Table II/III campaign machinery."""

import pytest

from repro.core import taxonomy
from repro.core.campaign import (
    MatrixCell,
    make_defenses,
    run_defense_matrix,
    run_experiment_spec,
    threat_experiment,
)
from repro.core.scenario import ScenarioConfig
from repro.experiments import experiment_spec


@pytest.fixture
def small():
    return ScenarioConfig(n_vehicles=5, duration=45.0, warmup=8.0, seed=55)


class TestExperimentConstruction:
    def test_every_threat_has_an_experiment(self, small):
        for key in taxonomy.THREATS:
            experiment = threat_experiment(key, small)
            assert experiment.threat_key == key
            assert callable(experiment.make_attacks)
            attacks = experiment.make_attacks()
            assert attacks, f"{key} produced no attacks"

    def test_unknown_threat_rejected(self, small):
        with pytest.raises(KeyError):
            threat_experiment("quantum_hack", small)

    def test_variants_change_experiment(self, small):
        split = threat_experiment("fake_maneuver", small, variant="split")
        entrance = threat_experiment("fake_maneuver", small, variant="entrance")
        assert split.metric_name != entrance.metric_name

    def test_attack_factory_produces_fresh_instances(self, small):
        experiment = threat_experiment("jamming", small)
        first = experiment.make_attacks()
        second = experiment.make_attacks()
        assert first[0] is not second[0]

    def test_unknown_malware_variant_rejected(self, small):
        # Historically this silently fell back to the wireless vector.
        with pytest.raises(ValueError, match="wireless"):
            threat_experiment("malware", small, variant="usb")

    def test_unknown_fake_maneuver_variant_rejected(self, small):
        # Historically this raised a bare KeyError from the metric dict.
        with pytest.raises(ValueError, match="entrance"):
            threat_experiment("fake_maneuver", small, variant="warp")


class TestDefenseConstruction:
    def test_every_mechanism_buildable(self):
        for key in taxonomy.MECHANISMS:
            defenses, requirements = make_defenses(key)
            assert defenses
            assert isinstance(requirements, dict)

    def test_hybrid_requires_vlc(self):
        _, requirements = make_defenses("hybrid_communications")
        assert requirements.get("with_vlc") is True

    def test_rsu_requires_infrastructure(self):
        _, requirements = make_defenses("roadside_units")
        assert requirements.get("with_authority") is True
        assert requirements.get("rsu_positions")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(KeyError):
            make_defenses("prayer")


class TestThreatOutcome:
    def test_jamming_outcome_has_effect(self, small):
        outcome = run_experiment_spec(experiment_spec("jamming"),
                                      small).outcome
        assert outcome.effect_present
        assert outcome.attacked_value > outcome.baseline_value
        assert "jamming.pdr" in outcome.attack_observables

    def test_impact_ratio(self):
        from repro.core.campaign import ThreatOutcome

        outcome = ThreatOutcome("x", "v", "m", baseline_value=2.0,
                                attacked_value=6.0, effect_present=True)
        assert outcome.impact_ratio == 3.0
        zero = ThreatOutcome("x", "v", "m", baseline_value=0.0,
                             attacked_value=6.0, effect_present=True)
        assert zero.impact_ratio is None


class TestMatrixCell:
    def test_mitigation_semantics(self):
        full = MatrixCell("m", "t", "metric", baseline_value=0.0,
                          attacked_value=10.0, defended_value=0.0)
        assert full.mitigation == pytest.approx(1.0)
        none = MatrixCell("m", "t", "metric", baseline_value=0.0,
                          attacked_value=10.0, defended_value=10.0)
        assert none.mitigation == pytest.approx(0.0)
        harmful = MatrixCell("m", "t", "metric", baseline_value=0.0,
                             attacked_value=10.0, defended_value=15.0)
        assert harmful.mitigation < 0
        no_effect = MatrixCell("m", "t", "metric", baseline_value=5.0,
                               attacked_value=5.0, defended_value=5.0)
        assert no_effect.mitigation is None

    @staticmethod
    def cell(mechanism, threat, config):
        """One cell of the mechanism's matrix row (derived seeds)."""
        cells = run_defense_matrix(config, mechanisms=[mechanism])
        return next(c for c in cells if c.threat_key == threat)

    def test_keys_vs_fake_maneuver_cell(self, small):
        cell = self.cell("secret_public_keys", "fake_maneuver", small)
        assert cell.attacked_value > cell.baseline_value
        assert cell.mitigation is not None and cell.mitigation > 0.8

    def test_hybrid_vs_jamming_cell(self, small):
        cell = self.cell("hybrid_communications", "jamming", small)
        assert cell.mitigation is not None and cell.mitigation > 0.6
