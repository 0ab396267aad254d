"""Evaluation campaigns: canonical experiments behind Tables II and III.

For every Table II threat there is a *canonical experiment*: a scenario
configuration, the attack instance(s), optional traffic hooks, and a
headline metric with a direction.  :func:`run_threat_catalogue` executes
baseline + attacked episodes per threat and verdicts whether the paper's
claimed effect materialised.  :func:`run_defense_matrix` crosses Table III
mechanisms with the threats they claim to mitigate and reports the
mitigation factor.

These functions are what the T2/T3 benches (and the attack-campaign
example) call; tests pin their semantics.

Campaign execution and seed derivation
--------------------------------------
Every entry point -- :func:`run_threat_catalogue`,
:func:`run_highway_catalogue`, :func:`run_defense_matrix` and
:func:`run_experiment_spec` -- plans its episodes as
:class:`~repro.core.runner.EpisodeSpec` units through one planner and
executes them on the :class:`~repro.core.runner.CampaignRunner` passed
as ``runner=`` (a fresh serial runner by default).  The runner owns
every execution setting: worker pool, result store, traces and
telemetry.  Episodes are content-hashed and memoised (each distinct
baseline/attacked configuration runs exactly once per campaign), and
serial and parallel runs produce bit-identical outcomes.

Seeds follow an explicit derivation scheme: the campaign's *root seed*
is ``base_config.seed``, and every experiment unit runs with
``derive_seed(root_seed, threat_key, variant)`` (SHA-256 based, stable
across processes and Python versions -- see
:func:`repro.core.runner.derive_seed`).  Baseline, attacked and defended
episodes of the same (threat, variant) share one derived seed, so their
metrics stay directly comparable, while distinct threats draw from
decorrelated random streams.  Any unit can therefore be rerun
bit-identically in isolation from ``(root_seed, threat_key, variant)``
alone.  :func:`run_experiment_spec` runs whatever seed its config
carries, without derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.runner import (
    CampaignRunner,
    EpisodeSpec,
    derive_replicate_seed,
)
from repro.obs import registry as obs

from repro.core.scenario import ScenarioConfig
from repro.core import taxonomy
from repro.core.experiment import ExperimentSpec, ThreatExperiment
from repro.experiments import defense_stack, experiment_spec

__all__ = [
    "ThreatExperiment", "ThreatOutcome", "MatrixCell", "PlannedExperiment",
    "ExperimentSpecRun", "threat_experiment", "make_defenses",
    "run_experiment_spec", "plan_threat_experiment",
    "run_threat_catalogue", "run_defense_matrix",
    "highway_variants", "run_highway_catalogue",
]


def threat_experiment(threat_key: str,
                      base_config: Optional[ScenarioConfig] = None,
                      variant: Optional[str] = None) -> ThreatExperiment:
    """Build the canonical experiment for a Table II threat key.

    Resolution goes through the declarative catalogue
    (:mod:`repro.experiments`) and the component registry: unknown
    threats raise ``KeyError``, unknown variants raise ``ValueError``
    naming the valid ones.
    """
    base = base_config or ScenarioConfig(duration=90.0)
    return experiment_spec(threat_key, variant).build(base)


# --------------------------------------------------------------------------
# Defence construction
# --------------------------------------------------------------------------

def make_defenses(mechanism_key: str) -> tuple[list, dict]:
    """Canonical defence stack for a Table III mechanism key.

    Returns ``(defenses, config_requirements)`` where the requirements are
    ScenarioConfig overrides the mechanism needs (VLC hardware, authority,
    RSUs along the route).  Stacks resolve through the declarative
    defence table (:mod:`repro.experiments`) and the component registry;
    unknown mechanisms raise ``KeyError``.
    """
    stack = defense_stack(mechanism_key)
    return stack.build(), dict(stack.requirements)


# --------------------------------------------------------------------------
# Outcomes
# --------------------------------------------------------------------------

#: Tolerance below which a metric delta/baseline counts as zero for the
#: verdict and the ratio guards (floating-point noise, not a real effect).
_EPS = 1e-9


def _verdict(experiment: ThreatExperiment, baseline_value: float,
             attacked_value: float) -> bool:
    """Whether the attack moved the headline metric the harmful way."""
    if experiment.lower_is_better:
        return attacked_value > baseline_value + _EPS
    return attacked_value < baseline_value - _EPS


def _mitigation(baseline_value: float, attacked_value: float,
                defended_value: float) -> Optional[float]:
    """Fraction of the attack-induced delta removed by the defence.

    1.0 = fully restored to baseline; 0.0 = no help; negative = the
    defence made it worse.  ``None`` when the attack had no effect.
    """
    delta_attack = attacked_value - baseline_value
    if abs(delta_attack) < _EPS:
        return None
    return (attacked_value - defended_value) / delta_attack


@dataclass
class ThreatOutcome:
    threat_key: str
    variant: str
    metric_name: str
    baseline_value: float
    attacked_value: float
    effect_present: bool
    attack_observables: dict = field(default_factory=dict)
    # Replicate statistics: with ``seed_replicates > 1`` the value fields
    # above hold the replicate means and these carry the spread.
    baseline_std: float = 0.0
    attacked_std: float = 0.0
    replicates: int = 1

    @property
    def impact_ratio(self) -> Optional[float]:
        if abs(self.baseline_value) < _EPS:
            return None
        return self.attacked_value / self.baseline_value


@dataclass
class MatrixCell:
    mechanism_key: str
    threat_key: str
    metric_name: str
    baseline_value: float
    attacked_value: float
    defended_value: float
    # Replicate statistics (see ThreatOutcome): means above, spread here.
    baseline_std: float = 0.0
    attacked_std: float = 0.0
    defended_std: float = 0.0
    replicates: int = 1
    # Detection ledger summary of the *defended* episode (replicate 0):
    # per-mechanism verdict counts, TPR/FPR, time-to-first-flag.
    detection: dict = field(default_factory=dict)

    @property
    def mitigation(self) -> Optional[float]:
        """Fraction of the attack-induced delta removed by the defence
        (see :func:`_mitigation`)."""
        return _mitigation(self.baseline_value, self.attacked_value,
                           self.defended_value)


@dataclass
class ExperimentSpecRun:
    """The result of running one declarative experiment spec."""

    spec: ExperimentSpec
    outcome: ThreatOutcome
    #: Headline metric with the spec's defence stack active; ``None``
    #: when the spec declares no defences.
    defended_value: Optional[float] = None

    @property
    def mitigation(self) -> Optional[float]:
        if self.defended_value is None:
            return None
        return _mitigation(self.outcome.baseline_value,
                           self.outcome.attacked_value, self.defended_value)


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------

@dataclass
class PlannedExperiment:
    """A threat experiment resolved into runnable, memoisable episode specs."""

    experiment: ThreatExperiment
    baseline: EpisodeSpec
    attacked: EpisodeSpec
    defended: Optional[EpisodeSpec] = None
    mechanism_key: Optional[str] = None

    def specs(self) -> list[EpisodeSpec]:
        """The units to run, in baseline/attacked/defended order."""
        return [spec for spec in (self.baseline, self.attacked, self.defended)
                if spec is not None]


def _plan(experiment: ThreatExperiment, config: ScenarioConfig,
          mechanism_key: Optional[str] = None,
          payload: Optional[ExperimentSpec] = None) -> PlannedExperiment:
    """The one planner: episode specs of an experiment on a resolved config.

    Workers rebuild a catalogue experiment from its threat and variant; a
    ``payload`` spec travels inside every unit instead, and its own
    defence components make the defended unit.
    """
    body = payload.to_dict() if payload is not None else None

    def unit(role: str, mechanism: Optional[str] = None) -> EpisodeSpec:
        return EpisodeSpec(experiment.threat_key, experiment.variant, role,
                           config, mechanism, experiment=body)

    defended = None
    if mechanism_key is not None or (payload is not None and payload.defenses):
        defended = unit("defended", mechanism_key)
    return PlannedExperiment(experiment=experiment, baseline=unit("baseline"),
                             attacked=unit("attacked"), defended=defended,
                             mechanism_key=mechanism_key)


def plan_threat_experiment(threat_key: str,
                           base_config: Optional[ScenarioConfig] = None,
                           variant: Optional[str] = None,
                           mechanism_key: Optional[str] = None,
                           replicate: int = 0) -> PlannedExperiment:
    """Resolve one (threat, variant[, mechanism]) into episode specs.

    The spec config is fully resolved: the experiment's scenario
    overrides, the mechanism's config requirements, and the derived
    per-experiment seed (``derive_seed(root, threat_key, variant)`` with
    the root taken from ``base_config.seed``).  Baseline/attacked/
    defended specs share the config, so their metrics are comparable and
    the runner can share baselines across mechanisms with identical
    requirements.  ``replicate`` selects a decorrelated seed stream for
    replicated campaigns; replicate 0 is the canonical derivation.
    """
    base = base_config or ScenarioConfig(duration=90.0)
    experiment = threat_experiment(threat_key, base, variant=variant)
    requirements = (defense_stack(mechanism_key).requirements
                    if mechanism_key is not None else {})
    seed = derive_replicate_seed(base.seed, threat_key, experiment.variant,
                                 replicate)
    config = experiment.config.with_overrides(seed=seed, **requirements)
    return _plan(experiment, config, mechanism_key)


def _plan_cells(cells: Sequence[tuple], base_config: Optional[ScenarioConfig],
                seed_replicates: int) -> list[list[PlannedExperiment]]:
    """Plan every ``(threat, variant, mechanism)`` cell at each replicate."""
    if seed_replicates < 1:
        raise ValueError("seed_replicates must be >= 1")
    with obs.timed("campaign.plan"):
        return [[plan_threat_experiment(threat, base_config, variant,
                                        mechanism, replicate)
                 for replicate in range(seed_replicates)]
                for threat, variant, mechanism in cells]


# --------------------------------------------------------------------------
# Execution and aggregation
# --------------------------------------------------------------------------

def _execute(plans: Sequence[Sequence[PlannedExperiment]],
             runner: Optional[CampaignRunner]) -> dict:
    """Run every planned unit on ``runner`` (a serial one by default)."""
    engine = runner if runner is not None else CampaignRunner()
    return engine.run([spec for reps in plans for plan in reps
                       for spec in plan.specs()])


def _role_stats(reps: Sequence[PlannedExperiment], records: dict,
                role: str) -> tuple[float, float]:
    """Replicate mean and spread of the headline metric for one role.

    A single replicate is its own value, bit for bit (``-0.0``
    included, which a sum starting at ``0`` would lose).
    """
    metric = reps[0].experiment.metric_name
    values = [records[getattr(plan, role).key].extract_metric(metric)
              for plan in reps]
    if len(values) == 1:
        return values[0], 0.0
    from repro.sweep.aggregate import summary_stats

    stats = summary_stats(values)
    return stats["mean"], stats["std"]


def _outcome(reps: Sequence[PlannedExperiment],
             records: dict) -> ThreatOutcome:
    """Baseline vs attacked over one experiment's replicates; the verdict
    is taken on the means, observables come from replicate 0."""
    experiment = reps[0].experiment
    baseline, baseline_std = _role_stats(reps, records, "baseline")
    attacked, attacked_std = _role_stats(reps, records, "attacked")
    observables = records[reps[0].attacked.key].prefixed_observables()
    return ThreatOutcome(threat_key=experiment.threat_key,
                         variant=experiment.variant,
                         metric_name=experiment.metric_name,
                         baseline_value=baseline, attacked_value=attacked,
                         effect_present=_verdict(experiment, baseline,
                                                 attacked),
                         attack_observables=observables,
                         baseline_std=baseline_std,
                         attacked_std=attacked_std, replicates=len(reps))


def _cell(reps: Sequence[PlannedExperiment], records: dict) -> MatrixCell:
    """One Table III cell: :func:`_outcome` plus the defended role."""
    outcome = _outcome(reps, records)
    defended, defended_std = _role_stats(reps, records, "defended")
    return MatrixCell(mechanism_key=reps[0].mechanism_key,
                      threat_key=outcome.threat_key,
                      metric_name=outcome.metric_name,
                      baseline_value=outcome.baseline_value,
                      attacked_value=outcome.attacked_value,
                      defended_value=defended,
                      baseline_std=outcome.baseline_std,
                      attacked_std=outcome.attacked_std,
                      defended_std=defended_std, replicates=len(reps),
                      detection=records[reps[0].defended.key].detection)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def run_experiment_spec(spec: ExperimentSpec,
                        base_config: Optional[ScenarioConfig] = None, *,
                        runner: Optional[CampaignRunner] = None
                        ) -> ExperimentSpecRun:
    """Run a declarative experiment spec end to end.

    Executes baseline and attacked episodes (and, when the spec declares
    defence components, a defended episode) on ``base_config`` as given
    -- no seed derivation -- through ``runner``, and verdicts the
    headline metric like the campaigns do.
    """
    base = base_config or ScenarioConfig(duration=90.0)
    plan = _plan(spec.build(base), base, payload=spec)
    records = _execute([[plan]], runner)
    defended_value = None
    if plan.defended is not None:
        defended_value, _ = _role_stats([plan], records, "defended")
    return ExperimentSpecRun(spec=spec, outcome=_outcome([plan], records),
                             defended_value=defended_value)


def run_threat_catalogue(base_config: Optional[ScenarioConfig] = None,
                         threats: Optional[Sequence[str]] = None,
                         *,
                         seed_replicates: int = 1,
                         runner: Optional[CampaignRunner] = None
                         ) -> list[ThreatOutcome]:
    """Table II campaign: every catalogued threat, baseline vs attacked.

    Executes through ``runner`` (a fresh serial
    :class:`~repro.core.runner.CampaignRunner` by default); configure
    workers, a result store and traces on the runner.  Results are
    independent of the worker count.

    ``seed_replicates=N`` runs every threat at N derived seeds (sweep
    aggregation semantics: replicate 0 is the canonical stream) and
    reports the replicate mean in ``baseline_value``/``attacked_value``
    with the spread in ``baseline_std``/``attacked_std``; the verdict is
    taken on the means.
    """
    keys = list(threats) if threats is not None else list(taxonomy.THREATS)
    return _run_outcomes([(key, None, None) for key in keys], base_config,
                         seed_replicates, runner)


def highway_variants() -> list[tuple[str, str]]:
    """Catalogued ``(threat, variant)`` cells that run on the highway world.

    Discovery is structural -- any catalogued variant whose config
    overrides carry a ``highway`` section qualifies -- so new highway
    cells join the highway campaign without touching this module.
    """
    from repro.experiments import iter_experiment_specs

    return [(threat, variant)
            for threat, variant, _is_default, spec in iter_experiment_specs()
            if "highway" in spec.config]


def run_highway_catalogue(base_config: Optional[ScenarioConfig] = None,
                          *,
                          seed_replicates: int = 1,
                          runner: Optional[CampaignRunner] = None
                          ) -> list[ThreatOutcome]:
    """Multi-platoon campaign: every highway catalogue cell, baseline vs
    attacked.

    Same semantics as :func:`run_threat_catalogue` (memoisation,
    runner-owned execution settings, derived seeds), restricted to the
    cross-platoon cells from :func:`highway_variants`.
    """
    cells = highway_variants()
    if not cells:
        raise ValueError("the catalogue has no highway variants")
    return _run_outcomes([(threat, variant, None) for threat, variant in cells],
                         base_config, seed_replicates, runner)


def _run_outcomes(cells: Sequence[tuple],
                  base_config: Optional[ScenarioConfig],
                  seed_replicates: int,
                  runner: Optional[CampaignRunner]) -> list[ThreatOutcome]:
    """The catalogue campaigns' shared plan/run/aggregate body."""
    plans = _plan_cells(cells, base_config, seed_replicates)
    records = _execute(plans, runner)
    return [_outcome(reps, records) for reps in plans]


def _matrix_variant(mechanism_key: str, threat_key: str) -> Optional[str]:
    """Matrix cells use the graded variants so mitigation is a ratio, not
    a boolean: entrance gaps for fake manoeuvres, GPS capture for the
    onboard-security sensor cell."""
    if threat_key == "fake_maneuver":
        return "entrance"
    if threat_key == "sensor_spoofing" and mechanism_key == "onboard_security":
        return "gps"
    return None


def run_defense_matrix(base_config: Optional[ScenarioConfig] = None,
                       mechanisms: Optional[Sequence[str]] = None,
                       *,
                       seed_replicates: int = 1,
                       runner: Optional[CampaignRunner] = None
                       ) -> list[MatrixCell]:
    """Table III campaign: each mechanism against each threat it targets.

    Every distinct baseline and attacked episode runs exactly once per
    campaign (mechanisms whose config requirements agree share them), and
    a runner with ``workers > 1`` fans the remaining units over a process
    pool without changing any value.

    ``seed_replicates=N`` replicates every cell over N derived seeds and
    reports replicate means with the spread in the ``*_std`` fields (see
    :func:`run_threat_catalogue`).
    """
    keys = list(mechanisms) if mechanisms is not None else list(taxonomy.MECHANISMS)
    cells = [(threat, _matrix_variant(mechanism, threat), mechanism)
             for mechanism in keys
             for threat in taxonomy.MECHANISMS[mechanism].attack_targets]
    plans = _plan_cells(cells, base_config, seed_replicates)
    records = _execute(plans, runner)
    return [_cell(reps, records) for reps in plans]
