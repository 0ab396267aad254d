"""Fuzzing the plain-JSON loaders: bad input is a ValueError, never a crash.

Every loader of user JSON builds its scenario config through the one
codec (``ScenarioConfig``), so malformed sections, unknown keys and
ill-typed values must surface as ``ValueError`` naming what is wrong --
from ``ScenarioConfig(**d)``, ``ExperimentSpec.from_dict``,
``SweepSpec.from_dict`` and the counterexample-manifest config alike.
Documents are built from valid ones with random keys and values mixed
in, so the search reaches the checks behind the first one.
"""

import copy
import json
import math
from dataclasses import fields
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.core.experiment import ExperimentSpec
from repro.core.scenario import SECTIONS, ScenarioConfig, apply_overrides
from repro.experiments import iter_experiment_specs
from repro.falsify.corpus import CorpusEntry
from repro.highway.config import PlatoonSpec
from repro.net.channel import ChannelConfig
from repro.sweep import PRESETS, SweepSpec
from repro.sweep.engine import expand_points
from repro.sweep.spec import split_path

# Random keys and values; WORDS are the strings the loaders act on.
KEYS = st.text(max_size=6)
WORDS = st.sampled_from(["shared", "pairwise", "ploeg", "path", "varying",
                         "constant", "auto", "none", "scalar", "vector",
                         "warmup", "duration", "jamming", "grid", "random"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 10**6),
                    st.floats(allow_nan=True, allow_infinity=True),
                    WORDS, st.text(max_size=5))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.one_of(KEYS, WORDS), inner, max_size=3)),
    max_leaves=6)

_LEAVES = {
    "int": st.integers(-2, 40),
    "float": st.one_of(st.floats(-100.0, 2000.0),
                       st.sampled_from([0.0, -1.0, math.inf, math.nan])),
    "bool": st.booleans(),
    "str": WORDS,
    "tuple": st.lists(st.floats(0.0, 5000.0), max_size=3),
}


def _value(f):
    """A value for dataclass field ``f``: mostly well typed, else any
    JSON, so the checks behind a field's type check are reached too."""
    kind = f.type.removeprefix("Optional[").removesuffix("]")
    leaf = _LEAVES.get(kind, st.nothing())
    return st.one_of(leaf, leaf, leaf, JSON)


def section(cls):
    """A plain-JSON object for ``cls`` with known and unknown keys."""
    def field_value(f):
        if cls.__name__ == "HighwayConfig" and f.name == "platoons":
            return st.one_of(st.lists(section(PlatoonSpec), max_size=3),
                             JSON)
        return _value(f)

    known = st.sampled_from(fields(cls)).flatmap(
        lambda f: st.tuples(st.just(f.name), field_value(f)))
    unknown = st.tuples(KEYS, JSON)
    return st.lists(st.one_of(known, known, unknown), max_size=4).map(dict)


def _scenario_value(name):
    f = next(f for f in fields(ScenarioConfig) if f.name == name)
    if name in SECTIONS:
        return st.one_of(section(SECTIONS[name]), JSON)
    return _value(f)


SCENARIO_NAMES = [f.name for f in fields(ScenarioConfig)]
EXPRESSIONS = st.fixed_dictionaries(
    {"$config": st.one_of(st.sampled_from(SCENARIO_NAMES), SCALARS)},
    optional={"plus": SCALARS, "times": SCALARS})

#: ``ScenarioConfig(**doc)`` keyword documents: known names only, as the
#: keyword call itself allows, weighted towards the nested sections.
scenario_docs = st.lists(st.sampled_from(
    [*SECTIONS, *SECTIONS, *SCENARIO_NAMES]).flatmap(
    lambda name: st.tuples(st.just(name), _scenario_value(name))),
    max_size=4).map(dict)

#: Config-override documents as loaders see them: unknown and dotted
#: keys and config expressions too.
override_docs = st.lists(st.one_of(
    st.sampled_from(SCENARIO_NAMES).flatmap(lambda name: st.tuples(
        st.just(name), st.one_of(_scenario_value(name), EXPRESSIONS))),
    st.tuples(st.one_of(KEYS, st.just("channel.bitrate_bps")), JSON)),
    max_size=5).map(dict)


def _assert_round_trip(config):
    # Compared as JSON text: a NaN field never equals itself.
    view = json.dumps(config.to_dict())
    assert json.dumps(ScenarioConfig(**json.loads(view)).to_dict()) == view


REPRO_CHANNEL = {"channel": {"noise_floor": -90}}
REPRO_PLATOON = {"highway": {"platoons": [{"lanes": 0}]}}
REPRO_FADING = {"channel": {"fading_streams": "pairwise"}}


@settings(max_examples=200, deadline=None)
@given(doc=scenario_docs)
@example(doc=REPRO_CHANNEL)
@example(doc=REPRO_PLATOON)
@example(doc=REPRO_FADING)
def test_scenario_config_raises_only_value_error(doc):
    try:
        config = ScenarioConfig(**doc)
    except ValueError:
        return
    assert isinstance(config.channel, ChannelConfig)
    _assert_round_trip(config)


CATALOGUE_DOCS = [spec.to_dict() for *_, spec in iter_experiment_specs()]
EXPERIMENT_KEYS = ["format", "name", "threat", "variant", "config",
                   "attacks", "defenses", "hooks", "metric"]


@st.composite
def experiment_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(CATALOGUE_DOCS)))
    if draw(st.booleans()):
        doc["config"] = draw(override_docs)
    for key in draw(st.lists(st.one_of(st.sampled_from(EXPERIMENT_KEYS),
                                       KEYS), max_size=2)):
        doc[key] = draw(JSON)
    if doc.get("attacks") and isinstance(doc["attacks"], list) \
            and draw(st.booleans()):
        doc["attacks"][0] = draw(st.one_of(JSON, st.fixed_dictionaries(
            {"component": st.one_of(WORDS, JSON)},
            optional={"params": st.dictionaries(KEYS, st.one_of(
                JSON, EXPRESSIONS), max_size=2)})))
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=experiment_docs())
@example(doc={**CATALOGUE_DOCS[0], "config": REPRO_CHANNEL})
@example(doc={**CATALOGUE_DOCS[0], "config": REPRO_PLATOON})
@example(doc={**CATALOGUE_DOCS[0], "config": REPRO_FADING})
def test_experiment_spec_raises_only_value_error(doc):
    try:
        spec = ExperimentSpec.from_dict(doc)
        config = spec.build(ScenarioConfig(duration=60.0)).config
    except ValueError:
        return
    assert isinstance(config.channel, ChannelConfig)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


PRESET_DOCS = [spec.to_dict() for spec in PRESETS.values()]
SWEEP_KEYS = ["format", "name", "threat", "variant", "mechanism", "axes",
              "seed_replicates", "root_seed", "base", "metric", "thresholds"]
AXIS_PATHS = st.one_of(st.sampled_from([
    "duration", "scenario.seed", "channel.noise_floor_dbm", "channel.warp",
    "vehicle.beacon_interval", "highway.lanes", "highway.platoons",
    "attack.power_dbm", "defense.expel", "quantum.flux"]), KEYS, JSON)


@st.composite
def sweep_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(PRESET_DOCS)))
    if draw(st.booleans()):
        doc["base"] = draw(override_docs)
    if draw(st.booleans()):
        doc["axes"] = draw(st.lists(st.one_of(JSON, st.fixed_dictionaries(
            {"path": AXIS_PATHS},
            optional={"values": st.lists(JSON, max_size=3),
                      "sampling": st.one_of(WORDS, JSON),
                      "low": SCALARS, "high": SCALARS,
                      "n": st.one_of(st.integers(-1, 3), JSON),
                      "log": SCALARS})), max_size=2))
    for key in draw(st.lists(st.one_of(st.sampled_from(SWEEP_KEYS), KEYS),
                             max_size=2)):
        doc[key] = draw(JSON)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=sweep_docs())
@example(doc={**PRESET_DOCS[0], "base": REPRO_CHANNEL})
@example(doc={**PRESET_DOCS[0], "base": REPRO_PLATOON})
@example(doc={**PRESET_DOCS[0], "base": REPRO_FADING})
def test_sweep_spec_raises_only_value_error(doc):
    try:
        spec = SweepSpec.from_dict(doc).resolved(
            base_defaults={"duration": 60.0})
        base = ScenarioConfig(**spec.base)
        if all(axis.sampling == "grid" for axis in spec.axes):
            for point in expand_points(spec):
                apply_overrides(base, [
                    (path, value) for path, value in point.values
                    if split_path(path)[0] not in ("attack", "defense")])
    except ValueError:
        return
    assert isinstance(base.channel, ChannelConfig)


@st.composite
def manifest_configs(draw):
    doc = ScenarioConfig(n_vehicles=4, duration=30.0).to_dict()
    doc.update(draw(override_docs))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc.pop(key, None)
    return draw(st.one_of(st.just(doc), JSON))


@settings(max_examples=200, deadline=None)
@given(config=manifest_configs())
@example(config=REPRO_CHANNEL)
@example(config=REPRO_PLATOON)
@example(config=REPRO_FADING)
def test_manifest_config_raises_only_value_error(config):
    entry = CorpusEntry(path=Path("unused"), manifest={"config": config})
    try:
        loaded = entry.load_config()
    except ValueError:
        return
    _assert_round_trip(loaded)
