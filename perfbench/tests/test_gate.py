"""The outcome gate and the benchmark description agree with the code."""

import copy
import json

import pytest

import run
import workloads

ROOT = workloads.HERE.parent


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def reference(request):
    return workloads.load_reference(request.param)


def test_reference_outcome_passes(reference):
    assert reference["seed"] == workloads.DEFAULT_SEED
    assert workloads.digest(reference["outcome"]) == reference["outcome_digest"]
    assert workloads.failed_episodes(reference, reference["outcome"],
                                     dict(reference["episodes"])) == 0


def test_perturbed_episode_counts_as_failed(reference):
    digests = dict(reference["episodes"])
    key = sorted(digests)[0]
    digests[key] = "0" * 64
    assert workloads.failed_episodes(reference, reference["outcome"],
                                     digests) == 1
    del digests[key]
    assert workloads.failed_episodes(reference, reference["outcome"],
                                     digests) == 1


def test_perturbed_outcome_fails_every_episode(reference):
    outcome = copy.deepcopy(reference["outcome"])
    if isinstance(outcome, list):
        outcome[0]["attacked"] = outcome[0]["attacked"] + 1e-9
    else:
        outcome["history"][0]["severity"] += 1e-9
    digests = dict(reference["episodes"])
    assert workloads.failed_episodes(reference, outcome,
                                     digests) == len(digests)


def test_defence_and_store_layers_read_zero_where_they_should():
    for name in ("catalogue-n8", "dense-n32"):
        counts = workloads.load_reference(name)["traced_counts"]
        for metric in ("defense.filter_calls", "defense.verdicts",
                       "crypto.ops", "ledger.records"):
            assert counts[metric] == 0, (name, metric)
    for name in workloads.WORKLOADS:
        counts = workloads.load_reference(name)["traced_counts"]
        stored = (counts["store.loads"] + counts["store.writes"]
                  + counts["store.leases"])
        assert (stored > 0) == (name == "falsify-sqlite"), name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
