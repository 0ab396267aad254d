"""The benchmark's four campaign workloads and their outcome gate.

Each workload builds a fresh serial runner (``workers=1``, no threads)
and a zero-argument campaign call from a seed.  The runner keeps every
episode record it returns so the gate can compare episodes one by one
with the committed reference (``reference/<workload>.json``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.core.campaign import run_defense_matrix, run_threat_catalogue
from repro.core.experiment import load_experiment_spec
from repro.core.runner import CampaignRunner
from repro.core.scenario import ScenarioConfig
from repro.falsify import Falsifier, SearchBudget
from repro.net.channel import ChannelConfig
from repro.store import open_store

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 42


class RecordingRunner(CampaignRunner):
    """Serial campaign runner that keeps every record it hands back."""

    def __init__(self, store=None) -> None:
        super().__init__(workers=1, store=store)
        self.records: Dict[str, Any] = {}

    def run(self, specs):
        records = super().run(specs)
        self.records.update(records)
        return records


@dataclass
class Prepared:
    """One campaign call, built and ready to time."""

    runner: RecordingRunner
    call: Callable[[], Any]
    close: Callable[[], None] = lambda: None


def _base(seed: int, n_vehicles: int, duration: float, kernel: str = "scalar",
          fading: str = "shared") -> ScenarioConfig:
    # Same construction as the CLI's base config.
    return ScenarioConfig(n_vehicles=n_vehicles, duration=duration,
                          warmup=10.0, seed=seed, kernel=kernel,
                          channel=ChannelConfig(fading_streams=fading))


def _catalogue_n8(seed: int, workdir: Path) -> Prepared:
    config = _base(seed, 8, 20.0)
    runner = RecordingRunner()
    return Prepared(runner, lambda: run_threat_catalogue(config,
                                                         runner=runner))


def _dense_n32(seed: int, workdir: Path) -> Prepared:
    config = _base(seed, 32, 15.0, kernel="vector", fading="pairwise")
    runner = RecordingRunner()
    return Prepared(runner, lambda: run_threat_catalogue(
        config, threats=["jamming", "falsification"], runner=runner))


def _matrix_keys(seed: int, workdir: Path) -> Prepared:
    config = _base(seed, 8, 20.0)
    runner = RecordingRunner()
    return Prepared(runner, lambda: run_defense_matrix(
        config, mechanisms=["secret_public_keys"], runner=runner))


def _falsify_sqlite(seed: int, workdir: Path) -> Prepared:
    spec = load_experiment_spec(HERE / "specs" / "insider_surge.json")
    store_dir = Path(tempfile.mkdtemp(prefix="falsify-", dir=workdir))
    store = open_store(f"sqlite:{store_dir / 'store.db'}")
    runner = RecordingRunner(store=store)
    falsifier = Falsifier(runner, root_seed=seed)
    base = _base(seed, 8, 90.0)
    return Prepared(runner, lambda: falsifier.falsify(
        spec, base, SearchBudget(), max_windows=2), store.close)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path], Prepared]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("catalogue-n8",
             "full Table II catalogue, scalar kernel, shared fading, N=8: "
             "event loop, scalar reception and frame sizing, no defences",
             _catalogue_n8),
    Workload("dense-n32",
             "jamming and falsification at N=32 on the vector kernel with "
             "pairwise fading: delivery events, heap and array reception",
             _dense_n32),
    Workload("matrix-keys",
             "Table III secret_public_keys row, N=8: defence filters, "
             "HMAC crypto, freshness and the verdict ledger",
             _matrix_keys),
    Workload("falsify-sqlite",
             "falsifier on insider_surge at the CLI budget against a fresh "
             "sqlite store: store, leases, runner and search bookkeeping",
             _falsify_sqlite),
)}


# --------------------------------------------------------------------------
# Outcomes
# --------------------------------------------------------------------------

def outcome_of(result: Any) -> Any:
    """Plain-JSON view of a campaign call's result: Table II verdicts and
    values, matrix cells with detection summaries, or the falsifier's
    violation and candidate history."""
    if isinstance(result, list):
        rows = []
        for item in result:
            if hasattr(item, "mechanism_key"):
                rows.append({"mechanism": item.mechanism_key,
                             "threat": item.threat_key,
                             "metric": item.metric_name,
                             "baseline": item.baseline_value,
                             "attacked": item.attacked_value,
                             "defended": item.defended_value,
                             "mitigation": item.mitigation,
                             "detection": item.detection})
            else:
                rows.append({"threat": item.threat_key,
                             "variant": item.variant,
                             "metric": item.metric_name,
                             "baseline": item.baseline_value,
                             "attacked": item.attacked_value,
                             "effect": item.effect_present})
        return _plain(rows)
    counterexample = result.counterexample
    return _plain({
        "found": result.found,
        "episodes_used": result.episodes_used,
        "baseline": (result.baseline.describe()
                     if result.baseline is not None else None),
        "violation": (counterexample.verdict.describe()
                      if counterexample is not None else None),
        "counterexample": (counterexample.schedule.label()
                           if counterexample is not None else None),
        "threshold_intensity": result.threshold_intensity,
        "history": result.history,
    })


def candidates_of(result: Any) -> int:
    return len(result.history) if hasattr(result, "history") else 0


def _plain(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def episode_digests(records: Dict[str, Any]) -> Dict[str, str]:
    """Digest of each episode's simulated content.  Wall time and the
    timers inside ``observability`` vary run to run and are left out;
    the observability counters are exact and stay in."""
    digests = {}
    for key, record in records.items():
        body = dataclasses.asdict(record)
        body.pop("wall_time")
        body["observability"] = body["observability"].get("counters", {})
        digests[key] = digest(body)
    return digests


# --------------------------------------------------------------------------
# The gate
# --------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Optional[dict]:
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def failed_episodes(reference: dict, outcome: Any,
                    digests: Dict[str, str]) -> int:
    """Episodes of one call whose outcome differs from the reference.

    An episode fails when its record digest differs or it is missing.
    When every episode matches but the aggregated outcome (verdicts,
    cells, falsifier history) does not, the aggregation is wrong and
    every episode of the call counts as failed.
    """
    expected = reference["episodes"]
    failed = sum(1 for key, value in expected.items()
                 if digests.get(key) != value)
    failed += sum(1 for key in digests if key not in expected)
    if failed == 0 and digest(outcome) != reference["outcome_digest"]:
        failed = max(len(digests), 1)
    return failed
