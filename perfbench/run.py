#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload catalogue-n8 --seed 42 \\
        --seconds 28 --trace 0

One process runs one workload serially: a single closed-loop client,
``workers=1``, no threads.  With ``--trace 0`` it times whole campaign
calls back to back for ``--seconds`` and prints the end-to-end metrics.
With ``--trace 1`` it makes one untraced and one traced call, checks that
both produce the same outcome and counts, and prints the per-layer
metrics.  Every call's outcome is checked: at the default seed against
``reference/<workload>.json``, at any seed against the run's other calls.
The last line of stdout is the JSON result; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3

END_TO_END = {
    "wall_s": "s",
    "sim_vehicle_s_per_s": "veh-s/s",
    "unit_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_COUNT = "count"
PER_LAYER = {
    "sim.events": _COUNT, "sim.schedules": _COUNT, "sim.loop_self_s": "s",
    "channel.broadcasts": _COUNT, "channel.rx_attempts": _COUNT,
    "channel.pdr": "ratio", "channel.broadcast_s": "s",
    "channel.sense_s": "s",
    "radio.deliveries": _COUNT, "radio.deliver_s": "s",
    "mac.enqueued": _COUNT, "mac.backoffs": _COUNT, "mac.drop_frac": "ratio",
    "mac.callback_s": "s",
    "messages.size_bits_calls": _COUNT, "messages.signing_bytes_calls": _COUNT,
    "messages.encode_s": "s",
    "platoon.beacons": _COUNT, "platoon.beacon_s": "s",
    "platoon.control_ticks": _COUNT, "platoon.control_s": "s",
    "platoon.rx_s": "s", "platoon.predecessor_calls": _COUNT,
    "platoon.dynamics_calls": _COUNT,
    "defense.filter_calls": _COUNT, "defense.filter_s": "s",
    "defense.verdicts": _COUNT,
    "crypto.ops": _COUNT, "crypto.s": "s", "crypto.reject_frac": "ratio",
    "ledger.records": _COUNT, "ledger.s": "s",
    "metrics.samples": _COUNT, "metrics.sample_s": "s",
    "metrics.compute_s": "s",
    "scenario.builds": _COUNT, "scenario.build_s": "s",
    "runner.units": _COUNT, "runner.computed": _COUNT,
    "runner.overhead_s": "s",
    "store.loads": _COUNT, "store.writes": _COUNT, "store.leases": _COUNT,
    "store.hit_frac": "ratio", "store.s": "s",
    "falsify.candidates": _COUNT, "falsify.search_self_s": "s",
    "other.self_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class GateError(RuntimeError):
    """The benchmark cannot vouch for its own measurement."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference outcome and counts of "
                             "this workload at the default seed")
    return parser.parse_args(argv)


class Call:
    """Everything one timed campaign call produced."""

    def __init__(self, wall: float, result, runner) -> None:
        import workloads

        report = runner.report()
        self.wall = wall
        self.outcome = workloads.outcome_of(result)
        self.digests = workloads.episode_digests(runner.records)
        self.counters = dict(sorted(report.counters.items()))
        self.units = len(report.units)
        self.computed = report.computed
        self.unit_walls = [u.wall_time for u in report.units
                           if u.source == "computed"]
        self.candidates = workloads.candidates_of(result)

    def same_as(self, other: "Call") -> bool:
        return (self.outcome == other.outcome
                and self.digests == other.digests
                and self.counters == other.counters)


def timed_call(workload, seed: int, workdir: Path) -> Call:
    prepared = workload.prepare(seed, workdir)
    try:
        start = time.perf_counter()
        result = prepared.call()
        wall = time.perf_counter() - start
    finally:
        prepared.close()
    return Call(wall, result, prepared.runner)


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import the suite and build the
    runner (and store) for one call, then exit."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-probe", "--workload", workload,
                        "--seed", str(seed)],
                       cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


class Gate:
    """Counts failed episodes and collects reasons the run is not correct."""

    def __init__(self, workload: str, seed: int) -> None:
        import workloads

        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference = None
        if seed == workloads.DEFAULT_SEED:
            self.reference = workloads.load_reference(workload)
            if self.reference is None:
                raise GateError(f"no reference for {workload}; run with "
                                "--write-reference first")

    def check(self, call: Call, first: "Call | None") -> None:
        import workloads

        self.attempted += len(call.digests)
        if self.reference is not None:
            failed = workloads.failed_episodes(self.reference, call.outcome,
                                               call.digests)
            self.failed += failed
            if failed:
                self.problems.append(f"{failed} episodes differ from the "
                                     "reference")
            if call.counters != self.reference["counters"]:
                self.problems.append("RunReport counters differ from the "
                                     "reference")
        if first is not None and not call.same_as(first):
            self.problems.append("repeated call of one seed disagrees")

    def raised(self, expected_episodes: int) -> None:
        traceback.print_exc()
        self.attempted += expected_episodes
        self.failed += expected_episodes
        self.problems.append("campaign call raised")

    def expected_episodes(self) -> int:
        if self.reference is not None:
            return len(self.reference["episodes"])
        return 1


def measure(args, workload, workdir: Path) -> dict:
    """Untraced run: set-up probes, then back-to-back timed calls."""
    gate = Gate(args.workload, args.seed)
    calls: list = []
    start = time.perf_counter()
    while True:
        try:
            call = timed_call(workload, args.seed, workdir)
        except Exception:
            gate.raised(gate.expected_episodes())
            break
        gate.check(call, calls[0] if calls else None)
        if not calls:
            # Later calls reuse freed memory unevenly; the first call's
            # peak does not depend on how many calls fit the run.
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        calls.append(call)
        elapsed = time.perf_counter() - start
        if elapsed + call.wall > args.seconds:
            break
    if not calls:
        raise GateError("no campaign call completed")
    setup = setup_seconds(args.workload, args.seed)

    from repro.platoon.vehicle import VehicleConfig

    period = VehicleConfig().control_period
    first = calls[0]
    print(f"calls {len(calls)} walls {[round(c.wall, 4) for c in calls]}")
    print(f"outcome_digest {args.workload} seed={args.seed} "
          f"{_outcome_digest(first)}")
    metrics = {
        "wall_s": statistics.median(c.wall for c in calls),
        "sim_vehicle_s_per_s": statistics.median(
            c.counters.get("dynamics.steps", 0) * period / c.wall
            for c in calls),
        "unit_p50_s": statistics.median(
            w for c in calls for w in c.unit_walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss / 1024.0,
    }
    return _result(gate, metrics, END_TO_END)


def _outcome_digest(call: Call) -> str:
    import workloads

    return workloads.digest({"outcome": call.outcome,
                             "episodes": call.digests,
                             "counters": call.counters})


def traced(args, workload, workdir: Path, write_reference: bool = False):
    """One untraced and one traced call; per-layer metrics."""
    import tracing
    import workloads

    gate = Gate(args.workload, args.seed) if not write_reference else None
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        raise GateError(f"span wrappers present before tracing: {leftovers}")
    plain = timed_call(workload, args.seed, workdir)

    tracer = tracing.Tracer()
    stats = tracing.EpisodeStats()
    prepared = workload.prepare(args.seed, workdir)
    patcher = tracing.instrument(tracer, stats)
    try:
        start = time.perf_counter()
        result = prepared.call()
        wall = time.perf_counter() - start
    finally:
        patcher.restore()
        prepared.close()
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        raise GateError(f"span wrappers left after restore: {leftovers}")
    call = Call(wall, result, prepared.runner)
    if not call.same_as(plain):
        raise GateError("the traced call changed the outcome or counts")

    metrics = tracing.layer_metrics(tracer, stats, call.counters, call.units,
                                    call.computed, call.candidates)
    counts = {name: value for name, value in metrics.items()
              if PER_LAYER[name] == _COUNT}
    coverage = tracing.covered_entry_points(tracer)
    if write_reference:
        _write_reference(args.workload, call, counts, coverage)
        return None

    gate.check(plain, None)
    gate.check(call, plain)
    reference = gate.reference
    if reference is not None:
        if counts != reference["traced_counts"]:
            diff = {k: (v, reference["traced_counts"].get(k))
                    for k, v in counts.items()
                    if reference["traced_counts"].get(k) != v}
            gate.problems.append(f"layer counts differ from the reference: "
                                 f"{diff}")
        if coverage != reference["coverage"]:
            raise GateError(
                "entry points hit differ from the reference: missing "
                f"{sorted(set(reference['coverage']) - set(coverage))}, new "
                f"{sorted(set(coverage) - set(reference['coverage']))}")
    _check_union_coverage()
    metrics["trace.overhead_frac"] = wall / plain.wall - 1.0
    metrics["failed_frac"] = gate.failed / gate.attempted
    print(f"untraced {plain.wall:.4f}s traced {wall:.4f}s")
    print(f"outcome_digest {args.workload} seed={args.seed} "
          f"{_outcome_digest(call)}")
    return _result(gate, metrics, PER_LAYER)


def _check_union_coverage() -> None:
    """Every wrapped entry point must be hit by at least one workload."""
    import tracing
    import workloads

    covered: set = set()
    for name in workloads.WORKLOADS:
        reference = workloads.load_reference(name)
        if reference is None:
            raise GateError(f"no reference for {name}")
        covered.update(reference["coverage"])
    dead = sorted(set(tracing.all_entry_points()) - covered)
    if dead:
        raise GateError(f"wrapped entry points with zero calls on every "
                        f"workload: {dead}")


def _write_reference(workload: str, call: Call, counts: dict,
                     coverage: list) -> None:
    import workloads

    reference = {
        "workload": workload,
        "seed": workloads.DEFAULT_SEED,
        "outcome": call.outcome,
        "outcome_digest": workloads.digest(call.outcome),
        "episodes": call.digests,
        "counters": call.counters,
        "traced_counts": counts,
        "coverage": coverage,
    }
    path = workloads.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def _result(gate: Gate, metrics: dict, units: dict) -> dict:
    for problem in gate.problems:
        print(f"gate: {problem}", file=sys.stderr)
    return {"correct": not gate.problems,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_probe:
            workload.prepare(args.seed, workdir).close()
            return 0
        if args.write_reference:
            if args.seed != workloads.DEFAULT_SEED:
                print("error: references are recorded at the default seed",
                      file=sys.stderr)
                return 2
            traced(args, workload, workdir, write_reference=True)
            return 0
        result = (traced(args, workload, workdir) if args.trace
                  else measure(args, workload, workdir))
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
