"""Mission benchmark for uavinspect.

    python3 bench/run.py --workload desk_box --seed 1 --seconds 30 --trace 0

Builds the workload's scenario from the seed, then runs the whole mission
back to back in this one process, as many times as fit in ``--seconds``
(at least twice, so digests can be compared and the timing has repeats),
and prints the end-to-end metrics.  Every time is scaled to a reference
host speed by a fixed kernel timed next to it (hostspeed.py), and tick-loop
times are the best of the repeats, tick by tick.
With ``--trace 1`` it runs one mission untraced and one with every layer
function wrapped, and prints the per-layer metrics instead.  Every mission's
score is replayed from its observation log and every digest is compared; a
failed check prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Attempts are
agent-ticks and failures are safety violations (same-voxel collisions plus
occupied-voxel entries), so ``failed / attempted`` is the violation rate.
See bench/README.md for what each metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "uavinspect" / "__init__.py").is_file():
    sys.exit(f"error: no uavinspect package under {SRC}")
sys.path.insert(0, str(SRC))

from uavinspect import cli, engine  # noqa: E402
import hostspeed  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import DESK_BOX_DIGEST, DESK_BOX_SHIPPED_SEED, WORKLOADS  # noqa: E402

SETUPS_PER_MISSION = 10  # set-ups before each mission, for the setup_s median
MIN_MISSIONS = 2         # missions per untraced run
# Typical host seconds of one mission on the host the bounds were set on.  A
# run repeats the mission max(MIN_MISSIONS, seconds // MISSION_S) times: a
# count fixed by workload and --seconds, so all its runs take the same best-of.
MISSION_S = {"desk_box": 15.0, "mesh_tower": 8.0, "fleet_fine": 7.5}

END_TO_END = [
    ("setup_s", "s"), ("mission_s", "s"), ("ticks_per_s", "1/s"),
    ("tick_p50_ms", "ms"), ("tick_p95_ms", "ms"), ("peak_rss_mib", "MiB"),
    ("q_total", "q"), ("coverage", "ratio"),
]

# scene_occupancy runs once, during set-up; the rest run inside the tick loop
TIMED = [(m, f) for m, f, _, _ in TARGETS if f != "scene_occupancy"]
LAYERS = ("scene", "sensors", "world", "comms", "planning", "agents", "engine")

PER_LAYER = (
    [(f"{m}.{f}.calls", "count") for m, f in TIMED]
    + [(f"{m}.{f}.self_s", "s") for m, f in TIMED]
    + [(f"{layer}.share", "ratio") for layer in LAYERS]
    + [("scene.ray_cast_batch.rays", "count"),
       ("scene.ray_cast_batch.prim_tests", "count"),
       ("scene.scene_occupancy.s", "s"),
       ("sensors.lidar_hit_ratio", "ratio"),
       ("sensors.observe.observations", "count"),
       ("world.integrate_points.points", "count"),
       ("world.carve_free.points", "count"),
       ("world.cells_learned", "count"),
       ("world.learn_ratio", "ratio"),
       ("comms.merges_useful", "count"),
       ("comms.merge_useful_ratio", "ratio"),
       ("planning.waypoints", "count"),
       ("planning.dijkstra_found", "count"),
       ("planning.dijkstra_found_ratio", "ratio"),
       ("engine.loop_s", "s"),
       ("engine.self_s", "s"),
       ("engine.clamp_ratio", "ratio"),
       ("engine.violation_rate", "ratio"),
       ("engine.trace_overhead_s", "s"),
       ("engine.trace_bookkeeping_s", "s"),
       ("cli.scenario_build_s", "s")]
)


class BenchmarkError(Exception):
    """A check on the program's output failed."""


def set_up(workload: str, seed: int):
    """Generate and validate the scenario and build the mission up to tick 0.

    ``engine.run_mission`` is ``_Mission(cfg, scene).run()``; building the
    ``_Mission`` here splits set-up from the tick loop without editing src/.
    Returns (mission, scene, build seconds, set-up seconds).
    """
    t0 = time.perf_counter()
    cfg, scene = cli.scenario_from_dict(cli.normalize_scenario(WORKLOADS[workload](seed)))
    t1 = time.perf_counter()
    mission = engine._Mission(cfg, scene)
    return mission, scene, t1 - t0, time.perf_counter() - t0


class TickClock:
    """Times each tick at the engine's once-per-tick neighbour discovery.

    Before each call it also times ``hostspeed.kernel``, so every tick has a
    measure of the host's speed taken within milliseconds of it.  The
    kernel's time is left out of the tick intervals.
    """

    def __init__(self):
        self.before: list[float] = []   # kernel start, one per tick
        self.after: list[float] = []    # kernel end, just before the call

    def __enter__(self):
        self._original = original = engine.discover_neighbors
        clock, before, after = time.perf_counter, self.before, self.after

        def stamped(*args, **kwargs):
            before.append(clock())
            hostspeed.kernel()
            after.append(clock())
            return original(*args, **kwargs)

        engine.discover_neighbors = stamped
        return self

    def __exit__(self, *exc):
        engine.discover_neighbors = self._original

    def segments(self, start: float, end: float) -> tuple[list, list]:
        """The loop from ``start`` to ``end`` split at each tick's call: the
        host seconds, and the same scaled to the reference host speed by the
        median kernel time of the eleven ticks around each."""
        kernels = [b - a for a, b in zip(self.before, self.after)]
        raw = ([self.before[0] - start]
               + [b - a for a, b in zip(self.after, self.before[1:])]
               + [end - self.after[-1]])
        scaled = []
        for k, seconds in enumerate(raw):
            i = min(k, len(kernels) - 1)
            local = statistics.median(kernels[max(0, i - 5):i + 6])
            scaled.append(seconds * hostspeed.REFERENCE_S / local)
        return raw, scaled


def summarize(result, workload: str, seed: int, digests: set) -> dict:
    """Check one mission's result and keep only the figures the report needs.

    The score is replayed from the observation log, and the digest must match
    every earlier mission of this run (and, for desk_box at its shipped seed,
    the shipped CLI digest).
    """
    ledger = result.ledger
    best = {int(p): 0.0 for p in ledger.point_ids}
    for _tick, _agent, pid, _qb, _qr, q in result.observations:
        if q > ledger.floor and q > best[pid]:
            best[pid] = q
    replay = math.fsum(best[int(p)] for p in ledger.point_ids)
    if replay != result.q_total:
        raise BenchmarkError(f"score replay {replay!r} != q_total {result.q_total!r}")
    digest = result.digest()
    digests.add(digest)
    if len(digests) > 1:
        raise BenchmarkError(f"missions of one workload gave digests {sorted(digests)}")
    if (workload, seed) == ("desk_box", DESK_BOX_SHIPPED_SEED) and digest != DESK_BOX_DIGEST:
        raise BenchmarkError(f"desk_box digest {digest} != shipped {DESK_BOX_DIGEST}")
    agent_ticks = result.num_ticks * len(result.final_maps)
    return {"digest": digest, "q_total": result.q_total,
            "coverage": sum(1 for q in ledger.best_q if q > 0.0) / ledger.num_points,
            "ticks": result.num_ticks, "agent_ticks": agent_ticks,
            "violations": result.violations, "clamp_events": result.clamp_events}


def run_one(workload: str, seed: int, digests: set) -> dict:
    """One whole untraced mission, checked and timed.

    ``segments`` splits the tick loop at each tick's neighbour discovery,
    scaled to reference speed: start to tick 0's call, one interval per
    later tick, last call to end.  ``loop_s`` is their sum in host seconds.
    """
    with TickClock() as clock:
        mission = set_up(workload, seed)[0]
        t1 = time.perf_counter()
        result = mission.run()
        t2 = time.perf_counter()
    out = summarize(result, workload, seed, digests)
    raw, scaled = clock.segments(t1, t2)
    out.update(loop_s=sum(raw), segments=scaled)
    return out


def measure(workload: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    """Untraced missions: returns (missions, metrics, sample notes).

    The host's speed drifts by up to 2x over spells of a second to minutes
    (see README.md).  Two things keep the times steady.  Every time is scaled
    to the reference host's speed by ``hostspeed.kernel`` timed next to it:
    each tick by the kernel runs around that tick, each set-up by three runs
    just before and three just after it.  And the tick loop is timed as the
    best of the run's repeats of each tick: the missions are identical, and a
    slow spell that the scaling misses in one repeat of a tick does not
    count.
    """
    setups, missions, digests = [], [], set()
    for _ in range(max(MIN_MISSIONS, int(seconds // MISSION_S[workload]))):
        for _ in range(SETUPS_PER_MISSION):
            kernels = [hostspeed.timed_kernel() for _ in range(3)]
            setup_s = set_up(workload, seed)[3]
            kernels += [hostspeed.timed_kernel() for _ in range(3)]
            setups.append(setup_s * hostspeed.REFERENCE_S / statistics.median(kernels))
        missions.append(run_one(workload, seed, digests))
    best = [min(col) for col in zip(*(m["segments"] for m in missions))]
    latencies = best[1:-1]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    setup_s = statistics.median(setups)
    first = missions[0]
    metrics = {
        "setup_s": setup_s,
        "mission_s": setup_s + sum(best),
        "ticks_per_s": first["ticks"] / sum(best),
        "tick_p50_ms": 1e3 * cuts[49],
        "tick_p95_ms": 1e3 * cuts[94],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "q_total": first["q_total"],
        "coverage": first["coverage"],
    }
    host_s = statistics.median(m["loop_s"] for m in missions)
    repeats = f"best of {len(missions)} missions at reference speed"
    notes = {"setup_s": f"median of {len(setups)} set-ups at reference speed",
             "mission_s": f"{repeats}; median loop {host_s:.3f} host s",
             "ticks_per_s": repeats,
             "tick_p50_ms": f"{len(latencies)} ticks, {repeats}",
             "tick_p95_ms": f"{len(latencies)} ticks, {repeats}"}
    return missions, metrics, notes


def measure_traced(workload: str, seed: int) -> tuple[list, dict]:
    """One untraced and one traced mission: returns (missions, per-layer metrics)."""
    digests: set = set()
    plain = run_one(workload, seed, digests)

    tracer = Tracer().install()
    try:
        mission, scene, build_s, _ = set_up(workload, seed)
        occupancy_s = tracer.self_s["scene.scene_occupancy"]
        tracer.reset()
        t1 = time.perf_counter()
        result = mission.run()
        loop_s = time.perf_counter() - t1
    finally:
        tracer.restore()
    traced = summarize(result, workload, seed, digests)
    primitives = len(scene.solid_boxes) + len(scene.triangles)

    def ratio(a, b):
        return a / b if b else 0.0

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    engine_self = loop_s - sum(self_s.values()) - tracer.overhead_s
    agent_ticks = traced["agent_ticks"]
    metrics = {}
    for m, f in TIMED:
        metrics[f"{m}.{f}.calls"] = calls[f"{m}.{f}"]
        metrics[f"{m}.{f}.self_s"] = self_s[f"{m}.{f}"]
    for layer in LAYERS:
        layer_s = sum(self_s[f"{m}.{f}"] for m, f in TIMED if m == layer)
        if layer == "engine":
            layer_s += engine_self
        metrics[f"{layer}.share"] = layer_s / loop_s
    rays = counts["scene.ray_cast_batch.rays"]
    integrated = counts["world.integrate_points.points"] + counts["world.carve_free.points"]
    metrics.update({
        "scene.ray_cast_batch.rays": rays,
        "scene.ray_cast_batch.prim_tests": rays * primitives,
        "scene.scene_occupancy.s": occupancy_s,
        "sensors.lidar_hit_ratio": ratio(counts["sensors.lidar_sweep.hits"],
                                         counts["sensors.lidar_sweep.rays"]),
        "sensors.observe.observations": counts["sensors.observe.observations"],
        "world.integrate_points.points": counts["world.integrate_points.points"],
        "world.carve_free.points": counts["world.carve_free.points"],
        "world.cells_learned": counts["world.cells_learned"],
        "world.learn_ratio": ratio(counts["world.cells_learned"], integrated),
        "comms.merges_useful": counts["comms.merges_useful"],
        "comms.merge_useful_ratio": ratio(counts["comms.merges_useful"],
                                          calls["world.merge_maps"]),
        "planning.waypoints": counts["planning.waypoints"],
        "planning.dijkstra_found": counts["planning.dijkstra_found"],
        "planning.dijkstra_found_ratio": ratio(counts["planning.dijkstra_found"],
                                               calls["planning.dijkstra_path"]),
        "engine.loop_s": loop_s,
        "engine.self_s": engine_self,
        "engine.clamp_ratio": traced["clamp_events"] / agent_ticks,
        "engine.violation_rate": traced["violations"] / agent_ticks,
        "engine.trace_overhead_s": loop_s - plain["loop_s"],
        "engine.trace_bookkeeping_s": tracer.overhead_s,
        "cli.scenario_build_s": build_s,
    })
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    try:
        if args.trace:
            missions, values = measure_traced(args.workload, args.seed)
            notes = {}
        else:
            missions, values, notes = measure(args.workload, args.seed, args.seconds)
        correct = True
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        missions, values, notes, correct = [], {}, {}, False

    attempted = sum(m["agent_ticks"] for m in missions)
    failed = sum(m["violations"] for m in missions)
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {value!r} {units[name]}{note}")
    if missions:
        print(f"{args.workload} missions = {len(missions)}, digest = {missions[0]['digest']}, "
              f"violations = {failed}/{attempted} agent-ticks")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
