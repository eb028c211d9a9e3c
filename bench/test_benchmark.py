"""Self-tests of the mission benchmark: generators, tracing, metric tables."""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from uavinspect import cli, engine

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_validates(name):
    canonical = cli.normalize_scenario(workloads.WORKLOADS[name](0))
    assert cli.normalize_scenario(canonical) == canonical
    cfg, scene = cli.scenario_from_dict(canonical)
    assert scene.num_points > 0 and cfg.duration > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_deterministic_per_seed(name):
    gen = workloads.WORKLOADS[name]
    assert gen(4) == gen(4)
    assert gen(4) != gen(5)
    _, a = cli.scenario_from_dict(cli.normalize_scenario(gen(4)))
    _, b = cli.scenario_from_dict(cli.normalize_scenario(gen(5)))
    assert a.point_positions.tolist() != b.point_positions.tolist()


def test_desk_box_is_the_shipped_scenario_at_its_seed():
    shipped = cli.load_scenario_dict(str(ROOT / "scenarios" / "desk_box.yaml"))
    generated = workloads.desk_box(workloads.DESK_BOX_SHIPPED_SEED)
    assert cli.normalize_scenario(generated) == shipped


def test_mesh_tower_is_triangles_only():
    _, scene = cli.scenario_from_dict(cli.normalize_scenario(workloads.mesh_tower(0)))
    assert len(scene.triangles) == 204 and not scene.solid_boxes


def _short(name, seed, ticks):
    raw = workloads.WORKLOADS[name](seed)
    raw["mission"]["duration"] = ticks * raw["mission"]["tick"]
    return cli.scenario_from_dict(cli.normalize_scenario(raw))


def _bindings():
    return {(mod.__name__, attr): value
            for mod in tracing.package_modules()
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("name", ["mesh_tower", "fleet_fine"])
def test_tracing_keeps_the_digest_and_restores(name):
    before = _bindings()
    plain = engine.run_mission(*_short(name, 3, 12))
    tracer = tracing.Tracer().install()
    try:
        traced = engine.run_mission(*_short(name, 3, 12))
    finally:
        tracer.restore()
    assert traced.digest() == plain.digest()
    assert _bindings() == before
    for span in ("scene.ray_cast_batch", "scene.line_of_sight", "scene.scene_occupancy",
                 "sensors.lidar_sweep", "sensors.observe", "world.merge_maps",
                 "comms.discover_neighbors", "agents.step_dynamics",
                 "engine.update_ledger"):
        assert tracer.calls[span] > 0, span
    assert tracer.calls["comms.discover_neighbors"] == 12
    assert tracer.counts["scene.ray_cast_batch.rays"] > 0


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["bench/run.py"]
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]], m["name"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
