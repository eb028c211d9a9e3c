"""Scenario loading and the mission command-line entry point.

Scenario files are YAML with seven sections: mission, agents, camera, lidar,
gimbal, tracking, scene.  Unknown keys are rejected; omitted keys take the
field defaults of the config classes.  Angles in scenario files are degrees;
internally everything is radians.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys

import yaml

from .agents import GimbalLimits, TrackingConfig
from .engine import (AgentSpec, MissionConfig, run_mission, write_outputs)
from .errors import ConfigurationError
from .scene import InterestPoint, Scene, scatter_box_face_points
from .sensors import CameraConfig, LidarConfig
from .world import BoundingBox

log = logging.getLogger("uavinspect")


def _defaults(cls, *keys: str) -> dict:
    """Scenario-file defaults read off the field defaults of a config class.

    A key ending in ``_deg`` is its radian field in degrees, rounded so that
    60 degrees reads back as 60.0 rather than 59.99999999999999.  A field
    without a default (a required value) maps to None.
    """
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    out = {}
    for key in keys:
        if key.endswith("_deg"):
            out[key] = round(math.degrees(fields[key[:-len("_deg")]]), 9)
        else:
            out[key] = None if fields[key] is dataclasses.MISSING else fields[key]
    return out


# waypoint_standoff None means one voxel, resolved by MissionConfig.standoff;
# seed is the fallback seed of the interest-point scatter, not a config field
_MISSION_DEFAULTS = {**_defaults(MissionConfig, "duration", "tick", "voxel_size", "horizon",
                                 "waypoint_standoff", "capture_stride"),
                     "seed": 0}
_CAMERA_DEFAULTS = _defaults(CameraConfig, "fov_h_deg", "fov_v_deg", "range", "focal",
                             "pixel_width", "exposure", "desired_resolution",
                             "quality_floor")
_LIDAR_DEFAULTS = _defaults(LidarConfig, "range", "beams", "azimuth_steps", "servo_period")
_GIMBAL_DEFAULTS = _defaults(GimbalLimits, "inclination_min_deg", "inclination_max_deg",
                             "azimuth_min_deg", "azimuth_max_deg")
_TRACKING_DEFAULTS = _defaults(TrackingConfig, "kp", "kd", "a_max")
_AGENT_DEFAULTS = _defaults(AgentSpec, "omega_max")

_AGENT_KEYS = {"kind", "start", "v_max", "omega_max"}
_SCENE_KEYS = {"solid_boxes", "triangles", "inspection_boxes", "interest_points"}
_POINT_KEYS = {"explicit", "scatter"}
_SCATTER_KEYS = {"min", "max", "count", "seed", "faces"}
_TOP_KEYS = {"mission", "agents", "camera", "lidar", "gimbal", "tracking", "scene"}


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigurationError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {sorted(unknown)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _vec3(value, path: str) -> list[float]:
    node = _expect_list(value, path)
    if len(node) != 3:
        raise ConfigurationError(f"{path}: expected 3 components, got {len(node)}")
    return [_number(c, f"{path}[{i}]") for i, c in enumerate(node)]


def _section(raw: dict, name: str, defaults: dict, int_keys=()) -> dict:
    node = _expect_mapping(raw.get(name, {}) or {}, name)
    _check_keys(node, defaults, name)
    out = {}
    for key, default in defaults.items():
        if key in node and node[key] is not None:
            if key in int_keys:
                out[key] = _integer(node[key], f"{name}.{key}")
            else:
                out[key] = _number(node[key], f"{name}.{key}")
        else:
            out[key] = default
    return out


def normalize_scenario(raw: dict) -> dict:
    """Validate a raw scenario mapping and fill in every default.

    The result is a canonical plain dict: normalizing it again is a no-op, and
    serializing then reparsing reproduces it exactly.
    """
    raw = _expect_mapping(raw, "scenario")
    _check_keys(raw, _TOP_KEYS, "scenario")

    mission = _section(raw, "mission", _MISSION_DEFAULTS,
                       int_keys=("horizon", "capture_stride", "seed"))
    if mission["duration"] is None:
        raise ConfigurationError("mission.duration is required")
    camera = _section(raw, "camera", _CAMERA_DEFAULTS)
    lidar = _section(raw, "lidar", _LIDAR_DEFAULTS, int_keys=("beams", "azimuth_steps"))
    gimbal = _section(raw, "gimbal", _GIMBAL_DEFAULTS)
    tracking = _section(raw, "tracking", _TRACKING_DEFAULTS)

    agents_node = _expect_list(raw.get("agents"), "agents") if raw.get("agents") else []
    if not agents_node:
        raise ConfigurationError("agents: at least one agent is required")
    agents = []
    for i, item in enumerate(agents_node):
        path = f"agents[{i}]"
        node = _expect_mapping(item, path)
        _check_keys(node, _AGENT_KEYS, path)
        kind = node.get("kind")
        if kind not in ("explorer", "photographer"):
            raise ConfigurationError(f"{path}.kind must be explorer or photographer")
        entry = {
            "kind": kind,
            "start": _vec3(node.get("start"), f"{path}.start"),
            "v_max": _number(node["v_max"], f"{path}.v_max") if node.get("v_max") is not None else None,
            "omega_max": _number(node.get("omega_max", _AGENT_DEFAULTS["omega_max"]),
                                 f"{path}.omega_max"),
        }
        agents.append(entry)
    n_e = sum(1 for a in agents if a["kind"] == "explorer")
    if n_e not in (1, 2):
        raise ConfigurationError(f"agents: explorer count must be 1 or 2, got {n_e}")

    scene_node = _expect_mapping(raw.get("scene", {}) or {}, "scene")
    _check_keys(scene_node, _SCENE_KEYS, "scene")

    def _boxes(key: str, required: bool) -> list[dict]:
        items = scene_node.get(key) or []
        items = _expect_list(items, f"scene.{key}")
        if required and not items:
            raise ConfigurationError(f"scene.{key} is required and must be non-empty")
        out = []
        for i, b in enumerate(items):
            path = f"scene.{key}[{i}]"
            node = _expect_mapping(b, path)
            _check_keys(node, {"min", "max"}, path)
            out.append({"min": _vec3(node.get("min"), f"{path}.min"),
                        "max": _vec3(node.get("max"), f"{path}.max")})
        return out

    solid = _boxes("solid_boxes", required=False)
    inspection = _boxes("inspection_boxes", required=True)

    triangles = []
    for i, tri in enumerate(_expect_list(scene_node.get("triangles") or [], "scene.triangles")):
        path = f"scene.triangles[{i}]"
        node = _expect_list(tri, path)
        if len(node) != 3:
            raise ConfigurationError(f"{path}: a triangle needs exactly 3 vertices")
        triangles.append([_vec3(v, f"{path}[{j}]") for j, v in enumerate(node)])

    points_node = _expect_mapping(scene_node.get("interest_points", {}) or {},
                                  "scene.interest_points")
    _check_keys(points_node, _POINT_KEYS, "scene.interest_points")
    explicit = []
    for i, p in enumerate(_expect_list(points_node.get("explicit") or [],
                                       "scene.interest_points.explicit")):
        path = f"scene.interest_points.explicit[{i}]"
        node = _expect_mapping(p, path)
        _check_keys(node, {"id", "position", "normal"}, path)
        explicit.append({
            "id": _integer(node.get("id", i), f"{path}.id"),
            "position": _vec3(node.get("position"), f"{path}.position"),
            "normal": _vec3(node.get("normal"), f"{path}.normal"),
        })
    scatter = []
    for i, s in enumerate(_expect_list(points_node.get("scatter") or [],
                                       "scene.interest_points.scatter")):
        path = f"scene.interest_points.scatter[{i}]"
        node = _expect_mapping(s, path)
        _check_keys(node, _SCATTER_KEYS, path)
        faces = node.get("faces")
        if faces is not None:
            faces = [str(f) for f in _expect_list(faces, f"{path}.faces")]
        scatter.append({
            "min": _vec3(node.get("min"), f"{path}.min"),
            "max": _vec3(node.get("max"), f"{path}.max"),
            "count": _integer(node.get("count"), f"{path}.count"),
            "seed": _integer(node["seed"], f"{path}.seed") if node.get("seed") is not None else None,
            "faces": faces,
        })

    return {
        "mission": mission,
        "agents": agents,
        "camera": camera,
        "lidar": lidar,
        "gimbal": gimbal,
        "tracking": tracking,
        "scene": {
            "solid_boxes": solid,
            "triangles": triangles,
            "inspection_boxes": inspection,
            "interest_points": {"explicit": explicit, "scatter": scatter},
        },
    }


def _config(cls, section: dict, **fields):
    """A config class built from its canonical section plus the given fields.

    A key ending in ``_deg`` sets its radian field, the inverse of _defaults.
    """
    for key, value in section.items():
        if key.endswith("_deg"):
            key, value = key[:-len("_deg")], math.radians(value)
        fields[key] = value
    return cls(**fields)


def scenario_from_dict(canonical: dict) -> tuple[MissionConfig, Scene]:
    """Build the mission config and ground-truth scene from a canonical dict."""
    m = canonical["mission"]
    agents = tuple(_config(AgentSpec, {**a, "start": tuple(a["start"])})
                   for a in canonical["agents"])
    cfg = _config(MissionConfig, {k: v for k, v in m.items() if k != "seed"},
                  agents=agents,
                  camera=_config(CameraConfig, canonical["camera"]),
                  lidar=_config(LidarConfig, canonical["lidar"]),
                  gimbal=_config(GimbalLimits, canonical["gimbal"]),
                  tracking=_config(TrackingConfig, canonical["tracking"]))

    sc = canonical["scene"]
    solid = [BoundingBox(tuple(b["min"]), tuple(b["max"])) for b in sc["solid_boxes"]]
    inspection = [BoundingBox(tuple(b["min"]), tuple(b["max"]))
                  for b in sc["inspection_boxes"]]
    points: list[InterestPoint] = [
        InterestPoint(p["id"], tuple(p["position"]), tuple(p["normal"]))
        for p in sc["interest_points"]["explicit"]
    ]
    for rule in sc["interest_points"]["scatter"]:
        seed = rule["seed"] if rule["seed"] is not None else m["seed"]
        faces = tuple(rule["faces"]) if rule["faces"] else ("x-", "x+", "y-", "y+", "z-", "z+")
        box = BoundingBox(tuple(rule["min"]), tuple(rule["max"]))
        points.extend(scatter_box_face_points(box, rule["count"], seed,
                                              faces=faces, id_offset=len(points)))
    ids = [p.id for p in points]
    if len(ids) != len(set(ids)):
        raise ConfigurationError("interest point ids are not unique")
    scene = Scene(solid_boxes=solid,
                  triangles=sc["triangles"] if sc["triangles"] else None,
                  interest_points=points, inspection_boxes=inspection)
    return cfg, scene


def load_scenario_dict(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raise ConfigurationError(f"{path} is empty")
    return normalize_scenario(raw)


def parse_scenario(path: str) -> tuple[MissionConfig, Scene]:
    """Load, validate, and build a scenario file."""
    return scenario_from_dict(load_scenario_dict(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uavinspect",
        description="Run a cooperative multi-UAV inspection mission headlessly.",
    )
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument("--out", help="output directory for run artifacts")
    parser.add_argument("--seed", type=int, help="override mission.seed")
    parser.add_argument("--duration", type=float, help="override mission.duration (s)")
    parser.add_argument("--voxel-size", type=float, help="override mission.voxel_size (m)")
    parser.add_argument("--quality-floor", type=float, help="override camera.quality_floor")
    parser.add_argument("--horizon", type=int, help="override mission.horizon (voxels)")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    args = parser.parse_args(argv)

    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        canonical = load_scenario_dict(args.scenario)
        if args.seed is not None:
            canonical["mission"]["seed"] = args.seed
            scatter = canonical["scene"]["interest_points"]["scatter"]
            if all(rule["seed"] is not None for rule in scatter):
                print(f"warning: --seed {args.seed} changes nothing: no interest-point "
                      "scatter rule takes its seed from mission.seed", file=sys.stderr)
        if args.duration is not None:
            canonical["mission"]["duration"] = args.duration
        if args.voxel_size is not None:
            canonical["mission"]["voxel_size"] = args.voxel_size
        if args.horizon is not None:
            canonical["mission"]["horizon"] = args.horizon
        if args.quality_floor is not None:
            canonical["camera"]["quality_floor"] = args.quality_floor
        cfg, scene = scenario_from_dict(canonical)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    log.info("running mission: %.1f s simulated, %d agents, %d interest points",
             cfg.duration, len(cfg.agents), scene.num_points)
    result = run_mission(cfg, scene)
    if args.out:
        write_outputs(result, args.out)
        log.info("artifacts written to %s", args.out)

    scored = int((result.ledger.best_q > 0).sum())
    total = result.ledger.num_points
    print(f"inspection score Q = {result.q_total:.4f}")
    print(f"points scored: {scored}/{total}")
    print(f"violations: {result.violations} (same-voxel {result.collisions_same_voxel}, "
          f"occupied-entry {result.occupied_entries})")
    print(f"structure cells held free: {result.free_structure_cells} (cells x ticks "
          "over all agent maps)")
    return 0 if result.violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
