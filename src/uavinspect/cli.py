"""Scenario loading and the mission command-line entry point.

Scenario files are YAML with seven sections: mission, agents, camera, lidar,
gimbal, tracking, scene.  One table, ``_SCENARIO``, lists every key with its
parser and default; a config section's keys are its class's ruled fields,
whose rules the class checks when it is built.  Unknown keys are rejected; an
omitted or null key takes its default, the field default of its config class,
and a key without a default is required.  Angles in scenario files are
degrees; internally everything is radians.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from dataclasses import MISSING

import yaml

from .agents import KINDS, GimbalLimits, TrackingConfig
from .engine import AgentSpec, MissionConfig, run_mission, write_outputs
from .errors import INTEGER_RULES, ConfigurationError
from .scene import FACES, InterestPoint, Scene, scatter_box_face_points
from .sensors import CameraConfig, LidarConfig
from .world import BoundingBox

log = logging.getLogger("uavinspect")


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigurationError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _number(value, path: str) -> float:
    # NaN compares false, and an int too large for a float compares above the largest
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _optional(parse):
    """A parser that keeps None, an unset optional, and parses any other value."""
    return lambda value, path: None if value is None else parse(value, path)


def _count(value, path: str) -> int:
    count = _integer(value, path)
    if count < 0:
        raise ConfigurationError(f"{path} must be non-negative, got {count}")
    return count


def _one_of(options: tuple[str, ...]):
    """A parser that accepts one of ``options`` and nothing else."""
    def parse(value, path: str) -> str:
        if value not in options:
            raise ConfigurationError(f"{path} must be {' or '.join(options)}")
        return value
    return parse


def _each(item, node: list, path: str) -> list:
    """Each entry of node parsed by ``item`` under the path ``path[i]``.

    A parse does not depend on its path, which only names a failure, so the
    entries are parsed first without one, and again with theirs only when
    one fails.
    """
    try:
        return [item(v, "") for v in node]
    except ConfigurationError:
        pass
    return [item(v, f"{path}[{i}]") for i, v in enumerate(node)]


def _triple(item):
    """A parser for a list of exactly three entries, each parsed by ``item``."""
    def parse(value, path: str) -> list:
        node = _expect_list(value, path)
        if len(node) != 3:
            raise ConfigurationError(f"{path}: expected 3 components, got {len(node)}")
        return _each(item, node, path)
    return parse


_vec3 = _triple(_number)


def _list(item, nonempty: bool = False):
    """A parser for a list, each entry parsed by ``item``; ``nonempty`` rejects []."""
    def parse(value, path: str) -> list:
        node = _expect_list(value, path)
        if nonempty and not node:
            raise ConfigurationError(f"{path} must be non-empty")
        return _each(item, node, path)
    return parse


def _record(node, spec: dict, path: str) -> dict:
    """Check a mapping's keys against ``spec`` and parse each of its values.

    ``spec`` maps each key to ``(parser, default)``.  A missing or null key is
    parsed from its default, and a key whose default is MISSING is required.
    ``path`` is the mapping's dotted path in the file, "" for the file itself.
    """
    where = path or "scenario"
    if not isinstance(node, dict):
        raise ConfigurationError(f"{where}: expected a mapping, got {type(node).__name__}")
    unknown = set(node) - set(spec)
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")
    out = {}
    for key, (parse, default) in spec.items():
        key_path = f"{path}.{key}" if path else key
        value = node.get(key)
        if value is None:
            if default is MISSING:
                raise ConfigurationError(f"{key_path} is required")
            value = default
        out[key] = parse(value, key_path)
    return out


def _fields(spec: dict):
    """A parser for a mapping that ``spec`` describes."""
    return lambda node, path: _record(node, spec, path)


# the radian fields a scenario file gives in degrees, each as its name + "_deg"
_DEGREES = ("fov_h", "fov_v", "inclination_min", "inclination_max", "azimuth_min", "azimuth_max")


def _section(cls) -> dict:
    """Spec entries ``key: (parser, field default)`` of a config class's ruled
    fields, whose rules the class checks.  A field of _DEGREES is given in
    degrees, its default rounded so that 60 degrees reads back as 60.0."""
    spec = {}
    for f in dataclasses.fields(cls):
        if "rule" not in f.metadata:
            continue
        parse = _integer if f.metadata["rule"] in INTEGER_RULES else _number
        if f.name in _DEGREES:
            spec[f"{f.name}_deg"] = (parse, round(math.degrees(f.default), 9))
        else:
            spec[f.name] = (_optional(parse) if f.default is None else parse, f.default)
    return spec


_BOX = {"min": (_vec3, MISSING), "max": (_vec3, MISSING)}
_POINT = {"position": (_vec3, MISSING), "normal": (_vec3, MISSING)}
_SCATTER = {**_BOX, "count": (_count, MISSING), "seed": (_optional(_count), None),
            "faces": (_optional(_list(_one_of(FACES), nonempty=True)), None)}
_EXPLICIT = _list(_fields({"id": (_optional(_integer), None), **_POINT}))


def _points(value, path: str) -> list[dict]:
    """Explicit interest points; a point without an id takes its list index."""
    points = _EXPLICIT(value, path)
    for i, p in enumerate(points):
        if p["id"] is None:
            p["id"] = i
    return points


# Every key of a scenario file, as key -> (parser, default).
_SCENARIO = {
    # waypoint_standoff None means one voxel, resolved by MissionConfig.standoff;
    # seed is the fallback seed of the interest-point scatter, not a config field
    "mission": (_fields({**_section(MissionConfig), "seed": (_count, 0)}), {}),
    "agents": (_list(_fields({"kind": (_one_of(KINDS), MISSING), "start": (_vec3, MISSING),
                              **_section(AgentSpec)}), nonempty=True), MISSING),
    "camera": (_fields(_section(CameraConfig)), {}),
    "lidar": (_fields(_section(LidarConfig)), {}),
    "gimbal": (_fields(_section(GimbalLimits)), {}),
    "tracking": (_fields(_section(TrackingConfig)), {}),
    "scene": (_fields({
        "solid_boxes": (_list(_fields(_BOX)), []),
        "triangles": (_list(_triple(_vec3)), []),
        "inspection_boxes": (_list(_fields(_BOX), nonempty=True), MISSING),
        "interest_points": (_fields({
            "explicit": (_points, []),
            "scatter": (_list(_fields(_SCATTER)), []),
        }), {}),
    }), {}),
}


def normalize_scenario(raw: dict) -> dict:
    """Validate a raw scenario mapping and fill in every default.

    The result is a canonical plain dict: normalizing it again is a no-op, and
    serializing then reparsing reproduces it exactly.
    """
    return _record(raw, _SCENARIO, "")


def _config(cls, section: dict, **fields):
    """A config class built from its canonical section plus the given fields.

    A key ending in ``_deg`` sets its radian field, the inverse of _section.
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
        box = BoundingBox(tuple(rule["min"]), tuple(rule["max"]))
        points.extend(scatter_box_face_points(box, rule["count"], seed,
                                              faces=rule["faces"] or FACES,
                                              id_offset=len(points)))
    scene = Scene(solid_boxes=solid,
                  triangles=sc["triangles"] if sc["triangles"] else None,
                  interest_points=points, inspection_boxes=inspection)
    return cfg, scene


def load_scenario_dict(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
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
        # each override flag is named after its key, and goes through that key's parser
        for section, key in (("mission", "seed"), ("mission", "duration"),
                             ("mission", "voxel_size"), ("mission", "horizon"),
                             ("camera", "quality_floor")):
            if getattr(args, key) is not None:
                canonical[section][key] = getattr(args, key)
        canonical = normalize_scenario(canonical)
        scatter = canonical["scene"]["interest_points"]["scatter"]
        if args.seed is not None and all(rule["seed"] is not None for rule in scatter):
            print(f"warning: --seed {args.seed} changes nothing: no interest-point "
                  "scatter rule takes its seed from mission.seed", file=sys.stderr)
        cfg, scene = scenario_from_dict(canonical)
        if args.out:
            try:        # an unwritable --out is rejected before the mission runs
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigurationError(f"cannot write to --out {args.out}: {exc}") from exc
        log.info("running mission: %.1f s simulated, %d agents, %d interest points",
                 cfg.duration, len(cfg.agents), scene.num_points)
        # building the mission rejects more: shared or occupied start voxels, bad voxel sizes
        result = run_mission(cfg, scene)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
