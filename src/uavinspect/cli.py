"""Scenario loading and the mission command-line entry point.

Scenario files are YAML with five sections: mission, agents, camera, lidar,
scene.  One table, ``_SCENARIO``, lists every key with its parser and
default; a config section's keys are its class's ruled fields.
Every number is held to a rule of ``errors._RULES``, and a failure names the
number's dotted path.  Unknown keys are rejected; an
omitted or null key takes its default, the field default of its config class,
and a key without a default is required.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import traceback
import warnings
from collections.abc import Hashable
from dataclasses import MISSING
from itertools import chain, repeat

import numpy as np
import yaml

from .agents import KINDS
from .engine import AgentSpec, MissionConfig, _Mission, write_outputs
from .errors import _MAX, _RULES, INTEGER_RULES, ConfigurationError, check_value
from .scene import FACES, Scene, scatter_box_face_points
from .sensors import CameraConfig, LidarConfig
from .world import _MAX_POINTS, BoundingBox


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigurationError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _ruled(rule: str):
    """A parser that holds a value to ``rule`` of errors._RULES, naming a
    failure by the value's dotted path, and gives a plain int for an integer
    rule or a plain float for any other.  A failure on text with an exponent
    that float() reads says why YAML read it as text."""
    plain = int if rule in INTEGER_RULES else float

    def parse(value, path: str):
        try:
            return plain(check_value(path, value, rule))
        except ConfigurationError as exc:
            if _exponent_text(value):
                raise ConfigurationError(
                    f"{exc}: YAML reads an exponent as a float only with a dot and a signed "
                    "exponent, as in 1.0e-9 or 1.0e+9") from None
            raise
    return parse


def _exponent_text(value) -> bool:
    """Whether value is text that float() reads as a number with an exponent."""
    if type(value) is not str or "e" not in value.lower():
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


def _optional(parse):
    """A parser that keeps None, an unset optional, and parses any other value."""
    return lambda value, path: None if value is None else parse(value, path)


def _one_of(options: tuple[str, ...]):
    """A parser that accepts one of ``options`` and nothing else."""
    def parse(value, path: str) -> str:
        if value not in options:
            raise ConfigurationError(f"{path} must be {' or '.join(options)}")
        return value
    return parse


def _each(item, node: list, path: str) -> list:
    """Each entry of node parsed by ``item`` under the path ``path[i]``."""
    return [item(v, f"{path}[{i}]") for i, v in enumerate(node)]


def _triple(item):
    """A parser for a list of exactly three entries, each parsed by ``item``."""
    def parse(value, path: str) -> list:
        node = _expect_list(value, path)
        if len(node) != 3:
            raise ConfigurationError(f"{path}: expected 3 components, got {len(node)}")
        return _each(item, node, path)
    return parse


def _list(item, nonempty: bool = False):
    """A parser for a list, each entry parsed by ``item``; ``nonempty`` rejects []."""
    def parse(value, path: str) -> list:
        node = _expect_list(value, path)
        if nonempty and not node:
            raise ConfigurationError(f"{path} must be non-empty")
        return _each(item, node, path)
    return parse


# --- numeric blocks: one check per list of numbers, not one call per number ---

_PLAIN = {float, int}


def _floats(entries: list) -> list[float] | None:
    """The entries as a new list of floats, when the finite rule would take
    every one; None when any is not a plain float or int, or is not finite,
    and then the rule judges them one by one.

    One pass reads the entries' types, one converts the ints, one sum tests
    finiteness: a NaN or an inf makes the sum NaN or inf, and so does an
    overflow of finite entries, which the fallback then accepts.
    """
    types = set(map(type, entries))
    if not types <= _PLAIN:
        return None
    if int in types:
        try:
            entries = list(map(float, entries))
        except OverflowError:
            return None
        # an int just past the largest float converts to it; the rule rejects it
        if entries and not (-_MAX < min(entries) and max(entries) < _MAX):
            return None
    else:
        entries = list(entries)
    return entries if math.isfinite(sum(entries)) else None


def _vectors(node, depth: int = 1) -> list | None:
    """node, a list of lists of 3 ... nested ``depth`` deep with numbers at
    the bottom, as a new list of floats of the same nesting, when each level
    is plain lists of exactly 3 and _floats takes the numbers; else None."""
    if type(node) is not list:
        return None
    flat = node
    for _ in range(depth):
        if not (set(map(type, flat)) <= {list} and set(map(len, flat)) <= {3}):
            return None
        flat = list(chain.from_iterable(flat))
    numbers = _floats(flat)
    if numbers is None:
        return None
    for _ in range(depth):
        rows = iter(numbers)
        numbers = list(map(list, zip(rows, rows, rows)))
    return numbers


def _block(fast, slow):
    """A parser that takes ``fast(value)`` unless it is None, and otherwise
    parses by ``slow``, entry by entry, whose error names the first bad one.
    The fast parse must give what ``slow`` gives wherever it is not None."""
    def parse(value, path: str):
        out = fast(value)
        return out if out is not None else slow(value, path)
    return parse


_vec3 = _block(lambda value: _floats(value) if type(value) is list and len(value) == 3 else None,
               _triple(_ruled("finite")))
_triangles = _block(lambda value: _vectors(value, depth=2), _list(_triple(_vec3)))


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
        # by repr, so that keys of mixed types, an int and a str, sort too
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown, key=repr)}")
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


def _section(cls) -> dict:
    """Spec entries ``key: (parser, field default)`` of a config class's ruled
    fields, each parsed by its rule."""
    spec = {}
    for f in dataclasses.fields(cls):
        if "rule" in f.metadata:
            parse = _ruled(f.metadata["rule"])
            spec[f.name] = (_optional(parse) if f.default is None else parse, f.default)
    return spec


_BOX = {"min": (_vec3, MISSING), "max": (_vec3, MISSING)}
_POINT = {"position": (_vec3, MISSING), "normal": (_vec3, MISSING)}
_UINT = _ruled("non-negative integer")         # a count or a seed
_SCATTER = {**_BOX, "count": (_UINT, MISSING), "seed": (_optional(_UINT), None),
            "faces": (_optional(_list(_one_of(FACES), nonempty=True)), None)}
_EXPLICIT = _list(_fields({"id": (_optional(_ruled("integer")), None), **_POINT}))
_EXPLICIT_KEYS = {"id", *_POINT}


def _points_block(node) -> list[dict] | None:
    """The explicit points with every position and every normal checked as
    one block, when each point is a plain dict of known keys with a plain
    int id that fits int64, or none; None when any entry is not, for
    _points_each."""
    if type(node) is not list or not set(map(type, node)) <= {dict}:
        return None
    if not set(chain.from_iterable(node)) <= _EXPLICIT_KEYS:
        return None
    ids = list(map(dict.get, node, repeat("id")))
    if not set(map(type, ids)) <= {int, type(None)}:
        return None
    # the id rule holds for every id if it holds for the least and the most
    given = [i for i in ids if i is not None]
    if given and not all(map(_RULES["integer"][1], (min(given), max(given)))):
        return None
    positions = _vectors(list(map(dict.get, node, repeat("position"))))
    normals = _vectors(list(map(dict.get, node, repeat("normal"))))
    if positions is None or normals is None:
        return None
    return [{"id": i if pid is None else pid, "position": p, "normal": n}
            for i, (pid, p, n) in enumerate(zip(ids, positions, normals))]


def _points_each(value, path: str) -> list[dict]:
    """Explicit interest points; a point without an id takes its list index."""
    points = _EXPLICIT(value, path)
    for i, p in enumerate(points):
        if p["id"] is None:
            p["id"] = i
    return points


_points = _block(_points_block, _points_each)


# Every key of a scenario file, as key -> (parser, default).
_SCENARIO = {
    # waypoint_standoff None means one voxel, resolved by MissionConfig.standoff;
    # seed is the fallback seed of the interest-point scatter, not a config field
    "mission": (_fields({**_section(MissionConfig), "seed": (_UINT, 0)}), {}),
    "agents": (_list(_fields({"kind": (_one_of(KINDS), MISSING), "start": (_vec3, MISSING)}),
                     nonempty=True), MISSING),
    "camera": (_fields(_section(CameraConfig)), {}),
    "lidar": (_fields(_section(LidarConfig)), {}),
    "scene": (_fields({
        "solid_boxes": (_list(_fields(_BOX)), []),
        "triangles": (_triangles, []),
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


def scenario_from_dict(canonical: dict) -> tuple[MissionConfig, Scene]:
    """Build the mission config and ground-truth scene from a canonical dict."""
    m = canonical["mission"]
    agents = tuple(AgentSpec(a["kind"], tuple(a["start"])) for a in canonical["agents"])
    cfg = MissionConfig(**{k: v for k, v in m.items() if k != "seed"}, agents=agents,
                        camera=CameraConfig(**canonical["camera"]),
                        lidar=LidarConfig(**canonical["lidar"]))

    sc = canonical["scene"]
    solid = [BoundingBox(tuple(b["min"]), tuple(b["max"])) for b in sc["solid_boxes"]]
    inspection = [BoundingBox(tuple(b["min"]), tuple(b["max"]))
                  for b in sc["inspection_boxes"]]
    explicit, scatter = sc["interest_points"]["explicit"], sc["interest_points"]["scatter"]
    total = len(explicit) + sum(rule["count"] for rule in scatter)
    if total > _MAX_POINTS:
        raise ConfigurationError(f"scene.interest_points: {total:,} points, explicit and "
                                 f"scattered, past the {_MAX_POINTS:,} a scene may hold")
    parts = [(np.array([p["id"] for p in explicit], dtype=int),
              _array(p["position"] for p in explicit),
              _array(p["normal"] for p in explicit))]
    count = len(explicit)
    for i, rule in enumerate(scatter):
        seed = rule["seed"] if rule["seed"] is not None else m["seed"]
        try:
            box = BoundingBox(tuple(rule["min"]), tuple(rule["max"]))
            parts.append(scatter_box_face_points(box, rule["count"], seed,
                                                 faces=rule["faces"] or FACES, id_offset=count))
        except ConfigurationError as exc:
            raise ConfigurationError(f"scene.interest_points.scatter[{i}]: {exc}") from None
        count += rule["count"]
    scene = Scene(solid_boxes=solid,
                  triangles=_array(chain.from_iterable(sc["triangles"])).reshape(-1, 3, 3),
                  interest_points=[np.concatenate(column) for column in zip(*parts)],
                  inspection_boxes=inspection)
    return cfg, scene


def _array(vectors) -> np.ndarray:
    """An (n, 3) float array of canonical 3-vectors, read as one flat list."""
    return np.array(list(chain.from_iterable(vectors)), dtype=float).reshape(-1, 3)


class _UniqueKeys:
    """A loader mixin that rejects a key repeated in one mapping, of which
    YAML would keep the last value and drop the others unsaid."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue        # a merge key: the keys it brings in may be overridden
            key = self.construct_object(key_node)
            if isinstance(key, Hashable):       # construct_mapping rejects the others
                if key in seen:
                    mark = key_node.start_mark
                    raise ConfigurationError(f"{mark.name}, line {mark.line + 1}: key {key!r} "
                                             "repeats a key of its mapping")
                seen.add(key)
        return super().construct_mapping(node, deep)


# libyaml's loader where PyYAML was built with it: five times the pure-Python
# safe_load's speed, and the same safe subset
class _Loader(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    pass


def load_scenario_dict(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
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
    parser.add_argument("--horizon", type=int, help="override mission.horizon (voxels)")
    args = parser.parse_args(argv)

    with warnings.catch_warnings():
        # every warning of the run prints as one line, with no source path; the
        # filters stay, so a warning that they make an error still raises
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            canonical = load_scenario_dict(args.scenario)
            # each override flag is named after its key, and goes through that key's parser
            for key in ("seed", "duration", "voxel_size", "horizon"):
                if getattr(args, key) is not None:
                    canonical["mission"][key] = getattr(args, key)
            canonical = normalize_scenario(canonical)
            scatter = canonical["scene"]["interest_points"]["scatter"]
            if args.seed is not None and all(rule["seed"] is not None for rule in scatter):
                warnings.warn(f"--seed {args.seed} changes nothing: no interest-point "
                              "scatter rule takes its seed from mission.seed")
            cfg, scene = scenario_from_dict(canonical)
            if args.out:
                try:        # an unwritable --out is rejected before the mission runs
                    os.makedirs(args.out, exist_ok=True)
                except OSError as exc:
                    raise ConfigurationError(f"cannot write to --out {args.out}: {exc}") from exc
            # building the mission rejects more: shared or occupied start voxels, a grid
            # too large; only a mission that set-up accepts is announced
            mission = _Mission(cfg, scene)
            print(f"running mission: {cfg.n_ticks} ticks of {cfg.tick:g} s, "
                  f"{len(cfg.agents)} agents, {scene.num_points} interest points", file=sys.stderr)
            result = mission.run()
            if args.out:
                write_outputs(result, args.out)
                print(f"artifacts written to {args.out}", file=sys.stderr)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception:   # a crash: status 1 is kept for a violated invariant
            traceback.print_exc()
            return 3

    print(f"inspection score Q = {result.q_total:.4f}")
    print(f"points scored: {result.ledger.scored}/{result.ledger.num_points}")
    print(f"violations: {result.violations} (same-voxel {result.collisions_same_voxel}, "
          f"occupied-entry {result.occupied_entries})")
    print(f"structure cells held free: {result.free_structure_cells} (cells x ticks "
          "over all agent maps)")
    return 0 if result.violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
