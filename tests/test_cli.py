import copy
import dataclasses
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import recount_violations
from test_engine import PROBES, assert_findings, build_config, numeric_fields
from test_mesh import centroid_points, prism_triangles
from test_world import point_arrays
from uavinspect import cli, engine, sensors, world
from uavinspect.agents import KINDS
from uavinspect.cli import (load_scenario_dict, main, normalize_scenario,
                            parse_scenario, scenario_from_dict)
from uavinspect.engine import AgentSpec, MissionConfig
from uavinspect.errors import INTEGER_RULES, ConfigurationError, check_value
from uavinspect.scene import FACES, Scene
from uavinspect.sensors import CameraConfig, LidarConfig

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {
    "mission": {"duration": 30.0},
    "agents": [
        {"kind": "explorer", "start": [3.0, 3.0, 3.0]},
        {"kind": "photographer", "start": [3.0, 12.0, 3.0]},
    ],
    "scene": {
        "inspection_boxes": [{"min": [0.0, 0.0, 0.0], "max": [30.0, 30.0, 30.0]}],
    },
}


def write_yaml(tmp_path, payload, name="s.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload, sort_keys=False))
    return str(path)


def test_minimal_file_gets_documented_defaults(tmp_path):
    cfg, scene = parse_scenario(write_yaml(tmp_path, MINIMAL))
    assert cfg.voxel_size == 6.0
    assert cfg.tick == 0.1
    assert cfg.horizon == 3
    assert scene.num_points == 0
    assert len(scene.inspection_boxes) == 1


def test_defaults_are_the_documented_table():
    canonical = normalize_scenario(MINIMAL)
    assert canonical["mission"] == {
        "duration": 30.0, "tick": 0.1, "voxel_size": 6.0, "horizon": 3,
        "waypoint_standoff": None, "seed": 0}
    assert canonical["agents"][0] == {"kind": "explorer", "start": [3.0, 3.0, 3.0]}
    assert canonical["camera"] == {"range": 30.0, "exposure": 0.05}
    assert canonical["lidar"] == {"beams": 16, "azimuth_steps": 360}


# scenario sections built into a config class, each also a MissionConfig field
SECTIONS = {"camera": CameraConfig, "lidar": LidarConfig}

# a value other than the default for every scenario key
NON_DEFAULT = {
    "mission": {"duration": 12.5, "tick": 0.25, "voxel_size": 4.0, "horizon": 5,
                "waypoint_standoff": 9.0, "seed": 3},
    "camera": {"range": 25.0, "exposure": 0.02},
    "lidar": {"beams": 8, "azimuth_steps": 90},
    "agents": [{"kind": "photographer", "start": [4.0, 5.0, 6.0]},
               {"kind": "explorer", "start": [3.0, 3.0, 3.0]}],
}


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_every_config_field_is_a_scenario_key():
    canonical = normalize_scenario(MINIMAL)
    for name, cls in SECTIONS.items():
        assert set(canonical[name]) == field_names(cls), name
    assert set(canonical["agents"][0]) == field_names(AgentSpec)
    # mission.seed seeds the interest-point scatter; it is not a config field
    scalar = field_names(MissionConfig) - {"agents", *SECTIONS}
    assert set(canonical["mission"]) - {"seed"} == scalar


def test_every_scenario_key_reaches_its_field():
    defaults = normalize_scenario(MINIMAL)
    raw = {**MINIMAL, **NON_DEFAULT}
    for name in ("mission", *SECTIONS):
        assert NON_DEFAULT[name].keys() == defaults[name].keys(), name
        for key, value in NON_DEFAULT[name].items():
            assert value != defaults[name][key], f"{name}.{key}"
    agent = NON_DEFAULT["agents"][0]
    assert agent.keys() == defaults["agents"][0].keys()
    assert all(agent[k] != defaults["agents"][0][k] for k in agent)

    cfg, scene = scenario_from_dict(normalize_scenario(raw))
    for name in SECTIONS:
        built = getattr(cfg, name)
        for key, value in NON_DEFAULT[name].items():
            assert getattr(built, key) == value, f"{name}.{key}"
    for key, value in NON_DEFAULT["mission"].items():
        if key != "seed":
            assert getattr(cfg, key) == value, f"mission.{key}"
    assert cfg.agents[0] == AgentSpec("photographer", (4.0, 5.0, 6.0))


def test_explorer_count_rule_enforced(tmp_path):
    bad = dict(MINIMAL)
    bad["agents"] = [{"kind": "explorer", "start": [float(i * 10), 0.0, 0.0]}
                     for i in range(3)]
    with pytest.raises(ConfigurationError, match="explorer count must be 1 or 2"):
        parse_scenario(write_yaml(tmp_path, bad))


def test_missing_inspection_boxes_rejected(tmp_path):
    for scene in ({}, {"inspection_boxes": []}):
        bad = {**MINIMAL, "scene": scene}
        with pytest.raises(ConfigurationError, match="inspection_boxes"):
            parse_scenario(write_yaml(tmp_path, bad))


def test_missing_duration_rejected(tmp_path):
    bad = {**MINIMAL, "mission": {}}
    with pytest.raises(ConfigurationError, match="duration"):
        parse_scenario(write_yaml(tmp_path, bad))


def test_unknown_keys_rejected(tmp_path):
    bad = {**MINIMAL, "warp_drive": True}
    with pytest.raises(ConfigurationError, match="warp_drive"):
        parse_scenario(write_yaml(tmp_path, bad))
    bad2 = dict(MINIMAL)
    bad2["mission"] = {"duration": 10.0, "speed_of_light": 3e8}
    with pytest.raises(ConfigurationError, match="speed_of_light"):
        parse_scenario(write_yaml(tmp_path, bad2))


def test_malformed_vectors_rejected(tmp_path):
    bad = dict(MINIMAL)
    bad["agents"] = [{"kind": "explorer", "start": [1.0, 2.0]}]
    with pytest.raises(ConfigurationError, match="3 components"):
        parse_scenario(write_yaml(tmp_path, bad))


# MINIMAL with one record of every kind and every scalar section
FULL = {
    "mission": {"duration": 30.0},
    "agents": [{"kind": "explorer", "start": [3.0, 3.0, 3.0]}],
    "camera": {}, "lidar": {},
    "scene": {
        "solid_boxes": [{"min": [12.0, 12.0, 12.0], "max": [18.0, 18.0, 18.0]}],
        "triangles": [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
        "inspection_boxes": [{"min": [0.0, 0.0, 0.0], "max": [30.0, 30.0, 30.0]}],
        "interest_points": {
            "explicit": [{"id": 5, "position": [12.0, 15.0, 15.0], "normal": [-1.0, 0.0, 0.0]},
                         {"position": [18.0, 15.0, 15.0], "normal": [1.0, 0.0, 0.0]}],
            "scatter": [{"min": [12.0, 12.0, 12.0], "max": [18.0, 18.0, 18.0], "count": 4}],
        },
    },
}


# record kind: (where it sits in FULL, its dotted path, a key and a value it
# rejects, a required key or None, a key whose null takes the given default or
# None); a triangle is a list, so its keys are vertex indices
RECORDS = {
    "agent": (("agents", 0), "agents[0]", ("kind", "pilot"), "start", None),
    "solid-box": (("scene", "solid_boxes", 0), "scene.solid_boxes[0]",
                  ("min", [1.0, 2.0]), "max", None),
    "inspection-box": (("scene", "inspection_boxes", 0), "scene.inspection_boxes[0]",
                       ("max", [1.0, 2.0]), "min", None),
    "triangle": (("scene", "triangles", 0), "scene.triangles[0]", (1, [1.0, 2.0]), 2, None),
    "explicit-point": (("scene", "interest_points", "explicit", 0),
                       "scene.interest_points.explicit[0]", ("normal", [0.0, 1.0]),
                       "position", None),
    "scatter-rule": (("scene", "interest_points", "scatter", 0),
                     "scene.interest_points.scatter[0]", ("seed", True), "count",
                     ("faces", None)),
    "mission": (("mission",), "mission", ("horizon", 2.5), "duration", ("tick", 0.1)),
    "camera": (("camera",), "camera", ("range", True), None, ("exposure", 0.05)),
    "lidar": (("lidar",), "lidar", ("beams", 8.5), None, ("beams", 16)),
}


def at(node, where):
    for key in where:
        node = node[key]
    return node


def dotted(where):
    """The dotted path of the node that ``at`` reaches by where."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)[1:]


@pytest.mark.parametrize("kind", RECORDS)
def test_record_rules_name_the_dotted_path(kind):
    where, path, (bad_key, bad_value), required, null = RECORDS[kind]

    def rejected(edit, pattern):
        raw = copy.deepcopy(FULL)
        edit(at(raw, where))
        with pytest.raises(ConfigurationError, match=pattern):
            normalize_scenario(raw)

    def named(key):
        return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"

    if isinstance(at(FULL, where), dict):
        rejected(lambda record: record.update(bogus=1), re.escape(path) + ".*bogus")
    rejected(lambda record: record.__setitem__(bad_key, bad_value), re.escape(named(bad_key)))
    if required is not None:
        # a missing vertex is reported at the triangle, a missing key at the key
        rejected(lambda record: record.pop(required),
                 re.escape(path if isinstance(required, int) else named(required)))
    if null is not None:
        key, default = null
        raw = copy.deepcopy(FULL)
        at(raw, where)[key] = None
        assert at(normalize_scenario(raw), where)[key] == default


# each config class's section in a scenario file, and the record a probe sets
FILE_RECORDS = {"mission": ("mission",), "camera": ("camera",), "lidar": ("lidar",)}


@pytest.mark.parametrize("section, f", numeric_fields(),
                         ids=[f"{s}.{f.name}" for s, f in numeric_fields()])
def test_the_file_takes_a_number_exactly_when_its_class_does(monkeypatch, section, f):
    # a probe breaks a file's key when it breaks the class's field, and the
    # error names the key's dotted path; a number kept is a plain int or float.
    # The rays-per-firing cap weighs two keys together, so it is lifted here
    # and has its own test
    monkeypatch.setattr(sensors, "_MAX_RAYS", math.inf)
    where = FILE_RECORDS[section]
    path = dotted(where)
    plain = int if f.metadata["rule"] in INTEGER_RULES else float
    for value, _ in PROBES:
        try:
            build_config(section, **{f.name: value})
            error = None
        except ConfigurationError as exc:
            error = exc
        raw = copy.deepcopy(MINIMAL)
        raw.setdefault(where[0], {})
        at(raw, where)[f.name] = value
        if error is None:
            kept = at(normalize_scenario(raw), where)[f.name]
            assert type(kept) is plain and kept == plain(value), (value, kept)
        else:
            rule_text = str(error).split(" must be ", 1)[1]
            with pytest.raises(ConfigurationError,
                               match=f"^{re.escape(f'{path}.{f.name} must be {rule_text}')}$"):
                normalize_scenario(raw)


@pytest.mark.parametrize("where, least", [
    (("mission", "seed"), 0),
    (("scene", "interest_points", "scatter", 0, "count"), 0),
    (("scene", "interest_points", "scatter", 0, "seed"), 0),
    (("scene", "interest_points", "explicit", 0, "id"), -2 ** 63),
], ids=["mission-seed", "scatter-count", "scatter-seed", "explicit-id"])
def test_the_integer_keys_outside_the_config_classes_keep_their_rule(where, least):
    # 2**70 as an id and 2**64 as a count raised OverflowError building the
    # scene; only normalize_scenario runs here, so no count in range is scattered
    *parent, key = where
    path = dotted(where)

    def normalized(value):
        raw = copy.deepcopy(FULL)
        at(raw, parent)[key] = value
        return at(normalize_scenario(raw), parent)[key]

    rule = "[0, 2**63)" if least == 0 else "[-2**63, 2**63)"
    for value in (least - 1, 2 ** 63, 2 ** 64, 2 ** 70, np.uint64(2 ** 63), 1.5, 2.0, True, "3"):
        message = f"{path} must be an integer in {rule}, got {value!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            normalized(value)
    for value in (least, 2 ** 63 - 1, np.int64(3), np.uint8(2)):
        kept = normalized(value)
        assert type(kept) is int and kept == value


@pytest.mark.parametrize("value, shown", [(-1, "-1"), (-1.0, "-1.0"), ("fast", "'fast'")])
def test_a_rule_failure_in_a_list_names_its_entry(tmp_path, capsys, value, shown):
    # the error names the entry by its index in the list
    raw = yaml.safe_load((SCENARIOS / "desk_box.yaml").read_text())
    raw["scene"]["interest_points"]["scatter"][0]["count"] = value
    assert main(["--scenario", write_yaml(tmp_path, raw)]) == 2
    assert (capsys.readouterr().err == "error: scene.interest_points.scatter[0].count must be "
            f"an integer in [0, 2**63), got {shown}\n")


def test_numpy_scalars_are_taken_as_the_classes_take_them():
    # each was rejected as "expected an integer" or "expected a finite number"
    raw = {**copy.deepcopy(MINIMAL), "camera": {"range": np.float32(40.0)},
           "lidar": {"beams": np.int32(16)}}
    raw["mission"]["horizon"] = np.int64(3)
    canonical = normalize_scenario(raw)
    kept = (canonical["mission"]["horizon"], canonical["camera"]["range"],
            canonical["lidar"]["beams"])
    assert [(type(v), v) for v in kept] == [(int, 3), (float, 40.0), (int, 16)]
    cfg, _ = scenario_from_dict(canonical)
    assert dataclasses.replace(cfg, horizon=np.int64(3)).horizon == cfg.horizon == 3
    assert yaml.safe_dump(canonical) == yaml.safe_dump(normalize_scenario(
        {**MINIMAL, "mission": {"duration": 30.0, "horizon": 3}, "camera": {"range": 40.0},
         "lidar": {"beams": 16}}))


@pytest.mark.parametrize("where, value", [
    (("interest_points", "explicit", 0, "id"), 2 ** 70),
    (("interest_points", "scatter", 0, "count"), 2 ** 64),
], ids=["id", "count"])
def test_an_integer_no_int64_holds_exits_2(tmp_path, capsys, where, value):
    # each raised OverflowError building the scene, a traceback and exit status 1
    raw = copy.deepcopy(FULL)
    *parent, key = where
    at(raw["scene"], parent)[key] = value
    path = dotted(("scene", *where))
    assert main(["--scenario", write_yaml(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} must be an integer in ") and err.endswith(f"{value}\n")
    # the explicit points as one block, then entry by entry: a numpy coordinate
    # sends them down the per-entry parse, which names the same id
    raw["scene"]["interest_points"]["explicit"][1]["position"][0] = np.float64(18.0)
    with pytest.raises(ConfigurationError, match=re.escape(err[len("error: "):-1])):
        normalize_scenario(raw)


def test_explicit_point_without_id_takes_its_index():
    explicit = normalize_scenario(FULL)["scene"]["interest_points"]["explicit"]
    assert [p["id"] for p in explicit] == [5, 1]


@pytest.mark.parametrize("path, value, kind", [
    ("camera", 0, "mapping"),
    ("mission", [], "mapping"),
    ("lidar", "", "mapping"),
    ("lidar", False, "mapping"),
    ("scene.triangles", 0, "list"),
    ("scene.interest_points.scatter", "", "list"),
    ("scene.interest_points.explicit", 0, "list"),
])
def test_falsy_section_or_list_is_rejected_not_omitted(path, value, kind):
    # only null omits a key; any other value that is not a mapping or list is wrong
    raw = copy.deepcopy(FULL)
    *where, key = path.split(".")
    at(raw, where)[key] = value
    message = f"{path}: expected a {kind}, got {type(value).__name__}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        normalize_scenario(raw)


@pytest.mark.parametrize("key, value, path", [
    ("faces", [1], "faces[0]"),
    ("faces", ["x-", "top"], "faces[1]"),
    ("faces", [], "faces must be non-empty"),
    ("count", -1, "count"),
])
def test_scatter_faces_and_count_checked_at_their_path(key, value, path):
    raw = copy.deepcopy(FULL)
    raw["scene"]["interest_points"]["scatter"][0][key] = value
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"scene.interest_points.scatter[0].{path}")):
        normalize_scenario(raw)
    raw["scene"]["interest_points"]["scatter"][0].update(faces=["x-", "z+"], count=0)
    rule = normalize_scenario(raw)["scene"]["interest_points"]["scatter"][0]
    assert (rule["faces"], rule["count"]) == (["x-", "z+"], 0)


def test_yaml_syntax_error_reported(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("mission: {duration: [unclosed\n")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        parse_scenario(str(path))


def test_normalize_is_idempotent_and_serialization_roundtrips(tmp_path):
    for name in ("desk_box.yaml", "twin_pillars.yaml", "open_field.yaml"):
        canonical = load_scenario_dict(str(SCENARIOS / name))
        assert normalize_scenario(canonical) == canonical
        text = yaml.safe_dump(canonical, sort_keys=True)
        again = normalize_scenario(yaml.safe_load(text))
        assert again == canonical


def test_shipped_scenarios_parse(tmp_path):
    for name in ("desk_box.yaml", "twin_pillars.yaml", "open_field.yaml"):
        cfg, scene = parse_scenario(str(SCENARIOS / name))
        assert cfg.duration > 0


def test_scatter_without_seed_follows_mission_seed(tmp_path):
    base = dict(MINIMAL)
    base["scene"] = {
        "inspection_boxes": [{"min": [0.0, 0.0, 0.0], "max": [30.0, 30.0, 30.0]}],
        "interest_points": {"scatter": [
            {"min": [10.0, 10.0, 10.0], "max": [20.0, 20.0, 20.0], "count": 12},
        ]},
    }
    path = write_yaml(tmp_path, base)
    canonical = load_scenario_dict(path)
    canonical["mission"]["seed"] = 4
    _, scene_a = scenario_from_dict(canonical)
    canonical["mission"]["seed"] = 9
    _, scene_b = scenario_from_dict(canonical)
    assert scene_a.num_points == scene_b.num_points == 12
    assert not (scene_a.point_positions == scene_b.point_positions).all()


def run_main(tmp_path, *extra):
    out = tmp_path / "out"
    code = main(["--scenario", str(SCENARIOS / "open_field.yaml"),
                 "--out", str(out), "--duration", "6", *extra])
    return code, out


def test_main_runs_and_writes_outputs(tmp_path, capsys):
    code, out = run_main(tmp_path)
    assert code == 0
    printed = capsys.readouterr().out
    assert "inspection score Q" in printed
    assert "structure cells held free: 0 " in printed
    assert (out / "mission_result.txt").exists()
    assert (out / "observations.csv").exists()


def run_desk_box(out, seed):
    """A short desk_box run, whose interest-point scatter follows the seed."""
    code = main(["--scenario", str(SCENARIOS / "desk_box.yaml"), "--out", str(out),
                 "--duration", "3", "--seed", str(seed)])
    assert code == 0
    return out


def test_main_same_seed_byte_identical_outputs(tmp_path):
    out1 = run_desk_box(tmp_path / "a", 7)
    out2 = run_desk_box(tmp_path / "b", 7)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    other = run_desk_box(tmp_path / "c", 8)
    assert ((other / "observations.csv").read_bytes()
            != (out1 / "observations.csv").read_bytes())


# SHA-256 of every file that `--scenario twin_pillars.yaml --out` writes; the
# CSVs pin the artifact writer, which the mission digest does not cover
TWIN_PILLARS_ARTIFACTS = {
    "connectivity.csv": "6c057f7e8555ff5f2c69cbf9d84cdd829395f8e3ffc5d2011ea92cdbbd181038",
    "heatmap.csv": "dd161aeeb6b0b76460a6065c41b60328b69962e8d8672a8703b0b59dcb050599",
    "mission_result.txt": "d5bf7bc5a66338f609c9c63299dd9888080f076d31d44d27528f2e76bce14d95",
    "observations.csv": "804ad56b5617b5d847a4aab14905e05df98a79f473ac511f1d074415cf16a416",
    "plans.log": "51773dbfc43a8755ee3aacd8ecb3c6d207690b8a8967e1d7f2c61322f3400647",
    "score_trace.csv": "aceb5e1de7c482661b070d8dcc5eb0b14cf70b2a96e069fbaefce02591adc87b",
    **{f"maps/agent{i}_{when}.vox":
       "6faf5b4dfbdfa7777efda9fb90cf48cb10835adcd9a2a0563626ca79573099d3"
       for i in range(3) for when in ("stage2", "final")},
}


def test_twin_pillars_artifacts_match_pinned_bytes(tmp_path):
    out = tmp_path / "out"
    assert main(["--scenario", str(SCENARIOS / "twin_pillars.yaml"), "--out", str(out)]) == 0
    written = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    assert written == TWIN_PILLARS_ARTIFACTS


def test_main_warns_when_no_scatter_follows_the_seed(tmp_path, capsys):
    code, _ = run_main(tmp_path, "--seed", "5")
    assert code == 0
    assert capsys.readouterr().err.count("warning: --seed 5 changes nothing") == 1
    # desk_box's scatter follows the seed; its 3 s run prints its own finding
    run_desk_box(tmp_path / "desk", 5)
    assert "--seed" not in capsys.readouterr().err


def test_main_prints_a_mission_finding_as_one_warning_line(capsys):
    # it printed in Python's format: the engine's path, UserWarning and a source line
    assert main(["--scenario", str(SCENARIOS / "desk_box.yaml"), "--duration", "20"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "running mission: 200 ticks of 0.1 s, 3 agents, 200 interest points",
        "warning: no explorer finished its survey, so no agent reached the inspection stage",
    ]


def test_main_prints_the_scene_warning_as_one_warning_line(tmp_path, capsys):
    scenario = {**MINIMAL, "mission": {"duration": 0.1}, "scene": {
        "inspection_boxes": [BOX_30], "interest_points": {"explicit": [
            {"position": [40.0, 40.0, 40.0], "normal": [1.0, 0.0, 0.0]}]}}}
    assert main(["--scenario", write_yaml(tmp_path, scenario)]) == 0
    err = capsys.readouterr().err
    assert "warning: 1 interest point(s) lie outside every inspection box\n" in err
    assert "UserWarning" not in err and ".py" not in err


def test_main_has_no_log_level(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--scenario", str(SCENARIOS / "open_field.yaml"), "--log-level", "warning"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --log-level" in capsys.readouterr().err


@pytest.mark.parametrize("tick", [1.2, 1.5, 1e20])
def test_main_rejects_a_tick_that_carries_an_agent_across_a_voxel(tmp_path, capsys, tick):
    # desk_box's photographers fly at up to 5 m/s on 6 m voxels.  A move
    # into a voxel nobody claimed is refused: at 1.2 s a tick, some moves
    # were refused, at 1.5 s 58 of them, and at 1e20 s the dynamics
    # overflowed, each run with exit status 0 and no word of it
    raw = yaml.safe_load((SCENARIOS / "desk_box.yaml").read_text())
    raw["mission"]["tick"] = tick
    assert main(["--scenario", write_yaml(tmp_path, raw)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: mission.tick {tick:g} s lets an agent at 5 m/s cross a 6 m voxel "
                   "in one tick\n")


@pytest.mark.parametrize("value", ["1.5", "nan"])
def test_main_has_no_quality_floor_option(capsys, value):
    # the quality floor is engine._QUALITY_FLOOR, which no flag sets
    with pytest.raises(SystemExit) as exited:
        main(["--scenario", str(SCENARIOS / "open_field.yaml"), "--quality-floor", value])
    assert exited.value.code == 2
    assert "unrecognized arguments: --quality-floor" in capsys.readouterr().err


def test_main_duration_flag_overrides_file(tmp_path):
    _, out = run_main(tmp_path)
    text = (out / "mission_result.txt").read_text()
    assert "ticks: 60" in text


def test_main_reports_config_errors(tmp_path, capsys):
    bad = write_yaml(tmp_path, {**MINIMAL, "scene": {}})
    code = main(["--scenario", bad])
    assert code == 2
    assert "error" in capsys.readouterr().err


def unreadable(tmp_path, kind):
    """A scenario path that cannot be read as text: missing, a directory, or
    a file that is not UTF-8."""
    if kind == "missing":
        return tmp_path / "missing.yaml"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "binary.yaml"
    path.write_bytes(b"\xff" * 200)
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_main_reports_an_unreadable_scenario(tmp_path, capsys, kind):
    # each ended in a traceback and exit status 1, the status of a violation
    path = unreadable(tmp_path, kind)
    assert main(["--scenario", str(path)]) == 2
    assert f"error: cannot read {path}: " in capsys.readouterr().err


def test_main_rejects_an_unwritable_out_before_running(tmp_path, capsys, monkeypatch):
    # an --out naming a file failed only after the whole mission had run
    def never(mission):
        raise AssertionError("the mission ran")

    monkeypatch.setattr(engine._Mission, "run", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["--scenario", str(SCENARIOS / "open_field.yaml"), "--out", str(taken)])
    assert code == 2
    assert f"error: cannot write to --out {taken}: " in capsys.readouterr().err


def test_main_rejects_a_negative_standoff_before_running(tmp_path, capsys):
    bad = write_yaml(tmp_path, {**MINIMAL, "mission": {"duration": 30.0,
                                                       "waypoint_standoff": -3.0}})
    assert main(["--scenario", bad]) == 2
    assert "mission.waypoint_standoff must be positive" in capsys.readouterr().err


BOX_30 = {"min": [0.0, 0.0, 0.0], "max": [30.0, 30.0, 30.0]}
BOX_12_18 = {"min": [12.0, 12.0, 12.0], "max": [18.0, 18.0, 18.0]}


@pytest.mark.parametrize("scenario, flags, message", [
    ({**MINIMAL, "agents": [{"kind": "explorer", "start": [3.0, 3.0, 3.0]},
                            {"kind": "photographer", "start": [4.0, 4.0, 4.0]}]},
     [], "agents share start voxel"),
    ({**MINIMAL, "scene": {"inspection_boxes": [BOX_30],
                           "solid_boxes": [{"min": [0.0, 0.0, 0.0], "max": [6.0, 6.0, 6.0]}]}},
     [], "agent 0 starts inside structure"),
    ({**MINIMAL, "scene": {"inspection_boxes": [BOX_30], "interest_points": {"explicit": [
        {"id": 0, "position": [1.0, 1.0, 1.0], "normal": [1.0, 0.0, 0.0]},
        {"id": 0, "position": [2.0, 2.0, 2.0], "normal": [1.0, 0.0, 0.0]}]}}},
     [], "interest point ids are not unique: id 0 repeats"),
    # the scatter ids continue from the 1 point before the rule: 1, 2, ...
    ({**MINIMAL, "scene": {"inspection_boxes": [BOX_30], "interest_points": {
        "explicit": [{"id": 1, "position": [1.0, 1.0, 1.0], "normal": [1.0, 0.0, 0.0]}],
        "scatter": [{**BOX_12_18, "count": 5}]}}},
     [], "interest point ids are not unique: id 1 repeats"),
    ({**MINIMAL, "scene": {"inspection_boxes": [BOX_30], "interest_points": {
        "scatter": [{**BOX_12_18, "count": 5, "faces": ["x-", "x-", "x+"]}]}}},
     [], "scene.interest_points.scatter[0]: face 'x-' is repeated in a scatter rule"),
    ({**MINIMAL, "scene": {"inspection_boxes": [BOX_30], "interest_points": {
        "scatter": [{**BOX_12_18, "count": 5, "faces": []}]}}},
     [], "scene.interest_points.scatter[0].faces must be non-empty"),
    # a rule failure in a list names its entry by its dotted path
    ({**MINIMAL, "agents": [MINIMAL["agents"][0],
                            {"kind": "photographer", "start": [3.0, math.nan, 3.0]}]},
     [], "agents[1].start[1] must be finite, got nan"),
    (MINIMAL, ["--voxel-size", "-3"], "mission.voxel_size must be positive"),
    # a flag goes through its key's parser, which holds it to its field's rule
    (MINIMAL, ["--horizon", "0"], "mission.horizon must be an integer in [1, 2**63), got 0"),
    # an int no int64 holds, in the file and as a flag
    ({**MINIMAL, "mission": {"duration": 30.0, "horizon": 2 ** 63}}, [],
     "mission.horizon must be an integer in [1, 2**63), got 9223372036854775808"),
    (MINIMAL, ["--horizon", str(2 ** 63)],
     "mission.horizon must be an integer in [1, 2**63), got 9223372036854775808"),
    # unknown keys of mixed types failed to sort: a traceback and exit status 1
    ({**MINIMAL, 1: "x", "foo": "y"}, [], "scenario: unknown key(s) ['foo', 1]"),
    # every tick captures: the capture stride and its key are gone
    ({**MINIMAL, "mission": {"duration": 30.0, "capture_stride": 2}}, [],
     "mission: unknown key(s) ['capture_stride']"),
    # the gimbal stops, the tracking gains and the servo period are module
    # constants, which no file sets
    ({**MINIMAL, "gimbal": {"azimuth_max_deg": 45.0}}, [], "scenario: unknown key(s) ['gimbal']"),
    ({**MINIMAL, "tracking": {"kd": 0.0}}, [], "scenario: unknown key(s) ['tracking']"),
    ({**MINIMAL, "lidar": {"servo_period": 6.0}}, [], "lidar: unknown key(s) ['servo_period']"),
    # the quality floor is the score ledger's constant
    ({**MINIMAL, "camera": {"quality_floor": 0.2}}, [], "camera: unknown key(s) ['quality_floor']"),
], ids=["shared-start", "start-in-structure", "duplicate-ids", "explicit-id-meets-scatter-id",
        "repeated-face", "no-faces", "non-finite-start", "negative-voxel", "zero-horizon",
        "horizon-past-int64", "horizon-flag-past-int64", "unknown-keys-of-mixed-types",
        "capture-stride-key", "gimbal-section", "tracking-section", "servo-period-key",
        "quality-floor-key"])
def test_main_reports_missions_the_engine_rejects(tmp_path, capsys, scenario, flags, message):
    assert main(["--scenario", write_yaml(tmp_path, scenario), *flags]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("where, key", [
    ("agents", "v_max"), ("agents", "omega_max"), ("camera", "fov_h_deg"),
    ("camera", "fov_v_deg"), ("camera", "focal"), ("camera", "pixel_width"),
    ("camera", "desired_resolution"), ("lidar", "range"),
], ids=lambda name: name)
def test_a_platform_constant_is_no_scenario_key(tmp_path, capsys, where, key):
    # the speed and yaw-rate limits are constants of agents, the camera's
    # optics and the LiDAR's range constants of sensors, which no file sets
    raw = copy.deepcopy(MINIMAL)
    if where == "agents":
        raw["agents"][1][key] = 1.0
        where = "agents[1]"
    else:
        raw[where] = {key: 1.0}
    assert main(["--scenario", write_yaml(tmp_path, raw)]) == 2
    assert capsys.readouterr() == ("", f"error: {where}: unknown key(s) ['{key}']\n")


@pytest.mark.parametrize("flags, far, dims", [
    (["--voxel-size", "0.001"], None, "36002 x 36002 x 36002"),
    ([], 1e6, "166668 x 8 x 8"),
], ids=["tiny-voxel", "far-start"])
def test_main_rejects_a_grid_too_large_to_set_up(tmp_path, capsys, flags, far, dims):
    # the tiny voxel died in numpy's allocator (42 TiB) with exit status 3, and
    # the far start flooded the reach mask for minutes
    raw = yaml.safe_load((SCENARIOS / "desk_box.yaml").read_text())
    if far is not None:
        raw["agents"][0]["start"][0] = far
    start = time.perf_counter()
    assert main(["--scenario", write_yaml(tmp_path, raw), *flags]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert line.startswith("error: mission.voxel_size ") and f" into {dims} cells, " in line


@pytest.mark.parametrize("flags, start, message", [
    (["--voxel-size", "0.001"], None, "mission.voxel_size 0.001 m divides "),
    ([], [10.0, 13.0, 10.0], "agents share start voxel (1, 2, 1)"),
], ids=["tiny-voxel", "shared-start"])
def test_a_mission_that_set_up_rejects_is_not_announced(tmp_path, capsys, flags, start, message):
    # the progress line printed before set-up ran, and then the error line
    raw = yaml.safe_load((SCENARIOS / "desk_box.yaml").read_text())
    if start is not None:
        raw["agents"][2]["start"] = start       # the first photographer's voxel
    assert main(["--scenario", write_yaml(tmp_path, raw), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: {message}")


def fleet(n):
    """An explorer and n - 1 photographers, each in a voxel of its own of
    desk_box's grid, outside its cube."""
    starts = [[6.0 * i + 3.0, 6.0 * j + 3.0, 6.0 * k + 3.0]
              for i in (0, 1, 6, 7) for j in range(8) for k in range(8)][:n]
    return [{"kind": "photographer" if a else "explorer", "start": s}
            for a, s in enumerate(starts)]


def desk_box_with(where, value):
    raw = yaml.safe_load((SCENARIOS / "desk_box.yaml").read_text())
    *parent, key = where
    at(raw, parent)[key] = value
    return raw


@pytest.mark.parametrize("where, value, message", [
    (("agents",), fleet(world._MAX_AGENTS + 1),
     f"agents: {world._MAX_AGENTS + 1} agents, past the {world._MAX_AGENTS} a fleet may hold"),
    (("scene", "interest_points", "scatter", 0, "count"), 2 ** 53 + 1,
     f"scene.interest_points: {2 ** 53 + 1:,} points, explicit and scattered, past the "
     f"{world._MAX_POINTS:,} a scene may hold"),
    (("scene", "interest_points", "scatter", 0, "max", 0), sys.float_info.max,
     "scene.interest_points.scatter[0]: scatter faces ['x-', 'x+', 'y-', 'y+', 'z-', 'z+'] "
     "of box (12.0, 12.0, 12.0)..(1.7976931348623157e+308, 36.0, 36.0) have area inf, which "
     "must be positive and finite"),
], ids=["fleet", "scatter-count", "scatter-corner"])
def test_main_rejects_a_mission_past_its_sizes(tmp_path, capsys, where, value, message):
    # the count asked numpy for 64 PiB, and the corner made the face draw's
    # probabilities NaN: each a crash with exit status 3
    path = write_yaml(tmp_path, desk_box_with(where, value))
    start = time.perf_counter()
    assert main(["--scenario", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_mission_at_its_sizes_sets_up():
    raw = desk_box_with(("agents",), fleet(world._MAX_AGENTS))
    raw["scene"]["interest_points"]["scatter"][0]["count"] = world._MAX_POINTS
    cfg, scene = scenario_from_dict(normalize_scenario(raw))
    assert len(cfg.agents) == world._MAX_AGENTS and scene.num_points == world._MAX_POINTS
    engine._Mission(cfg, scene)


@pytest.mark.parametrize("base", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)],
                         ids=["pure-python", "libyaml"])
@pytest.mark.parametrize("text, line, key", [
    ("mission:\n  duration: 5.0\n  duration: 7.0\n", 3, "'duration'"),
    ("mission: {duration: 5.0, tick: 0.1, tick: 0.2}\n", 1, "'tick'"),
    ("agents:\n  - kind: explorer\n    start: [3.0, 3.0, 3.0]\n    kind: photographer\n", 4,
     "'kind'"),
    ("camera: {range: 10.0}\ncamera: {range: 20.0}\n", 2, "'camera'"),
    ("scene:\n  triangles: []\n  solid_boxes: []\n  triangles: []\n", 4, "'triangles'"),
], ids=["block", "flow", "list-entry", "section", "nested"])
def test_a_repeated_key_is_rejected_at_its_line(tmp_path, monkeypatch, capsys, base, text,
                                                line, key):
    # YAML keeps the last of a repeated key: a second tick silently won.  The
    # base that load_scenario_dict's own loader reads with is left unpatched
    if base not in cli._Loader.__mro__:
        monkeypatch.setattr(cli, "_Loader", type("Loader", (cli._UniqueKeys, base), {}))
    path = tmp_path / "s.yaml"
    path.write_text(text)
    assert main(["--scenario", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}, line {line}: key {key} repeats a key of its mapping\n")
    # a merge key's keys may be overridden, as YAML's merge intends
    merged = "base: &b {tick: 0.1, duration: 5.0}\nmission: {<<: *b, tick: 0.2}\n"
    assert yaml.load(merged, Loader=cli._Loader) == yaml.safe_load(merged)


@pytest.mark.parametrize("text", ["1e-9", "1.0e9", "1e+9", "1E-9"])
def test_an_exponent_that_yaml_reads_as_text_is_explained(tmp_path, capsys, text):
    # YAML 1.1 reads a float only with a dot and a signed exponent; the rule
    # failure on the text said nothing of why
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(MINIMAL).replace("duration: 30.0",
                                                     f"duration: 30.0\n  tick: {text}"))
    assert main(["--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: mission.tick must be positive and finite, got '{text}': YAML reads an exponent "
        "as a float only with a dot and a signed exponent, as in 1.0e-9 or 1.0e+9\n")


@pytest.mark.parametrize("scenario, flags", [
    (MINIMAL, ["--duration", "1e12"]),          # 655 TiB of tables
    (MINIMAL, ["--duration", "1e300"]),         # past numpy's largest dimension
    (MINIMAL, ["--duration", "1e308"]),         # duration / tick is inf
    ({**MINIMAL, "mission": {"duration": 30.0, "tick": 1e-9}}, []),
], ids=["duration-1e12", "duration-1e300", "duration-1e308", "tick-1e-9"])
def test_main_rejects_tick_tables_too_large_to_allocate(tmp_path, capsys, scenario, flags):
    # each died in numpy or in int() with a traceback and exit status 1
    assert main(["--scenario", write_yaml(tmp_path, scenario), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    duration = float(flags[1]) if flags else scenario["mission"]["duration"]
    assert re.fullmatch(rf"error: mission duration {re.escape(f'{duration:g}')} s at tick \S+ s "
                        r"is \S+ ticks, .*", line)


def test_main_exits_3_with_the_traceback_of_a_crash(monkeypatch, capsys):
    # status 1 says that an invariant was violated; a crash is not that
    def crash(mission):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine._Mission, "run", crash)
    assert main(["--scenario", str(SCENARIOS / "open_field.yaml")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("RuntimeError: boom")


@pytest.mark.parametrize("kind", ["same-voxel", "occupied-entry"])
def test_a_forced_violation_is_counted_written_and_exits_1(tmp_path, monkeypatch, capsys, kind):
    # every other count of a violation is 0 on a run that has none, so an
    # audit that added 0 to a counter passed them all
    audit = engine._Mission._audit

    def forced(mission, k):
        if k == 5:
            if kind == "same-voxel":
                mission.agents[1].voxel = mission.agents[0].voxel
            else:
                mission.agents[0].voxel = tuple(np.argwhere(mission.truth)[0].tolist())
        audit(mission, k)

    monkeypatch.setattr(engine._Mission, "_audit", forced)
    path = str(SCENARIOS / "twin_pillars.yaml")
    cfg, scene = parse_scenario(path)
    with pytest.warns(UserWarning, match="no explorer finished its survey"):
        result = engine.run_mission(dataclasses.replace(cfg, duration=1.0), scene)
    same_voxel, occupied = recount_violations(result, scene)
    counts = (result.collisions_same_voxel, result.occupied_entries)
    assert counts == (same_voxel, occupied)
    forced_count, other = counts if kind == "same-voxel" else counts[::-1]
    assert forced_count > 0 and other == 0
    assert result.violations == same_voxel + occupied
    engine.write_outputs(result, str(tmp_path))
    written = (tmp_path / "mission_result.txt").read_text().splitlines()
    assert {f"collisions_same_voxel: {same_voxel}", f"occupied_entries: {occupied}"} <= set(written)
    assert main(["--scenario", path, "--duration", "1"]) == 1
    assert (f"violations: {same_voxel + occupied} (same-voxel {same_voxel}, "
            f"occupied-entry {occupied})\n") in capsys.readouterr().out


@pytest.mark.parametrize("name, flags, error", [
    ("open_field.yaml", ["--duration", "5"], None),
    ("open_field.yaml", ["--duration", "5", "--horizon", "0"], r"error: mission\.horizon .*\n"),
    ("missing.yaml", [], r"error: cannot read .*missing\.yaml: .*\n"),
], ids=["clean-run", "rejected-mission", "unreadable-scenario"])
def test_the_entry_point_exits_with_the_status_main_returns(name, flags, error):
    # every other test calls main(); only a process shows the status a shell gets
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "uavinspect.cli",
                           "--scenario", str(SCENARIOS / name), *flags],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == (0 if error is None else 2)
    assert all(line.startswith(("error:", "warning:", "running mission:", "artifacts written to"))
               for line in done.stderr.splitlines()), done.stderr
    if error is None:
        assert "violations: 0 " in done.stdout
    else:
        assert done.stdout == "" and re.fullmatch(error, done.stderr), done.stderr


@pytest.mark.parametrize("scenario, flags, path", [
    (MINIMAL, ["--duration", "nan"], "mission.duration"),
    (MINIMAL, ["--duration", "inf"], "mission.duration"),
    (MINIMAL, ["--voxel-size", "inf"], "mission.voxel_size"),
    ({**MINIMAL, "mission": {"duration": 30.0, "tick": math.nan}}, [], "mission.tick"),
    ({**MINIMAL, "camera": {"range": math.inf}}, [], "camera.range"),
], ids=["duration-nan", "duration-inf", "voxel-size-inf", "tick-nan",
        "range-inf"])
def test_main_rejects_non_finite_numbers(tmp_path, capsys, scenario, flags, path):
    # a flag goes through its key's parser, so it is rejected at the key's path
    assert main(["--scenario", write_yaml(tmp_path, scenario), *flags]) == 2
    assert re.search(f"error: {re.escape(path)} must be .*, got (nan|inf)$",
                     capsys.readouterr().err, re.M)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_a_non_finite_number_is_rejected_at_its_path(value):
    raw = copy.deepcopy(MINIMAL)
    raw["agents"][1]["start"][1] = value
    with pytest.raises(ConfigurationError,
                       match=re.escape("agents[1].start[1] must be finite, got ")):
        normalize_scenario(raw)
    raw["agents"][1]["start"][1] = 10 ** 308        # an int a float can hold
    assert normalize_scenario(raw)["agents"][1]["start"][1] == 1e308


def test_main_rejects_an_inf_in_the_file(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(MINIMAL) + "camera: {range: .inf}\n")
    assert main(["--scenario", str(path)]) == 2
    assert "error: camera.range must be positive and finite, got inf" in capsys.readouterr().err


def test_main_accepts_all_override_flags(tmp_path):
    from uavinspect.world import load_map
    out = tmp_path / "out"
    code = main(["--scenario", str(SCENARIOS / "open_field.yaml"),
                 "--out", str(out), "--duration", "4", "--seed", "11",
                 "--voxel-size", "12", "--horizon", "2"])
    assert code == 0
    dumped = next((out / "maps").glob("agent0_final.vox"))
    assert load_map(dumped).grid.voxel_size == 12.0


def test_shipped_scenarios_complete_within_budget(shipped_runs):
    budgets = {"desk_box": 120.0, "twin_pillars": 60.0, "open_field": 30.0}
    for name, (_cfg, _scene, _result, wall) in shipped_runs.items():
        assert wall < budgets[name], f"{name} took {wall:.1f}s"


SCATTERED = {**MINIMAL, "scene": {"inspection_boxes": [BOX_30], "interest_points": {
    "scatter": [{"min": [12.0, 12.0, 12.0], "max": [18.0, 18.0, 18.0], "count": 4}]}}}


@pytest.mark.parametrize("scenario, flags, path", [
    (SCATTERED, ["--seed", "-1"], "mission.seed"),
    ({**SCATTERED, "mission": {"duration": 30.0, "seed": -1}}, [], "mission.seed"),
    ({**SCATTERED, "scene": {**SCATTERED["scene"], "interest_points": {"scatter": [
        {**SCATTERED["scene"]["interest_points"]["scatter"][0], "seed": -1}]}}}, [],
     "scene.interest_points.scatter[0].seed"),
], ids=["flag", "mission-seed", "scatter-seed"])
def test_main_rejects_a_negative_seed(tmp_path, capsys, scenario, flags, path):
    # numpy's seeding rejected it mid-build, a traceback with exit status 1
    assert main(["--scenario", write_yaml(tmp_path, scenario), *flags]) == 2
    assert f"error: {path} must be an integer in [0, 2**63), got -1" in capsys.readouterr().err


# --- the per-entry parse, kept as the oracle of the block parse ------------------

def ref_list(node, path):
    if not isinstance(node, list):
        raise ConfigurationError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def ref_rule(rule):
    """A number held to its rule at its path, as a plain int or float."""
    def parse(value, path):
        check_value(path, value, rule)
        return int(value) if rule in INTEGER_RULES else float(value)
    return parse


ref_number = ref_rule("finite")
ref_integer = ref_rule("integer")
ref_count = ref_rule("non-negative integer")


def ref_optional(parse):
    return lambda value, path: None if value is None else parse(value, path)


def ref_one_of(options):
    def parse(value, path):
        if value not in options:
            raise ConfigurationError(f"{path} must be {' or '.join(options)}")
        return value
    return parse


def ref_triple(item):
    def parse(value, path):
        node = ref_list(value, path)
        if len(node) != 3:
            raise ConfigurationError(f"{path}: expected 3 components, got {len(node)}")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(node)]
    return parse


def ref_each(item, nonempty=False):
    def parse(value, path):
        node = ref_list(value, path)
        if nonempty and not node:
            raise ConfigurationError(f"{path} must be non-empty")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(node)]
    return parse


def ref_record(spec):
    def parse(node, path):
        where = path or "scenario"
        if not isinstance(node, dict):
            raise ConfigurationError(f"{where}: expected a mapping, got {type(node).__name__}")
        unknown = set(node) - set(spec)
        if unknown:
            raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown, key=repr)}")
        out = {}
        for key, (item, default) in spec.items():
            key_path = f"{path}.{key}" if path else key
            value = node.get(key)
            if value is None:
                if default is dataclasses.MISSING:
                    raise ConfigurationError(f"{key_path} is required")
                value = default
            out[key] = item(value, key_path)
        return out
    return parse


def ref_section(cls):
    spec = {}
    for f in dataclasses.fields(cls):
        if "rule" not in f.metadata:
            continue
        item = ref_rule(f.metadata["rule"])
        spec[f.name] = (ref_optional(item) if f.default is None else item, f.default)
    return spec


def ref_points(value, path):
    points = ref_each(ref_record({"id": (ref_optional(ref_integer), None),
                                  "position": (ref_vec3, REQUIRED),
                                  "normal": (ref_vec3, REQUIRED)}))(value, path)
    for i, p in enumerate(points):
        if p["id"] is None:
            p["id"] = i
    return points


REQUIRED = dataclasses.MISSING
ref_vec3 = ref_triple(ref_number)
REF_BOX = {"min": (ref_vec3, REQUIRED), "max": (ref_vec3, REQUIRED)}
REF_SCENARIO = ref_record({
    "mission": (ref_record({**ref_section(MissionConfig), "seed": (ref_count, 0)}), {}),
    "agents": (ref_each(ref_record({"kind": (ref_one_of(KINDS), REQUIRED),
                                    "start": (ref_vec3, REQUIRED)}), nonempty=True), REQUIRED),
    "camera": (ref_record(ref_section(CameraConfig)), {}),
    "lidar": (ref_record(ref_section(LidarConfig)), {}),
    "scene": (ref_record({
        "solid_boxes": (ref_each(ref_record(REF_BOX)), []),
        "triangles": (ref_each(ref_triple(ref_vec3)), []),
        "inspection_boxes": (ref_each(ref_record(REF_BOX), nonempty=True), REQUIRED),
        "interest_points": (ref_record({
            "explicit": (ref_points, []),
            "scatter": (ref_each(ref_record({
                **REF_BOX, "count": (ref_count, REQUIRED),
                "seed": (ref_optional(ref_count), None),
                "faces": (ref_optional(ref_each(ref_one_of(FACES), nonempty=True)), None)})),
                []),
        }), {}),
    }), {}),
})


def reference_normalize(raw):
    """normalize_scenario as it parsed every number on its own, by its rule."""
    return REF_SCENARIO(raw, "")


def outcome(normalize, raw):
    """(canonical dict, None), or (None, the ConfigurationError's message)."""
    try:
        return normalize(copy.deepcopy(raw)), None
    except ConfigurationError as exc:
        return None, str(exc)


# every kind of numeric block, with ints among the floats
BLOCKS = {
    **FULL,
    "agents": [{"kind": "explorer", "start": [3, 3.0, 3.0]},
               {"kind": "photographer", "start": [3.0, 12.0, 3]}],
    "scene": {
        **FULL["scene"],
        "triangles": [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                      [[2, 0.0, 0.0], [3.0, 0.0, 0.0], [2.0, 1.0, 0.0]],
                      [[4.0, 0.0, 0.0], [5.0, 0.0, 0.0], [4.0, 1.0, 0.5]]],
        "interest_points": {
            **FULL["scene"]["interest_points"],
            "explicit": [{"id": 5, "position": [12.0, 15.0, 15.0], "normal": [-1.0, 0.0, 0.0]},
                         {"position": [18.0, 15, 15.0], "normal": [1.0, 0.0, 0.0]},
                         {"id": None, "position": [15.0, 12.0, 15.0], "normal": [0, -1, 0]}],
        },
    },
}
DELETE = object()       # a salt that removes its key
SALTS = [True, False, None, "1.0", math.nan, math.inf, -math.inf, 10 ** 400,
         2 ** 1024 - 2 ** 971, 2 ** 1024 - 2 ** 971 + 1, -(2 ** 1024 - 2 ** 971 + 1),
         sys.float_info.max, 2 ** 53 + 1, 7, -0.0, np.float64(2.5), np.float64(math.nan),
         np.int64(3), np.float32(40.0), np.uint64(2 ** 63), 2 ** 63, 2 ** 63 - 1, -2 ** 63 - 1,
         2 ** 70, [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [], (1.0, 2.0, 3.0), {"x": 1.0},
         [[1.0, 2.0, 3.0]] * 3, DELETE]


def block_slots(node, path=()):
    """The paths of every entry under node, node's own first."""
    yield path
    entries = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in entries:
        if isinstance(value, (dict, list)):
            yield from block_slots(value, (*path, key))
        else:
            yield (*path, key)


SLOTS = [(*root, *rest)
         for root in (("agents",), ("scene", "solid_boxes"), ("scene", "inspection_boxes"),
                      ("scene", "triangles"), ("scene", "interest_points", "explicit"))
         for rest in block_slots(at(BLOCKS, root))]
SLOTS += [("scene", "interest_points", "explicit", 1, "bogus")]


def salt_holder(raw, slot):
    """The node of raw that holds slot's last key, or None when an earlier
    salt replaced a node on the way or took the entry away."""
    *where, key = slot
    try:
        parent = at(raw, where)
    except (KeyError, IndexError, TypeError):
        return None
    if not (isinstance(parent, dict)
            or isinstance(parent, list) and isinstance(key, int) and key < len(parent)):
        return None
    return parent


def put_salt(parent, key, salt):
    if salt is not DELETE:
        parent[key] = copy.deepcopy(salt)
    elif isinstance(parent, dict):
        parent.pop(key, None)
    else:
        del parent[key]


@st.composite
def salted_scenarios(draw):
    """BLOCKS with a few entries of its numeric blocks replaced by a salt."""
    raw = copy.deepcopy(BLOCKS)
    for _ in range(draw(st.integers(0, 3))):
        slot = draw(st.sampled_from(SLOTS))
        parent = salt_holder(raw, slot)
        if parent is not None:
            put_salt(parent, slot[-1], draw(st.sampled_from(SALTS)))
    return raw


def dumped(canonical):
    return yaml.safe_dump(canonical, sort_keys=False)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(raw=salted_scenarios())
def test_block_parse_equals_the_per_entry_parse(raw):
    got, error = outcome(normalize_scenario, raw)
    expected, expected_error = outcome(reference_normalize, raw)
    assert error == expected_error
    if expected is not None:
        assert got == expected
        assert dumped(got) == dumped(expected)      # ints apart from floats, -0.0 from 0.0
        again = normalize_scenario(yaml.safe_load(dumped(got)))
        assert again == got and dumped(again) == dumped(got)


@pytest.mark.parametrize("where, salt, message", [
    (("scene", "triangles", 1, 2, 0), True,
     "scene.triangles[1][2][0] must be finite, got True"),
    (("scene", "triangles", 2, 1), [1.0, 2.0],
     "scene.triangles[2][1]: expected 3 components, got 2"),
    (("agents", 1, "start", 2), 2 ** 1024 - 2 ** 971 + 1,
     f"agents[1].start[2] must be finite, got {2 ** 1024 - 2 ** 971 + 1}"),
    (("scene", "interest_points", "explicit", 2, "normal", 0), np.float64(math.nan),
     f"scene.interest_points.explicit[2].normal[0] must be finite, got {np.float64(math.nan)!r}"),
    (("scene", "interest_points", "explicit", 1, "id"), np.uint64(2 ** 63),
     "scene.interest_points.explicit[1].id must be an integer in [-2**63, 2**63), got "
     f"{np.uint64(2 ** 63)!r}"),
    (("scene", "interest_points", "explicit", 1, "bogus"), 1.0,
     "scene.interest_points.explicit[1]: unknown key(s) ['bogus']"),
    (("scene", "solid_boxes", 0, "max"), (1.0, 2.0, 3.0),
     "scene.solid_boxes[0].max: expected a list, got tuple"),
], ids=["bool", "short-vertex", "int-past-the-largest-float", "numpy-nan", "numpy-int-id",
        "unknown-point-key", "tuple"])
def test_a_failed_block_names_its_first_bad_entry(where, salt, message):
    raw = copy.deepcopy(BLOCKS)
    *parent, key = where
    at(raw, parent)[key] = salt
    assert outcome(normalize_scenario, raw) == (None, message)


# --- the front door: salted whole scenarios through main --------------------------

def front_scenario():
    """FULL with a photographer beside its explorer, ids apart from the
    scatter's and every key of every section given, run for 1 s."""
    raw = copy.deepcopy(FULL)
    raw["mission"]["duration"] = 1.0
    raw["agents"] = MINIMAL["agents"]
    raw["scene"]["interest_points"]["explicit"][0]["id"] = 9
    return normalize_scenario(raw)


FRONT = front_scenario()
FRONT_SLOTS = list(block_slots(FRONT))[1:]
SCATTER = ("scene", "interest_points", "scatter", 0)


def flag_texts(flag, kind):
    """The texts of the salts that argparse reads by kind for flag, whose
    others it rejects with its usage; a duration flag takes none that runs
    past 1 s."""
    texts = []
    for salt in SALTS:
        try:
            value = kind(str(salt))
        except ValueError:
            continue
        if not (flag == "--duration" and 1.0 < value < 1e6):
            texts.append(str(salt))
    return texts


FLAG_SALTS = [(flag, text) for flag, kind in (("--seed", int), ("--duration", float),
                                              ("--voxel-size", float), ("--horizon", int))
              for text in flag_texts(flag, kind)]


def run_salted(edits, flags):
    """main on FRONT with each (slot, salt) of edits put in its file and
    flags given after --duration 1: (status, stdout, stderr)."""
    raw = copy.deepcopy(FRONT)
    for slot, salt in edits:
        parent = salt_holder(raw, slot)
        if parent is not None:
            # a file holds no numpy scalar: YAML reads it as the plain number
            put_salt(parent, slot[-1], salt.item() if isinstance(salt, np.generic) else salt)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "salted.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(["--scenario", str(path), "--duration", "1",
                           *(f"{flag}={text}" for flag, text in flags)])
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(st.tuples(st.sampled_from(FRONT_SLOTS), st.sampled_from(SALTS)),
                      max_size=3),
       flags=st.lists(st.sampled_from(FLAG_SALTS), max_size=2))
# a scatter count of 2**53 + 1 asked numpy for 64 PiB, and one of 2**63 - 1
# for an array too big, each a crash with exit status 3
@example(edits=[(SCATTER + ("count",), 2 ** 53 + 1)], flags=[])
@example(edits=[(SCATTER + ("count",), 2 ** 63 - 1)], flags=[])
# a scatter corner at the largest float made a face's area inf, and the draw
# of the faces by area raised "Probabilities contain NaN" (exit status 3)
@example(edits=[(SCATTER + ("max", 0), sys.float_info.max)], flags=[])
@example(edits=[(SCATTER + ("max", 1), 2 ** 1024 - 2 ** 971)], flags=[])
@example(edits=[(SCATTER + ("max", 2), sys.float_info.max)], flags=[])
# each overflowed in numpy, whose RuntimeWarning pytest makes an error: the
# operational volume's extent, a point's distance and camera coordinates, a
# normal's length, a triangle's bin, and a frame's blur
@example(edits=[], flags=[("--voxel-size", repr(sys.float_info.max))])
@example(edits=[(("scene", "interest_points", "explicit", 0, "position", 2),
                 sys.float_info.max)], flags=[])
@example(edits=[(("scene", "interest_points", "explicit", 1, "normal", 0),
                 sys.float_info.max)], flags=[])
@example(edits=[(("scene", "triangles", 0, 1, 1), sys.float_info.max)], flags=[])
@example(edits=[(("camera", "exposure"), sys.float_info.max)], flags=[])
def test_every_salted_scenario_ends_in_a_stated_status(edits, flags):
    # 0 for a clean run, 1 for violations, 2 for a rejected input; 3, a
    # crash, is what this test looks for, and pytest makes a RuntimeWarning
    # one; stderr holds one line per error, warning or mission run
    status, out, err = run_salted(edits, flags)
    lines = err.splitlines()
    assert status in (0, 1, 2), err
    assert all(line.startswith(("error: ", "warning: ", "running mission: "))
               for line in lines), err
    errors = [line for line in lines if line.startswith("error: ")]
    if status == 2:
        # a rejected mission is not announced
        assert len(errors) == 1 and lines[-1] == errors[0], err
        assert not any(line.startswith("running mission: ") for line in lines), err
    else:
        assert not errors, err
        violations = re.search(r"^violations: (\d+) ", out, re.M)
        assert violations and (int(violations.group(1)) > 0) == (status == 1), out


# --- set-up at scale ----------------------------------------------------------------

def large_mesh_scenario(seed=0):
    """mesh_tower's mission around a finer tower: 96 sides of 64 rings and a
    fan cap, 12,384 triangles, with 2,000 explicit points at the centroids of
    triangles drawn by the seed."""
    tris = prism_triangles((24.0, 24.0), 8.0, 24.0, sides=96, rings=64)
    picks = np.sort(np.random.default_rng(seed).choice(len(tris), 2000, replace=False))
    _, positions, normals = centroid_points(tris[picks])
    return {
        "mission": {"duration": 50.0, "tick": 0.1, "voxel_size": 6.0, "horizon": 3,
                    "waypoint_standoff": 12.0, "seed": seed},
        "agents": [{"kind": "explorer", "start": [9.0, 21.0, 21.0]},
                   {"kind": "photographer", "start": [9.0, 9.0, 9.0]},
                   {"kind": "photographer", "start": [39.0, 39.0, 9.0]}],
        "camera": {"exposure": 0.01, "range": 40.0},
        "lidar": {"beams": 8, "azimuth_steps": 30},
        "scene": {
            "triangles": tris.tolist(),
            "inspection_boxes": [{"min": [6.0, 6.0, 0.0], "max": [42.0, 42.0, 36.0]}],
            "interest_points": {"explicit": [
                {"id": int(i), "position": p, "normal": n}
                for i, p, n in zip(picks, positions.tolist(), normals.tolist())]},
        },
    }


@pytest.fixture(scope="module")
def large_mesh():
    """large_mesh_scenario(), its canonical dict and that dict's 2.8 MB of
    YAML, dumped once: a dump takes 1-1.5 s on a 2-vCPU VM."""
    raw = large_mesh_scenario()
    canonical = normalize_scenario(raw)
    return raw, canonical, yaml.dump(canonical, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper))


def test_a_12384_triangle_scene_sets_up_as_the_per_entry_path_does(large_mesh):
    raw, canonical, text = large_mesh
    assert len(raw["scene"]["triangles"]) == 12384
    assert normalize_scenario(canonical) == canonical
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert normalize_scenario(yaml.load(text, Loader=loader)) == canonical
    reference = reference_normalize(raw)
    assert canonical == reference

    _, scene = scenario_from_dict(canonical)
    explicit = reference["scene"]["interest_points"]["explicit"]
    expected = Scene(triangles=reference["scene"]["triangles"],
                     interest_points=point_arrays(
                         [(p["id"], p["position"], p["normal"]) for p in explicit]))
    assert scene.num_points == 2000
    for name in ("triangles", "point_ids", "point_positions", "point_normals"):
        got, want = getattr(scene, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_a_12384_triangle_scene_runs_a_tick(large_mesh):
    _, canonical, _ = large_mesh
    cfg, scene = scenario_from_dict({**canonical,
                                     "mission": {**canonical["mission"], "duration": 0.1}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = engine._Mission(cfg, scene).run()
    assert_findings(caught, "agent maps held structure cells free 8 times",
                    "no explorer finished its survey")
    assert result.num_ticks == 1 and result.violations == 0


def test_libyaml_and_the_pure_python_loader_read_the_same_scenarios(large_mesh):
    # load_scenario_dict reads with cli._Loader, libyaml's CSafeLoader where
    # PyYAML has it, under the repeated-key check, which reads the whole
    # 2.8 MB of YAML of the 12,384-triangle scene.  Both loaders build values
    # through one SafeConstructor and differ in their scanners alone, so the
    # pure-Python one, 5-10 s on that YAML on a 2-vCPU VM, reads a slice of
    # the scene that holds the same kinds of values
    for name in ("desk_box.yaml", "twin_pillars.yaml", "open_field.yaml"):
        text = (SCENARIOS / name).read_text(encoding="utf-8")
        raw = yaml.safe_load(text)
        assert yaml.load(text, Loader=cli._Loader) == raw, name
        assert load_scenario_dict(str(SCENARIOS / name)) == normalize_scenario(raw), name
    _, canonical, text = large_mesh
    assert yaml.load(text, Loader=cli._Loader) == canonical
    scene = canonical["scene"]
    part = {**canonical, "scene": {
        **scene, "triangles": scene["triangles"][:300],
        "interest_points": {**scene["interest_points"],
                            "explicit": scene["interest_points"]["explicit"][:300]}}}
    text = yaml.safe_dump(part)
    assert yaml.load(text, Loader=cli._Loader) == yaml.safe_load(text) == part
