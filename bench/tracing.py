"""Per-layer attribution by wrapping the package's public functions.

A function imported by name lives on in every module that imported it, so a
wrapper has to replace it in each of those namespaces; ``Tracer.install``
finds them by identity across the loaded ``uavinspect`` modules.  Spans are
kept as running sums per function: calls and self time, which excludes the
time spent in nested wrapped calls.  Counters are taken at the
same boundaries, from the arguments and results of each call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "uavinspect"


def _rays(counts, args, out, pre):
    counts["scene.ray_cast_batch.rays"] += len(np.atleast_2d(args[2]))


def _lidar(counts, args, out, pre):
    hits, misses = out
    counts["sensors.lidar_sweep.hits"] += len(hits)
    counts["sensors.lidar_sweep.rays"] += len(hits) + len(misses)


def _observations(counts, args, out, pre):
    counts["sensors.observe.observations"] += len(out)


def _cells_before(args):
    return args[0].cells.copy()


def _integrated(name):
    def after(counts, args, out, pre):
        counts[f"world.{name}.points"] += len(np.asarray(args[2]).reshape(-1, 3))
        counts["world.cells_learned"] += int(np.count_nonzero(args[0].cells != pre))
    return after


def _merge(counts, args, out, pre):
    counts["comms.merges_useful"] += int(not np.array_equal(out.cells, args[0].cells))


def _waypoints(counts, args, out, pre):
    counts["planning.waypoints"] += len(out)


def _dijkstra(counts, args, out, pre):
    counts["planning.dijkstra_found"] += int(bool(out))


# (module, function, counter taken after the call, state taken before it);
# the span of each is named "module.function".
TARGETS = [
    ("scene", "ray_cast_batch", _rays, None),
    ("scene", "visible_point_indices", None, None),
    ("scene", "line_of_sight", None, None),
    ("scene", "scene_occupancy", None, None),
    ("sensors", "lidar_sweep", _lidar, None),
    ("sensors", "observe", _observations, None),
    ("world", "integrate_points", _integrated("integrate_points"), _cells_before),
    ("world", "carve_free", _integrated("carve_free"), _cells_before),
    ("world", "merge_maps", _merge, None),
    ("comms", "discover_neighbors", None, None),
    ("comms", "exchange_and_merge", None, None),
    ("planning", "generate_waypoints", _waypoints, None),
    ("planning", "mtsp_assign", None, None),
    ("planning", "dijkstra_path", _dijkstra, None),
    ("planning", "drhlp_step", None, None),
    ("agents", "track_segment", None, None),
    ("agents", "step_dynamics", None, None),
    ("agents", "point_gimbal", None, None),
    ("engine", "update_ledger", None, None),
]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps every target while installed; ``restore`` puts the originals back."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.overhead_s = 0.0       # wrapper bookkeeping outside the wrapped calls
        self._stack: list[float] = []
        self._patched: list = []

    def install(self) -> "Tracer":
        """Bind a wrapper wherever a package module holds a target function."""
        modules = package_modules()
        for module, fname, after, before in TARGETS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), fname)
            wrapper = self._wrap(f"{module}.{fname}", original, after, before)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.overhead_s = 0.0

    def _wrap(self, name, original, after, before):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            pre = before(args) if before else None
            stack.append(0.0)
            t1 = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                t2 = clock()
                nested = stack.pop()
            if after:
                after(self.counts, args, out, pre)
            self.calls[name] += 1
            self.self_s[name] += t2 - t1 - nested
            t3 = clock()
            self.overhead_s += (t1 - t0) + (t3 - t2)
            if stack:
                stack[-1] += t3 - t0
            return out

        return wrapper
