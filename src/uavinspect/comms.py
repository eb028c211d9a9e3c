"""Peer-to-peer map exchange, gated purely by line of sight.

One synchronous exchange round runs per engine tick: every agent merges the
map snapshots of all peers it can currently see.  Merging is commutative, so
ordering within a round cannot matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import AgentState
from .scene import Scene, line_of_sight
from .world import OccupancyMap, merge_maps


@dataclass
class NeighborSet:
    """Symmetric visibility relation between agents at one tick."""

    peers: dict[int, frozenset[int]]

    def of(self, agent_id: int) -> frozenset[int]:
        return self.peers.get(agent_id, frozenset())

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in sorted(self.peers):
            for j in sorted(self.peers[i]):
                if i < j:
                    out.append((i, j))
        return out


def discover_neighbors(states: list[AgentState], scene: Scene) -> NeighborSet:
    """All unobstructed agent pairs; symmetric by construction.

    The sight lines of all pairs, each cast from the agent earlier in states,
    go through one line_of_sight call.
    """
    order = np.arange(len(states))
    first, second = np.nonzero(order[:, None] < order)      # (i, j), i < j, row by row
    positions = np.array([s.position for s in states], dtype=float).reshape(-1, 3)
    clear = line_of_sight(scene, positions[first], positions[second])
    peers: dict[int, set[int]] = {s.id: set() for s in states}
    for i, j in zip(first[clear].tolist(), second[clear].tolist()):
        peers[states[i].id].add(states[j].id)
        peers[states[j].id].add(states[i].id)
    return NeighborSet({k: frozenset(v) for k, v in peers.items()})


def exchange_and_merge(neighbors: NeighborSet,
                       maps: dict[int, OccupancyMap]) -> dict[int, OccupancyMap]:
    """One gossip round: each agent merges the pre-round maps of its LoS peers.

    Works on a snapshot of all maps, so a chain A-B-C leaves A with A+B and the
    middle agent with all three after a single round.
    """
    return {i: merge_maps(maps[i], *(maps[j] for j in sorted(neighbors.of(i))))
            for i in sorted(maps)}
