"""Peer-to-peer map exchange, gated purely by line of sight.

One synchronous exchange round runs per engine tick: every agent merges the
map snapshots of all peers it can currently see.  Merging is commutative, so
ordering within a round cannot matter.  Agents are addressed by their row in
the fleet: peers[i] lists the rows of agent i's peers in ascending order.
"""

from __future__ import annotations

import numpy as np

from .agents import AgentState
from .scene import Scene, line_of_sight
from .world import OccupancyMap, merge_maps


def discover_neighbors(states: list[AgentState], scene: Scene) -> list[list[int]]:
    """Each agent's unobstructed peers; symmetric by construction.

    The sight lines of all pairs, each cast from the agent earlier in states,
    go through one line_of_sight call.
    """
    order = np.arange(len(states))
    first, second = np.nonzero(order[:, None] < order)      # (i, j), i < j, row by row
    positions = np.array([s.position for s in states], dtype=float).reshape(-1, 3)
    clear = line_of_sight(scene, positions[first], positions[second])
    peers: list[list[int]] = [[] for _ in states]
    # row by row, an agent's lower peers arrive before its higher ones: ascending
    for i, j in zip(first[clear].tolist(), second[clear].tolist()):
        peers[i].append(j)
        peers[j].append(i)
    return peers


def exchange_and_merge(peers: list[list[int]],
                       maps: list[OccupancyMap]) -> list[OccupancyMap]:
    """One gossip round: each agent merges the pre-round maps of its LoS peers.

    Works on a snapshot of all maps, so a chain A-B-C leaves A with A+B and the
    middle agent with all three after a single round.
    """
    return [merge_maps(m, *(maps[j] for j in ps)) for m, ps in zip(maps, peers)]
