"""Peer-to-peer map exchange, gated purely by line of sight.

One synchronous exchange round runs per engine tick: every agent merges the
map snapshots of all peers it can currently see.  Merging is commutative, so
ordering within a round cannot matter.  Agents are addressed by their row in
the fleet: peers[i] lists the rows of agent i's peers in ascending order.
"""

from __future__ import annotations

import numpy as np

from .scene import Scene, line_of_sight
from .world import OccupancyMap, merge_maps


def discover_neighbors(positions: np.ndarray, scene: Scene) -> list[list[int]]:
    """Each agent's unobstructed peers, from the fleet's positions (n, 3);
    symmetric by construction.

    The sight lines of all pairs, each cast from the agent of the earlier
    row, go through one line_of_sight call.
    """
    order = np.arange(len(positions))
    first, second = np.nonzero(order[:, None] < order)      # (i, j), i < j, row by row
    clear = line_of_sight(scene, positions[first], positions[second])
    peers: list[list[int]] = [[] for _ in positions]
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
