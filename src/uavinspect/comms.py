"""Peer-to-peer map exchange, gated purely by line of sight.

One synchronous exchange round runs per engine tick, in place on the fleet's
maps: every agent merges the map snapshots of all peers it can currently see.
Merging is commutative and idempotent, so ordering within a round cannot
matter and an agent with no peer has nothing to merge.  Agents are addressed
by their row in the fleet: peers[i] lists its peers' rows in ascending order.
Neighbour discovery casts nothing: it reads a clear mask of the fleet's
agent pairs, which the engine casts with the tick's LiDAR rays.
"""

from __future__ import annotations

import numpy as np

from .world import OccupancyMap, merge_maps


def agent_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (first[p], second[p]) of a fleet of n agents, first < second,
    row by row: the order of the sight lines discover_neighbors reads, each
    cast from the agent of the earlier row."""
    order = np.arange(n)
    return np.nonzero(order[:, None] < order)


def discover_neighbors(n: int, first: np.ndarray, second: np.ndarray,
                       clear: np.ndarray) -> list[list[int]]:
    """Each of n agents' unobstructed peers, from clear, which pairs of
    agent_pairs(n) nothing blocks; symmetric by construction."""
    peers: list[list[int]] = [[] for _ in range(n)]
    # row by row, an agent's lower peers arrive before its higher ones: ascending
    for i, j in zip(first[clear].tolist(), second[clear].tolist()):
        peers[i].append(j)
        peers[j].append(i)
    return peers


def exchange_and_merge(peers: list[list[int]], maps: OccupancyMap) -> None:
    """One gossip round on the fleet's maps, row i agent i's: each agent with
    a peer merges its row with its LoS peers' rows, in place.

    Every merge reads the rows as they were before the round, so a chain A-B-C
    leaves A with A+B and the middle agent with all three after a single
    round.  The row of an agent with no peer is left as it is.
    """
    # peers are symmetric, so the rows of the agents with a peer are all the round reads
    linked = [i for i, ps in enumerate(peers) if ps]
    before = {i: OccupancyMap(maps.grid, maps.cells[i].copy()) for i in linked}
    for i in linked:
        maps.cells[i] = merge_maps(before[i], *(before[j] for j in peers[i])).cells
