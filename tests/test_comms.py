import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uavinspect.comms import agent_pairs, discover_neighbors, exchange_and_merge
from uavinspect.scene import Scene, line_of_sight
from uavinspect.world import (FREE, OCCUPIED, UNKNOWN, BoundingBox, OccupancyMap, VoxelGrid,
                              merge_maps)

from test_scene import reference_line_of_sight


def agents_at(*positions):
    """The fleet's position array, one row per agent."""
    return np.array(positions, dtype=float).reshape(-1, 3)


def neighbors(positions, scene):
    """The fleet's peer lists from its agent pairs' sight lines, cast by
    line_of_sight."""
    first, second = agent_pairs(len(positions))
    return discover_neighbors(len(positions), first, second,
                              line_of_sight(scene, positions[first], positions[second]))


def fresh_maps(n, dims=(4, 1, 1)):
    """The fleet's maps of n agents, all unknown: row i is agent i's map."""
    grid = VoxelGrid((0, 0, 0), dims, 1.0)
    return OccupancyMap(grid, np.full((n, *dims), UNKNOWN, np.uint8))


def row(maps, i):
    """Agent i's map, a view of its row of the fleet's maps."""
    return OccupancyMap(maps.grid, maps.cells[i])


def reference_exchange(peers, maps):
    """The gossip round on a list of maps, returning one new map per agent:
    the oracle for exchange_and_merge."""
    return [merge_maps(m, *(maps[j] for j in ps)) for m, ps in zip(maps, peers)]


def chain_scene():
    """Baffled corridor: agent i sees only agents i-1 and i+1."""
    gap_lo, gap_hi = 0.35, 0.65
    boxes = []
    for x in (1.0, 3.0, 5.0):
        boxes.append(BoundingBox((x, -5.0, -1.0), (x + 0.2, gap_lo, 2.0)))
        boxes.append(BoundingBox((x, gap_hi, -1.0), (x + 0.2, 5.0, 2.0)))
    return Scene(solid_boxes=boxes)


CHAIN_POSITIONS = [(0, 0, 0.5), (2, 1, 0.5), (4, 0, 0.5), (6, 1, 0.5)]


def test_empty_scene_gives_complete_graph():
    positions = agents_at((0, 0, 0), (5, 0, 0), (0, 7, 3))
    n = neighbors(positions, Scene())
    assert n == [[1, 2], [0, 2], [0, 1]]


def test_wall_splits_groups():
    wall = Scene(solid_boxes=[BoundingBox((5, -50, -50), (6, 50, 50))])
    positions = agents_at((0, 0, 0), (10, 0, 0), (10, 3, 0))
    n = neighbors(positions, wall)
    assert n == [[], [2], [1]]


def test_neighbor_symmetry_random_configurations():
    scene = Scene(solid_boxes=[BoundingBox((-1, -6, -6), (1, 6, 6)),
                               BoundingBox((3, -2, -9), (5, 9, 9))])
    rng = np.random.default_rng(47)
    for _ in range(1000):
        positions = agents_at(*rng.uniform(-10, 10, (4, 3)))
        n = neighbors(positions, scene)
        for i in range(4):
            assert i not in n[i]
            assert n[i] == sorted(set(n[i]))
            for j in n[i]:
                assert i in n[j]


def test_chain_topology_is_a_chain():
    n = neighbors(agents_at(*CHAIN_POSITIONS), chain_scene())
    assert n == [[1], [0, 2], [1, 3], [2]]


def reference_neighbors(positions, scene):
    """Each agent pair cast on its own: the oracle for discover_neighbors."""
    peers = [[] for _ in positions]
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if reference_line_of_sight(scene, positions[i], positions[j]):
                peers[i].append(j)
                peers[j].append(i)
    return [sorted(p) for p in peers]


def test_neighbors_equal_pairwise_reference():
    rng = np.random.default_rng(59)
    tris = rng.uniform(-8, 8, (12, 3, 3))
    scenes = [chain_scene(), Scene(solid_boxes=chain_scene().solid_boxes, triangles=tris),
              Scene(triangles=tris)]
    for scene in scenes:
        for n in (0, 1, 2, 3, 6, 9):
            for _ in range(15):
                pos = rng.uniform(-6, 8, (n, 3))
                pos[::3, 2] = 0.5                               # level pairs
                pos[1::4, 1] = scene._box_lo[0, 1] if len(scene._box_lo) else 0.0
                assert neighbors(pos, scene) == reference_neighbors(pos, scene)


def test_fully_connected_round_makes_maps_identical():
    positions = agents_at((0, 0, 0), (1, 0, 0), (2, 0, 0))
    maps = fresh_maps(3)
    for i in range(3):
        maps.cells[i, i, 0, 0] = OCCUPIED
    n = neighbors(positions, Scene())
    assert exchange_and_merge(n, maps) is None
    for i in range(3):
        assert np.array_equal(maps.cells[i], maps.cells[0])
        assert np.count_nonzero(maps.cells[i] == OCCUPIED) == 3


def test_no_exchange_across_a_cut():
    wall = Scene(solid_boxes=[BoundingBox((5, -50, -50), (6, 50, 50))])
    positions = agents_at((0, 0, 0), (10, 0, 0))
    maps = fresh_maps(2)
    maps.cells[0, 0, 0, 0] = OCCUPIED
    maps.cells[1, 1, 0, 0] = FREE
    before = maps.cells.copy()
    n = neighbors(positions, wall)
    exchange_and_merge(n, maps)
    assert np.array_equal(maps.cells[0], before[0])
    assert np.array_equal(maps.cells[1], before[1])


def test_single_round_chain_semantics():
    # A-B-C in line of sight pairs (A,B) and (B,C): after one snapshot round the
    # middle agent holds all three maps, the ends hold their pair only
    positions = agents_at(*CHAIN_POSITIONS[:3])
    scene = chain_scene()
    maps = fresh_maps(3)
    for i in range(3):
        maps.cells[i, i, 0, 0] = OCCUPIED
    n = neighbors(positions, scene)
    assert n[0] == [1] and n[2] == [1]
    exchange_and_merge(n, maps)
    assert {tuple(c) for c in row(maps, 1).occupied_voxels()} == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}
    assert {tuple(c) for c in row(maps, 0).occupied_voxels()} == {(0, 0, 0), (1, 0, 0)}
    assert {tuple(c) for c in row(maps, 2).occupied_voxels()} == {(1, 0, 0), (2, 0, 0)}


def test_exchange_never_loses_occupied_cells():
    rng = np.random.default_rng(53)
    positions = agents_at(*rng.uniform(-5, 5, (4, 3)))
    maps = fresh_maps(4, dims=(5, 5, 1))
    for i in range(4):
        maps.cells[i][:] = rng.choice([0, 1, 2], size=(5, 5, 1))
    before = {i: set(map(tuple, row(maps, i).occupied_voxels())) for i in range(4)}
    n = neighbors(positions, Scene())
    exchange_and_merge(n, maps)
    for i in range(4):
        after = set(map(tuple, row(maps, i).occupied_voxels()))
        assert before[i] <= after


def test_chain_consistency_in_diameter_rounds():
    positions = agents_at(*CHAIN_POSITIONS)
    scene = chain_scene()
    maps = fresh_maps(4)
    for i in range(4):
        maps.cells[i, i, 0, 0] = OCCUPIED
    n = neighbors(positions, scene)

    rounds = 0
    while rounds < 3:
        exchange_and_merge(n, maps)
        rounds += 1
    reference = maps.cells[0]
    assert np.count_nonzero(maps.cells[0] == OCCUPIED) == 4
    for i in range(4):
        assert np.array_equal(maps.cells[i], reference)

    # two rounds are not enough for the far ends on a diameter-3 chain
    maps2 = fresh_maps(4)
    for i in range(4):
        maps2.cells[i, i, 0, 0] = OCCUPIED
    for _ in range(2):
        exchange_and_merge(n, maps2)
    assert np.count_nonzero(maps2.cells[0] == OCCUPIED) < 4


@st.composite
def gossip_rounds(draw):
    """A fleet of 1-6 agents: its peer lists, from a random clear mask over its
    agent pairs, and its maps, random cell states on a small grid."""
    n = draw(st.integers(1, 6))
    first, second = agent_pairs(n)
    peers = discover_neighbors(n, first, second, draw(hnp.arrays(bool, len(first))))
    dims = draw(st.tuples(*[st.integers(1, 3)] * 3))
    states = st.sampled_from([UNKNOWN, FREE, OCCUPIED])
    cells = draw(hnp.arrays(np.uint8, (n, *dims), elements=states))
    return peers, OccupancyMap(VoxelGrid((0, 0, 0), dims, 1.0), cells)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gossip_rounds())
def test_in_place_round_equals_the_reference_round(round_):
    peers, maps = round_
    before = maps.cells.copy()
    expected = reference_exchange(peers, [OccupancyMap(maps.grid, c.copy()) for c in before])
    exchange_and_merge(peers, maps)
    for i, ps in enumerate(peers):
        assert np.array_equal(maps.cells[i], expected[i].cells)
        if not ps:
            assert np.array_equal(maps.cells[i], before[i])
