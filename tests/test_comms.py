import numpy as np

from uavinspect.comms import agent_pairs, discover_neighbors, exchange_and_merge
from uavinspect.scene import Scene, line_of_sight
from uavinspect.world import FREE, OCCUPIED, BoundingBox, OccupancyMap, VoxelGrid

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
    grid = VoxelGrid((0, 0, 0), dims, 1.0)
    return [OccupancyMap(grid) for _ in range(n)]


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
        maps[i].cells[i, 0, 0] = OCCUPIED
    n = neighbors(positions, Scene())
    merged = exchange_and_merge(n, maps)
    for i in range(3):
        assert np.array_equal(merged[i].cells, merged[0].cells)
        assert np.count_nonzero(merged[i].cells == OCCUPIED) == 3


def test_no_exchange_across_a_cut():
    wall = Scene(solid_boxes=[BoundingBox((5, -50, -50), (6, 50, 50))])
    positions = agents_at((0, 0, 0), (10, 0, 0))
    maps = fresh_maps(2)
    maps[0].cells[0, 0, 0] = OCCUPIED
    maps[1].cells[1, 0, 0] = FREE
    n = neighbors(positions, wall)
    merged = exchange_and_merge(n, maps)
    assert np.array_equal(merged[0].cells, maps[0].cells)
    assert np.array_equal(merged[1].cells, maps[1].cells)


def test_single_round_chain_semantics():
    # A-B-C in line of sight pairs (A,B) and (B,C): after one snapshot round the
    # middle agent holds all three maps, the ends hold their pair only
    positions = agents_at(*CHAIN_POSITIONS[:3])
    scene = chain_scene()
    maps = fresh_maps(3)
    for i in range(3):
        maps[i].cells[i, 0, 0] = OCCUPIED
    n = neighbors(positions, scene)
    assert n[0] == [1] and n[2] == [1]
    merged = exchange_and_merge(n, maps)
    assert {tuple(c) for c in merged[1].occupied_voxels()} == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}
    assert {tuple(c) for c in merged[0].occupied_voxels()} == {(0, 0, 0), (1, 0, 0)}
    assert {tuple(c) for c in merged[2].occupied_voxels()} == {(1, 0, 0), (2, 0, 0)}


def test_exchange_never_loses_occupied_cells():
    rng = np.random.default_rng(53)
    positions = agents_at(*rng.uniform(-5, 5, (4, 3)))
    maps = fresh_maps(4, dims=(5, 5, 1))
    for i in range(4):
        maps[i].cells[:] = rng.choice([0, 1, 2], size=(5, 5, 1))
    before = {i: set(map(tuple, maps[i].occupied_voxels())) for i in range(4)}
    n = neighbors(positions, Scene())
    merged = exchange_and_merge(n, maps)
    for i in range(4):
        after = set(map(tuple, merged[i].occupied_voxels()))
        assert before[i] <= after


def test_chain_consistency_in_diameter_rounds():
    positions = agents_at(*CHAIN_POSITIONS)
    scene = chain_scene()
    maps = fresh_maps(4)
    for i in range(4):
        maps[i].cells[i, 0, 0] = OCCUPIED
    n = neighbors(positions, scene)

    rounds = 0
    while rounds < 3:
        maps = exchange_and_merge(n, maps)
        rounds += 1
    reference = maps[0].cells
    assert np.count_nonzero(maps[0].cells == OCCUPIED) == 4
    for i in range(4):
        assert np.array_equal(maps[i].cells, reference)

    # two rounds are not enough for the far ends on a diameter-3 chain
    maps2 = fresh_maps(4)
    for i in range(4):
        maps2[i].cells[i, 0, 0] = OCCUPIED
    for _ in range(2):
        maps2 = exchange_and_merge(n, maps2)
    assert np.count_nonzero(maps2[0].cells == OCCUPIED) < 4
