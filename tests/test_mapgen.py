import hashlib
from collections import deque

import numpy as np

import mapgen

# sha256 of building_blocked(seed).tobytes() for the benchmark's pool maps.
POOL_MAP_SHA256 = {
    1: "cf359b87d8e85765b2aee9e327d79be640c5bc3ab61b376fdb85303e472efd0b",
    4: "a6eab8118e646261409a6b2c4b6d6b63f400a1d631895cc9b3d3c20db64a0b79",
    10: "3d63fbfd10fc23eed75562a489dbf12198ef38719e481c4779c598b3626b6c0a",
    12: "dfcf06d8967b47c5a6fba120655797ee072aad1ea600be2a1f6d5aee0c17db85",
    13: "bd9ef71f371a4fdbfd4437d53e7e2193ee317c065d4b68621043f897a208b2f6",
    15: "722763c3906113fd83178cc41cbc51bb7986369a885cffccb1044eac57f3e6bb",
    17: "60c1e2b472689f0f1effb50c3ca7be38c730de22d677630ff4222a057cee2de4",
    18: "c475d93008d184b4d0ce1370696f26e13eb19c0aa77af3a604afaedb682510f1",
}

# sha256 of the first five hard_instances of each pool map, drawn as the
# benchmark draws them (seed 1000 + map seed); its pools take 3 or 5.
POOL_INSTANCES_SHA256 = {
    1: "55437aa1d189566c2d4e62eafee8654e5e482364ac4b8b7b1232457cb59466ec",
    4: "a71d3c0997a7f10d278a1c50b801f16722ee568c812092ab83daaa33ab1a62fc",
    10: "4a9ca96a2ed95682afd097baf2cd0aa7cadf3ffc8fd3c2002c2d67872622d2c0",
    12: "bf92e37698bace2a6c10f2a2894ba299e0c2a1178b630ea55792c5e05ca40d08",
    13: "79126a864e908415bb726591773cef4daa75947831397ee343201d0964da588e",
    15: "069ed3b4cbe3f096472926e17fd9354c7840defa49a6c688a85d9b4a96ab7ec5",
    17: "0ad368cd64c10ce0113b00b3d16ce090d137a3554232cf108dcefbe476b32d98",
    18: "5d2980545c1d700c02c91b7dbd9bd7588682bb9787627f365a5a9022f6c6270f",
}


class TestBuildingBlocked:
    def test_every_seed_builds_with_closed_border(self):
        # Seeds 11 and 21 draw a 7-wide door between walls 8 apart.
        for seed in range(31):
            blocked = mapgen.building_blocked(seed)
            assert blocked.shape == (128, 128)
            assert blocked[0, :].all() and blocked[-1, :].all(), seed
            assert blocked[:, 0].all() and blocked[:, -1].all(), seed

    def test_pool_maps_unchanged(self):
        for seed, digest in POOL_MAP_SHA256.items():
            blocked = mapgen.building_blocked(seed)
            assert hashlib.sha256(blocked.tobytes()).hexdigest() == digest, seed


class TestHardInstances:
    def test_pool_instances_unchanged(self):
        for seed, digest in POOL_INSTANCES_SHA256.items():
            map_id = f"building{seed:02d}.map"
            instances = mapgen.hard_instances(
                mapgen.building_blocked(seed), map_id, 5, seed=1000 + seed
            )
            text = repr([
                (i.map_id, i.start, i.goal, i.bucket, i.reference_length) for i in instances
            ])
            assert hashlib.sha256(text.encode()).hexdigest() == digest, seed

    def test_distances_match_a_plain_bfs(self):
        # A queue BFS over the 8 neighbours, on a noisy map with walled-off parts.
        blocked = np.random.default_rng(7).random((23, 31)) < 0.35
        blocked[4, 6] = False
        dist = mapgen._octile_distances(blocked, (6, 4))
        expected = np.full(blocked.shape, np.inf)
        expected[4, 6] = 0.0
        queue = deque([(6, 4)])
        while queue:
            c, r = queue.popleft()
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    cc, rr = c + dc, r + dr
                    if (0 <= cc < 31 and 0 <= rr < 23 and not blocked[rr, cc]
                            and expected[rr, cc] == np.inf):
                        expected[rr, cc] = expected[r, c] + 1
                        queue.append((cc, rr))
        assert np.array_equal(dist, expected)
        assert np.isinf(dist).any() and (dist > 5).any()
