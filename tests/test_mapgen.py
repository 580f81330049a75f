import hashlib

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
