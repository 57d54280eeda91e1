"""A dealing run is a function of its seeds: same RNG seeds, same bytes."""

import random

from macbits.dealer import DealerConfig, deal
from macbits.transport import Role, memory_pair, run_pair


def _saved_stores(tmp_path, run: int):
    cfg = DealerConfig.for_gates(40, 4, 4, kappa=16, psi=8)
    a, b = memory_pair(timeout=60.0)
    sa, sb = run_pair(lambda: deal(a, Role.ALICE, cfg, random.Random(11)),
                      lambda: deal(b, Role.BOB, cfg, random.Random(12)),
                      timeout=60, channels=(a, b))
    out = []
    for name, store in (("alice", sa), ("bob", sb)):
        path = tmp_path / f"{name}-{run}.mat"
        store.save(path)
        out.append(path.read_bytes())
    return out


def test_seeded_deal_is_byte_identical(tmp_path):
    first = _saved_stores(tmp_path, 0)
    second = _saved_stores(tmp_path, 1)
    assert first == second
    assert first[0] != first[1]
