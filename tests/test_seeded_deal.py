"""A dealing run is a function of its seeds: same RNG seeds, same bytes."""

import random

from helpers import closing_pair, counting_pair, run_two
from macbits import transport
from macbits.dealer import DealerConfig, deal
from macbits.transport import Role, run_pair

CFG = DealerConfig.for_gates(40, 4, 4, kappa=16, psi=8)


def _saved_stores(tmp_path, run: int):
    sa, sb = run_two(lambda a: deal(a, Role.ALICE, CFG, random.Random(11)),
                     lambda b: deal(b, Role.BOB, CFG, random.Random(12)),
                     timeout=60)
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


def _sent_and_stores(tmp_path, name):
    """Each party's sent frames, then its saved store, of the seeded deal."""
    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        stores = run_pair(lambda: deal(a, Role.ALICE, CFG, random.Random(11)),
                          lambda: deal(b, Role.BOB, CFG, random.Random(12)),
                          timeout=60, channels=(a, b))
    out = []
    for ch, store in zip((a, b), stores):
        path = tmp_path / f"{name}-{store.role}.mat"
        store.save(path)
        out.append(([(t, bytes(p)) for t, p in ch.sent], path.read_bytes()))
    return out


def test_duplex_rounds_send_the_same_bytes(tmp_path, monkeypatch):
    # with the bound at 0 every round that both sends and reads is duplex;
    # frames, their order per direction and the stores stay the same
    plain = _sent_and_stores(tmp_path, "plain")
    duplex_rounds = []
    duplex_flight = transport._duplex_flight
    monkeypatch.setattr(transport, "DUPLEX_MIN", 0)
    monkeypatch.setattr(transport, "_duplex_flight",
                        lambda *args: duplex_rounds.append(duplex_flight(*args)))
    assert _sent_and_stores(tmp_path, "duplex") == plain
    assert duplex_rounds
