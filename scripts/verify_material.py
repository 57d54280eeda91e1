"""Cross-check a dealt material store pair.

Loads both parties' store files and verifies every MAC relation, triple
product, and OT quad against the two global keys. This inspects both
parties' secrets at once, so it is a bench/debug tool only; a deployment
never holds both files on one machine.
"""

import argparse
import sys

from macbits.dealer import MaterialStore, verify_stores
from macbits.errors import ParseError, ProtocolAbort
from macbits.transport import Role


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("store", nargs=2, help="the two parties' store files")
    args = ap.parse_args()

    try:
        stores = [MaterialStore.load(p) for p in args.store]
    except (ParseError, OSError) as e:
        print(f"cannot load store: {e}", file=sys.stderr)
        return 3
    if {s.role for s in stores} != {Role.ALICE, Role.BOB}:
        print("need one store from each role", file=sys.stderr)
        return 3
    pairs = sorted(zip(stores, args.store),
                   key=lambda p: p[0].role is not Role.ALICE)
    sa, sb = pairs[0][0], pairs[1][0]

    try:
        checked = verify_stores(sa, sb)
    except ProtocolAbort as e:
        print(f"INVALID [{e.phase}]: {e.detail}", file=sys.stderr)
        return 2
    for s, path in pairs:
        print(f"{path}: role {s.role.name}, kappa={s.kappa}, psi={s.psi}, "
              f"abits={s.remaining('abits_mine')}, "
              f"aands={s.remaining('aands_mine')}, "
              f"aots={s.remaining('aots_sender')}+"
              f"{s.remaining('aots_receiver')}")
    print(f"ok: {checked} relations verified, session "
          f"{sa.session_id.hex()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
