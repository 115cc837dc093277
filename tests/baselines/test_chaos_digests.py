"""Pinned delivery digests of the ``chaos`` fault scenario, seeds 1-20.

The Figure 2 / Figure 3 digests (``test_golden_digests.py``) pin the
simulator's calendar order on a fault-free run.  These pin it on the
paths only faults take -- crash and recover, a stopped receive path,
partitions, loss, duplication, reordering, checkpoint recovery -- as
the ``delivery digest`` ``python -m repro faults run chaos --seed N``
prints (in full here; the report shows its first 16 hex digits).  The
digest covers every replica's ``(stream, position, payload)`` sequence,
never ``msg_id``, so it does not depend on what ran earlier in the
process.

Captured before the simulator's mailbox and same-instant calendar lane
existed; any change to what a seed delivers, or in which order, shows
here.
"""

from __future__ import annotations

import pytest

from repro.faults import get_scenario, run_scenario

CHAOS_DIGESTS = {
    1: "6577744fc5b531a515e0cf60d5a68d754c03d2db2f7d57a2c0dfe38d2149da09",
    2: "9916d470d90cf618785fc2291fe1499b6c3192bd2320f68bcabc7747797829f6",
    3: "3305731eeec82a782a6261be3c45d123a34518721d82adfae66eb04b50e21f4b",
    4: "62874737bba315bee718b8c6c615409a461e69c299ed90796726fc307ab277f6",
    5: "9ac6276b44fa04c412066299e5c5b153adee128b5ba577f852974d1f84a068f4",
    6: "d3baa24f558e45fa56477c5137034be9acc4bc4bc4593fb7cea09ff00f254333",
    7: "98eef6c36bd2dd7b2f6aecc1ee83a9933621517118e62351af15fc53021b8c8b",
    8: "60b8f313be3cacf5115acfb194cf7eabeecade6949193303faad5e352b0cc51b",
    9: "9ee2ebbedf4ed27b6e1b15a5e17f5288ca0f3b6c5afd5850c59d670eca685413",
    10: "659ae60381d2e4bb72351218707f98b80e7acdd7a5c7c97a33bd7d3f6ef4c68e",
    11: "17db8362c8c007d9dd157a9918f1217c6f54a3363c03274c2ce01a8c68da16b9",
    12: "aeb8e591bbac134f96e4539de73e025de10ea1c41d8b3478922718478424e683",
    13: "87c5dea5d745e15266403a91ebc0b66951cc217ae4820440d5600d47897ee3c1",
    14: "d53855ada164c64fb84715d661b8a5a4cc4d616c5fe08452e81087aa3df21988",
    15: "1b965728ccb24bddfe8e1e2a513c5f9e42a7c14b3d7ccb6cc0d1cc04c20c441e",
    16: "9adf271bd2eae5a7bdf8675b323dbe3388bf08e9018a2877abd6c433693d835f",
    17: "a0144be684b26d9a4731d67ad8109445f8560696a93c54e1ad56203200a91b4a",
    18: "da55ac64d36d98ae11d004c247174da35c61aeca7de3c98d0546a1e39c68f59a",
    19: "d6d94f192433de4336a2f19647d44479b058dc9c5302e5e719e2475f372fbf30",
    20: "bd8065e6e9ba9e53b5d2e9a916ec6ee2b6b2670ef5cc7807bff6e04921cf4823",
}


@pytest.mark.parametrize("seed", sorted(CHAOS_DIGESTS))
def test_chaos_delivery_digest_is_pinned(seed):
    assert run_scenario(get_scenario("chaos"), seed=seed).digest == (
        CHAOS_DIGESTS[seed]
    )
