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
here.  Seeds 1, 4, 5, 6, 8, 14, 18 and 19 were re-pinned when gap repair
began fetching every hole below the highest buffered instance in one
request instead of one hole per tick: repair traffic changes timing,
timing changes batching, and batching changes the positions values land
at.  Each of those seeds stays clean and converged.
"""

from __future__ import annotations

import pytest

from repro.faults.runner import run_scenario
from repro.faults.scenarios import get_scenario

CHAOS_DIGESTS = {
    1: "214d0f653fe882b25ac6c4074c92ca1d1f551303348bb50d02847cee6c7869c2",
    2: "9916d470d90cf618785fc2291fe1499b6c3192bd2320f68bcabc7747797829f6",
    3: "3305731eeec82a782a6261be3c45d123a34518721d82adfae66eb04b50e21f4b",
    4: "a0ec507e15680c0aa85b169d6f8d28a42d49e0fc55abf9b775402f68b09af830",
    5: "fa69ca0aa218ca7fbc9fc519ec4585567e232ecfb8ea4b13b2f143183912a0ac",
    6: "deae217b4e13b5f7955c97f8081cccc28d9e5538ba9906c2087f540b1cc7cd0e",
    7: "98eef6c36bd2dd7b2f6aecc1ee83a9933621517118e62351af15fc53021b8c8b",
    8: "564175201c3dd88dc0abfd387dbeeaf73432fc4f0ea331101a0f1dd8744673c8",
    9: "9ee2ebbedf4ed27b6e1b15a5e17f5288ca0f3b6c5afd5850c59d670eca685413",
    10: "659ae60381d2e4bb72351218707f98b80e7acdd7a5c7c97a33bd7d3f6ef4c68e",
    11: "17db8362c8c007d9dd157a9918f1217c6f54a3363c03274c2ce01a8c68da16b9",
    12: "aeb8e591bbac134f96e4539de73e025de10ea1c41d8b3478922718478424e683",
    13: "87c5dea5d745e15266403a91ebc0b66951cc217ae4820440d5600d47897ee3c1",
    14: "1121b228c956137b8e64dedb2a7b5daea01b74ffb434aadf22fbcae3d3bb5e14",
    15: "1b965728ccb24bddfe8e1e2a513c5f9e42a7c14b3d7ccb6cc0d1cc04c20c441e",
    16: "9adf271bd2eae5a7bdf8675b323dbe3388bf08e9018a2877abd6c433693d835f",
    17: "a0144be684b26d9a4731d67ad8109445f8560696a93c54e1ad56203200a91b4a",
    18: "d518bc454004cb93525e88ec4084e9c08ae42f45d8c770c90239befaef33d758",
    19: "8b75b09152fc163b76480153dec0fa80d2820ce4647e4cd5bd86936cdf4a6f05",
    20: "bd8065e6e9ba9e53b5d2e9a916ec6ee2b6b2670ef5cc7807bff6e04921cf4823",
}


@pytest.mark.parametrize("seed", sorted(CHAOS_DIGESTS))
def test_chaos_delivery_digest_is_pinned(seed):
    assert run_scenario(get_scenario("chaos"), seed=seed).digest == (
        CHAOS_DIGESTS[seed]
    )
