"""Quickstart: dynamic atomic multicast in ~60 lines.

Builds two Paxos streams, a replica group subscribed to the first,
multicasts a few messages, then *dynamically subscribes* the group to
the second stream at run time -- the headline capability of Elastic
Paxos -- and shows the merged delivery order.

Run:  python examples/quickstart.py
"""

from repro.multicast.api import MulticastClient
from repro.multicast.replica import MulticastReplica
from repro.multicast.stream import StreamDeployment
from repro.paxos.config import StreamConfig
from repro.sim.core import Environment
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import RngRegistry


def main():
    env = Environment()
    network = Network(env, rng=RngRegistry(42), default_link=LinkSpec(latency=0.001))

    # Two streams, three acceptors each (λ tops idle streams up with
    # skips so the merge never stalls).
    directory = {}
    for name in ("S1", "S2"):
        config = StreamConfig(
            name=name,
            acceptors=(f"{name}/a1", f"{name}/a2", f"{name}/a3"),
            lam=500,
            delta_t=0.05,
        )
        directory[name] = StreamDeployment(env, network, config)
        directory[name].start()

    # A replica group of two; both start subscribed to S1 only.
    delivered = {"replica-1": [], "replica-2": []}

    def make_replica(name):
        replica = MulticastReplica(
            env,
            network,
            name,
            group="G",
            directory=directory,
            on_deliver=lambda value, stream, pos, _n=name: delivered[_n].append(
                (value.payload, stream)
            ),
        )
        replica.bootstrap(["S1"])
        return replica

    replicas = [make_replica("replica-1"), make_replica("replica-2")]
    client = MulticastClient(env, network, "client", directory)

    # The scenario is a schedule of calls at simulated times.
    # Plain multicast to the subscribed stream.
    for i in range(3):
        env.call_at(0.02 * i, client.multicast, "S1", f"s1-msg-{i}")

    # Dynamic subscription: ordered in BOTH S2 and S1; the replicas
    # compute the merge point and start merging S2 deterministically.
    def subscribe():
        print("subscribing group G to stream S2 ...")
        client.subscribe_msg("G", new_stream="S2", via_stream="S1")

    env.call_at(0.06, subscribe)
    for i in range(3):
        env.call_at(0.26 + 0.02 * i, client.multicast, "S2", f"s2-msg-{i}")
        env.call_at(0.26 + 0.02 * i, client.multicast, "S1", f"s1-more-{i}")

    # And unsubscribe again -- one ordered message is enough.
    def unsubscribe():
        print("unsubscribing group G from stream S2 ...")
        client.unsubscribe_msg("G", "S2")

    env.call_at(0.32, unsubscribe)
    env.run(until=2.0)

    print("\nsubscriptions now:", replicas[0].subscriptions)
    print("\ndelivery order (replica-1):")
    for payload, stream in delivered["replica-1"]:
        print(f"  [{stream}] {payload}")
    assert delivered["replica-1"] == delivered["replica-2"], "replicas diverged!"
    print("\nboth replicas delivered the identical sequence ✓")


if __name__ == "__main__":
    main()
