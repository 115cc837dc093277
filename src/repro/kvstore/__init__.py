"""The partitioned, replicated key/value store of §VI.

Built entirely on the dynamic atomic multicast layer: every shard has a
dedicated stream, multi-partition queries use a shared stream, and
re-partitioning is a sequence of subscribe / map-change / unsubscribe
steps with no service interruption.
"""
