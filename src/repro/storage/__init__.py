"""Stable storage, acceptor logs and checkpointing."""
