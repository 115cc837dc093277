"""The paper's evaluation, one module per figure/claim.

* :mod:`vertical` -- Fig. 3: dynamically adding streams (§VII-C);
* :mod:`horizontal` -- Fig. 4: splitting a key/value store shard (§VII-D);
* :mod:`reconfig` -- Fig. 5: replacing the acceptor set under load (§VII-E);
* :mod:`provisioning` -- §VI: ~60 s to add a stream from fresh VMs.
"""
