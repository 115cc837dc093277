"""OpenStack-style cloud environment model: VMs, placement, autoscaling."""
