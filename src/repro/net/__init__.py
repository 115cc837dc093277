"""Message and actor abstractions on top of the simulated network."""
