"""Energy/QoS global optimizer: the constrained-optimisation scheduler core."""
