"""Workload generation for experiments."""
