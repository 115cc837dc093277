"""Experiment harness: deployment builder, applications, experiments."""
