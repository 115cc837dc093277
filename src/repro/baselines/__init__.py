"""Baselines and ablations the paper compares against."""
