"""Coordination service: versioned configuration registry with watches."""
