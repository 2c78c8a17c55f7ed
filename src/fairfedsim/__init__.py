"""Deterministic simulator for fairness-constrained federated learning
with server-side gradient-conflict mitigation."""

__version__ = "0.1.0"
