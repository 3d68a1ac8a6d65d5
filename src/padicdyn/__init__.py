"""Exact finite-depth analysis of 1-Lipschitz dynamics on the p-adic integers."""

__version__ = "0.1.0"
