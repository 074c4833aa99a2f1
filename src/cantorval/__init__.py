"""Exact-arithmetic toolkit for achievement sets of convergent series."""

__version__ = "0.1.0"
