"""Constructions, verification and spectrum search for k-regular graphs of given girth."""

from .graph import ACYCLIC, Graph, check_kg

__version__ = "0.1.0"

__all__ = ["ACYCLIC", "Graph", "check_kg", "__version__"]
