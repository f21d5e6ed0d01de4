"""Stability, stratification and exact finite-field cohomology for nodal
curves presented as genus-decorated dual multigraphs."""

__version__ = "0.1.0"
