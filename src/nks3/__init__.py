"""Numerical differential geometry of the nearly Kähler product of two 3-spheres."""

__version__ = "0.1.0"
