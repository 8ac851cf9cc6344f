"""Tropical mirror toolkit.

Exact lattice/tropical combinatorics on one side (fractions, with the
Floer product tables in bounded integer arithmetic), floating-point amoeba
analysis on the other, and the multiplicative comparison between the two
package halves on top.
"""

__version__ = "0.1.0"

from . import amoeba, coordring, floer, lattice, tropical  # noqa: F401
