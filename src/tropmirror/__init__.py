"""Tropical mirror toolkit.

Exact lattice/tropical combinatorics on one side, floating-point amoeba
analysis on the other, and the multiplicative comparison between the two
package halves on top.  On the exact side, `fractions.Fraction` appears only
in the public lattice points, the exact geometry and the JSON boundary
(`lattice.frac_str`); the Floer ladder, the ring bases and the isomorphism
check run on integer numerators, the Floer product tables in bounded int64
arithmetic.
"""

__version__ = "0.1.0"

from . import amoeba, coordring, floer, lattice, tropical  # noqa: F401
