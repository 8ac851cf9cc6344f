"""Tropical mirror toolkit.

Exact lattice/tropical combinatorics on one side, floating-point amoeba
analysis on the other, and the multiplicative comparison between the two
package halves on top.  On the exact side, `fractions.Fraction` appears only
in the public lattice points, the exact geometry and the JSON boundary
(`lattice.frac_str`); the Floer ladder, the ring bases and the isomorphism
check run on integer numerators, the Floer product tables in bounded int64
arithmetic.

Importing the package loads none of its modules: import the one you use
(`tropmirror.lattice`, `tropmirror.tropical`, ...).  The command line
(`tropmirror.cli`) loads only the lattice layer up front and each command's
own modules when it runs, so `subdivide` and `hilbert` start without the
amoeba code, and `hilbert` without numpy.
"""

__version__ = "0.1.0"
