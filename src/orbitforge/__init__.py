"""Exact tools for distinguished orbits of reductive representations.

Subpackages of functionality:

* ``ratgeom``  -- exact rational convex geometry (mcc, relative interior)
* ``lattice``  -- root systems and diagonal subalgebras (gl, sp)
* ``coeffs``   -- r*sqrt(s) exact coefficients
* ``reps``     -- n-ary form and Lie bracket representations, weights, gl and sp moment maps
* ``nicecrit`` -- nice spaces from their weights, distinguished-orbit verdicts,
  critical coefficients
* ``flow``     -- binary64 Newton solver for the moment equation
* ``ternary``  -- strata of ternary forms, degree-4 classification
* ``nilgeom``  -- nilpotent brackets, minimal compatible metrics
"""

__version__ = "0.1.0"
