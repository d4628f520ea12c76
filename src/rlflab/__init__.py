"""rlflab: a numerical laboratory for ODE flows under Osgood-Sobolev
continuity conditions.

The package constructs ensembles of trajectories for bounded vector fields
whose continuity is certified by an integrable witness against an Osgood
modulus, and measures both sides of the quantitative stability, regularity
and compactness estimates that govern such flows.
"""

__version__ = "0.1.0"
