"""Candidate-minimizer region tools for partially known convex objectives.

The objective is f = f_known + f_unknown where f_known is a weighted sum of
convex quadratics (optionally with declared nonsmooth points) and f_unknown
is known only through a strong-convexity constant sigma and a compact set
that contains its minimizer.  This package decides, for query points, whether
the point can be a minimizer of such a sum, and scans grids to produce the
region of all candidate minimizers.

Import from the modules: funcmodel (the known function), geometry (the one
region type, Region, built as a Ball or a FinitePointSet), membership (the
classification kernel), scanner (grids and masks), oracle (necessity
campaigns), errors and cli.
"""

__version__ = "0.1.0"
