"""Numerical laboratory for pathwise mild solutions of 1-D stochastic heat
equations with maximal-monotone drift and additive noise.

Subpackages and modules:

- ``scalar_monotone``: monotone graphs, resolvents, Yosida approximations,
  convex primitives.
- ``grid_space``: discrete L^q(0,1) functions, norms, duality maps, the L^1
  bracket and the smoothed-modulus machinery.
- ``semigroup``: discrete Dirichlet Laplacian, heat semigroup, resolvents,
  deterministic convolution.
- ``noise``: exact per-mode Ornstein-Uhlenbeck sampling of the stochastic
  convolution and its path norms.
- ``solver``: pathwise splitting stepper (one lambda or a whole schedule
  at once), the lambda continuation with mild-identity and graph-inclusion
  certificates.
- ``verify``: experiment runners that confront the quantitative estimates
  with measured solver output.
- ``config`` / ``cli``: batch front-end for scripts and CI.
"""

__version__ = "0.1.0"
