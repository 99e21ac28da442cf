"""Exact certification of non-rational-integrability for planar polynomial
vector fields, via variational data along an invariant curve and rational
solvability of the associated first-order linear equations.

The package root defines only ``__version__``; import from the submodules
(``ratcert.algebra``, ``ratcert.planar``, ``ratcert.risch``,
``ratcert.analyzer``, ``ratcert.parsing``, ``ratcert.cli``)."""

__version__ = "0.1.0"
