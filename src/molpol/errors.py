"""Exception types shared across the package.

The CLI maps these onto its exit codes: DataError (including
QuantumNumberError and GridError) -> 3, NumericalError (including
DegenerateSpectraError) -> 4.
"""

from __future__ import annotations


class DataError(Exception):
    """Malformed dataset input: bad file, bad units, inconsistent metadata."""


class QuantumNumberError(DataError, ValueError):
    """A requested J that is not an integer, below omega or past rovib's float-exact J(J+1), a level count that is not an integer >= 1, a cap on final v or J that is not an integer, a negative cap on final v, or a cap on final v or J that leaves no line with angular weight."""


class GridError(DataError, ValueError):
    """A radial grid with non-finite bounds, no finite 1/h^2, or a point count that is not an integer from 16 to MAX_GRID_POINTS."""


class NumericalError(Exception):
    """A computation could not produce a trustworthy result."""


class DegenerateSpectraError(NumericalError, ValueError):
    """Magic-frequency search given two spectra that are identical everywhere."""
