"""Helmholtz projection onto the kernel of the centered divergence, on fully
periodic grids.

The projector is the discrete Leray projection of the solenoidal basis
(``SolenoidalBasis.leray``): the basis coefficients synthesized back, plus
the componentwise means.  It is exactly idempotent and leaves the field
discretely divergence free to roundoff, with no pressure Poisson problem.
A field whose centered divergence is exactly zero is its own projection and
comes back as an unchanged copy.  Grids with walls have no such basis, and
nothing is projected there.
"""

from __future__ import annotations

import numpy as np

from .basis import SolenoidalBasis
from .fields import divergence_matrix
from .grid import Grid


def helmholtz_project(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Project a (2, nx, ny) field on a fully periodic grid onto the
    discretely divergence-free subspace; returns a new array of the same
    shape.

    Gradient fields map to zero, fields with exactly zero divergence are
    returned bit for bit, and the projector is idempotent.
    """
    if not (divergence_matrix(grid) @ v.reshape(-1)).any():
        return v.copy()
    return SolenoidalBasis.for_grid(grid).leray(v)
