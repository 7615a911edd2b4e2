"""Orthonormal basis of the discrete solenoidal subspace on periodic grids.

For every nonzero integer wavevector the centered divergence acts on the two
Fourier amplitudes through the symbol (sin(kx hx)/hx, sin(ky hy)/hy); its
null direction gives one real cosine and one real sine basis field per
conjugate pair of wavevectors.  Self-conjugate lattice points (Nyquist
combinations) have a vanishing symbol, so both unit polarizations enter.
The k = 0 amplitudes (componentwise means) are excluded: on the torus they
are neutral directions that never couple back, and dropping them keeps the
stability bookkeeping meaningful.

Columns are orthonormal in the grid inner product and exactly divergence
free for the same centered stencil used by the rest of the package, so
restricting operators to this basis is an exact invariant-subspace
reduction, not a Galerkin approximation, whenever the operator preserves
the subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .grid import Grid


@dataclass
class SolenoidalBasis:
    grid: Grid
    dim: int
    # pair modes: one conjugate representative each, cos and sin columns
    pair_kflat: np.ndarray
    pair_negkflat: np.ndarray
    pair_t: np.ndarray          # (npair, 2) polarization
    pair_cos_col: np.ndarray
    pair_sin_col: np.ndarray
    # self-conjugate modes: one column per unit polarization
    spec_kflat: np.ndarray
    spec_dir: np.ndarray        # 0 -> e_x, 1 -> e_y
    spec_col: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def for_grid(cls, grid: Grid) -> "SolenoidalBasis":
        if not grid.fully_periodic:
            raise ConfigurationError(
                "the solenoidal Fourier basis requires a fully periodic grid"
            )
        if "solenoidal_basis" not in grid._cache:
            grid._cache["solenoidal_basis"] = cls._build(grid)
        return grid._cache["solenoidal_basis"]

    @classmethod
    def _build(cls, grid: Grid) -> "SolenoidalBasis":
        nx, ny = grid.nx, grid.ny
        kx_int = np.fft.fftfreq(nx, d=1.0 / nx).astype(int)
        ky_int = np.fft.fftfreq(ny, d=1.0 / ny).astype(int)

        # one representative per conjugate pair, the one of smaller flat index
        flat = np.arange(1, nx * ny)
        mx, my = np.divmod(flat, ny)
        negflat = ((-mx) % nx) * ny + (-my) % ny
        keep = flat <= negflat
        flat, mx, my, negflat = flat[keep], mx[keep], my[keep], negflat[keep]
        # deterministic ordering: by |k|^2 then integer components
        kx, ky = kx_int[mx], ky_int[my]
        order = np.lexsort((ky, kx, kx**2 + ky**2))
        flat, mx, my, negflat = flat[order], mx[order], my[order], negflat[order]
        # every representative takes two consecutive columns
        col = 2 * np.arange(flat.size)
        pair = flat != negflat

        sx = np.sin(2 * np.pi * mx[pair] / nx) / grid.hx
        sy = np.sin(2 * np.pi * my[pair] / ny) / grid.hy
        # the symbol vanishes at self-conjugate points; both directions enter
        spec = ~pair
        spec_dir = np.tile(np.arange(2), np.count_nonzero(spec))
        return cls(
            grid=grid,
            dim=2 * flat.size,
            pair_kflat=flat[pair],
            pair_negkflat=negflat[pair],
            pair_t=np.stack([-sy, sx], axis=1) / np.hypot(sx, sy)[:, None],
            pair_cos_col=col[pair],
            pair_sin_col=col[pair] + 1,
            spec_kflat=np.repeat(flat[spec], 2),
            spec_dir=spec_dir,
            spec_col=np.repeat(col[spec], 2) + spec_dir,
        )

    # ------------------------------------------------------------------
    @property
    def _norms(self) -> tuple[float, float]:
        area = self.grid.Lx * self.grid.Ly
        return np.sqrt(2.0 / area), np.sqrt(1.0 / area)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Fields of stacked coefficient vectors: (..., dim) -> (..., 2, nx, ny).

        One ifft2 over the last two axes serves the whole stack; every entry
        gets the same scatter and arithmetic as a single vector would, so a
        stack equals its rows transformed one at a time, bit for bit.
        """
        g = self.grid
        nc, ns = self._norms
        coeffs = np.asarray(coeffs)
        S = np.zeros(coeffs.shape[:-1] + (2, g.ncells), dtype=complex)
        if self.pair_kflat.size:
            a = coeffs[..., self.pair_cos_col]
            b = coeffs[..., self.pair_sin_col]
            wp = (0.5 * nc * (a - 1j * b))[..., None, :]
            wm = (0.5 * nc * (a + 1j * b))[..., None, :]
            t = self.pair_t.T
            S[..., self.pair_kflat] = wp * t
            S[..., self.pair_negkflat] = wm * t
        if self.spec_kflat.size:
            S[..., self.spec_dir, self.spec_kflat] = coeffs[..., self.spec_col] * ns
        u = np.fft.ifft2(S.reshape(S.shape[:-1] + g.shape)) * (g.nx * g.ny)
        return u if np.iscomplexobj(coeffs) else u.real

    def analyze(self, fields: np.ndarray) -> np.ndarray:
        """Basis coefficients of stacked fields: (..., 2, nx, ny) -> (..., dim).

        The adjoint of ``synthesize``, linear in the fields, with one fft2
        for the whole stack; real fields give real coefficients.
        """
        g = self.grid
        nc, ns = self._norms
        dA = g.cell_area
        fields = np.asarray(fields)
        V = np.fft.fft2(fields).reshape(fields.shape[:-2] + (g.ncells,))
        V1, V2 = V[..., 0, :], V[..., 1, :]
        cplx = np.iscomplexobj(fields)
        out = np.zeros(fields.shape[:-3] + (self.dim,), dtype=complex if cplx else float)
        if self.pair_kflat.size:
            t1, t2 = self.pair_t[:, 0], self.pair_t[:, 1]
            Vp = t1 * V1[..., self.pair_kflat] + t2 * V2[..., self.pair_kflat]
            Vm = t1 * V1[..., self.pair_negkflat] + t2 * V2[..., self.pair_negkflat]
            ccos = nc * dA * 0.5 * (Vm + Vp)
            csin = nc * dA * (Vm - Vp) / 2j
            out[..., self.pair_cos_col] = ccos if cplx else ccos.real
            out[..., self.pair_sin_col] = csin if cplx else csin.real
        if self.spec_kflat.size:
            vals = V[..., self.spec_dir, self.spec_kflat]
            vals *= ns * dA
            out[..., self.spec_col] = vals if cplx else vals.real
        return out

    def synthesis_matrix(self) -> sp.csr_matrix:
        """``synthesize`` as a sparse (2*ncells, dim) map from coefficients
        to the stacked amplitudes [fft2(u1); fft2(u2)].

        By Parseval ``analyze`` is cell_area/ncells times its conjugate
        transpose (real part for real fields).
        """
        n = self.grid.ncells
        nc, ns = self._norms
        rows, cols, vals = [], [], []
        for comp in (0, 1):
            t = (0.5 * nc * n) * self.pair_t[:, comp]
            for kflat, sign in ((self.pair_kflat, -1j), (self.pair_negkflat, 1j)):
                rows += [comp * n + kflat] * 2
                cols += [self.pair_cos_col, self.pair_sin_col]
                vals += [t, sign * t]
        rows.append(self.spec_dir * n + self.spec_kflat)
        cols.append(self.spec_col)
        vals.append(np.full(self.spec_col.size, ns * n))
        return sp.csr_matrix(
            (np.concatenate(vals).astype(complex), (np.concatenate(rows), np.concatenate(cols))),
            shape=(2 * n, self.dim),
        )

    def leray(self, fields: np.ndarray) -> np.ndarray:
        """Discrete Leray projection of stacked fields: (..., 2, nx, ny) to
        the same shape.

        On the torus the kernel of the centered divergence is the span of
        the basis plus the componentwise means, which the basis excludes, so
        the orthogonal projector onto it is the basis projection with the
        means added back.
        """
        return self.synthesize(self.analyze(fields)) + fields.mean(axis=(-2, -1), keepdims=True)
