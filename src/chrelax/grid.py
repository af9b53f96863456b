"""Cell-centred finite-difference grid on a box with no-flux boundaries.

Fields are flat float64 arrays of length ``grid.ncells`` in row-major cell
order; cell centres sit at (i + 1/2) h per axis.  The Laplacian is the
standard 3/5-point stencil in flux form with mirror ghost cells, so
boundary fluxes vanish identically and ``integrate(laplacian(u)) == 0`` up
to roundoff.  The discrete inner product carries the cell volume, and the
face-based gradient form satisfies the summation-by-parts identity

    inner(-laplacian(u), v) == face_form(u, v)

exactly: both sides take their face differences from the grid's one face
table.

On this grid the cosine (DCT-II) basis diagonalises the Laplacian
exactly, with analytic eigenvalues, so a shifted system
``(c - d lap) x = b`` with constant c is solved by transform, divide,
transform back: by dense per-axis matrices on small grids, by the real FFT
of the mirrored field on large ones.  ``solve_shifted`` returns that solve
for a scalar shift.  A per-cell shift is solved iteratively with the
exact cosine solve of S = mean(shift) - scale lap as the preconditioner:
by Richardson sweeps when the shift is near constant, by the conjugate
gradients of ``solve_spd`` otherwise (the rule is stated in
``_shifted_cg``).

Fields are written as CSV by ``_csvtext.CsvRows``, an exact vectorised
``'%.17g'`` writer whose row layout each grid builds once: values with a
decimal exponent in [-6, 16] (1e-6 <= |u| < 1e17) and +-0 take its
kernel, the rest (non-finite or out of range) ``'%.17g' %`` one at a time.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import CgNoConvergence, GridMismatch, InvalidParams

# Axes of up to this many cells take the cosine transform as a dense matrix
# product (at most 512 KiB per axis, and faster than the FFT at these sizes).
DENSE_COSINE_MAX = 256

# Cosine divisors kept per grid by cosine_solve.  A run uses at most two
# (shift, scale) pairs, as the phase shift is always per cell; a ladder on
# one grid adds one per rung, so criterion 5 fills the slots and they clear.
DENOM_CACHE_MAX = 8

# A per-cell shift whose spread max|shift - mean| / mean is at most this is
# solved by preconditioned Richardson, a wider one by CG (see _shifted_cg).
# Richardson's sweep is cheaper but contracts by only the spread.  Timed on
# 64, 128 and 64 x 64 cells against a CG that applied no Laplacian, CG
# caught up at a spread of about 0.3 on a smooth 64 x 64 shift, and at 0.1
# Richardson took at most 0.93 of CG's time (CHANGES.md); the CG used now
# applies one Laplacian more per iteration.
RICHARDSON_Q = 0.1


class Grid:
    """Uniform cell-centred grid in one or two space dimensions."""

    def __init__(self, n, length=1.0):
        n = (int(n),) if np.ndim(n) == 0 else tuple(int(k) for k in n)
        if len(n) not in (1, 2):
            raise InvalidParams(f"grid must be 1- or 2-dimensional, got shape {n}")
        if any(k < 2 for k in n):
            raise InvalidParams(f"need at least 2 cells per axis, got {n}")
        length = (
            tuple(float(length) for _ in n)
            if np.ndim(length) == 0
            else tuple(float(L) for L in length)
        )
        if len(length) != len(n):
            raise InvalidParams("length must give one extent per axis")
        if any(not (L > 0.0) for L in length):
            raise InvalidParams(f"box lengths must be positive, got {length}")
        self.n = n
        self.length = length
        self.dim = len(n)
        self.h = tuple(L / k for L, k in zip(length, n))
        self.ncells = int(np.prod(n))
        self._shape = (self.ncells,)  # of a flat field, for check()
        self.cell_volume = float(np.prod(self.h))
        # the faces, per axis of the flat field: the stride between the two
        # cells of a face, h, and on the last axis of a 2-D grid the row
        # length (no face joins a row's last cell to the next row)
        self._stencil = tuple(
            (int(np.prod(n[ax + 1:])), h, n[ax] if ax == 1 else 0)
            for ax, h in enumerate(self.h))
        self._coordinates = None  # built on first use
        self._csv_rows = None  # the CSV row layout, built on the first dump
        self._cosine = None  # built on the first cosine solve
        self._denoms = {}  # (shift, scale) -> cosine_solve's divisor

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length})"

    def __eq__(self, other):
        return (
            isinstance(other, Grid) and self.n == other.n and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    # -- fields ---------------------------------------------------------

    def field(self, fill=0.0):
        return np.full(self.ncells, float(fill))

    def coordinates(self):
        """Per-axis centre coordinates, each as a flat read-only array over
        cells; built on the first call and shared by every later one."""
        if self._coordinates is None:
            axes = self._centres()
            if self.dim == 1:
                coords = (axes[0],)
            else:
                X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
                coords = (X.reshape(-1), Y.reshape(-1))
            for c in coords:
                c.flags.writeable = False
            self._coordinates = coords
        return self._coordinates

    def _centres(self):
        """The cell-centre coordinates along each axis."""
        return [(np.arange(k) + 0.5) * h for k, h in zip(self.n, self.h)]

    def check(self, *fields):
        for u in fields:
            if not isinstance(u, np.ndarray) or u.shape != self._shape:
                raise GridMismatch(
                    f"expected a flat field with {self.ncells} cells, got shape "
                    f"{getattr(u, 'shape', None)}"
                )

    # -- operators --------------------------------------------------------

    def laplacian(self, u):
        """Mirror-ghost Neumann Laplacian in flux form."""
        self.check(u)
        # _differences inlined, as its generator costs about 1 us a call; the
        # values must stay the same for summation by parts with face_form.
        # Each interior flux enters two cells with opposite sign, so the
        # divergence telescopes and boundary fluxes never appear.  The first
        # axis's fluxes sit between stride zeros at each end, so one
        # difference of that padded array adds them all in
        (stride, h, _), *rest = self._stencil
        pad = np.zeros(u.size + stride)
        flux = np.subtract(u[stride:], u[:-stride], out=pad[stride:-stride])
        flux /= h * h
        out = pad[stride:] - pad[:-stride]
        for stride, h, row in rest:  # the rows of a 2-D grid
            flux = u[stride:] - u[:-stride]
            flux[row - 1::row] = 0.0
            flux /= h * h
            out[:-stride] += flux
            out[stride:] -= flux
        return out

    def inner(self, u, v):
        self.check(u, v)
        return self.cell_volume * float(u @ v)

    def h_norm(self, u):
        self.check(u)
        return math.sqrt(self.cell_volume) * math.sqrt(float(u @ u))

    def integrate(self, u):
        self.check(u)
        return self.cell_volume * float(u.sum())

    def face_form(self, u, v):
        """Bilinear gradient form over interior faces; equals
        inner(-laplacian(u), v) by summation by parts."""
        self.check(u, v)
        total = 0.0
        for (_, h, du), (_, _, dv) in zip(self._differences(u), self._differences(v)):
            total += self.cell_volume * float(np.sum((du / h) * (dv / h)))
        return total

    def _differences(self, u):
        """Per axis of the face table: (stride, h, u(high cell) - u(low
        cell)) on the flat faces, 0 across a row end (a new array; a leading
        stack axis of u passes through)."""
        for stride, h, row in self._stencil:
            d = u[..., stride:] - u[..., :-stride]
            if row:
                d[..., row - 1::row] = 0.0
            yield stride, h, d

    def grad_energy(self, u):
        return self.face_form(u, u)

    def v_norm(self, u):
        """Discrete H1 norm, sqrt(h_norm^2 + grad_energy)."""
        self.check(u)
        return float(np.sqrt(self.h_norm(u) ** 2 + self.grad_energy(u)))

    def stacked_sq_norms(self, rows):
        """Squared h_norm and grad_energy of every row of an (N, ncells)
        array, as two length-N arrays."""
        if rows.ndim != 2 or rows.shape[1] != self.ncells:
            raise GridMismatch(
                f"expected an (N, {self.ncells}) stack of fields, got shape "
                f"{rows.shape}")
        h_sq = self.cell_volume * np.einsum("ij,ij->i", rows, rows)
        grad_sq = np.zeros(len(rows))
        for _, h, d in self._differences(rows):
            d /= h
            grad_sq += self.cell_volume * np.einsum("ij,ij->i", d, d)
        return h_sq, grad_sq

    # -- linear solves ------------------------------------------------------

    def solve_spd(self, apply, rhs, tol=1e-10, max_iter=None, precond=None):
        """Preconditioned conjugate gradients for an SPD operator.

        ``apply`` maps a field to a field and must be symmetric positive
        definite in the discrete inner product.  Stops when the residual
        has dropped below ``tol`` relative to ``rhs``.  ``precond`` maps a
        residual to an approximate solution (an SPD approximate inverse).
        Raises CgNoConvergence when the budget (default 10 * ncells + 50
        iterations) runs out.

        ``solve_shifted`` runs it on a per-cell shift too wide for
        Richardson sweeps (see ``_shifted_cg``).
        """
        self.check(rhs)
        if max_iter is None:
            max_iter = 10 * self.ncells + 50
        bnorm = math.sqrt(float(rhs @ rhs))
        if bnorm == 0.0:
            return np.zeros_like(rhs)
        target_sq = (tol * bnorm) ** 2
        x = np.zeros_like(rhs)
        r = rhs.copy()
        z = precond(r) if precond is not None else r
        p = z.copy()
        rz = float(r @ z)
        rr = float(r @ r)
        for it in range(max_iter):
            Ap = apply(p)
            pAp = float(p @ Ap)
            if not math.isfinite(pAp) or pAp <= 0.0:
                raise CgNoConvergence(
                    f"operator lost positive definiteness (p.Ap = {pAp})",
                    residual=math.sqrt(rr) / bnorm,
                    iterations=it,
                )
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            rr = float(r @ r)
            if rr <= target_sq:
                return x
            z = precond(r) if precond is not None else r
            rz_new = rr if precond is None else float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise CgNoConvergence(
            f"conjugate gradients did not reach tol {tol} in {max_iter} iterations",
            residual=math.sqrt(rr) / bnorm,
            iterations=max_iter,
        )

    def _cosine_tables(self):
        """The cosine solve's tables, built once: the orthonormal DCT-II
        matrix of each axis and the eigenvalues of -laplacian on the cosine
        modes; on a grid with an axis longer than DENSE_COSINE_MAX, no
        matrices and the eigenvalues of the even extension (2n cells per
        axis, periodic) in rfftn layout."""
        if self._cosine is None:
            dense = max(self.n) <= DENSE_COSINE_MAX
            sizes = (list(self.n) if dense
                     else [2 * k for k in self.n[:-1]] + [self.n[-1] + 1])
            mats, lam = [], np.zeros(sizes)
            for ax, (k, h, m) in enumerate(zip(self.n, self.h, sizes)):
                j = np.arange(m)
                shape = [1] * self.dim
                shape[ax] = m
                lam += ((4.0 / h**2) * np.sin(0.5 * np.pi * j / k) ** 2).reshape(shape)
                if dense:
                    C = np.cos(np.pi * np.outer(j, j + 0.5) / k) * math.sqrt(2.0 / k)
                    C[0] *= math.sqrt(0.5)
                    mats.append(C)
            self._cosine = (mats if dense else None, lam)
        return self._cosine

    def cosine_solve(self, shift, scale, rhs):
        """Exact solve of (shift - scale * laplacian) x = rhs for a scalar
        shift > 0 and scale >= 0: transform, divide, transform back.

        Small grids transform with dense per-axis matrices.  Larger ones
        use the real FFT: mirrored across each boundary, a field is an even
        periodic field on 2n cells per axis, where the Neumann Laplacian is
        the periodic one.  That costs O(N log N) time and O(N) memory.
        The divisor is kept per (shift, scale) pair.
        """
        key = (float(shift), float(scale))
        denom = self._denoms.get(key)
        if denom is None:
            if len(self._denoms) == DENOM_CACHE_MAX:
                self._denoms.clear()
            denom = self._denoms[key] = self._cosine_denom(*key)
        return self._cosine_divide(denom, rhs)

    def _cosine_denom(self, shift, scale):
        """shift + scale * (the eigenvalues of -laplacian), in the layout of
        the cosine coefficients."""
        if not (shift > 0.0 and scale >= 0.0):
            raise InvalidParams(
                f"cosine solve needs shift > 0 and scale >= 0, got {shift}, {scale}")
        return shift + scale * self._cosine_tables()[1]

    def _cosine_divide(self, denom, rhs):
        """Transform rhs to the cosine basis, divide by denom (from
        ``_cosine_denom``) and transform back."""
        mats = self._cosine[0]
        if mats is None:
            u = rhs.reshape(self.n)
            for ax in range(self.dim):
                u = np.concatenate((u, np.flip(u, ax)), axis=ax)
            axes = tuple(range(self.dim))
            x = np.fft.irfftn(np.fft.rfftn(u, axes=axes) / denom, u.shape, axes=axes)
            return x[tuple(slice(k) for k in self.n)].reshape(-1)
        if self.dim == 1:
            (C,) = mats
            return C.T @ ((C @ rhs) / denom)
        C0, C1 = mats
        coef = C0 @ rhs.reshape(self.n) @ C1.T
        return (C0.T @ (coef / denom) @ C1).reshape(-1)

    def solve_shifted(self, shift, scale, rhs, tol=1e-10):
        """Solve (shift - scale * laplacian) x = rhs.

        A scalar ``shift`` is solved exactly by the cosine solve, and
        ``tol`` does not apply.  A per-cell ``shift`` with positive mean is
        solved to ``tol``, preconditioned with the exact cosine solve of
        S = mean(shift) - scale * laplacian, by Richardson sweeps or
        conjugate gradients (``_shifted_cg`` states the rule).
        """
        if isinstance(shift, np.ndarray) and shift.ndim:
            return self._shifted_cg(shift, scale, rhs, tol)[0]
        return self.cosine_solve(shift, scale, rhs)

    def _shifted_cg(self, shift, scale, rhs, tol):
        """Solve (shift - scale * laplacian) x = rhs with a per-cell shift
        to |r| <= tol |rhs|; returns (x, iterations), the number of cosine
        solves (preconditioner applications).

        With c = mean(shift), S = c - scale * laplacian and d = shift - c,
        the operator is A = S + diag(d), and z = S^-1 r is the exact cosine
        solve.  The spread q = max|d| / c picks the iteration:

        - q <= RICHARDSON_Q: preconditioned Richardson, x_0 = S^-1 rhs,
          then x_{k+1} = x_k + S^-1 r_k with r_{k+1} = -d S^-1 r_k, one
          cosine solve and three vector operations a sweep, and no
          Laplacian.  As S >= c, each sweep contracts the Euclidean
          residual by at least q (Concus & Golub 1973), so
          1 + ceil(log tol / log q) sweeps suffice.
        - larger q, also an indefinite shift: ``solve_spd`` on A with S^-1
          as the preconditioner, one cosine solve and one Laplacian an
          iteration.  It raises CgNoConvergence when the operator loses
          definiteness.

        Both raise CgNoConvergence on a non-finite rhs and when 10 * ncells
        + 50 iterations run out, Richardson also on a non-finite residual.
        """
        self.check(rhs, shift)
        mean = float(np.add.reduce(shift) / shift.size)
        denom = self._cosine_denom(mean, scale)
        bnorm = math.sqrt(float(rhs @ rhs))
        if bnorm == 0.0:
            return np.zeros_like(rhs), 0
        if not math.isfinite(bnorm):
            raise CgNoConvergence(f"non-finite right-hand side (|rhs| = {bnorm})",
                                  residual=math.nan, iterations=0)
        target_sq = (tol * bnorm) ** 2
        max_iter = 10 * self.ncells + 50
        if max(float(np.maximum.reduce(shift)) - mean,
               mean - float(np.minimum.reduce(shift))) <= RICHARDSON_Q * mean:
            minus_d = mean - shift
            x = y = self._cosine_divide(denom, rhs)
            for it in range(1, max_iter + 1):
                r = minus_d * y
                rr = float(r @ r)
                if rr <= target_sq:
                    return x, it
                if not math.isfinite(rr):
                    raise CgNoConvergence(
                        f"non-finite residual (|r| = {math.sqrt(rr)})",
                        residual=math.sqrt(rr) / bnorm, iterations=it)
                y = self._cosine_divide(denom, r)
                x += y
            raise CgNoConvergence(
                f"Richardson iteration did not reach tol {tol} in {max_iter} "
                f"iterations", residual=math.sqrt(rr) / bnorm, iterations=max_iter)
        count = 0

        def precond(r):
            nonlocal count
            count += 1
            return self._cosine_divide(denom, r)

        x = self.solve_spd(lambda p: shift * p - scale * self.laplacian(p),
                           rhs, tol, max_iter, precond)
        return x, count

    # -- I/O -----------------------------------------------------------------

    def dump_field(self, u, path):
        """Write one field as CSV with 17 significant digits per value.

        The bytes are those of ``csv.writer`` given each coordinate and
        value as ``'%.17g'`` formats it (CRLF line ends, no quoting: no
        number needs it).  The values go through ``_csvtext.CsvRows``, whose
        vectorised kernel formats every value with a decimal exponent in
        [-6, 16] (1e-6 <= |u| < 1e17, and +-0) and leaves the others to
        ``'%.17g' %``, one at a time.  A field of another real dtype is
        written as its float64 values, as ``'%.17g'`` formats its elements.
        The row layout, with the coordinate text of every row, is built
        once per grid, on the first dump.
        """
        from ._csvtext import CsvRows  # compiled on the first write

        self.check(u)
        u = u.astype(np.float64, casting="same_kind", copy=False)
        if self._csv_rows is None:
            axes = [[b"%.17g," % c for c in axis.tolist()] for axis in self._centres()]
            if self.dim == 1:
                (xs,) = axes
                text, lengths = b"".join(xs), np.array([len(x) for x in xs])
            else:  # row-major: cell (i, j) is prefixed by xs[i] + ys[j]
                xs, ys = axes
                text = b"".join(x.join([b""] + ys) for x in xs)
                lengths = np.add.outer([len(x) for x in xs],
                                       [len(y) for y in ys]).reshape(-1)
            self._csv_rows = CsvRows(text, lengths, 1)
        with open(path, "wb") as fh:
            fh.write(b"x,value\r\n" if self.dim == 1 else b"x,y,value\r\n")
            self._csv_rows.write(fh, u.reshape(-1, 1))

    def load_field(self, path):
        """Read a field previously written by dump_field."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        expected = ["x", "value"] if self.dim == 1 else ["x", "y", "value"]
        if rows and rows[0] != expected:
            raise GridMismatch(f"unexpected field header {rows[0]!r}")
        vals = np.array([float(row[-1]) for row in rows[1:]])
        if vals.shape != (self.ncells,):
            raise GridMismatch(
                f"field file holds {vals.size} cells, grid has {self.ncells}"
            )
        return vals
