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

Shifted systems ``(shift - scale lap) x = b`` are solved by
``solve_shifted``, whose docstring states the scalar-shift solve;
``_shifted_cg`` states the per-cell one.

Fields are written as CSV: the bytes ``csv.writer`` writes for each
cell's coordinates and value as ``'%.17g'`` formats them, a block of rows
at a time (``dump_field``).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import CgNoConvergence, GridMismatch, InvalidParams

# Axes of up to this many cells take the cosine transform as dense matrix
# products (faster than the FFT at these sizes).  An axis length keeps 8 n^2
# bytes per table, one table in 1-D and two in 2-D (at most 1 MiB).
DENSE_COSINE_MAX = 256

# Cosine divisors kept per grid by solve_shifted.  A run uses at most two
# (shift, scale) pairs, as the phase shift is always per cell; a ladder on
# one grid adds one per rung, so criterion 5 fills the slots and they clear.
DENOM_CACHE_MAX = 8

# The widest spread of a per-cell shift that _shifted_cg solves by
# Richardson sweeps: a sweep applies no Laplacian, but contracts only by the
# spread, so a wider shift goes to CG.
RICHARDSON_Q = 0.1

# dump_field formats this many rows per '%' and write, so that only one
# block's values and text are alive at once.
CSV_BLOCK_ROWS = 1024


class Grid:
    """Uniform cell-centred grid in one or two space dimensions.

    Every public method that takes a field validates it: a field is a numpy
    array of shape ``(ncells,)``, and anything else raises GridMismatch
    (see ``check``).  The private kernels behind them validate nothing.
    ``stepper.run`` validates its initial data once and from then on passes
    only arrays it made, so the public methods' guards are one shape test
    each, done in place.
    """

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
        self.h = tuple(L / k for L, k in zip(length, n))
        if not all(0.0 < h * h < math.inf and math.isfinite(4.0 / (h * h)) for h in self.h):
            raise InvalidParams(f"cell sizes {self.h} leave 4/h^2 not finite")
        self.n = n
        self.length = length
        self.dim = len(n)
        self.ncells = int(np.prod(n))
        self._shape = (self.ncells,)  # of a flat field, for check()
        self.cell_volume = float(np.prod(self.h))
        # 4 sum 1/h^2, an upper bound on the eigenvalues of -laplacian
        self.lap_bound = sum(4.0 / (h * h) for h in self.h)
        # the faces, per axis of the flat field: the stride between the two
        # cells of a face, h, and on the last axis of a 2-D grid the row
        # length (no face joins a row's last cell to the next row)
        self._stencil = tuple(
            (int(np.prod(n[ax + 1:])), h, n[ax] if ax == 1 else 0)
            for ax, h in enumerate(self.h))
        self._coordinates = None  # built on first use
        self._csv_prefixes = None  # each row's coordinate text, built on the first dump
        self._cosine = None  # built on the first cosine solve
        self._denoms = {}  # (shift, scale) -> solve_shifted's divisor
        self._hash = hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length})"

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Grid) and self.n == other.n and self.length == other.length
        )

    def __hash__(self):
        return self._hash

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
        """Raise GridMismatch unless every field is a numpy array of shape
        ``(ncells,)``.  The public methods make the same test in place."""
        for u in fields:
            if not (isinstance(u, np.ndarray) and u.shape == self._shape):
                raise self._mismatch(u)

    def _mismatch(self, u):
        return GridMismatch(
            f"expected a flat field with {self.ncells} cells, got shape "
            f"{getattr(u, 'shape', None)}"
        )

    # -- operators --------------------------------------------------------

    def laplacian(self, u):
        """Mirror-ghost Neumann Laplacian in flux form."""
        if not (isinstance(u, np.ndarray) and u.shape == self._shape):
            raise self._mismatch(u)
        # _differences inlined, as its generator costs about 1 us a call; the
        # values must stay the same for summation by parts with face_form.
        # Each interior flux enters two cells with opposite sign, so the
        # divergence telescopes and boundary fluxes never appear.  The first
        # axis's fluxes sit between stride zeros at each end, so one
        # difference of that padded array adds them all in
        stride, h, _ = self._stencil[0]
        pad = np.zeros(u.size + stride)
        flux = np.subtract(u[stride:], u[:-stride], out=pad[stride:-stride])
        flux /= h * h
        out = pad[stride:] - pad[:-stride]
        for stride, h, row in self._stencil[1:]:  # the rows of a 2-D grid
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
        if not (isinstance(u, np.ndarray) and u.shape == self._shape):
            raise self._mismatch(u)
        return math.sqrt(self.cell_volume) * math.sqrt(float(u @ u))

    def integrate(self, u):
        if not (isinstance(u, np.ndarray) and u.shape == self._shape):
            raise self._mismatch(u)
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

    def solve_spd(self, apply, rhs, tol, max_iter, *, precond):
        """Preconditioned conjugate gradients for an SPD operator.

        ``apply`` maps a field to a field and must be symmetric positive
        definite in the discrete inner product.  Stops when the residual
        has dropped below ``tol`` relative to ``rhs``.  ``precond`` maps a
        residual to an approximate solution (an SPD approximate inverse).
        Raises CgNoConvergence when the operator loses definiteness and when
        ``max_iter`` iterations run out.
        """
        if not (isinstance(rhs, np.ndarray) and rhs.shape == self._shape):
            raise self._mismatch(rhs)
        bnorm = math.sqrt(float(rhs @ rhs))
        if bnorm == 0.0:
            return np.zeros_like(rhs)
        target_sq = (tol * bnorm) ** 2
        x = np.zeros_like(rhs)
        r = rhs.copy()
        z = precond(r)
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
            z = precond(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise CgNoConvergence(
            f"conjugate gradients did not reach tol {tol} in {max_iter} iterations",
            residual=math.sqrt(rr) / bnorm,
            iterations=max_iter,
        )

    def _cosine_tables(self):
        """The cosine solve's tables, built once: the orthonormal DCT-II
        matrix C of each axis and the eigenvalues of -laplacian on the
        cosine modes.  A 2-D grid also keeps a C-contiguous copy of each
        C.T, so that ``_cosine_divide``'s four matrix products all take
        both operands as stored; axes of equal length share their
        matrices.  On a grid with an axis longer than DENSE_COSINE_MAX there
        are no matrices, and the eigenvalues are those of the even
        extension (2n cells per axis, periodic) in rfftn layout."""
        if self._cosine is None:
            dense = max(self.n) <= DENSE_COSINE_MAX
            sizes = (list(self.n) if dense
                     else [2 * k for k in self.n[:-1]] + [self.n[-1] + 1])
            mats, lam = {}, np.zeros(sizes)
            for ax, (k, h, m) in enumerate(zip(self.n, self.h, sizes)):
                j = np.arange(m)
                shape = [1] * self.dim
                shape[ax] = m
                lam += ((4.0 / h**2) * np.sin(0.5 * np.pi * j / k) ** 2).reshape(shape)
                if dense and k not in mats:
                    C = np.cos(np.pi * np.outer(j, j + 0.5) / k) * math.sqrt(2.0 / k)
                    C[0] *= math.sqrt(0.5)
                    mats[k] = C if self.dim == 1 else (C, np.ascontiguousarray(C.T))
            self._cosine = ([mats[k] for k in self.n] if dense else None, lam)
        return self._cosine

    def _cosine_denom(self, shift, scale):
        """shift + scale * (the eigenvalues of -laplacian), in the layout of
        the cosine coefficients."""
        if not (shift > 0.0 and scale >= 0.0):
            raise InvalidParams(
                f"cosine solve needs shift > 0 and scale >= 0, got {shift}, {scale}")
        return shift + scale * self._cosine_tables()[1]

    def _cosine_divide(self, denom, rhs):
        """Transform rhs to the cosine basis, divide by denom (from
        ``_cosine_denom``) and transform back: C.T (C rhs / denom) in 1-D,
        C0.T ((C0 U C1.T) / denom) C1 in 2-D with U = rhs on the grid and
        each C.T the stored copy; or, past DENSE_COSINE_MAX, by the real FFT
        of the even extension."""
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
        (C0, C0T), (C1, C1T) = mats
        coef = C0 @ rhs.reshape(self.n) @ C1T
        return (C0T @ (coef / denom) @ C1).reshape(-1)

    def solve_shifted(self, shift, scale, rhs, tol=1e-10):
        """Solve (shift - scale * laplacian) x = rhs, for scale >= 0.

        A per-cell ``shift``, an array of shape ``(ncells,)`` with positive
        mean, is solved to ``tol`` by ``_shifted_cg``, which states how.  A
        scalar ``shift > 0`` is solved exactly, and ``tol`` does not apply:
        the cosine (DCT-II) basis diagonalises the Laplacian on this grid,
        so rhs is transformed, divided by shift + scale * (the eigenvalues
        of -laplacian) and transformed back.  Grids with no axis longer than
        DENSE_COSINE_MAX transform with dense per-axis matrices.  Larger
        ones use the real FFT: mirrored across each boundary, a field is an
        even periodic field on 2n cells per axis, where the Neumann
        Laplacian is the periodic one, in O(N log N) time and O(N) memory.
        The divisor is kept per (shift, scale) pair.
        """
        if not (isinstance(rhs, np.ndarray) and rhs.shape == self._shape):
            raise self._mismatch(rhs)
        if isinstance(shift, np.ndarray) and shift.ndim:
            if shift.shape != self._shape:
                raise self._mismatch(shift)
            return self._shifted_cg(shift, scale, rhs, tol)[0]
        key = (float(shift), float(scale))
        denom = self._denoms.get(key)
        if denom is None:
            if len(self._denoms) == DENOM_CACHE_MAX:
                self._denoms.clear()
            denom = self._denoms[key] = self._cosine_denom(*key)
        return self._cosine_divide(denom, rhs)

    def _shifted_cg(self, shift, scale, rhs, tol):
        """Solve (shift - scale * laplacian) x = rhs with a per-cell shift
        to |r| <= tol |rhs|; returns (x, iterations), the number of cosine
        solves (preconditioner applications).

        With c = mean(shift), S = c - scale * laplacian and d = shift - c,
        the operator is A = S + diag(d), and z = S^-1 r is the exact
        scalar-shift solve of ``solve_shifted``.  The spread q = max|d| / c
        picks the iteration:

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
        ``solve_shifted`` validates rhs and shift.
        """
        mean = float(np.add.reduce(shift)) / shift.size
        denom = self._cosine_denom(mean, scale)
        bnorm = math.sqrt(float(rhs @ rhs))
        if bnorm == 0.0:
            return np.zeros_like(rhs), 0
        if not math.isfinite(bnorm):
            raise CgNoConvergence(f"non-finite right-hand side (|rhs| = {bnorm})",
                                  residual=math.nan, iterations=0)
        target_sq = (tol * bnorm) ** 2
        max_iter = 10 * self.ncells + 50
        minus_d = mean - shift
        if float(np.maximum.reduce(np.abs(minus_d))) <= RICHARDSON_Q * mean:
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
                           rhs, tol, max_iter, precond=precond)
        return x, count

    # -- I/O -----------------------------------------------------------------

    def dump_field(self, u, path):
        """Write one field as CSV with 17 significant digits per value.

        The bytes are those of ``csv.writer`` given each cell's coordinates
        and value as ``'%.17g'`` formats them: a header row, then one row
        per cell in row-major order, CRLF line ends and no quoting (no
        number needs it).  A field of another real dtype is written as its
        float64 values.  Rows are formatted and written CSV_BLOCK_ROWS at a
        time; each row's coordinate text is built once per grid, on the
        first dump.
        """
        self.check(u)
        u = u.astype(np.float64, casting="same_kind", copy=False)
        if self._csv_prefixes is None:
            axes = [[b"%.17g," % c for c in axis.tolist()] for axis in self._centres()]
            # row-major: cell (i, j) is prefixed by xs[i] + ys[j]
            self._csv_prefixes = (axes[0] if self.dim == 1
                                  else [x + y for x in axes[0] for y in axes[1]])
        with open(path, "wb") as fh:
            fh.write(b"x,value\r\n" if self.dim == 1 else b"x,y,value\r\n")
            for start in range(0, self.ncells, CSV_BLOCK_ROWS):
                values = u[start:start + CSV_BLOCK_ROWS].tolist()
                rows = [None] * (2 * len(values))
                rows[::2] = self._csv_prefixes[start:start + len(values)]
                rows[1::2] = values
                fh.write(b"%s%.17g\r\n" * len(values) % tuple(rows))

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
