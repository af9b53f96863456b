"""Tests for the cell-centred grid, Neumann Laplacian, and linear solver.

The Laplacian is checked against its dense matrix representation (assembled
column by column) with numpy.linalg as the reference: eigendecomposition for
the spectral identities and an LU solve for the conjugate-gradient oracle.
"""

import csv
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from chrelax import CgNoConvergence, Grid, GridMismatch, InvalidParams
from chrelax.grid import CSV_BLOCK_ROWS
from conftest import laplacian_diag


def dense_laplacian(grid):
    """Assemble the Laplacian matrix by applying it to unit vectors."""
    cols = []
    for i in range(grid.ncells):
        e = grid.field()
        e[i] = 1.0
        cols.append(grid.laplacian(e))
    return np.column_stack(cols)


# -- construction -------------------------------------------------------


def test_constructor_rejections():
    with pytest.raises(InvalidParams):
        Grid((4, 4, 4))
    with pytest.raises(InvalidParams):
        Grid(1)
    with pytest.raises(InvalidParams):
        Grid((8, 1))
    with pytest.raises(InvalidParams):
        Grid(8, length=(1.0, 2.0))
    with pytest.raises(InvalidParams):
        Grid(8, length=0.0)


def test_geometry():
    g = Grid(4)
    assert g.dim == 1 and g.ncells == 4
    assert g.h == (0.25,)
    np.testing.assert_allclose(
        g.coordinates()[0], [0.125, 0.375, 0.625, 0.875], rtol=0, atol=0)
    g2 = Grid((4, 6), length=(1.0, 3.0))
    assert g2.dim == 2 and g2.ncells == 24
    assert g2.h == (0.25, 0.5)
    assert g2.cell_volume == pytest.approx(0.125, abs=0)
    x, y = g2.coordinates()
    assert x.shape == y.shape == (24,)
    assert y[0] == 0.25 and y[1] == 0.75  # second axis varies fastest


def test_equality_and_hash():
    assert Grid(8) == Grid(8)
    assert Grid(8) != Grid((8, 8))
    assert Grid(8, length=2.0) != Grid(8)
    assert len({Grid(8), Grid(8), Grid(16)}) == 2


def test_check_rejects_misshaped_fields():
    g = Grid(8)
    with pytest.raises(GridMismatch):
        g.check(np.zeros(7))
    with pytest.raises(GridMismatch):
        g.check([0.0] * 8)
    with pytest.raises(GridMismatch):
        g.laplacian(np.zeros((8, 1)))


# every public method that takes a field, called with the field u; the
# two-field forms take u in either place
ENTRY_POINTS = {
    "laplacian": lambda g, u, path: g.laplacian(u),
    "h_norm": lambda g, u, path: g.h_norm(u),
    "integrate": lambda g, u, path: g.integrate(u),
    "inner first": lambda g, u, path: g.inner(u, g.field()),
    "inner second": lambda g, u, path: g.inner(g.field(), u),
    "face_form first": lambda g, u, path: g.face_form(u, g.field()),
    "face_form second": lambda g, u, path: g.face_form(g.field(), u),
    "v_norm": lambda g, u, path: g.v_norm(u),
    "solve_shifted scalar": lambda g, u, path: g.solve_shifted(1.0, 1.0, u),
    "solve_shifted per-cell": lambda g, u, path: g.solve_shifted(
        np.linspace(1.0, 2.0, g.ncells), 1.0, u),
    "solve_spd": lambda g, u, path: g.solve_spd(
        lambda w: w, u, 1e-10, 10, precond=lambda r: r),
    "dump_field": lambda g, u, path: g.dump_field(u, path),
}


@pytest.mark.parametrize("n", [8, (4, 3)], ids=["1d", "2d"])
@pytest.mark.parametrize("bad", ["short", "column", "list"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_misshaped_fields(entry, bad, n, tmp_path):
    # a field is an ndarray of shape (ncells,); unchecked, the cosine solve
    # would broadcast a column into a matrix
    g = Grid(n)
    u = {"short": np.ones(g.ncells - 1), "column": np.ones((g.ncells, 1)),
         "list": [1.0] * g.ncells}[bad]
    path = tmp_path / "u.csv"
    with pytest.raises(GridMismatch, match=rf"^expected a flat field with {g.ncells} "):
        ENTRY_POINTS[entry](g, u, path)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(7,), (8, 1)])
def test_per_cell_shift_must_match_the_grid(shape):
    g = Grid(8)
    with pytest.raises(GridMismatch):
        g.solve_shifted(np.ones(shape), 1.0, g.field(1.0))


# -- quadrature and norms ----------------------------------------------


def test_integrals_closed_form():
    g = Grid(2)
    u = np.array([0.0, 1.0])
    assert g.integrate(u) == pytest.approx(0.5, abs=0)
    assert g.inner(u, u) == pytest.approx(0.5, abs=0)
    assert g.h_norm(u) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # one interior face, gradient (1 - 0)/h = 2, energy h * 2^2 = 2
    assert g.grad_energy(u) == pytest.approx(2.0, abs=0)
    assert g.v_norm(u) == pytest.approx(math.sqrt(2.5), rel=1e-15)


def test_constant_has_no_gradient_energy():
    for g in (Grid(9), Grid((5, 7), length=(2.0, 1.0))):
        c = g.field(3.7)
        assert g.grad_energy(c) == 0.0
        assert g.integrate(c) == pytest.approx(3.7 * np.prod(g.length), rel=1e-15)
        np.testing.assert_allclose(g.laplacian(c), 0.0, rtol=0, atol=0)


# -- Laplacian structure ------------------------------------------------


@pytest.mark.parametrize("shape", [64, (16, 16), (6, 9)])
def test_summation_by_parts_and_symmetry(shape):
    g = Grid(shape)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.ncells)
    v = rng.standard_normal(g.ncells)
    lhs = g.inner(-g.laplacian(u), v)
    rhs = g.face_form(u, v)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) / scale <= 1e-12
    sym = abs(g.inner(g.laplacian(u), v) - g.inner(u, g.laplacian(v)))
    assert sym / scale <= 1e-12
    # flux telescoping: the operator produces mean-free output
    assert abs(g.integrate(g.laplacian(u))) <= 1e-12 * g.h_norm(u)


def test_laplacian_matrix_is_symmetric_negative_semidefinite():
    for g in (Grid(12), Grid((5, 4))):
        A = dense_laplacian(g)
        np.testing.assert_allclose(A, A.T, rtol=0, atol=1e-12)
        w = np.linalg.eigvalsh(A)
        assert np.max(w) <= 1e-10
        # exactly one zero eigenvalue, the constants
        assert np.sum(np.abs(w) <= 1e-10) == 1


def test_eigenpairs_match_dense_decomposition():
    g = Grid(8)
    h = g.h[0]
    L = g.length[0]
    x = g.coordinates()[0]
    analytic = np.array(
        [-(4.0 / h**2) * math.sin(k * math.pi * h / (2 * L)) ** 2 for k in range(8)])
    dense = np.linalg.eigvalsh(dense_laplacian(g))
    np.testing.assert_allclose(np.sort(analytic), dense, rtol=0, atol=1e-10)
    # each cosine mode is an exact eigenvector of the stencil
    for k in range(8):
        mode = np.cos(k * math.pi * x / L)
        resid = g.laplacian(mode) - analytic[k] * mode
        assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, abs(analytic[k]))


def diff_laplacian(grid, u):
    """The flux-form stencil through np.diff, with its face slices built on
    every call: the reference for the precomputed-stencil Laplacian."""
    a = u.reshape(grid.n)
    out = np.zeros_like(a)
    for ax, h in enumerate(grid.h):
        flux = np.diff(a, axis=ax)
        flux /= h * h
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] += flux
        out[tuple(hi)] -= flux
    return out.reshape(-1)


@pytest.mark.parametrize("n, length", [
    (8, 1.0), (9, 2.5), (2, 1.0), ((6, 4), (1.0, 0.7)), ((5, 7), 1.0), ((2, 3), 3.0)])
def test_laplacian_matches_diff_stencil_bitwise(n, length):
    g = Grid(n, length)
    rng = np.random.default_rng(29)
    for scale in (1e-8, 1.0, 1e8):
        u = scale * rng.standard_normal(g.ncells)
        np.testing.assert_array_equal(
            g.laplacian(u).view(np.int64), diff_laplacian(g, u).view(np.int64))


def looped_laplacian(grid, u):
    """The Laplacian as one loop over the face table: each axis's fluxes
    are written to the low cells (the first axis) or added to them, then
    subtracted from the high cells."""
    out = np.empty_like(u)
    for ax, (stride, h, row) in enumerate(grid._stencil):
        flux = u[stride:] - u[:-stride]
        if row:
            flux[row - 1::row] = 0.0
        flux /= h * h
        if ax == 0:
            out[:-stride] = flux
            out[-stride:] = 0.0
        else:
            out[:-stride] += flux
        out[stride:] -= flux
    return out


@pytest.mark.parametrize("n", [2, 3, 128, (4, 6), (64, 64)])
def test_padded_laplacian_matches_the_face_loop_bitwise(n):
    # the first axis's padded difference subtracts the same fluxes in the
    # same order, so even the signs of zeros agree
    g = Grid(n, 1.3)
    rng = np.random.default_rng(43)
    fields = [rng.standard_normal(g.ncells), np.zeros(g.ncells), -np.zeros(g.ncells),
              np.where(rng.random(g.ncells) < 0.5, 0.0, -0.0),
              np.where(rng.random(g.ncells) < 0.3, -0.0, rng.standard_normal(g.ncells))]
    for u in fields:
        np.testing.assert_array_equal(
            g.laplacian(u).view(np.int64), looped_laplacian(g, u).view(np.int64))


def test_h_norm_is_the_scaled_euclidean_norm_bitwise():
    rng = np.random.default_rng(37)
    for g in (Grid(10, 2.5), Grid((6, 4), (1.0, 0.7))):
        for scale in (1e-8, 1.0, 1e8):
            u = scale * rng.standard_normal(g.ncells)
            assert g.h_norm(u) == float(np.sqrt(g.cell_volume) * np.linalg.norm(u))


def test_laplacian_diag_matches_dense():
    for g in (Grid(10), Grid((4, 6), length=(1.0, 2.0))):
        np.testing.assert_allclose(
            laplacian_diag(g), -np.diag(dense_laplacian(g)), rtol=0, atol=1e-13)


# -- conjugate gradients -------------------------------------------------


def helmholtz(grid):
    return lambda u: u - grid.laplacian(u)


def identity(r):
    """The preconditioner of plain conjugate gradients."""
    return r


def test_cg_matches_dense_lu():
    for g in (Grid(16), Grid((8, 8))):
        rng = np.random.default_rng(7)
        b = rng.standard_normal(g.ncells)
        A = np.eye(g.ncells) - dense_laplacian(g)
        want = np.linalg.solve(A, b)
        got = g.solve_spd(helmholtz(g), b, tol=1e-12, max_iter=10 * g.ncells + 50,
                          precond=identity)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)
        diag = 1.0 + laplacian_diag(g)
        pre = g.solve_spd(helmholtz(g), b, tol=1e-12, max_iter=10 * g.ncells + 50,
                          precond=lambda r: r / diag)
        np.testing.assert_allclose(pre, want, rtol=1e-8, atol=1e-10)


def test_cg_trivial_cases():
    g = Grid(32)
    rng = np.random.default_rng(9)
    b = rng.standard_normal(g.ncells)
    # identity operator returns the right-hand side
    np.testing.assert_allclose(
        g.solve_spd(lambda u: u, b, 1e-10, 10 * g.ncells + 50, precond=identity), b,
        rtol=0, atol=1e-12)
    # zero right-hand side short-circuits to zero
    out = g.solve_spd(helmholtz(g), g.field(), 1e-10, 10 * g.ncells + 50,
                      precond=identity)
    assert np.all(out == 0.0)
    # constants are eigenvectors of the shifted operator
    c = g.field(4.0)
    np.testing.assert_allclose(
        g.solve_spd(helmholtz(g), c, 1e-10, 10 * g.ncells + 50, precond=identity), c,
        rtol=1e-12, atol=1e-12)


def test_cg_residual_meets_tolerance():
    g = Grid((16, 16))
    rng = np.random.default_rng(21)
    b = rng.standard_normal(g.ncells)
    tol = 1e-10
    diag = 1.0 + laplacian_diag(g)
    x = g.solve_spd(helmholtz(g), b, tol=tol, max_iter=10 * g.ncells + 50,
                    precond=lambda r: r / diag)
    resid = np.linalg.norm(b - helmholtz(g)(x)) / np.linalg.norm(b)
    assert resid <= tol


def test_cg_budget_exhaustion_reports_residual():
    g = Grid(64)
    rng = np.random.default_rng(25)
    b = rng.standard_normal(g.ncells)
    with pytest.raises(CgNoConvergence) as ei:
        g.solve_spd(helmholtz(g), b, tol=1e-12, max_iter=2, precond=identity)
    assert ei.value.iterations == 2
    # the plain residual norm is not monotone in cg, only positive and finite
    assert ei.value.residual > 0.0 and np.isfinite(ei.value.residual)


def test_cg_rejects_indefinite_operator():
    g = Grid(8)
    b = g.field(1.0)
    with pytest.raises(CgNoConvergence) as ei:
        g.solve_spd(lambda u: -u, b, 1e-10, 10 * g.ncells + 50, precond=identity)
    assert ei.value.iterations == 0


# -- field I/O ------------------------------------------------------------


def test_dump_load_round_trip(tmp_path):
    for g in (Grid(11), Grid((4, 5))):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.ncells)
        path = tmp_path / f"f{g.dim}.csv"
        g.dump_field(u, path)
        back = g.load_field(path)
        # 17 significant digits round-trip doubles exactly
        np.testing.assert_array_equal(back, u)


def csv_writer_dump(grid, u):
    """The field file as csv.writer writes it, row by row."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["x", "value"] if grid.dim == 1 else ["x", "y", "value"])
    coords = grid.coordinates()
    for i in range(grid.ncells):
        w.writerow([f"{c[i]:.17g}" for c in coords] + [f"{u[i]:.17g}"])
    return buf.getvalue().encode()


def test_dump_field_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(31)
    # the last grid spans three write blocks, the last one partial
    for g in (Grid(7), Grid((3, 4), length=(1.0, 0.3)), Grid(2 * CSV_BLOCK_ROWS + 5)):
        for k in range(2):  # the second dump reuses the grid's row prefixes
            u = rng.standard_normal(g.ncells)
            u[:3] = [-0.0, 5e-324, 1e300]
            path = tmp_path / f"f{g.dim}_{k}.csv"
            g.dump_field(u, path)
            assert path.read_bytes() == csv_writer_dump(g, u)
            np.testing.assert_array_equal(
                g.load_field(path).view(np.int64), u.view(np.int64))


@pytest.mark.parametrize("grid", [Grid(3 * CSV_BLOCK_ROWS + 20),
                                  Grid((3 * CSV_BLOCK_ROWS // 64 + 1, 64))])
def test_dump_layout_keeps_no_state_between_dumps(grid, tmp_path):
    # block b holds 5e-324, 1e300, nan and -0.0 in its rows 4b to 4b + 3,
    # where every other block holds plain values; then a field of plain
    # values, then the first field again
    rng = np.random.default_rng(36)
    blocks = -(-grid.ncells // CSV_BLOCK_ROWS)
    assert blocks >= 3
    rows = (np.arange(blocks)[:, None] * (CSV_BLOCK_ROWS + 4) + np.arange(4)).reshape(-1)
    special = rng.standard_normal(grid.ncells)
    special[rows] = np.tile([5e-324, 1e300, np.nan, -0.0], blocks)
    plain = rng.standard_normal(grid.ncells)
    for k, u in enumerate((special, plain, special)):
        path = tmp_path / f"f{k}.csv"
        grid.dump_field(u, path)
        assert path.read_bytes() == csv_writer_dump(grid, u), k


def test_grids_of_other_shapes_keep_their_own_layout(tmp_path):
    rng = np.random.default_rng(37)
    grids = [Grid(7), Grid((3, 4), length=(1.0, 0.3)), Grid(50), Grid((4, 3))]
    for turn in range(2):
        for g in grids:
            u = rng.standard_normal(g.ncells)
            path = tmp_path / f"f{turn}.csv"
            g.dump_field(u, path)
            assert path.read_bytes() == csv_writer_dump(g, u), g


def percent_dump(grid, u):
    """The field file as a per-value writer writes it: each value through
    tolist() and then '%.17g' %."""
    coords = [c.tolist() for c in grid.coordinates()]
    rows = ["x,value" if grid.dim == 1 else "x,y,value"]
    for i, v in enumerate(u.tolist()):
        rows.append("".join("%.17g," % c[i] for c in coords) + "%.17g" % v)
    return ("\r\n".join(rows) + "\r\n").encode()


def test_dump_field_bytes_for_other_field_dtypes(tmp_path):
    # any flat ndarray passes Grid.check; each is written as '%.17g' formats
    # its elements
    g = Grid((5, 6))
    rng = np.random.default_rng(32)
    big = rng.integers(-2**62, 2**62, g.ncells)  # past 2^53: float() rounds
    big[:4] = [0, 1, -7, 2**53 + 1]
    fields = {
        "strided": rng.standard_normal(3 * g.ncells)[::3],
        "float32": (rng.standard_normal(g.ncells) * 1e3).astype(np.float32),
        "int": big,
        "bool": rng.random(g.ncells) < 0.5,
    }
    for name, u in fields.items():
        path = tmp_path / f"{name}.csv"
        g.dump_field(u, path)
        assert path.read_bytes() == percent_dump(g, u), name


def test_dump_field_memory_is_bounded():
    # the second dump of a 64 x 64 field, after the first has built the
    # grid's coordinate text, peaked at 0.14 MB under tracemalloc: one block
    # of CSV_BLOCK_ROWS = 1024 rows alive at a time, as Python floats, the
    # tuple of the rows' prefixes and values, and their text (the 4096 rows
    # in one block peaked at 0.52 MB)
    g = Grid((64, 64))
    u = np.random.default_rng(33).standard_normal(g.ncells)
    u[:300] *= 1e-9
    g.dump_field(u, os.devnull)
    tracemalloc.start()
    try:
        g.dump_field(u, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6, f"tracemalloc peak {peak / 1e6:.3f} MB"


def test_coordinates_are_cached_and_read_only():
    g = Grid((3, 4))
    x, y = g.coordinates()
    assert g.coordinates()[0] is x
    with pytest.raises(ValueError):
        x[0] = 1.0
    np.testing.assert_allclose(x, np.repeat([1 / 6, 0.5, 5 / 6], 4), rtol=1e-15)


def test_load_rejects_header_and_size_mismatch(tmp_path):
    g = Grid(8)
    u = g.field(1.0)
    path = tmp_path / "f.csv"
    g.dump_field(u, path)
    with pytest.raises(GridMismatch):
        Grid(16).load_field(path)
    with pytest.raises(GridMismatch):
        Grid((4, 2)).load_field(path)  # 2-d grid expects an x,y,value header
    path.write_text("x,val\n0.5,1.0\n")
    with pytest.raises(GridMismatch):
        g.load_field(path)
    # a blank row (here a trailing extra CRLF) and a non-numeric value name
    # their row
    g.dump_field(u, path)
    with open(path, "ab") as fh:
        fh.write(b"\r\n")
    with pytest.raises(GridMismatch, match="row 10 "):
        g.load_field(path)
    g.dump_field(u, path)
    path.write_bytes(path.read_bytes().replace(b",1\r\n", b",one\r\n", 1))
    with pytest.raises(GridMismatch, match="row 2 "):
        g.load_field(path)
