"""A reader of the binary legacy VTK files `io.write_vtk` makes, for the tests.

Each section is ASCII header lines followed by one big-endian array whose
length the header gives, then a newline. The reader walks the file by
those counts, checks every trailing newline and that nothing is left
over, and returns the decoded arrays.
"""

from types import SimpleNamespace

import numpy as np


def read_vtk(path):
    """Decode a binary legacy VTK unstructured grid section by section.

    Returns a namespace with `name`, `points` (V, 3), `cells` (T, 5),
    `cell_types` (T,), `cell_data` (T, 3), `point_data` (V, 3) and
    `point_data_name`. The arrays keep their big-endian dtypes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text = data[pos:end].decode("ascii")
        pos = end + 1
        return text

    def block(dtype, count, shape):
        nonlocal pos
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        pos += arr.nbytes
        assert data[pos:pos + 1] == b"\n", f"no newline after the block at {pos}"
        pos += 1
        return arr.reshape(shape)

    assert line() == "# vtk DataFile Version 3.0"
    name = line()
    assert line() == "BINARY"
    assert line() == "DATASET UNSTRUCTURED_GRID"

    key, nv, kind = line().split()
    assert (key, kind) == ("POINTS", "double")
    V = int(nv)
    points = block(">f8", 3 * V, (V, 3))

    key, nt, size = line().split()
    assert key == "CELLS" and int(size) == 5 * int(nt)
    T = int(nt)
    cells = block(">i4", 5 * T, (T, 5))

    assert line() == f"CELL_TYPES {T}"
    cell_types = block(">i4", T, (T,))

    assert line() == f"CELL_DATA {T}"
    assert line() == "VECTORS curl double"
    cell_data = block(">f8", 3 * T, (T, 3))

    assert line() == f"POINT_DATA {V}"
    key, point_data_name, kind = line().split()
    assert (key, kind) == ("VECTORS", "double")
    point_data = block(">f8", 3 * V, (V, 3))

    assert pos == len(data), "bytes after the last section"
    return SimpleNamespace(name=name, points=points, cells=cells,
                           cell_types=cell_types, cell_data=cell_data,
                           point_data=point_data,
                           point_data_name=point_data_name)


def assert_same_bits(got, expect):
    """got holds exactly expect's float64 values, bit for bit (-0.0 too)."""
    expect = np.asarray(expect, dtype=float)
    assert got.shape == expect.shape
    assert np.array_equal(got.astype(float).view(np.int64), expect.view(np.int64))


def cell_volumes(points, rows):
    """Signed volumes det [v1-v0, v2-v0, v3-v0] / 6 of (T, 4) vertex rows."""
    v = np.asarray(points, dtype=float)[np.asarray(rows)]
    return np.linalg.det(v[:, 1:] - v[:, :1]) / 6.0


def positive_rows(mesh):
    """The mesh's tet rows with vertices 1 and 2 swapped where the stored
    order is negatively oriented: the CELLS VTK_TETRA expects."""
    rows = mesh.tets.copy()
    flip = cell_volumes(mesh.vertices, rows) < 0
    rows[flip] = rows[flip][:, [0, 2, 1, 3]]
    return rows
