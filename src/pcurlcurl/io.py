"""Run configuration and on-disk outputs (VTK, CSV, summaries).

Configs are flat `key = value` text files plus command-line overrides;
unknown keys are rejected, every numeric key is validated on parse and
every list key must be non-empty.
CSV and config floats are written with 17 significant digits and VTK
arrays as raw big-endian binary, so reruns of the same config produce
byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .assembly import EdgeField, curl_per_tet, vertex_vectors
from .mesh import Mesh

OUTPUT_ROOT_ENV = "PCURLCURL_OUT_ROOT"

FMT = "%.17g"


class ConfigError(ValueError):
    """Malformed, unknown or out-of-range configuration entry."""


def _parse_float(s):
    s = s.strip().lower()
    if s == "pi":
        return math.pi
    return float(s)


def _parse_floats(s):
    return [_parse_float(tok) for tok in str(s).split(",") if tok.strip()]


def _parse_ints(s):
    return [int(tok) for tok in str(s).split(",") if tok.strip()]


def _nonneg(x):
    return x >= 0


def _levels_ok(v):
    return len(v) > 0 and all(n >= 1 for n in v)


# key -> (parser, validator or None, default, description)
_COMMON = {
    "out_dir": (str, None, "out", "output directory"),
}

_MESH = {
    "divisions": (_parse_ints, lambda v: len(v) == 3 and all(d >= 1 for d in v),
                  [4, 4, 4], "grid divisions nx,ny,nz"),
    "box_origin": (_parse_floats,
                   lambda v: len(v) == 3 and all(map(math.isfinite, v)),
                   [0.0, 0.0, 0.0], "box origin, finite"),
    "box_extents": (_parse_floats,
                    lambda v: len(v) == 3 and all(0 < e < math.inf for e in v),
                    [math.pi, math.pi, math.pi], "box extents, finite and > 0"),
}

# solve and converge take the exponent alone: every other solver policy
# is a constant of `solver`, and the load is case_general_p(p)'s
_P_TARGET = {
    "p": (_parse_float, lambda v: 2.0 <= v < math.inf, 2.0,
          "target exponent (the solver requires a finite p >= 2)"),
}

_LEVELS = {
    "levels": (_parse_ints, _levels_ok, [2, 4, 8], "mesh divisions per level"),
}

# one level has no error to compare
_CONVERGE_LEVELS = {
    "levels": (_parse_ints, lambda v: len(v) >= 2 and _levels_ok(v), [2, 4, 8],
               "mesh divisions per level, at least two"),
}

_VERIFY = {
    "seed": (int, _nonneg, 0, "RNG seed of the potential round trip"),
    "n_samples": (int, lambda v: v > 0, 1000000,
                  "no longer changes any result (the inequality constants "
                  "are computed, not sampled); leaves with benchmark v2"),
    "p_grid": (_parse_floats, lambda v: v and all(1 < p < math.inf for p in v),
               [2.0, 3.0, 4.0, 6.0, 10.0], "finite exponents > 1 to sweep"),
    "green_levels": (_parse_ints, _levels_ok, [2, 4, 8],
                     "mesh divisions per Green-identity level"),
}

_FRIEDRICH = {
    "seed": (int, _nonneg, 0,
             "no longer changes any result (the LOBPCG start has a fixed "
             "seed); leaves with benchmark v2"),
    "p": (_parse_float, lambda v: 2.0 <= v < math.inf, 2.0,
          "norm exponent (finite, >= 2)"),
}

KEY_SPECS = {
    "solve": {**_COMMON, **_MESH, **_P_TARGET},
    "verify": {**_COMMON, **_MESH, **_VERIFY},
    "friedrich": {**_COMMON, **_FRIEDRICH, **_LEVELS},
    "converge": {**_COMMON, **_P_TARGET, **_CONVERGE_LEVELS},
}


@dataclass
class RunConfig:
    command: str
    values: dict = field(default_factory=dict)

    @classmethod
    def load(cls, command, config_path=None, overrides=None):
        """Build a validated config from file + command-line overrides."""
        if command not in KEY_SPECS:
            raise ConfigError(f"unknown command {command!r}")
        spec = KEY_SPECS[command]
        raw = {}
        if config_path:
            raw.update(parse_config_file(config_path))
        raw.update(overrides or {})
        values = {k: s[2] for k, s in spec.items()}
        for key, text in raw.items():
            if key not in spec:
                raise ConfigError(
                    f"unknown key {key!r} for command {command!r} "
                    f"(known: {', '.join(sorted(spec))})")
            parser, validator, _, desc = spec[key]
            try:
                val = parser(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})")
            if validator is not None and not validator(val):
                raise ConfigError(f"invalid {key!r} = {text!r}: {desc}")
            values[key] = val
        return cls(command=command, values=values)

    def __getitem__(self, key):
        return self.values[key]

    def out_dir(self):
        """Output directory, honoring the output-root env override."""
        out = self.values["out_dir"]
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            out = os.path.join(root, out)
        os.makedirs(out, exist_ok=True)
        return out

    def echo(self, directory):
        """Write the effective key/value set next to the other outputs."""
        lines = [f"command = {self.command}"]
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, list):
                val = ",".join(FMT % v if isinstance(v, float) else str(v)
                               for v in val)
            elif isinstance(val, float):
                val = FMT % val
            lines.append(f"{key} = {val}")
        path = os.path.join(directory, "config_used.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def parse_config_file(path):
    """Flat `key = value` lines; '#' starts a comment; blanks ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_csv(path, header, rows):
    """CSV with fixed 17-significant-digit float formatting."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FMT % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_summary(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk(path, mesh: Mesh, u: EdgeField, name="field"):
    """Legacy binary VTK unstructured grid of the edge field.

    Cells carry the (piecewise constant) curl; points carry the field
    reconstructed by averaging each adjacent tet's value at the vertex,
    which is that tet's vertex vector. Each cell lists its tet's vertices
    in positive orientation, as VTK_TETRA requires. Each section is its
    ASCII header line, one big-endian array (float64 values bit for bit,
    int32 connectivity) and a newline, so reruns are byte-identical.

    Raises:
        ValueError: a vertex index does not fit in int32.
    """
    T, V = mesh.num_tets, mesh.num_vertices
    if T and mesh.tets.max() > np.iinfo(np.int32).max:
        raise ValueError("vertex index does not fit in int32 for VTK CELLS")

    # VTK_TETRA wants positive orientation: swap vertices 1 and 2 of
    # every negatively oriented tet
    cells = np.column_stack((np.full(T, 4), mesh.tets))
    flipped = mesh.geometry.flipped
    cells[flipped, 2:4] = cells[flipped, 3:1:-1]

    # bincount adds each vertex's corners in tet order: a fixed sum order.
    # It copies a read-only index array on every call, so copy it once.
    idx = mesh.tets.ravel().copy()
    at_corners = vertex_vectors(u).reshape(-1, 3)
    point_vals = np.stack([np.bincount(idx, at_corners[:, k], V)
                           for k in range(3)], axis=1)
    point_vals /= np.bincount(idx, minlength=V)[:, None]

    with open(path, "wb") as fh:
        _write_section(fh, f"# vtk DataFile Version 3.0\n{name}\nBINARY\n"
                       f"DATASET UNSTRUCTURED_GRID\nPOINTS {V} double\n",
                       mesh.vertices, ">f8")
        _write_section(fh, f"CELLS {T} {5 * T}\n", cells, ">i4")
        _write_section(fh, f"CELL_TYPES {T}\n", np.full(T, 10), ">i4")
        _write_section(fh, f"CELL_DATA {T}\nVECTORS curl double\n",
                       curl_per_tet(u), ">f8")
        _write_section(fh, f"POINT_DATA {V}\nVECTORS {name} double\n",
                       point_vals, ">f8")


def _write_section(fh, header, arr, dtype):
    """The header lines, then arr as one big-endian buffer and a newline."""
    fh.write(header.encode())
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    fh.write(b"\n")
