"""Run configuration and on-disk outputs (VTK, CSV, summaries).

Configs are flat `key = value` text files plus command-line overrides;
unknown keys are rejected, every numeric key is validated on parse and
every list key must be non-empty.
Floats are always written with 17 significant digits so reruns of the
same config produce byte-identical files.
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


def _positive(x):
    return x > 0


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
    "box_origin": (_parse_floats, lambda v: len(v) == 3, [0.0, 0.0, 0.0],
                   "box origin"),
    "box_extents": (_parse_floats,
                    lambda v: len(v) == 3 and all(e > 0 for e in v),
                    [math.pi, math.pi, math.pi], "box extents"),
}

# solve and converge take the exponent alone: every other solver policy
# is a constant of `solver`, and the load is case_general_p(p)'s
_P_TARGET = {
    "p": (_parse_float, lambda v: v >= 2.0, 2.0,
          "target exponent (the solver requires p >= 2)"),
}

_LEVELS = {
    "levels": (_parse_ints, _levels_ok, [2, 4, 8], "mesh divisions per level"),
}

_VERIFY = {
    "seed": (int, _nonneg, 0, "RNG seed"),
    "n_samples": (int, _positive, 1000000, "inequality sample count"),
    "p_grid": (_parse_floats, lambda v: len(v) > 0 and all(p > 1 for p in v),
               [2.0, 3.0, 4.0, 6.0, 10.0], "exponents for inequality sweep"),
    "green_levels": (_parse_ints, _levels_ok, [2, 4, 8],
                     "mesh divisions per Green-identity level"),
}

_FRIEDRICH = {
    "seed": (int, _nonneg, 0, "RNG seed"),
    "p": (_parse_float, lambda v: v >= 2.0, 2.0, "norm exponent"),
}

KEY_SPECS = {
    "solve": {**_COMMON, **_MESH, **_P_TARGET},
    "verify": {**_COMMON, **_MESH, **_VERIFY},
    "friedrich": {**_COMMON, **_FRIEDRICH, **_LEVELS},
    "converge": {**_COMMON, **_P_TARGET, **_LEVELS},
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
    """Legacy ASCII VTK unstructured grid of the edge field.

    Cells carry the (piecewise constant) curl; points carry the field
    reconstructed by averaging each adjacent tet's value at the vertex,
    which is that tet's vertex vector. Fixed formatting keeps the file
    bit-stable across platforms.
    """
    curls = curl_per_tet(u)
    at_corners = vertex_vectors(u)                      # (T, 4, 3)

    point_vals = np.zeros((mesh.num_vertices, 3))
    counts = np.zeros(mesh.num_vertices)
    np.add.at(point_vals, mesh.tets.ravel(),
              at_corners.reshape(-1, 3))
    np.add.at(counts, mesh.tets.ravel(), 1.0)
    point_vals /= counts[:, None]

    T = mesh.num_tets
    vec = f"{FMT} {FMT} {FMT}\n"
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{name}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_vertices} double\n")
        _write_rows(fh, vec, mesh.vertices)
        fh.write(f"CELLS {T} {5 * T}\n")
        _write_rows(fh, "4 %d %d %d %d\n", mesh.tets)
        fh.write(f"CELL_TYPES {T}\n")
        fh.write("\n".join(["10"] * T) + "\n")
        fh.write(f"CELL_DATA {T}\nVECTORS curl double\n")
        _write_rows(fh, vec, curls)
        fh.write(f"POINT_DATA {mesh.num_vertices}\nVECTORS {name} double\n")
        _write_rows(fh, vec, point_vals)


def _write_rows(fh, row_fmt, arr):
    """Write each row of a 2-D array with one %-format for the whole array."""
    fh.write((row_fmt * arr.shape[0]) % tuple(arr.ravel().tolist()))
