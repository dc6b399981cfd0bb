"""Binary field files and CSV emitters.

Field format: a 64-byte ASCII header "EULER2D1 n=... c=... t=..." padded
with spaces, followed by raw little-endian float64 data, row-major,
component-major for vectors.  Round-trips are bit-exact.  A field file is
written whole to "<path>.tmp" and then renamed over the target, so a write
that fails part way leaves the previous file as it was.
"""

import csv
import os

import numpy as np

from .errors import ConfigError

MAGIC = "EULER2D1"
HEADER_LEN = 64


def write_field(path, values, time):
    values = np.asarray(values, dtype="<f8")
    if values.ndim == 2:
        comps, n = 1, values.shape[0]
    elif values.ndim == 3:
        comps, n = values.shape[0], values.shape[1]
    else:
        raise ConfigError(f"unsupported field rank {values.ndim}")
    header = f"{MAGIC} n={n:d} c={comps:d} t={time:+.17e}"
    header = header.ljust(HEADER_LEN - 1) + "\n"
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(values.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_field(path):
    """Return (values, time); vectors come back with shape (c, n, n).

    Raises ConfigError unless the header carries the magic and valid n=,
    c=, t= keys and the payload holds exactly c*n*n float64 values.
    """
    with open(path, "rb") as fh:
        header = fh.read(HEADER_LEN).decode("ascii", errors="replace")
        data = fh.read()
    parts = header.split()
    if not parts or parts[0] != MAGIC:
        raise ConfigError(f"{path}: not a field file")
    fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
    try:
        n = int(fields["n"])
        comps = int(fields["c"])
        time = float(fields["t"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad field header {header.strip()!r}") from exc
    if n < 1 or comps < 1:
        raise ConfigError(f"{path}: bad field size n={n} c={comps}")
    if len(data) != 8 * comps * n * n:
        raise ConfigError(
            f"{path}: payload of {len(data)} bytes, expected {8 * comps * n * n} "
            f"for n={n} c={comps}"
        )
    values = np.frombuffer(data, dtype="<f8").copy()
    shape = (n, n) if comps == 1 else (comps, n, n)
    return values.reshape(shape), time


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    """Return (header, rows) with rows as lists of floats where possible."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty CSV file")
        rows = []
        for row in reader:
            parsed = []
            for cell in row:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return header, rows


def write_config(path, mapping):
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={value}\n")


def read_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, value = line.split("=", 1)
                out[key] = value
    return out
