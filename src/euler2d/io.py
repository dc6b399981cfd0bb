"""Binary field files and CSV emitters.

Field format: a 64-byte ASCII header "EULER2D1 n=... c=1 t=..." padded
with spaces, followed by the n*n values of one scalar field as raw
little-endian float64, row-major.  Round-trips are bit-exact.  Every
whole-file writer writes its file to "<path>.tmp" and then renames it over
the target, so a write that fails part way leaves the previous file as it
was.  append_csv adds one row to a CSV and closes it, so a process that is
killed keeps every row appended before.
"""

import contextlib
import csv
import os

import numpy as np

from .errors import ConfigError

MAGIC = "EULER2D1"
HEADER_LEN = 64


@contextlib.contextmanager
def _replacing(path, mode, **kwargs):
    """Write "<path>.tmp", renamed over path only if the block completes."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_field(path, values, time):
    values = np.asarray(values, dtype="<f8")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"a field file holds one square grid, not shape {values.shape}")
    header = f"{MAGIC} n={values.shape[0]:d} c=1 t={time:+.17e}"
    with _replacing(path, "wb") as fh:
        fh.write((header.ljust(HEADER_LEN - 1) + "\n").encode("ascii"))
        fh.write(values.tobytes())


def read_field(path):
    """Return (values, time), values of shape (n, n).

    Raises ConfigError unless the header carries the magic and valid n=,
    c=1, finite t= keys and the payload holds exactly n*n finite values.
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
        time = float(fields["t"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad field header {header.strip()!r}") from exc
    if n < 1 or fields.get("c") != "1":
        raise ConfigError(f"{path}: bad field size n={n} c={fields.get('c')} (c must be 1)")
    if len(data) != 8 * n * n:
        raise ConfigError(
            f"{path}: payload of {len(data)} bytes, expected {8 * n * n} for n={n}"
        )
    values = np.frombuffer(data, dtype="<f8").reshape(n, n).copy()
    if not (np.isfinite(time) and np.all(np.isfinite(values))):
        raise ConfigError(f"{path}: non-finite time or value (t={time})")
    return values, time


def write_csv(path, header, rows):
    with _replacing(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def append_csv(path, header, row):
    """Append row to the CSV at path, after header while the file is empty."""
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerows([header, row] if fh.tell() == 0 else [row])


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
    with _replacing(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={value}\n")
