"""File formats: binary fields, CSV tables, key=value configs."""

import numpy as np
import pytest

from euler2d import io
from euler2d.errors import ConfigError


class TestFieldFiles:
    def test_scalar_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        g = rng.normal(size=(48, 48))
        path = tmp_path / "f.field"
        io.write_field(path, g, 1.25)
        back, t = io.read_field(path)
        assert t == 1.25
        np.testing.assert_array_equal(back, g)

    @pytest.mark.parametrize("shape", [(2, 32, 32), (16, 8)], ids=["vector", "non_square"])
    def test_vector_rejected(self, tmp_path, shape):
        # a field file holds one square scalar grid
        path = tmp_path / "v.field"
        with pytest.raises(ValueError, match="square grid"):
            io.write_field(path, np.zeros(shape), 0.0)
        assert not path.exists()

    @pytest.mark.parametrize("comps", ["2", "0", "x"])
    def test_multi_component_file_rejected(self, tmp_path, comps):
        path = tmp_path / "c2.field"
        header = f"EULER2D1 n=4 c={comps} t=+0.0".ljust(io.HEADER_LEN - 1) + "\n"
        path.write_bytes(header.encode() + bytes(8 * 2 * 4 * 4))
        with pytest.raises(ConfigError, match="c must be 1"):
            io.read_field(path)

    def test_header_is_fixed_width(self, tmp_path):
        path = tmp_path / "h.field"
        io.write_field(path, np.zeros((16, 16)), 3.0)
        raw = path.read_bytes()
        assert len(raw) == io.HEADER_LEN + 16 * 16 * 8
        assert raw[:8] == b"EULER2D1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.field"
        path.write_bytes(b"NOTAFILE" + b" " * 56)
        with pytest.raises(ConfigError):
            io.read_field(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.field"
        io.write_field(path, np.zeros((16, 16)), 0.0)
        path.write_bytes(path.read_bytes()[:500])
        with pytest.raises(ConfigError):
            io.read_field(path)

    @pytest.mark.parametrize("header", [
        "EULER2D1 c=1 t=+0.0",
        "EULER2D1 n=x c=1 t=+0.0",
        "EULER2D1 n=4 c=1 t=soon",
        "EULER2D1 n=0 c=1 t=+0.0",
        "EULER2D1 n=4 c=1 t=nan",
        "EULER2D1 n=4 c=1 t=-inf",
    ])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "h.field"
        path.write_bytes(header.ljust(io.HEADER_LEN - 1).encode() + b"\n" + bytes(128))
        with pytest.raises(ConfigError):
            io.read_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        # no run writes a non-finite field, and none may start from one
        g = np.zeros((16, 16))
        g[3, 5] = bad
        path = tmp_path / "bad.field"
        io.write_field(path, g, 0.0)
        with pytest.raises(ConfigError, match="non-finite"):
            io.read_field(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.field"
        io.write_field(path, np.ones((16, 16)), 1.0)
        before = path.read_bytes()

        class PayloadFails:
            """File wrapper whose first write (the header) succeeds."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.fh.write(data)

        real_open = open
        monkeypatch.setattr(io, "open", lambda *a, **k: PayloadFails(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            io.write_field(path, np.zeros((16, 16)), 2.0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.field"]

    def test_bad_rank_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="square grid"):
            io.write_field(tmp_path / "x.field", np.zeros(8), 0.0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[1.0, 2.5], [2.0, -3.5e-12]]
        io.write_csv(path, ["a", "b"], rows)
        header, back = io.read_csv(path)
        assert header == ["a", "b"]
        assert back == rows

    def test_mixed_cells(self, tmp_path):
        path = tmp_path / "m.csv"
        io.write_csv(path, ["k", "v"], [["name", 1.0]])
        _, back = io.read_csv(path)
        assert back == [["name", 1.0]]


class TestAppendCsv:
    def test_header_once(self, tmp_path):
        path = tmp_path / "a.csv"
        io.append_csv(path, ["step", "t"], [1, 0.1])
        io.append_csv(path, ["step", "t"], [2, 0.2])
        assert io.read_csv(path) == (["step", "t"], [[1.0, 0.1], [2.0, 0.2]])
        # byte for byte what one whole-file write of the same rows gives
        whole = tmp_path / "w.csv"
        io.write_csv(whole, ["step", "t"], [[1, 0.1], [2, 0.2]])
        assert path.read_bytes() == whole.read_bytes()

    def test_append_to_header_only_file(self, tmp_path):
        path = tmp_path / "r.csv"
        io.write_csv(path, ["step", "t", "radius"], [])
        io.append_csv(path, ["step", "t", "radius"], [0, 0.0, 1.25])
        assert io.read_csv(path) == (["step", "t", "radius"], [[0.0, 0.0, 1.25]])


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.txt"
        io.write_config(path, {"n": 128, "method": "CL"})
        lines = path.read_text().splitlines()
        assert dict(line.split("=", 1) for line in lines) == {"n": "128", "method": "CL"}


class _FailingRows:
    """Rows (or mapping items) that raise after the first one."""

    def __init__(self, first):
        self.first = first

    def __iter__(self):
        yield self.first
        raise OSError("disk full")

    def items(self):
        return self


@pytest.mark.parametrize("write, first", [
    (lambda path, rows: io.write_csv(path, ["step", "t"], rows), [2, 0.2]),
    (io.write_config, ("n", 64)),
], ids=["csv", "config"])
def test_failed_text_write_keeps_previous_file(tmp_path, write, first):
    path = tmp_path / "steps.csv"
    io.write_csv(path, ["step", "t"], [[1, 0.1]])
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        write(path, _FailingRows(first))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["steps.csv"]
