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

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(32)
        v = rng.normal(size=(2, 32, 32))
        path = tmp_path / "v.field"
        io.write_field(path, v, 0.0)
        back, t = io.read_field(path)
        assert back.shape == (2, 32, 32)
        np.testing.assert_array_equal(back, v)

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
    ])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "h.field"
        path.write_bytes(header.ljust(io.HEADER_LEN - 1).encode() + b"\n" + bytes(128))
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
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


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.txt"
        io.write_config(path, {"n": 128, "method": "CL"})
        out = io.read_config(path)
        assert out == {"n": "128", "method": "CL"}
