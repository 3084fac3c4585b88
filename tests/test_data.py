import json
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import checkpoint_bytes

from cracenet.data import (
    CHECKPOINT_MAGIC,
    CorruptCheckpointError,
    PnmParseError,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    load_gray,
    load_rgb,
    parse_config_text,
    save_checkpoint,
    save_gray,
    save_rgb,
)
from cracenet.data import ConfigFileError


class TestPnm:
    def test_gray_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.uniform(size=(9, 7))
        path = tmp_path / "m.pgm"
        save_gray(path, arr)
        back = load_gray(path)
        assert back.shape == (9, 7)
        assert np.max(np.abs(back - arr)) <= 1.0 / 510.0

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.uniform(size=(3, 5, 6))
        path = tmp_path / "m.ppm"
        save_rgb(path, arr)
        back = load_rgb(path)
        assert back.shape == (3, 5, 6)
        assert np.max(np.abs(back - arr)) <= 1.0 / 510.0

    def test_minimal_header_forms(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5 4 4 255\n" + bytes(range(16)))
        arr = load_gray(path)
        assert arr.shape == (4, 4)
        assert arr[0, 1] == 1.0 / 255.0

    def test_header_comments(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes(4))
        assert load_gray(path).shape == (2, 2)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5 4 4 255\n" + bytes(10))
        with pytest.raises(PnmParseError) as err:
            load_gray(path)
        assert "offset" in str(err.value)

    def test_bad_magic_and_tokens(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P7 1 1 255\n\x00")
        with pytest.raises(PnmParseError):
            load_gray(path)
        path.write_bytes(b"P5 x 4 255\n" + bytes(16))
        with pytest.raises(PnmParseError):
            load_gray(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5 1 1 65535\n\x00\x00")
        with pytest.raises(PnmParseError):
            load_gray(path)


class TestSynthetic:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_synthetic(a, n=3, size=32, seed=11, with_depth=True)
        gen_synthetic(b, n=3, size=32, seed=11, with_depth=True)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*.p*m"))
        files_b = sorted(p.relative_to(b) for p in b.rglob("*.p*m"))
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_foreground_fraction_bounds(self, tmp_path):
        gen_synthetic(tmp_path / "d", n=6, size=48, seed=3)
        for s in load_dataset(tmp_path / "d"):
            assert 0.05 <= s.gt.mean() <= 0.6
            assert set(np.unique(s.gt)) <= {0.0, 1.0}

    @pytest.mark.parametrize("name, value", [("n", 0), ("size", 1), ("size", 0), ("size", -8)])
    def test_impossible_sizes_create_nothing(self, tmp_path, name, value):
        # A 1x1 scene's foreground fraction is 0 or 1, never within the
        # bounds; 2x2 is the smallest size that can be sampled.
        with pytest.raises(ValueError, match=name):
            gen_synthetic(tmp_path / "d", **{"n": 2, "size": 8, name: value})
        assert not (tmp_path / "d").exists()
        gen_synthetic(tmp_path / "d", n=2, size=2)
        for s in load_dataset(tmp_path / "d"):
            assert 0.05 <= s.gt.mean() <= 0.6

    def test_depth_separation(self, tmp_path):
        gen_synthetic(tmp_path / "d", n=5, size=48, seed=4, with_depth=True)
        for s in load_dataset(tmp_path / "d", with_depth=True):
            fg = s.gt == 1
            assert s.depth[fg].mean() - s.depth[~fg].mean() >= 0.2

    def test_depth_only_cue_hides_shapes_in_rgb(self, tmp_path):
        gen_synthetic(tmp_path / "d", n=4, size=48, seed=5, depth_only_cue=True)
        for s in load_dataset(tmp_path / "d", with_depth=True):
            fg = s.gt == 1
            # RGB contrast between object and background stays tiny
            contrast = abs(s.image[:, fg].mean() - s.image[:, ~fg].mean())
            assert contrast < 0.12
            assert s.depth[fg].mean() - s.depth[~fg].mean() >= 0.2


def _checkpoint_arrays():
    """Arrays of any dtype the writer casts, 0-d and empty ones included,
    some of them transposed or strided."""
    dtypes = st.sampled_from([np.float64, np.float32, np.int64, np.int32])
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    base = dtypes.flatmap(lambda dt: hnp.arrays(dt, shapes))
    views = st.sampled_from([lambda a: a, lambda a: a.T, lambda a: a[..., ::2] if a.ndim else a])
    return st.dictionaries(
        st.text(max_size=6), st.builds(lambda a, view: view(a), base, views), max_size=4
    )


class TestCheckpoint:
    @settings(max_examples=80, deadline=None)
    @given(
        config=st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4),
                               max_size=3),
        arrays=_checkpoint_arrays(),
    )
    @example(config={"mode": "rgb"},
             arrays={"tête.w": np.arange(6, dtype=np.float32).reshape(2, 3).T,
                     "scalar": np.array(3), "empty": np.zeros((2, 0))})
    def test_bytes_match_the_reference_encoder(self, config, arrays):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "c.ckpt"
            save_checkpoint(path, config, arrays)
            raw = path.read_bytes()
            cfg2, arrays2 = load_checkpoint(path)
        assert raw == checkpoint_bytes(config, arrays)
        assert cfg2 == json.loads(json.dumps(config))
        assert arrays2.keys() == arrays.keys()
        for name, arr in arrays.items():
            want = np.asarray(arr, dtype=np.float64)
            got = arrays2[name]
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.flags.owndata

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {
            "w": rng.normal(size=(3, 4, 5)),
            "b": rng.normal(size=(7,)),
            "scalar": np.array(3.25),
        }
        config = {"seed": 7, "mode": "rgb", "nested": {"x": [1, 2, 3]}}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, config, arrays)
        cfg2, arrays2 = load_checkpoint(path)
        assert cfg2 == config
        assert set(arrays2) == set(arrays)
        for k in arrays:
            assert np.array_equal(arrays[k], arrays2[k])
            assert arrays[k].dtype == arrays2[k].dtype == np.float64

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {}, {"x": np.zeros(2)})
        assert path.read_bytes().startswith(b"CRACEv1\x00")

    def test_tamper_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": 1}, {"x": np.arange(4.0)})
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOTDATA!" + bytes(32))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    # Payload offsets of the small checkpoint below: its 11-byte JSON header
    # starts at 4, and the 3-d array "w" has its dims at 23, 27 and 31.
    SMALL = ({"step": 3}, {"w": np.arange(6.0).reshape(1, 2, 3), "é": np.array(2.5)})

    @staticmethod
    def _payload(config, arrays) -> bytes:
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "c.ckpt"
            save_checkpoint(path, config, arrays)
            return path.read_bytes()[len(CHECKPOINT_MAGIC) : -4]

    @staticmethod
    def _load_resealed(payload: bytes):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "c.ckpt"
            crc = zlib.crc32(payload).to_bytes(4, "little")
            path.write_bytes(CHECKPOINT_MAGIC + payload + crc)
            return load_checkpoint(path)

    @pytest.mark.parametrize(
        "case", ["non-utf8-header", "non-json-header", "non-object-header",
                 "bytes-after-last-array", "repeated-name", "huge-shape",
                 "empty-huge-shape"],
    )
    def test_malformed_payload_with_a_valid_crc_is_refused(self, case):
        payload = bytearray(self._payload(*self.SMALL))
        if case == "non-utf8-header":
            payload[5] = 0xFF
        elif case == "non-json-header":
            payload[4] = ord("x")
        elif case == "non-object-header":  # save_checkpoint refuses to write one
            payload = bytearray(checkpoint_bytes([3], self.SMALL[1])[len(CHECKPOINT_MAGIC) : -4])
        elif case == "bytes-after-last-array":
            payload += bytes(5)
        elif case == "repeated-name":
            payload = bytearray(self._payload({}, {"a": np.zeros(2), "b": np.ones(2)}))
            payload[payload.index(b"b")] = ord("a")
        elif case == "huge-shape":
            payload[27:35] = b"\xff" * 8
        else:
            payload[23:35] = bytes(4) + b"\xff" * 8
        with pytest.raises(CorruptCheckpointError):
            self._load_resealed(bytes(payload))

    @settings(max_examples=300, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.sampled_from(["set", "insert", "delete"]),
                      st.integers(0, 200), st.binary(min_size=1, max_size=8)),
            min_size=1, max_size=3,
        )
    )
    def test_mutated_payload_loads_cleanly_or_is_refused(self, edits):
        payload = bytearray(self._payload(*self.SMALL))
        for kind, at, piece in edits:
            at %= len(payload) + 1
            if kind == "set":
                payload[at : at + len(piece)] = piece[: len(payload) - at]
            elif kind == "insert":
                payload[at:at] = piece
            else:
                del payload[at : at + len(piece)]
        try:
            config, arrays = self._load_resealed(bytes(payload))
        except CorruptCheckpointError:
            return
        assert isinstance(config, dict)
        for arr in arrays.values():
            assert arr.dtype == np.float64 and arr.flags.owndata

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"step": 1}, {"x": np.arange(4.0)})
        before = path.read_bytes()
        write_bytes = Path.write_bytes

        def crash_halfway(self, data):
            write_bytes(self, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", crash_halfway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"step": 2}, {"x": np.arange(8.0)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("config", [[3], "step", None, 3], ids=repr)
    def test_a_config_that_is_not_a_dict_is_refused_before_writing(self, tmp_path, config):
        with pytest.raises(TypeError, match="checkpoint config must be a dict"):
            save_checkpoint(tmp_path / "model.ckpt", config, {"x": np.arange(4.0)})
        assert list(tmp_path.iterdir()) == []


class TestConfigText:
    def test_parse(self):
        raw = parse_config_text(
            """
            # training recipe
            total_steps = 500
            lr_head = 0.05   # decoder rate
            hflip = true
            """
        )
        assert raw == {"total_steps": "500", "lr_head": "0.05", "hflip": "true"}

    def test_bad_line(self):
        with pytest.raises(ConfigFileError):
            parse_config_text("just some words")

    def test_duplicate_key(self):
        with pytest.raises(ConfigFileError):
            parse_config_text("a = 1\na = 2")
