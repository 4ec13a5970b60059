"""Feature pipeline: manifest parsing, binary round-trips, normalization
against a two-pass oracle, and SpecAugment mask accounting."""

import json
import struct

import numpy as np
import pytest

from moe_asr import features as F


def _write_manifest(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("call, message", [
    (lambda tmp: F.FeatureSequence("u", np.zeros(4), [0]),
     r"^u: features must be \[T x D\] with T >= 1$"),
    (lambda tmp: F.FeatureSequence("u", np.zeros((0, 3)), [0]),
     r"^u: features must be \[T x D\] with T >= 1$"),
    (lambda tmp: F.FeatureSequence("u", [[0.0, np.inf]], [0]), "^u: non-finite feature values$"),
    (lambda tmp: F.CmvnStats(mean=np.zeros(2), var=np.ones(3), frames=1),
     "^mean and var must be matching 1-D arrays$"),
    (lambda tmp: F.CmvnStats(mean=np.zeros(2), var=-np.ones(2), frames=1),
     "^variance must be >= 0 and frame count > 0$"),
    (lambda tmp: F.CmvnStats(mean=np.zeros(2), var=np.ones(2), frames=0),
     "^variance must be >= 0 and frame count > 0$"),
    (lambda tmp: F.write_feats(tmp / "x.fb", np.zeros(3)),
     r"^features must be 2-D, got shape \(3,\)$"),
    (lambda tmp: F.compute_cmvn([]), "^cannot compute normalization stats from zero utterances$"),
], ids=["vector-features", "no-frames", "non-finite", "cmvn-shapes", "negative-variance",
        "no-frames-counted", "write-vector", "cmvn-of-nothing"])
def test_malformed_input_named(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
    assert not (tmp_path / "x.fb").exists()


def invert_cmvn(seq, stats):
    """Undo apply_cmvn; round-trips to < 1e-9 when variance is not degenerate."""
    scale = np.sqrt(stats.var + 1e-9)
    return F.FeatureSequence(seq.utt_id, seq.feats * scale + stats.mean, seq.tokens)


class TestManifest:
    def test_three_lines_in_order(self, tmp_path):
        rows = [
            {"utt_id": f"u{i}", "feats_path": f"{i}.fb", "tokens": [i]} for i in range(3)
        ]
        path = tmp_path / "m.jsonl"
        _write_manifest(path, rows)
        handles = F.load_manifest(path)
        assert [h.utt_id for h in handles] == ["u0", "u1", "u2"]

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        """Blank lines hold no utterance but keep the line numbers."""
        path = tmp_path / "m.jsonl"
        path.write_text('\n{"utt_id": "a", "feats_path": "a.fb", "tokens": [1]}\n  \n'
                        '{"utt_id": "a", "feats_path": "b.fb", "tokens": [2]}\n')
        with pytest.raises(F.ManifestError, match=r":4: utt_id 'a' repeats line 2"):
            F.load_manifest(path)
        path.write_text('\n{"utt_id": "a", "feats_path": "a.fb", "tokens": [1]}\n\n')
        assert [h.utt_id for h in F.load_manifest(path)] == ["a"]

    def test_empty_file_empty_list(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert F.load_manifest(path) == []

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"utt_id": "a", "feats_path": "a.fb", "tokens": [1]}\n{bad\n')
        with pytest.raises(F.ManifestError, match=":2:"):
            F.load_manifest(path)

    @pytest.mark.parametrize("line", ['[1, 2]', '{"utt_id": "a", "tokens": [1]}'],
                             ids=["list", "no-feats-path"])
    def test_line_without_the_keys_names_them(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(F.ManifestError,
                           match=r"m\.jsonl:1: expected keys utt_id, feats_path, tokens$"):
            F.load_manifest(path)

    def test_negative_token_rejected_with_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_manifest(path, [{"utt_id": "a", "feats_path": "a.fb", "tokens": [0, -1]}])
        with pytest.raises(F.ManifestError, match=":1:"):
            F.load_manifest(path)

    def test_repeated_utt_id_names_both_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = [
            {"utt_id": "a", "feats_path": "a.fb", "tokens": [1]},
            {"utt_id": "b", "feats_path": "b.fb", "tokens": [2]},
            {"utt_id": "a", "feats_path": "c.fb", "tokens": [3]},
        ]
        _write_manifest(path, rows)
        with pytest.raises(F.ManifestError, match=r":3: utt_id 'a' repeats line 1"):
            F.load_manifest(path)

    def test_missing_feature_file_names_utt(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_manifest(
            path, [{"utt_id": "ghost", "feats_path": str(tmp_path / "no.fb"), "tokens": [1]}]
        )
        (handle,) = F.load_manifest(path)
        with pytest.raises(FileNotFoundError, match="ghost"):
            handle.load()


class TestFeatureBinary:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(13, 7))
        path = tmp_path / "x.fb"
        F.write_feats(path, feats)
        back = F.read_feats(path)
        assert back.dtype == np.float64
        np.testing.assert_allclose(back, feats.astype(np.float32), rtol=0, atol=0)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.fb"
        F.write_feats(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"FB01"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 3
        assert len(raw) == 12 + 2 * 3 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.fb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            F.read_feats(path)

    @pytest.mark.parametrize("keep", [-8, 4, 10], ids=["payload", "no-header", "mid-header"])
    def test_truncated_rejected(self, tmp_path, keep):
        path = tmp_path / "x.fb"
        F.write_feats(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated"):
            F.read_feats(path)

    @pytest.mark.parametrize("T,D", [(2**32 - 1, 2**32 - 1), (2**20, 2**12)],
                             ids=["u32-max", "16GiB"])
    def test_header_larger_than_file_rejected(self, tmp_path, T, D):
        """The header's payload size is checked against the file before any
        read, so a corrupt header neither overflows nor asks for its size."""
        path = tmp_path / "x.fb"
        path.write_bytes(b"FB01" + struct.pack("<II", T, D) + b"\x00" * 16)
        with pytest.raises(ValueError, match="truncated payload"):
            F.read_feats(path)


class TestCmvn:
    def test_self_stats_whiten(self):
        rng = np.random.default_rng(1)
        seq = F.FeatureSequence("a", rng.normal(loc=5.0, scale=2.0, size=(200, 6)), [0])
        stats = F.compute_cmvn([seq])
        out = F.apply_cmvn(seq, stats).feats
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(6), atol=1e-9)
        np.testing.assert_allclose(out.var(axis=0), np.ones(6), atol=1e-6)

    def test_zero_variance_dimension_finite(self):
        seq = F.FeatureSequence("a", np.full((10, 3), 2.0), [0])
        stats = F.compute_cmvn([seq])
        out = F.apply_cmvn(seq, stats).feats
        assert np.all(np.isfinite(out))

    def test_matches_two_pass_oracle(self):
        """Stats over two utterances equal a frame-by-frame two-pass oracle."""
        rng = np.random.default_rng(2)
        seqs = [
            F.FeatureSequence("a", rng.normal(size=(10, 4)), [0]),
            F.FeatureSequence("b", rng.normal(size=(7, 4)), [0]),
        ]
        stats = F.compute_cmvn(seqs)

        frames = [f for s in seqs for f in s.feats]
        mean = np.zeros(4)
        for f in frames:
            mean += f
        mean /= len(frames)
        var = np.zeros(4)
        for f in frames:
            var += (f - mean) ** 2
        var /= len(frames)

        assert stats.frames == 17
        np.testing.assert_allclose(stats.mean, mean, atol=1e-12)
        np.testing.assert_allclose(stats.var, var, atol=1e-12)

    def test_round_trip_inversion(self):
        rng = np.random.default_rng(3)
        seq = F.FeatureSequence("a", rng.normal(scale=1.5, size=(20, 5)), [0])
        stats = F.compute_cmvn([seq])
        back = invert_cmvn(F.apply_cmvn(seq, stats), stats)
        assert np.max(np.abs(back.feats - seq.feats)) < 1e-9

    def test_dimension_mismatch_rejected(self):
        seq = F.FeatureSequence("a", np.zeros((4, 3)), [0])
        stats = F.CmvnStats(mean=np.zeros(5), var=np.ones(5), frames=10)
        with pytest.raises(ValueError, match="dimension"):
            F.apply_cmvn(seq, stats)

    def test_json_round_trip(self, tmp_path):
        stats = F.CmvnStats(mean=np.array([1.0, 2.0]), var=np.array([0.5, 4.0]), frames=99)
        F.save_cmvn(stats, tmp_path / "c.json")
        back = F.load_cmvn(tmp_path / "c.json")
        np.testing.assert_allclose(back.mean, stats.mean)
        np.testing.assert_allclose(back.var, stats.var)
        assert back.frames == 99

    def test_one_line_layout_of_older_corpora_loads(self, tmp_path):
        """cmvn.json is written by ``write_json``, indented; a file in the
        one-line layout older corpora were prepared with loads to the same
        stats, bit for bit."""
        rng = np.random.default_rng(12)
        stats = F.compute_cmvn([F.FeatureSequence("a", rng.normal(size=(9, 5)), [0])])
        F.save_cmvn(stats, tmp_path / "new.json")
        assert (tmp_path / "new.json").read_text().startswith('{\n  "mean": [\n')
        with open(tmp_path / "old.json", "w", encoding="utf-8") as fh:
            json.dump({"mean": stats.mean.tolist(), "var": stats.var.tolist(),
                       "frames": stats.frames}, fh)
            fh.write("\n")
        old, new = F.load_cmvn(tmp_path / "old.json"), F.load_cmvn(tmp_path / "new.json")
        for back in (old, new):
            assert back.mean.tobytes() == stats.mean.tobytes()
            assert back.var.tobytes() == stats.var.tobytes()
            assert back.frames == stats.frames == 9


class TestSpecAugment:
    def _seq(self, T=120, D=80, seed=4):
        rng = np.random.default_rng(seed)
        return F.FeatureSequence("a", rng.normal(loc=1.0, size=(T, D)), [0])

    def test_shape_preserved(self):
        seq = self._seq()
        out = F.spec_augment(seq, np.random.default_rng(0))
        assert out.feats.shape == seq.feats.shape

    def test_zero_width_draws_identity(self):
        class ZeroRng:
            def integers(self, lo, hi):
                return 0

        seq = self._seq()
        out = F.spec_augment(seq, ZeroRng())
        np.testing.assert_allclose(out.feats, seq.feats, rtol=0, atol=0)

    def test_masked_region_bounds(self):
        """At most two bands of MASK_WIDTH feature dims and two spans of
        MASK_WIDTH frames hit zero."""
        seq = self._seq(T=400, D=80)
        out = F.spec_augment(seq, np.random.default_rng(5))
        zero_dims = int(np.sum(np.all(out.feats == 0.0, axis=0)))
        zero_frames = int(np.sum(np.all(out.feats == 0.0, axis=1)))
        assert zero_dims <= 2 * F.MASK_WIDTH
        assert zero_frames <= 2 * F.MASK_WIDTH

    @pytest.mark.parametrize("T, D", [(120, 80), (30, 8), (6, 3)])
    def test_default_widths_match_reference_draws(self, T, D):
        """The default draws two bands up to min(10, D) dims wide, then two
        spans up to 10 frames, each width then its offset from the rng."""
        seq = self._seq(T=T, D=D)
        got = F.spec_augment(seq, np.random.default_rng(11)).feats
        rng, want = np.random.default_rng(11), seq.feats.copy()
        for width, size, axis in ((min(10, D), D, 1), (min(10, D), D, 1), (10, T, 0), (10, T, 0)):
            w = min(int(rng.integers(0, width + 1)), size)
            start = int(rng.integers(0, size - w + 1))
            index = [slice(None), slice(None)]
            index[axis] = slice(start, start + w)
            want[tuple(index)] = 0.0
        assert got.tobytes() == want.tobytes()

    def test_complement_untouched(self):
        """Cells outside the drawn masks keep their exact values."""
        seq = self._seq()
        out = F.spec_augment(seq, np.random.default_rng(6))
        changed = out.feats != seq.feats
        assert np.all(out.feats[changed] == 0.0)
        np.testing.assert_allclose(out.feats[~changed], seq.feats[~changed], rtol=0, atol=0)

    def test_fixed_rng_bit_identical(self):
        seq = self._seq()
        a = F.spec_augment(seq, np.random.default_rng(7)).feats
        b = F.spec_augment(seq, np.random.default_rng(7)).feats
        assert a.tobytes() == b.tobytes()

    def test_utterance_rng_independent_of_order(self):
        a = F.utterance_rng(1, "u1", 0).integers(0, 1000, size=4)
        b = F.utterance_rng(1, "u1", 0).integers(0, 1000, size=4)
        c = F.utterance_rng(1, "u2", 0).integers(0, 1000, size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSyntheticCorpus:
    def test_deterministic_bytes(self, tmp_path):
        F.generate_corpus(tmp_path / "a", num_utts=6, vocab_size=5, seed=11, feat_dim=20)
        F.generate_corpus(tmp_path / "b", num_utts=6, vocab_size=5, seed=11, feat_dim=20)
        for name in ["utt0000.fb", "utt0003.fb"]:
            assert (tmp_path / "a" / "feats" / name).read_bytes() == (
                tmp_path / "b" / "feats" / name
            ).read_bytes()

    def test_split_sizes(self, tmp_path):
        summary = F.generate_corpus(tmp_path, num_utts=50, vocab_size=10, seed=0, feat_dim=16)
        assert summary["train_utts"] == 45
        assert summary["dev_utts"] == 5
        assert len(F.load_manifest(tmp_path / "train.jsonl")) == 45
        assert len(F.load_manifest(tmp_path / "dev.jsonl")) == 5

    def test_round_trip_through_handles(self, tmp_path):
        F.generate_corpus(tmp_path, num_utts=10, vocab_size=4, seed=3, feat_dim=12)
        for handle in F.load_manifest(tmp_path / "train.jsonl"):
            seq = handle.load()
            assert seq.feats.shape[1] == 12
            assert all(0 <= t < 4 for t in seq.tokens)
            assert 3 <= len(seq.tokens) <= 8

    def test_subsample_leaves_ctc_feasible_lengths(self, tmp_path):
        """After 4x downsampling every utterance still admits a CTC alignment."""
        F.generate_corpus(tmp_path, num_utts=30, vocab_size=10, seed=5, feat_dim=16)
        for name in ["train.jsonl", "dev.jsonl"]:
            for handle in F.load_manifest(tmp_path / name):
                seq = handle.load()
                T = seq.feats.shape[0]
                t_sub = ((T - 1) // 2 - 1) // 2
                repeats = sum(
                    1 for a, b in zip(seq.tokens, seq.tokens[1:]) if a == b
                )
                assert t_sub >= len(seq.tokens) + repeats
