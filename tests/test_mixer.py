import json
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from surgcurate import mixer
from surgcurate.cli import main
from surgcurate.mixer import (
    BatchMode,
    BatchSpec,
    EmptyPool,
    MixerError,
    MixPolicy,
    PoolCursor,
    expected_clinical_fraction,
    mixed_batch_counts,
    sample_stream,
    write_batch_manifest,
)

from .oracles import batch_manifest_reference


class TestExpectedFraction:
    def test_default_policy_is_exactly_405_permille(self):
        policy = MixPolicy()
        assert expected_clinical_fraction(policy) == Fraction(81, 200)
        assert float(expected_clinical_fraction(policy)) == 0.405

    def test_pure_only(self):
        assert expected_clinical_fraction(MixPolicy(p_pure_clinical=1)) == 1

    def test_fully_unlabeled(self):
        policy = MixPolicy(p_pure_clinical=0, mixed_unlabeled_frac=1)
        assert expected_clinical_fraction(policy) == 0

    def test_policy_accepts_decimal_strings(self):
        policy = MixPolicy(p_pure_clinical="0.15", mixed_unlabeled_frac="0.70")
        assert policy.p_pure_clinical == Fraction(3, 20)
        assert policy.mixed_unlabeled_frac == Fraction(7, 10)


class TestBatchComposition:
    def test_mixed_counts_batch_64(self):
        assert mixed_batch_counts(MixPolicy(batch_size=64)) == (45, 19)

    def test_mixed_counts_batch_10(self):
        assert mixed_batch_counts(MixPolicy(batch_size=10)) == (7, 3)

    def test_always_pure_when_p_is_one(self):
        policy = MixPolicy(p_pure_clinical=1, batch_size=16, seed=12345)
        for spec, _ in sample_stream(["u0"], ["k0"], policy, 20):
            assert spec.mode is BatchMode.PURE_CLINICAL
            assert (spec.n_unlabeled, spec.n_clinical) == (0, 16)

    def test_never_pure_when_p_is_zero(self):
        policy = MixPolicy(p_pure_clinical=0, batch_size=64, seed=12345)
        for spec, _ in sample_stream(["u0"], ["k0"], policy, 20):
            assert spec.mode is BatchMode.MIXED
            assert (spec.n_unlabeled, spec.n_clinical) == (45, 19)

    def test_batchspec_invariant(self):
        with pytest.raises(ValueError):
            BatchSpec(BatchMode.PURE_CLINICAL, 1, 2)


class TestPoolCursor:
    def test_epoch_is_a_permutation(self):
        ids = [f"c{i}" for i in range(7)]
        cursor = PoolCursor("p", ids, seed=1)
        drawn = cursor.take(7)
        assert sorted(drawn) == sorted(ids)
        assert cursor.epoch == 1

    def test_cross_epoch_take(self):
        ids = [f"c{i}" for i in range(5)]
        cursor = PoolCursor("p", ids, seed=1)
        drawn = cursor.take(12)
        assert len(drawn) == 12
        assert sorted(drawn[:5]) == sorted(ids)
        assert sorted(drawn[5:10]) == sorted(ids)

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            PoolCursor("p", [], seed=0)

    def test_input_order_does_not_matter(self):
        a = PoolCursor("p", ["b", "a", "c"], seed=3).take(3)
        b = PoolCursor("p", ["c", "b", "a"], seed=3).take(3)
        assert a == b

    def test_ids_with_trailing_nul_stay_distinct(self):
        assert sorted(PoolCursor("p", ["a", "a\x00", "b"], 1).take(3)) == ["a", "a\x00", "b"]

    def test_duplicate_id_is_a_mixer_error_naming_the_first_repeat(self):
        with pytest.raises(MixerError, match="pool 'p' lists clip id 'b' more than once"):
            PoolCursor("p", ["c", "b", "a", "b", "c"], seed=0)


class TestSampleStream:
    def _pools(self, n_unlabeled=30, n_clinical=9):
        return (
            [f"u{i:03d}" for i in range(n_unlabeled)],
            [f"k{i:03d}" for i in range(n_clinical)],
        )

    def test_deterministic_for_fixed_seed(self):
        unlabeled, clinical = self._pools()
        policy = MixPolicy(batch_size=8, seed=77)
        a = list(sample_stream(unlabeled, clinical, policy, 40))
        b = list(sample_stream(unlabeled, clinical, policy, 40))
        assert a == b
        c = list(sample_stream(unlabeled, clinical, MixPolicy(batch_size=8, seed=78), 40))
        assert a != c

    def test_within_epoch_no_repeats_per_pool(self):
        unlabeled, clinical = self._pools(20, 7)
        policy = MixPolicy(batch_size=6, seed=5)
        useq, cseq = [], []
        for spec, ids in sample_stream(unlabeled, clinical, policy, 60):
            useq.extend(ids[: spec.n_unlabeled])
            cseq.extend(ids[spec.n_unlabeled :])
        for seq, pool in ((useq, unlabeled), (cseq, clinical)):
            for start in range(0, len(seq) - len(pool) + 1, len(pool)):
                epoch = seq[start : start + len(pool)]
                assert sorted(epoch) == sorted(pool)

    def test_single_clinical_clip_recurs_without_within_epoch_repeat(self):
        policy = MixPolicy(batch_size=4, seed=2)
        batches = list(sample_stream(["u0", "u1", "u2"], ["lonely"], policy, 10))
        clinical_draws = [
            cid for spec, ids in batches for cid in ids[spec.n_unlabeled :]
        ]
        assert set(clinical_draws) == {"lonely"}  # one-element epochs reset each draw

    def test_first_batch_of_an_endless_stream_is_immediate_and_small(self):
        """The i.i.d. modes are drawn a block at a time, never for the whole
        stream: 10**7 batches would hold 80 MB of draws at once."""
        unlabeled, clinical = self._pools()
        policy = MixPolicy(batch_size=8, seed=3)
        tracemalloc.start()
        try:
            spec, ids = next(sample_stream(unlabeled, clinical, policy, n_batches=10**7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ids) == 8
        assert peak < 2**20

    def test_pure_batch_count_is_binomial(self):
        unlabeled, clinical = self._pools(10, 10)
        policy = MixPolicy(batch_size=2, seed=123)
        n = 20_000
        pure = sum(
            spec.mode is BatchMode.PURE_CLINICAL
            for spec, _ in sample_stream(unlabeled, clinical, policy, n)
        )
        mean, sd = n * 0.15, (n * 0.15 * 0.85) ** 0.5
        assert abs(pure - mean) < 4 * sd

    def test_interleave_schedule_is_exact_and_deterministic(self):
        unlabeled, clinical = self._pools()
        policy = MixPolicy(batch_size=8, seed=9)
        n = 400
        modes = [spec.mode for spec, _ in sample_stream(unlabeled, clinical, policy, n, interleave=True)]
        assert modes.count(BatchMode.PURE_CLINICAL) == int(n * 0.15)
        again = [spec.mode for spec, _ in sample_stream(unlabeled, clinical, policy, n, interleave=True)]
        assert modes == again

    def test_mixed_batches_put_unlabeled_first(self):
        unlabeled, clinical = self._pools()
        policy = MixPolicy(p_pure_clinical=0, batch_size=10, seed=4)
        for spec, ids in sample_stream(unlabeled, clinical, policy, 5):
            assert all(cid.startswith("u") for cid in ids[:7])
            assert all(cid.startswith("k") for cid in ids[7:])


    @pytest.mark.parametrize("p", ["0", "1"])
    def test_pools_that_share_a_clip_id_are_rejected(self, p):
        """A clip in both pools could fill two slots of one batch and would
        count as clinical; the error names the smallest shared id."""
        policy = MixPolicy(p_pure_clinical=p, batch_size=3, seed=1)
        with pytest.raises(MixerError, match=r"share 2 clip id\(s\), the smallest 'b'"):
            next(sample_stream(["u0", "c", "b"], ["k0", "b", "c"], policy, 20))


class TestBatchManifest:
    def test_manifest_contents_and_determinism(self, tmp_path):
        unlabeled = [f"u{i}" for i in range(12)]
        clinical = [f"k{i}" for i in range(5)]
        policy = MixPolicy(batch_size=4, seed=11)
        p1 = write_batch_manifest(tmp_path / "a.jsonl", unlabeled, clinical, policy, 25)
        p2 = write_batch_manifest(tmp_path / "b.jsonl", unlabeled, clinical, policy, 25)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text("utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["policy"]["p_pure_clinical"] == "3/20"
        assert header["expected_clinical_fraction"] == "81/200"
        assert len(lines) == 26
        batch = json.loads(lines[1])
        assert set(batch) == {"index", "mode", "clip_ids"}
        assert len(batch["clip_ids"]) == 4


class TestBatchManifestOracle:
    """write_batch_manifest against the per-batch loop of tests/oracles.py:
    a scalar draw, a largest-remainder split and a numpy-array cursor for
    every batch. Pools of 7 and 3 ids are smaller than one batch of 10, so
    epochs wrap mid-batch."""

    UNLABELED = [f"u{i}" for i in range(7)]
    CLINICAL = [f"k{i}" for i in range(3)]

    def _assert_same_bytes(self, tmp_path, p, m, interleave, n_values):
        policy = MixPolicy(p_pure_clinical=p, mixed_unlabeled_frac=m, batch_size=10, seed=5)
        for n in n_values:
            path = write_batch_manifest(tmp_path / "b.jsonl", self.UNLABELED, self.CLINICAL, policy, n, interleave=interleave)
            want = batch_manifest_reference(self.UNLABELED, self.CLINICAL, Fraction(p), Fraction(m), 10, 5, n, interleave)
            assert path.read_bytes() == want, n

    @pytest.mark.parametrize("block", [1, 7, mixer.MODE_BLOCK])
    @pytest.mark.parametrize("interleave", [False, True], ids=["iid", "interleave"])
    @pytest.mark.parametrize("p", ["0", "3/20", "1"])
    @pytest.mark.parametrize("m", ["0", "7/10", "1"])
    def test_same_bytes_as_the_per_batch_loop(self, tmp_path, monkeypatch, block, interleave, p, m):
        monkeypatch.setattr(mixer, "MODE_BLOCK", block)
        n_values = {0, 1, 100} | ({block - 1, block, block + 1} if block < 100 else set())
        self._assert_same_bytes(tmp_path, p, m, interleave, sorted(n_values))

    def test_same_bytes_across_the_default_block_boundary(self, tmp_path):
        """Only i.i.d. draws with 0 < p < 1 depend on where a block ends."""
        block = mixer.MODE_BLOCK
        self._assert_same_bytes(tmp_path, "3/20", "7/10", False, [block - 1, block, block + 1, 5000])


#: Characters JSON escapes or that ensure_ascii spells as \\u escapes:
#: quote, backslash, control characters, DEL, non-ASCII BMP and astral
#: characters, and lone surrogates.
_AWKWARD = ['"', "\\", "\x00", "\x01", "\n", "\x1f", "\x7f", "\x80", "é", "\u2028", "\uffff", "\U0001d11e",
            "\ud800", "\udfff"]
_IDS = st.lists(
    st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters(exclude_categories=())), max_size=5),
    min_size=2, max_size=12, unique=True,
)


class TestBatchManifestDifferential:
    """write_batch_manifest against tests/oracles.batch_manifest_reference,
    which runs json.dumps on every batch, over ids JSON has to escape."""

    @settings(max_examples=200, deadline=None)
    @given(
        ids=_IDS,
        cut=st.integers(1, 11),
        batch_size=st.integers(1, 10),
        p=st.sampled_from(["0", "3/20", "1/2", "1"]),
        m=st.sampled_from(["0", "7/10", "1"]),
        interleave=st.booleans(),
        line_block=st.integers(1, 4),
    )
    def test_same_bytes_as_json_dumps_per_batch(self, tmp_path_factory, ids, cut, batch_size, p, m, interleave, line_block):
        """Pools of 1-11 ids against batches of 1-10, so a batch can wrap
        a pool more than once; n at 0, 1 and either side of the line block."""
        cut = 1 + cut % (len(ids) - 1)
        unlabeled, clinical = ids[:cut], ids[cut:]
        policy = MixPolicy(p_pure_clinical=p, mixed_unlabeled_frac=m, batch_size=batch_size, seed=3)
        path = tmp_path_factory.mktemp("mixer") / "b.jsonl"
        with mock.patch.object(mixer, "LINE_BLOCK", line_block):
            for n in sorted({0, 1, line_block - 1, line_block, line_block + 1, 2 * line_block + 1}):
                write_batch_manifest(path, unlabeled, clinical, policy, n, interleave=interleave)
                want = batch_manifest_reference(unlabeled, clinical, Fraction(p), Fraction(m), batch_size, 3, n, interleave)
                assert path.read_bytes() == want, n

    @pytest.mark.parametrize("interleave", [False, True], ids=["iid", "interleave"])
    def test_same_bytes_either_side_of_the_default_line_block(self, tmp_path, interleave):
        unlabeled, clinical = ['u"0', "u\\1", "u\x002", "ü3", "\ud8004"], ["k\x7f0", "\U0001d11e1"]
        policy = MixPolicy(batch_size=4, seed=9)
        for n in (mixer.LINE_BLOCK - 1, mixer.LINE_BLOCK, mixer.LINE_BLOCK + 1):
            path = write_batch_manifest(tmp_path / "b.jsonl", unlabeled, clinical, policy, n, interleave=interleave)
            want = batch_manifest_reference(unlabeled, clinical, Fraction(3, 20), Fraction(7, 10), 4, 9, n, interleave)
            assert path.read_bytes() == want, n

    def test_a_non_string_id_is_a_mixer_error_and_the_target_keeps_its_bytes(self, tmp_path):
        """The manifest's clip ids are strings: the writer names the pool and
        the first id that is not one, before it sorts the pool, and writes
        nothing. sample_stream still yields the ids it was given."""
        path = tmp_path / "b.jsonl"
        path.write_bytes(b"old\n")
        policy = MixPolicy(batch_size=2, seed=1)
        for clinical, shown in ([7, 8], "7"), (["k0", None], "None"), (["k0", b"k1"], "b'k1'"):
            with pytest.raises(MixerError, match=rf"^pool 'clinical' holds clip id {shown} of type \w+; clip ids are strings$"):
                write_batch_manifest(path, ["u0", "u1"], clinical, policy, 3)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["b.jsonl"]
        pure = MixPolicy(p_pure_clinical=1, batch_size=2, seed=1)
        assert sorted(next(sample_stream(["u0"], [8, 7], pure, 1))[1]) == [7, 8]

    def test_a_str_subclass_id_is_written_as_its_text(self, tmp_path):
        unlabeled, clinical = [np.str_("u0"), np.str_("u\x001")], [np.str_('k"0')]
        path = write_batch_manifest(tmp_path / "b.jsonl", unlabeled, clinical, MixPolicy(batch_size=3, seed=2), 5)
        want = batch_manifest_reference(["u0", "u\x001"], ['k"0'], Fraction(3, 20), Fraction(7, 10), 3, 2, 5, False)
        assert path.read_bytes() == want


class TestSampleCommand:
    def test_escaped_ids_from_both_pool_formats_give_the_oracles_bytes(self, tmp_path):
        """A curated JSON-lines pool can carry any id JSON can, lone
        surrogates included; a plain list any UTF-8 line that is not blank."""
        unlabeled = ['q"uote', "back\\slash", "nul\x00", "\ud800lone", "line\u2028sep", "astral\U0001d11e"]
        clinical = ["del\x7f", "tab\tin", "é", "\x01ctl", "\U0001f600"]
        curated = tmp_path / "curated.jsonl"
        curated.write_text(
            "".join(json.dumps(doc) + "\n" for doc in [{"kind": "header"}, *({"clip_id": cid} for cid in unlabeled)]),
            encoding="utf-8",
        )
        (tmp_path / "clinical.txt").write_text("".join(f"{cid}\n" for cid in clinical), encoding="utf-8")
        out = tmp_path / "batches.jsonl"
        argv = ["sample", "--unlabeled", str(curated), "--clinical", str(tmp_path / "clinical.txt"), "--batch", "4"]
        result = CliRunner().invoke(main, [*argv, "--n", "40", "--seed", "3", "--out", str(out)], env={})
        assert result.exit_code == 0, result.output
        stage_seed = json.loads(out.read_text("utf-8").splitlines()[0])["policy"]["seed"]
        want = batch_manifest_reference(unlabeled, clinical, Fraction(3, 20), Fraction(7, 10), 4, stage_seed, 40, False)
        assert out.read_bytes() == want


    def test_id_with_trailing_nul_is_written_as_given(self, tmp_path):
        pool = tmp_path / "pool.txt"
        pool.write_text("a\na\x00\nb\n", encoding="utf-8")
        (tmp_path / "unlabeled.txt").write_text("u\n", encoding="utf-8")
        out = tmp_path / "batches.jsonl"
        argv = ["sample", "--unlabeled", str(tmp_path / "unlabeled.txt"), "--clinical", str(pool), "--batch", "3", "--p-pure", "1"]
        result = CliRunner().invoke(main, [*argv, "--n", "1", "--out", str(out)], env={})
        assert result.exit_code == 0, result.output
        batch = out.read_text("utf-8").splitlines()[1]
        assert '"a\\u0000"' in batch
        assert sorted(json.loads(batch)["clip_ids"]) == ["a", "a\x00", "b"]

    def test_pools_that_share_a_clip_id_exit_1_and_leave_no_output(self, tmp_path):
        (tmp_path / "unlabeled.txt").write_text("u0\nk1\nu1\n", encoding="utf-8")
        (tmp_path / "clinical.txt").write_text("k0\nk1\n", encoding="utf-8")
        before = sorted(os.listdir(tmp_path))
        out = tmp_path / "batches.jsonl"
        argv = ["sample", "--unlabeled", str(tmp_path / "unlabeled.txt"), "--clinical", str(tmp_path / "clinical.txt")]
        result = CliRunner().invoke(main, [*argv, "--batch", "2", "--n", "3", "--out", str(out)], env={})
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), repr(result.exception)  # no traceback
        record = json.loads(result.stderr)
        assert record["error"] == "MixerError"
        assert "'k1'" in record["message"]
        assert sorted(os.listdir(tmp_path)) == before  # no batch manifest, run manifest or temp file

    @pytest.mark.parametrize(
        "text",
        ["a\nb\na\n", '{"kind": "header"}\n{"clip_id": "a"}\n{"clip_id": "b"}\n{"clip_id": "a"}\n'],
        ids=["plain-list", "curated-jsonl"],
    )
    def test_pool_with_a_duplicate_id_exits_1_and_leaves_no_output(self, tmp_path, text):
        (tmp_path / "unlabeled.txt").write_text(text, encoding="utf-8")
        (tmp_path / "clinical.txt").write_text("k\n", encoding="utf-8")
        before = sorted(os.listdir(tmp_path))
        argv = ["sample", "--unlabeled", str(tmp_path / "unlabeled.txt"), "--clinical", str(tmp_path / "clinical.txt")]
        result = CliRunner().invoke(main, [*argv, "--n", "3", "--out", str(tmp_path / "batches.jsonl")], env={})
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), repr(result.exception)  # no traceback
        assert json.loads(result.stderr) == {
            "error": "MixerError", "message": "pool 'unlabeled' lists clip id 'a' more than once"
        }
        assert sorted(os.listdir(tmp_path)) == before
