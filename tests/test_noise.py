import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmm_spde.noise as noise_mod
from hmm_spde.noise import (
    NoiseStreamKey,
    NoiseStreams,
    draw_increments,
    mix_seed,
    standard_normals,
)


class TestDeterminism:
    def test_same_key_bit_identical(self):
        key = NoiseStreamKey(42, replica=2, step=3 * 2**64 + 7)
        a = standard_normals(key, 63)
        b = standard_normals(key, 63)
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_per_step(self):
        key = NoiseStreamKey(11, replica=1)
        block = draw_increments(NoiseStreams([key], 63), 0.5, 20)[:, 0]
        for m in range(20):
            single = standard_normals(NoiseStreamKey(11, replica=1, step=key.step + m), 63)
            single *= np.sqrt(0.5)
            np.testing.assert_array_equal(block[m], single)

    def test_golden_values_frozen(self):
        # pins the Philox + 53-bit inverse-CDF pipeline; computed once and frozen
        z = standard_normals(NoiseStreamKey(7, replica=1), 4)
        np.testing.assert_allclose(
            z,
            [1.1874089802587715, -0.33440141823555675,
             0.04280044269535404, -0.4349764773971739],
            rtol=0, atol=1e-15,
        )


class TestNoiseStreams:
    @pytest.mark.parametrize("K", [1, 5, 63])
    def test_forward_reads_equal_keyed_draws(self, K):
        # streams opened once and read in uneven chunks give each key's
        # keyed draws bit for bit
        keys = [NoiseStreamKey(3, replica=1),
                NoiseStreamKey(3, replica=2, step=9),
                NoiseStreamKey(2**40, replica=1, step=5 * 2**64, stream_tag=1)]
        streams = NoiseStreams(keys, K)
        reads = [streams.standard_normals(n) for n in (3, 1, 4)]
        got = np.concatenate(reads)
        assert got.shape == (8, len(keys), K)
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(got[:, i], standard_normals(key, K, count=8))

    def test_increments_into_buffer(self):
        keys = [NoiseStreamKey(9, replica=j, step=6) for j in (1, 2)]
        buf = np.empty((6, 2, 7))
        out = draw_increments(NoiseStreams(keys, 7), 0.25, 6, out=buf)
        assert out is buf
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(buf[:, i], standard_normals(key, 7, count=6) * np.sqrt(0.25))

    def test_per_stream_dt(self):
        # one step per stream scales stream i by np.sqrt(dt[i]), the same
        # bits as a draw from that stream alone with the float dt
        keys = [NoiseStreamKey(s, replica=1, stream_tag=1) for s in (4, 5, 6)]
        dts = [0.1, 0.03 * 0.1 / 0.03, 1e-3]
        got = draw_increments(NoiseStreams(keys, 15), dts, 5)
        for i, (key, dt) in enumerate(zip(keys, dts)):
            one = draw_increments(NoiseStreams([key], 15), dt, 5)[:, 0]
            np.testing.assert_array_equal(got[:, i], one)
        with pytest.raises(ValueError, match="one step per stream"):
            draw_increments(NoiseStreams(keys, 15), dts[:2], 1)
        with pytest.raises(ValueError, match="positive"):
            draw_increments(NoiseStreams(keys, 15), [0.1, 0.0, 0.1], 1)

    @pytest.mark.parametrize("dt", [np.nan, [0.1, np.nan, 0.1],
                                    np.inf, [0.1, np.inf, 0.1]])
    def test_nan_dt_rejected(self, dt):
        # nan <= 0 is False: a NaN step must still fail the positivity
        # check, and an infinite one must not give infinite increments
        keys = [NoiseStreamKey(s, replica=1) for s in (4, 5, 6)]
        with pytest.raises(ValueError, match="positive"):
            draw_increments(NoiseStreams(keys, 15), dt, 1)

    def test_chunks_close_ended_streams(self):
        # ends 7, 7, 3 in chunks of 2: the chunk at step 2 stops at the third
        # stream's end, which is then closed; the first two read on from
        # where they were, and stay open after the plan
        keys = [NoiseStreamKey(7, replica=j) for j in (1, 2, 3)]
        streams = NoiseStreams(keys, 5)
        reads = [(done, streams.standard_normals(len(out), out=out).copy())
                 for done, out in streams.chunks([7, 7, 3], cap=2)]
        assert [(done, z.shape) for done, z in reads] == [
            (0, (2, 3, 5)), (2, (1, 3, 5)), (3, (2, 2, 5)), (5, (2, 2, 5))]
        after = streams.standard_normals(1)
        assert after.shape == (1, 2, 5)
        for i, key in enumerate(keys[:2]):
            np.testing.assert_array_equal(
                np.concatenate([z[:, i] for _, z in reads] + [after[:, i]]),
                standard_normals(key, 5, count=8))
        np.testing.assert_array_equal(np.concatenate([z[:, 2] for _, z in reads[:2]]),
                                      standard_normals(keys[2], 5, count=3))

    @settings(max_examples=60, deadline=None)
    @given(ends=st.lists(st.integers(0, 12), min_size=1, max_size=5).map(
               lambda e: sorted(e, reverse=True)),
           cap=st.none() | st.integers(1, 6), budget=st.integers(1, 40),
           K=st.integers(1, 6))
    def test_chunks_read_each_stream_once_in_order(self, ends, cap, budget, K):
        # with any chunk budget and cap, the plan covers steps 0..end of each
        # stream once and in order, in views of one buffer whose chunks never
        # cross an end or exceed their cap, and the draws are the stream's own
        keys = [NoiseStreamKey(3, replica=j) for j in range(1, len(ends) + 1)]
        streams = NoiseStreams(keys, K)
        limit = min(max(1, budget // len(ends)), ends[0] if cap is None else cap)
        steps = [[] for _ in ends]
        draws = [[] for _ in ends]
        bases = set()
        with mock.patch.object(noise_mod, "_CHUNK_STEPS", budget):
            for done, out in streams.chunks(ends, cap):
                n, live, k = out.shape
                assert k == K and 1 <= n <= limit
                assert live == sum(e > done for e in ends)
                assert done + n <= ends[live - 1]
                assert out.base.size == limit * len(ends) * K
                bases.add(id(out.base))
                streams.standard_normals(n, out=out)
                for i in range(live):
                    steps[i] += range(done, done + n)
                    draws[i] += list(out[:, i].copy())
        assert len(bases) <= 1
        for key, end, got, z in zip(keys, ends, steps, draws):
            assert got == list(range(end))
            if end:
                np.testing.assert_array_equal(
                    np.array(z), standard_normals(key, K, count=end).reshape(end, K))

    @pytest.mark.parametrize("ends, cap", [
        ([3, 4], None),  # increasing
        ([3], None),  # one end for two streams
        ([3, -1], None),  # negative
        ([3, 3], 0),  # a cap of 0 would plan empty chunks forever
    ])
    def test_chunks_bad_plan_rejected(self, ends, cap):
        streams = NoiseStreams([NoiseStreamKey(1, replica=j) for j in (1, 2)], 4)
        message = f"bad read plan for 2 open streams: ends {ends}, cap {cap}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(streams.chunks(ends, cap))

    def test_bad_arguments_rejected(self):
        streams = NoiseStreams([NoiseStreamKey(1, replica=1)], 4)
        with pytest.raises(ValueError, match="out"):
            streams.standard_normals(2, out=np.empty((2, 1, 5)))
        with pytest.raises(ValueError, match="no stream keys"):
            NoiseStreams([], 4)


class TestKeyStructure:
    def test_distinct_replicas_distinct_output(self):
        a = standard_normals(NoiseStreamKey(0, replica=1), 8)
        b = standard_normals(NoiseStreamKey(0, replica=2), 8)
        assert not np.array_equal(a, b)

    def test_concatenated_position(self):
        # with m0 steps per macro block, (n=1, m=0) is step m0 of the stream:
        # a batch drawn across the block boundary from (n=0, m=0) ends with
        # exactly the next macro block's first draw
        m0 = 17
        k_next_macro = NoiseStreamKey(5, replica=3, step=m0)
        across = standard_normals(
            NoiseStreamKey(5, replica=3), 8, count=m0 + 1
        )
        np.testing.assert_array_equal(standard_normals(k_next_macro, 8), across[m0])

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError, match="step must be nonnegative"):
            NoiseStreamKey(master_seed=0, replica=1, step=-1)
        for replica in (-1, 2**32):
            with pytest.raises(ValueError, match="replica index out of range"):
                NoiseStreamKey(0, replica=replica)

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 2**64), ("master_seed", -1), ("stream_tag", 2**32), ("stream_tag", -1)])
    def test_seed_and_tag_out_of_range_rejected(self, field, value):
        # before: the key words were masked, so seed 2**64 drew seed 0's
        # normals, seed -1 those of 2**64 - 1 and tag 2**32 those of tag 0
        kw = dict(master_seed=0, replica=0, stream_tag=0)
        kw[field] = value
        with pytest.raises(ValueError, match=f"^{field} out of range"):
            NoiseStreamKey(**kw)
        for edge in (0, 2**64 - 1 if field == "master_seed" else 2**32 - 1):
            NoiseStreamKey(**{**kw, field: edge})

    def test_fields_after_the_seed_are_keyword_only(self):
        # a stale positional call must fail, not read another stream
        assert [f.name for f in dataclasses.fields(NoiseStreamKey)] == [
            "master_seed", "replica", "step", "stream_tag"]
        with pytest.raises(TypeError):
            NoiseStreamKey(0, 1)
        with pytest.raises(TypeError):
            NoiseStreamKey(0, 0, 0, 1)

    def test_dt_positive(self):
        streams = NoiseStreams([NoiseStreamKey(0, replica=1)], 4)
        with pytest.raises(ValueError):
            draw_increments(streams, 0.0, 1)
        with pytest.raises(ValueError):
            draw_increments(streams, -1.0, 1)

    def test_stream_tag_separates(self):
        a = standard_normals(NoiseStreamKey(0, replica=1, stream_tag=0), 8)
        b = standard_normals(NoiseStreamKey(0, replica=1, stream_tag=1), 8)
        assert not np.array_equal(a, b)


class TestStatistics:
    def test_variance_of_increments(self):
        # 1e5 draws of mode 1 at dt = 0.01: sample variance inside the 4-sigma
        # band [0.0094, 0.0106] for chi^2 sampling error
        streams = NoiseStreams([NoiseStreamKey(314, replica=1)], 4)
        block = draw_increments(streams, 0.01, 100_000)[:, 0]
        var = block[:, 0].var(ddof=1)
        assert 0.0094 <= var <= 0.0106

    def test_mean_near_zero(self):
        streams = NoiseStreams([NoiseStreamKey(314, replica=1)], 4)
        block = draw_increments(streams, 0.01, 100_000)[:, 0]
        # 4 sigma band for the mean of N(0, 0.01) over 1e5 draws
        assert abs(block[:, 0].mean()) <= 4 * 0.1 / np.sqrt(100_000)

    def test_cross_replica_independence(self):
        n = 100_000
        a = standard_normals(NoiseStreamKey(99, replica=1), 1, count=n)[:, 0]
        b = standard_normals(NoiseStreamKey(99, replica=2), 1, count=n)[:, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4 / np.sqrt(n)

    def test_all_modes_unit_variance(self):
        z = standard_normals(NoiseStreamKey(5, replica=1), 63, count=20_000)
        v = z.var(axis=0, ddof=1)
        # 4 sigma of a chi^2 variance estimate with 2e4 samples
        assert np.all(np.abs(v - 1) < 4 * np.sqrt(2 / 20_000))


class TestMixSeed:
    def test_deterministic_and_distinct(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(1, 0) != mix_seed(2, 0)

    def test_range(self):
        for s in (0, 1, 2**63 - 1):
            assert 0 <= mix_seed(s, 5, 7) < 2**63
