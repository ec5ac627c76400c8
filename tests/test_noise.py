import numpy as np
import pytest

from hmm_spde.noise import (
    NoiseStreamKey,
    NoiseStreams,
    derive_key,
    draw_increments,
    mix_seed,
    standard_normals,
)


class TestDeterminism:
    def test_same_key_bit_identical(self):
        key = derive_key(42, 3, 7, 2)
        a = standard_normals(key, 63)
        b = standard_normals(key, 63)
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_per_step(self):
        key = derive_key(11, 0, 0, 1, steps_per_macro=100)
        block = draw_increments(NoiseStreams([key], 63), 0.5, 20)[:, 0]
        for m in range(20):
            single = standard_normals(key.advanced(m), 63) * np.sqrt(0.5)
            np.testing.assert_array_equal(block[m], single)

    def test_golden_values_frozen(self):
        # pins the Philox + 53-bit inverse-CDF pipeline; computed once and frozen
        z = standard_normals(derive_key(7, 0, 0, 1), 4)
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
        keys = [derive_key(3, 0, 0, 1, steps_per_macro=4),
                derive_key(3, 2, 1, 2, steps_per_macro=4),
                derive_key(2**40, 5, 0, 1, stream_tag=1)]
        streams = NoiseStreams(keys, K)
        reads = [streams.standard_normals(n) for n in (3, 1, 4)]
        got = np.concatenate(reads)
        assert got.shape == (8, len(keys), K)
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(got[:, i], standard_normals(key, K, count=8))

    def test_increments_into_buffer(self):
        keys = [derive_key(9, 1, 0, j, steps_per_macro=6) for j in (1, 2)]
        buf = np.empty((6, 2, 7))
        out = draw_increments(NoiseStreams(keys, 7), 0.25, 6, out=buf)
        assert out is buf
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(buf[:, i], standard_normals(key, 7, count=6) * np.sqrt(0.25))

    def test_per_stream_dt(self):
        # one step per stream scales stream i by np.sqrt(dt[i]), the same
        # bits as a draw from that stream alone with the float dt
        keys = [derive_key(s, 0, 0, 1, stream_tag=1) for s in (4, 5, 6)]
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
        keys = [derive_key(s, 0, 0, 1) for s in (4, 5, 6)]
        with pytest.raises(ValueError, match="positive"):
            draw_increments(NoiseStreams(keys, 15), dt, 1)

    def test_keep_stops_trailing_streams(self):
        # the kept streams read on from where they were; the rest are dropped
        keys = [derive_key(7, 0, 0, j) for j in (1, 2, 3)]
        streams = NoiseStreams(keys, 5)
        first = streams.standard_normals(3)
        streams.keep(2)
        rest = streams.standard_normals(4)
        assert rest.shape == (4, 2, 5)
        for i, key in enumerate(keys[:2]):
            np.testing.assert_array_equal(
                np.concatenate([first[:, i], rest[:, i]]), standard_normals(key, 5, count=7))
        np.testing.assert_array_equal(first[:, 2], standard_normals(keys[2], 5, count=3))

    def test_bad_arguments_rejected(self):
        streams = NoiseStreams([derive_key(1, 0, 0, 1)], 4)
        with pytest.raises(ValueError, match="out"):
            streams.standard_normals(2, out=np.empty((2, 1, 5)))
        with pytest.raises(ValueError, match="no stream keys"):
            NoiseStreams([], 4)


class TestKeyStructure:
    def test_distinct_replicas_distinct_output(self):
        a = standard_normals(derive_key(0, 0, 0, 1), 8)
        b = standard_normals(derive_key(0, 0, 0, 2), 8)
        assert not np.array_equal(a, b)

    def test_concatenated_position(self):
        # with m0 steps per macro block, (n=1, m=0) continues the stream at
        # global index m0: a batch drawn across the block boundary from
        # (n=0, m=0) ends with exactly the next macro block's first draw
        m0 = 17
        k_next_macro = derive_key(5, 1, 0, 3, steps_per_macro=m0)
        assert k_next_macro.position() == m0
        across = standard_normals(
            derive_key(5, 0, 0, 3, steps_per_macro=m0), 8, count=m0 + 1
        )
        np.testing.assert_array_equal(standard_normals(k_next_macro, 8), across[m0])
        # the un-concatenated layout keeps macro and micro indices disjoint
        assert derive_key(5, 1, 0, 3).position() != m0

    def test_micro_step_must_fit_macro_block(self):
        with pytest.raises(ValueError):
            derive_key(0, 0, 10, 1, steps_per_macro=10)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            NoiseStreamKey(master_seed=0, replica=1, macro_step=-1, micro_step=0)

    def test_dt_positive(self):
        streams = NoiseStreams([derive_key(0, 0, 0, 1)], 4)
        with pytest.raises(ValueError):
            draw_increments(streams, 0.0, 1)
        with pytest.raises(ValueError):
            draw_increments(streams, -1.0, 1)

    def test_stream_tag_separates(self):
        a = standard_normals(derive_key(0, 0, 0, 1, stream_tag=0), 8)
        b = standard_normals(derive_key(0, 0, 0, 1, stream_tag=1), 8)
        assert not np.array_equal(a, b)


class TestStatistics:
    def test_variance_of_increments(self):
        # 1e5 draws of mode 1 at dt = 0.01: sample variance inside the 4-sigma
        # band [0.0094, 0.0106] for chi^2 sampling error
        streams = NoiseStreams([derive_key(314, 0, 0, 1)], 4)
        block = draw_increments(streams, 0.01, 100_000)[:, 0]
        var = block[:, 0].var(ddof=1)
        assert 0.0094 <= var <= 0.0106

    def test_mean_near_zero(self):
        streams = NoiseStreams([derive_key(314, 0, 0, 1)], 4)
        block = draw_increments(streams, 0.01, 100_000)[:, 0]
        # 4 sigma band for the mean of N(0, 0.01) over 1e5 draws
        assert abs(block[:, 0].mean()) <= 4 * 0.1 / np.sqrt(100_000)

    def test_cross_replica_independence(self):
        n = 100_000
        a = standard_normals(derive_key(99, 0, 0, 1), 1, count=n)[:, 0]
        b = standard_normals(derive_key(99, 0, 0, 2), 1, count=n)[:, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4 / np.sqrt(n)

    def test_all_modes_unit_variance(self):
        z = standard_normals(derive_key(5, 0, 0, 1), 63, count=20_000)
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
