"""Tests for the signal generators and gap-mask synthesis."""

import re

import numpy as np
import pytest

from dfakit import core
from dfakit.cli import main
from dfakit.estimators import GappedSeries
from dfakit.exceptions import (
    DFAError,
    EmbeddingError,
    InsufficientLagsError,
    NonFiniteValueError,
)
from dfakit.generators import (
    add_polynomial_trend,
    block_gap_mask,
    sample,
    sample_stack,
)
from dfakit.models import (
    AR1,
    FBM,
    FGN,
    OU,
    AcvfTable,
    VariogramTable,
    WhiteNoise,
)


def sample_acvf(x, lag):
    n = x.size
    return float(np.dot(x[: n - lag], x[lag:]) / n)


class TestDeterminism:
    def test_same_key_same_stream(self):
        a = sample(FGN(0.7, 1.0), 512, seed=42, replicate=3)
        b = sample(FGN(0.7, 1.0), 512, seed=42, replicate=3)
        assert np.array_equal(a, b)

    def test_replicates_differ(self):
        a = sample(FGN(0.7, 1.0), 512, seed=42, replicate=0)
        b = sample(FGN(0.7, 1.0), 512, seed=42, replicate=1)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = sample(WhiteNoise(1.0), 64, seed=1)
        b = sample(WhiteNoise(1.0), 64, seed=2)
        assert not np.array_equal(a, b)


class TestFgn:
    def test_half_is_white(self):
        # H = 1/2 noise is uncorrelated: lag-1 sample acvf ~ N(0, 1/n)
        x = sample(FGN(0.5, 1.0), 2**16, seed=7)
        se = 1.0 / np.sqrt(x.size)
        assert abs(sample_acvf(x, 1)) < 4 * se
        assert sample_acvf(x, 0) == pytest.approx(1.0, abs=5 * se)

    # every acvf model goes through the one circulant routine; the MA(1)
    # table (gamma = 1.25, 0.5, 0, ...) covers lags 0..n exactly
    @pytest.mark.parametrize("model, n", [
        (FGN(0.7), 4096), (OU(20.0, 2.0), 4096), (AR1(-0.6, 1.5), 4096),
        (WhiteNoise(3.0), 4096),
        (AcvfTable((1.25, 0.5) + (0.0,) * 255), 256),
    ], ids=["fgn", "ou", "ar1", "white", "table"])
    def test_sample_acvf_matches_target(self, model, n):
        # pooled over replicates: each lag within 3 combined SEs
        reps = 40
        lags = np.arange(6)
        target = model.acvf(lags)
        est = np.array([
            [sample_acvf(sample(model, n, seed=1234, replicate=r), k)
             for k in lags]
            for r in range(reps)
        ])
        z = (est.mean(axis=0) - target) / (est.std(axis=0, ddof=1)
                                           / np.sqrt(reps))
        assert np.abs(z).max() < 3.5

    def test_embedding_covariance_is_exact(self):
        # the circulant spectrum must return the acvf under the inverse
        # transform, which is what makes the synthesis distributionally
        # exact
        from dfakit.generators import _circulant_eigenvalues
        n = 257
        gamma = np.asarray(FGN(0.8, 1.0).acvf(np.arange(n)))
        lam = _circulant_eigenvalues(gamma, float(FGN(0.8, 1.0).acvf(n)))
        assert lam.min() >= 0
        back = np.fft.ifft(lam).real[:n]
        assert np.abs(back - gamma).max() < 1e-10

    @pytest.mark.parametrize("h", [0.99, 0.999])
    def test_embedding_nonnegative_at_a_million(self, h):
        # an acvf off by eps tau^2 at long lags made the minimum -0.197
        # (H = 0.99) and -0.234 (H = 0.999) at n = 10^6
        from dfakit.generators import _circulant_eigenvalues
        n = 2**20
        model = FGN(h)
        lam = _circulant_eigenvalues(np.asarray(model.acvf(np.arange(n))),
                                     float(model.acvf(n)))
        assert lam.min() >= 0

    def test_sample_at_a_million(self):
        x = sample(FGN(0.99), 2**20, 0)
        assert x.shape == (2**20,)
        assert np.isfinite(x).all()

    def test_variance_scaling(self):
        a = sample(FGN(0.6, 1.0), 256, seed=5)
        b = sample(FGN(0.6, 4.0), 256, seed=5)
        assert np.allclose(b, 2.0 * a, rtol=1e-12)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            sample(FGN(0.7, 1.0), 1, seed=0)


class TestSample:
    def test_table_needs_lag_n(self, tmp_path):
        # the embedding reads gamma(0..n): n values are one lag short
        with pytest.raises(InsufficientLagsError):
            sample(AcvfTable((1.0, 0.5, 0.25, 0.125)), 4, seed=0)
        rc = main(["simulate", "--model",
                   '{"kind": "table", "acvf": [1.0, 0.5, 0.25, 0.125]}',
                   "-n", "4", "--out", str(tmp_path / "s.csv")])
        assert rc == 4

    def test_table_falls_back_to_cholesky(self):
        # gamma = 1, 0.9, 0.9, 0.9 is positive definite at n = 4, but
        # with gamma(4) = 0 its 2n embedding has the eigenvalue -0.8
        tab = AcvfTable((1.0, 0.9, 0.9, 0.9, 0.0))
        x = np.array([sample(tab, 4, seed=3, replicate=r)
                      for r in range(2000)])
        target = tab.acvf(np.abs(np.subtract.outer(range(4), range(4))))
        # 5 standard errors of a sample covariance, sqrt(2/2000) each
        assert np.abs(x.T @ x / 2000 - target).max() < 0.16

    def test_variogram_table_cannot_be_sampled(self):
        with pytest.raises(DFAError, match="no acvf"):
            sample(VariogramTable((0.0, 1.0, 2.0)), 2, seed=0)


class TestSampleStack:
    """Each row of a stack is the sample of its key, bit for bit."""

    KEYS = (0, 1, 2, 7, 3, 4, 5)

    # the MA(1) table covers lags 0..n and embeds; the 0.9 table needs
    # the Cholesky fallback (see test_table_falls_back_to_cholesky)
    @pytest.mark.parametrize("model, n", [
        (WhiteNoise(2.0), 300), (FGN(0.7), 300), (OU(5.0, 2.0), 300),
        (AR1(-0.6, 1.5), 300), (AcvfTable((1.25, 0.5) + (0.0,) * 299), 300),
        (AcvfTable((1.0, 0.9, 0.9, 0.9, 0.0)), 4), (FBM(1.1), 300),
    ], ids=["white", "fgn", "ou", "ar1", "table", "table-cholesky", "fbm"])
    def test_rows_equal_samples(self, model, n):
        stack = sample_stack(model, n, 13, self.KEYS)
        assert stack.shape == (len(self.KEYS), n)
        for row, r in zip(stack, self.KEYS):
            assert np.array_equal(row, sample(model, n, 13, r))

    @pytest.mark.parametrize("seed, keys, bad", [
        (0.5, [0], "0.5"), (0, [1.5], "1.5"), (np.float64(0.0), [0], "np.float64(0.0)"),
        (0, [0, 1.0], "1.0"), (0, ["1"], "'1'"),
    ], ids=["seed-0.5", "key-1.5", "seed-float-0", "key-float-1", "key-str"])
    def test_seed_and_keys_must_be_integers(self, seed, keys, bad):
        """The Philox key is not read through a cast: 0.5 would be seed 0
        and replicate 1.5 replicate 1, bit for bit; NumPy and Python
        integers pass."""
        with pytest.raises(ValueError,
                           match=re.escape(f"must be integers, got {bad}")):
            sample_stack(FGN(0.7), 10, seed, keys)
        assert np.array_equal(sample_stack(FGN(0.7), 10, np.int64(3), [1]),
                              sample_stack(FGN(0.7), 10, 3, [np.uint8(1)]))

    @pytest.mark.parametrize("seed, keys, bad", [
        (2 ** 64, [0], "18446744073709551616"), (-3, [0], "-3"),
        (0, [1, 2 ** 64 + 5], "18446744073709551621"),
        (0, [np.int64(-1)], "-1"),
    ], ids=["seed-2^64", "seed-minus-3", "key-past-2^64", "key-np-minus-1"])
    def test_seed_and_keys_must_be_key_words(self, seed, keys, bad):
        """A Philox key word is a uint64: -3 is not read as 2^64 - 3, nor
        2^64 left to NumPy's OverflowError, which names no seed."""
        with pytest.raises(ValueError, match=re.escape(
                f"must lie in 0..2^64 - 1, got {bad}")):
            sample_stack(FGN(0.7), 10, seed, keys)

    def test_seeds_near_2_64_are_their_own_keys(self):
        """NumPy reads a list key with a word of 2^63 or more through
        float, so every seed in [2^64 - 1024, 2^64) became key 0; the key
        words are exact."""
        top = sample_stack(WhiteNoise(), 16, 2 ** 64 - 1, [0, 2 ** 64 - 1])
        for row in top:
            assert not np.array_equal(row, sample(WhiteNoise(), 16, 0))
        assert not np.array_equal(top[0], top[1])
        assert not np.array_equal(
            top[0], sample(WhiteNoise(), 16, 2 ** 64 - 1024))

    @pytest.mark.parametrize("model", [FGN(0.7), AR1(0.9)],
                             ids=["fgn", "ar1"])
    @pytest.mark.parametrize("n", [1368, 2**16])
    def test_half_spectrum_matches_full_synthesis(self, model, n):
        # Davies-Harte over the whole 2n spectrum, the conjugate half
        # mirrored in, as the reference for the Hermitian-half draw
        from dfakit.generators import _circulant_eigenvalues, _rng
        lam = _circulant_eigenvalues(np.asarray(model.acvf(np.arange(n))),
                                     float(model.acvf(n)))
        keys = (0, 5)
        full = np.empty((len(keys), n))
        for row, r in zip(full, keys):
            v = _rng(9, r).standard_normal(2 * n)
            z = np.empty(2 * n, dtype=complex)
            z[0], z[n] = v[0], v[1]
            z[1:n] = (v[2::2] + 1j * v[3::2]) / np.sqrt(2)
            z[n + 1:] = np.conj(z[n - 1:0:-1])
            row[:] = (np.sqrt(2 * n)
                      * np.fft.ifft(z * np.sqrt(lam)).real[:n])
        assert np.abs(sample_stack(model, n, 9, keys) - full).max() < 1e-13

    @pytest.mark.parametrize("model", [FGN(0.3), FBM(1.6)],
                             ids=["fgn", "fbm"])
    def test_blocks_do_not_change_the_stack(self, monkeypatch, model):
        n = 100
        whole = sample_stack(model, n, 4, self.KEYS)
        # blocks of 3, 3 and 1 rows
        monkeypatch.setattr(core, "_BLOCK_VALUES", 3 * n + 1)
        assert np.array_equal(sample_stack(model, n, 4, self.KEYS), whole)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", [FGN(0.7, 1e308), FBM(1.7, 1e308)],
                             ids=["fgn", "fbm"])
    def test_overflow_raises(self, model):
        with pytest.raises(NonFiniteValueError, match="not finite"):
            sample_stack(model, 5, 0, self.KEYS)

    # an overflowing spectrum is not a negative embedding: below the
    # Cholesky cap it took that fallback, above it it raised EmbeddingError
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [16, 9000])
    def test_overflowing_eigenvalues_raise(self, n):
        with pytest.raises(NonFiniteValueError,
                           match=r"not finite.*FGN\(hurst=0\.7.*rescale the "
                                 "model"):
            sample_stack(FGN(0.7, 1e308), n, 0, [0])

    # an fBm is sampled through the fGn of its increments, which the
    # message named in its place
    @pytest.mark.filterwarnings("error")
    def test_overflowing_fbm_is_named(self):
        with pytest.raises(NonFiniteValueError,
                           match=r"FBM\(hurst=1\.7.*rescale the model"):
            sample_stack(FBM(1.7, 1e308), 16, 0, [0])

    def test_negative_embedding_past_cholesky_cap(self):
        table = AcvfTable((1.0, 0.9, 0.9, 0.9) + (0.0,) * 8190)
        with pytest.raises(EmbeddingError, match="Cholesky fallback cap"):
            sample_stack(table, 8193, 0, [0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [10.5, np.nan], ids=["10.5", "nan"])
    def test_length_must_be_an_integer(self, n):
        """10.5 raised "fGn lags must be integers" or numpy's TypeError,
        NaN numpy's "arange: cannot compute length"."""
        for model in (FGN(0.7), OU(5.0)):
            with pytest.raises(ValueError,
                               match=f"length {n} is not an integer"):
                sample_stack(model, n, 4, self.KEYS)

    def test_integral_length_is_that_integer(self):
        want = sample_stack(FGN(0.7), 100, 4, self.KEYS)
        for n in (100.0, np.int64(100)):
            assert np.array_equal(sample_stack(FGN(0.7), n, 4, self.KEYS),
                                  want)

    @pytest.mark.parametrize("model, noise", [
        (FGN(0.7), FGN), (FBM(1.3), FGN), (OU(5.0), OU),
        (AcvfTable((1.25, 0.5) + (0.0,) * 99), AcvfTable),
    ], ids=["fgn", "fbm", "ou", "table"])
    def test_one_acvf_call_per_stack(self, monkeypatch, model, noise):
        """gamma(0..n) comes from one call, so FGN.acvf's fixed cost (the
        near-lag series and the decimal lag 1) is paid once per stack."""
        calls = []
        acvf = noise.acvf

        def counted(self, lags):
            calls.append(np.size(lags))
            return acvf(self, lags)

        monkeypatch.setattr(noise, "acvf", counted)
        sample_stack(model, 100, 4, self.KEYS)
        assert calls == [101]


class TestFbm:
    def test_duality_with_noise(self):
        h = 1.3
        incr = sample(FGN(h - 1.0, 1.0), 300, seed=9, replicate=2)
        path = sample(FBM(h, 1.0), 300, seed=9, replicate=2)
        assert np.array_equal(path, np.cumsum(incr))

    def test_starts_near_zero(self):
        # X(1) equals the first increment, not an accumulated offset
        path = sample(FBM(1.5, 1.0), 100, seed=3)
        incr = sample(FGN(0.5, 1.0), 100, seed=3)
        assert path[0] == incr[0]

    def test_brownian_msd(self):
        # mean squared displacement of standard Brownian motion is t
        reps = 200
        t = 64
        vals = [sample(FBM(1.5, 1.0), t, seed=77, replicate=r)[-1] ** 2
                for r in range(reps)]
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert np.mean(vals) == pytest.approx(t, abs=4 * se)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample(FBM(0.7, 1.0), 100, seed=0)


class TestAr1:
    def test_lag1_correlation(self):
        phi, n = 0.6, 2**16
        x = sample(AR1(phi, 2.0), n, seed=21)
        assert sample_acvf(x, 1) / sample_acvf(x, 0) == pytest.approx(
            phi, abs=0.02)

    def test_stationary_variance(self):
        x = sample(AR1(0.9, 3.0), 2**15, seed=22)
        assert sample_acvf(x, 0) == pytest.approx(3.0, rel=0.2)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample(AR1(1.0, 1.0), 100, seed=0)
        with pytest.raises(ValueError):
            sample(AR1(0.5, -1.0), 100, seed=0)


class TestTrend:
    def test_constant(self):
        x = np.zeros(5)
        assert np.array_equal(add_polynomial_trend(x, [2.0]), np.full(5, 2.0))

    def test_linear_at_t_equals_one(self):
        y = add_polynomial_trend(np.zeros(3), [1.0, 2.0])
        assert np.allclose(y, [3.0, 5.0, 7.0])

    def test_additive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = add_polynomial_trend(x, [0.5, 0.1, 0.01])
        assert np.allclose(y - x, add_polynomial_trend(np.zeros(50),
                                                       [0.5, 0.1, 0.01]))


class TestBlockGapMask:
    def test_deterministic(self):
        a = block_gap_mask(1000, 0.2, 12.0, seed=99)
        b = block_gap_mask(1000, 0.2, 12.0, seed=99)
        assert np.array_equal(a, b)

    def test_fraction_close_on_average(self):
        fracs = [1.0 - block_gap_mask(4000, 0.2, 12.0, seed=s).mean()
                 for s in range(100)]
        assert np.mean(fracs) == pytest.approx(0.2, abs=0.05)

    def test_blocks_not_isolated_points(self):
        mask = block_gap_mask(20000, 0.3, 10.0, seed=5)
        gaps = np.diff(np.concatenate([[1], mask.astype(int), [1]]))
        starts, ends = np.where(gaps == -1)[0], np.where(gaps == 1)[0]
        runs = ends - starts
        assert runs.mean() > 4.0  # geometric mean length 10 target

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, match", [
        (0, "length must be >= 1, got 0"), (-5, "length must be >= 1, got -5"),
        (2.5, "length 2.5 is not an integer"),
        (np.nan, "length nan is not an integer"),
    ], ids=["zero", "negative", "fraction", "nan"])
    def test_length_must_be_a_positive_integer(self, n, match):
        """0 gave an empty mask, -5 numpy's "negative dimensions", 2.5
        and NaN numpy's TypeError."""
        with pytest.raises(ValueError, match=match):
            block_gap_mask(n, 0.2, 6.0, seed=1)

    def test_integral_length_is_that_integer(self):
        want = block_gap_mask(50, 0.2, 6.0, seed=1)
        for n in (50.0, np.int64(50)):
            assert np.array_equal(block_gap_mask(n, 0.2, 6.0, seed=1), want)

    def test_domain(self):
        with pytest.raises(ValueError):
            block_gap_mask(100, 0.0, 5.0, seed=0)
        with pytest.raises(ValueError):
            block_gap_mask(100, 0.5, 0.5, seed=0)

    @pytest.mark.parametrize("length", ["nan", "inf"])
    def test_non_finite_block_length(self, tmp_path, length):
        with pytest.raises(ValueError, match="mean_block_length"):
            block_gap_mask(100, 0.2, float(length), seed=0)
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--model", '{"kind": "white"}', "-n", "50",
                   "--gap-fraction", "0.2", "--block-length", length,
                   "--out", str(out)])
        assert rc == 4 and not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_present_runs(self, tmp_path, capsys):
        # mean present run = mean_block_length (1 - f) / f = 4e308
        for length in (1e308, np.float64(1e308)):
            with pytest.raises(ValueError, match="mean_block_length"):
                block_gap_mask(100, 0.2, length, seed=0)
        rc = main(["mc", "--model", '{"kind": "white"}', "-n", "100",
                   "--ensemble", "2", "--gap-fraction", "0.2",
                   "--block-length", "1e308", "--out", str(tmp_path / "o")])
        assert rc == 4 and "mean_block_length" in capsys.readouterr().err


class TestApplyGapMask:
    def test_roundtrip(self):
        x = sample(WhiteNoise(1.0), 50, seed=1)
        mask = block_gap_mask(50, 0.3, 3.0, seed=2)
        gs = GappedSeries(x, mask)
        assert np.array_equal(gs.values, x)
        assert np.array_equal(gs.mask, mask)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            GappedSeries(np.ones(4), np.zeros(4, bool))
