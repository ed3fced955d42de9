import numpy as np
import numpy.testing as npt
import pytest

from wavfusion.rng import Prng


class TestPrng:
    def test_deterministic_streams(self):
        npt.assert_array_equal(Prng(3).uniform(10), Prng(3).uniform(10))
        npt.assert_array_equal(Prng(3, stream=2).normal(9), Prng(3, stream=2).normal(9))

    def test_seed_and_stream_sensitivity(self):
        assert not np.array_equal(Prng(1).uniform(8), Prng(2).uniform(8))
        assert not np.array_equal(Prng(1, stream=0).uniform(8), Prng(1, stream=1).uniform(8))

    def test_counter_advances(self):
        rng = Prng(5)
        first = rng.uniform(4)
        second = rng.uniform(4)
        assert not np.array_equal(first, second)
        both = Prng(5).uniform(8)
        npt.assert_array_equal(np.concatenate([first, second]), both)

    def test_child_independent_of_parent_counter(self):
        parent = Prng(7)
        early = parent.child(3).uniform(5)
        parent.uniform(100)
        late = parent.child(3).uniform(5)
        npt.assert_array_equal(early, late)

    def test_uniform_range_and_normal_moments(self):
        u = Prng(11).uniform(20_000)
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.01
        z = Prng(12).normal(20_000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_randint_bounds(self):
        rng = Prng(13)
        draws = [rng.randint(2, 5) for _ in range(200)]
        assert set(draws) == {2, 3, 4}
        with pytest.raises(ValueError):
            rng.randint(5, 5)

    def test_permutation_is_permutation(self):
        perm = Prng(14).permutation(50)
        assert sorted(perm) == list(range(50))

    @pytest.mark.parametrize("n", [0, 1, 2, 320, 5000])
    def test_permutation_matches_per_word_loop(self, n):
        def per_word(rng, n):
            order = list(range(n))
            for i in range(n - 1, 0, -1):
                j = int(rng._raw(1)[0]) % (i + 1)
                order[i], order[j] = order[j], order[i]
            return order

        fast, slow = Prng(15, stream=7), Prng(15, stream=7)
        assert fast.permutation(n) == per_word(slow, n)
        npt.assert_array_equal(fast.uniform(4), slow.uniform(4))

    def test_matches_documented_algorithm(self):
        # independent pure-int reimplementation of the module docstring
        mask = (1 << 64) - 1
        golden = 0x9E3779B97F4A7C15

        def mix(x):
            x &= mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            return x ^ (x >> 31)

        for seed, stream in ((0, 0), (1, 0), (42, 7)):
            key = mix((seed + golden * (stream + 1)) & mask)
            expect = [mix((key + golden * i) & mask) for i in (1, 2, 3)]
            got = [int(v) for v in Prng(seed, stream)._raw(3)]
            assert got == expect

    def test_known_values_frozen(self):
        # pins the algorithm output: any change to the mixing breaks this
        assert [int(v) for v in Prng(0)._raw(3)] == [
            12035550249420947055, 12935080325729570654, 7141179953334974231]
