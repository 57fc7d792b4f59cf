"""The seed-words pass reproduces numpy's SeedSequence and default_rng.

The batch Monte-Carlo backend seeds its adversaries from words derived in
one array pass (:func:`repro.core.sampling.seed_words`) instead of hashing
each seed in ``default_rng``.  These properties pin that pass to numpy's own
``SeedSequence(seed).generate_state(4, np.uint64)``, the generators built
from it to ``default_rng(seed)``'s streams, and every seed outside
``[0, 2**64)`` to ``default_rng`` itself.
"""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import sampling
from repro.core.sampling import (
    AntitheticRng,
    HashedSeed,
    PairedSeed,
    hashed_seeds,
    seed_words,
    spawn_rng,
)

EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)
word_seeds = st.integers(min_value=0, max_value=2**64 - 1)


def numpy_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def draws(rng):
    """One of each draw the adversaries and samplers use, in sequence."""
    return (rng.exponential(2.5, size=3).tolist(), float(rng.random()),
            rng.random(4).tolist(), float(rng.uniform(0.0, 7.0)),
            rng.uniform(1.0, 3.0, size=2).tolist(),
            int(rng.integers(1, 9)), rng.integers(0, 2**40, size=3).tolist())


def with_edges(test):
    for seed in EDGES:
        test = example(seed=seed)(test)
    return test


class TestWords:
    @settings(max_examples=200)
    @given(seeds=st.lists(word_seeds, min_size=1, max_size=40))
    def test_words_are_seed_sequence_state(self, seeds):
        words = seed_words(seeds)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            assert row.tolist() == numpy_words(seed).tolist(), seed

    def test_edges_hash_alike_in_one_array(self):
        words = seed_words(EDGES)
        assert [row.tolist() for row in words] \
            == [numpy_words(seed).tolist() for seed in EDGES]
        assert not words.flags.writeable

    @with_edges
    @given(seed=word_seeds)
    def test_words_generator_reproduces_default_rng(self, seed):
        hashed, = hashed_seeds([seed])
        assert type(hashed) is HashedSeed and hashed == seed
        assert draws(spawn_rng(hashed)) == draws(np.random.default_rng(seed))

    @with_edges
    @given(seed=word_seeds)
    def test_paired_members_reproduce_antithetic_rng(self, seed):
        for member in (0, 1):
            hashed, = hashed_seeds([PairedSeed(seed, member)])
            assert type(hashed) is PairedSeed and hashed.member == member
            assert hashed.words is not None
            assert draws(spawn_rng(hashed)) == draws(AntitheticRng(seed, member))

    def test_words_path_is_active(self):
        # Under numpy's PCG64 default the generator is built from the words,
        # not from a SeedSequence hashed again.
        if type(np.random.default_rng(0).bit_generator) is not np.random.PCG64:
            pytest.skip("numpy's default bit generator is not PCG64")
        rng = spawn_rng(next(hashed_seeds([12345])))
        seed_seq = rng.bit_generator.seed_seq
        assert not isinstance(seed_seq, np.random.SeedSequence)
        # PCG64 read the words once; the generator keeps only the seed, and
        # answers later calls as the seed's own SeedSequence would.
        assert seed_seq.words is None
        assert seed_seq.generate_state(4, np.uint64).tolist() \
            == numpy_words(12345).tolist()
        assert seed_seq.generate_state(3).tolist() \
            == np.random.SeedSequence(12345).generate_state(3).tolist()

    def test_generators_from_words_pickle_and_copy(self):
        # Adversaries stay picklable: the words object reduces to the seed's
        # SeedSequence, and the stream continues where it stopped.
        rng = spawn_rng(next(hashed_seeds([2**40 + 7])))
        reference = np.random.default_rng(2**40 + 7)
        assert rng.random(3).tolist() == reference.random(3).tolist()
        for copied in (pickle.loads(pickle.dumps(rng)), copy.deepcopy(rng)):
            assert draws(copied) == draws(copy.deepcopy(reference))


class TestFallback:
    @pytest.mark.parametrize("seed", [2**64, 2**64 + 5, 2**80])
    def test_large_seeds_take_default_rng(self, seed):
        hashed, paired = hashed_seeds([seed, PairedSeed(seed, 1)])
        assert type(hashed) is int and paired.words is None
        assert draws(spawn_rng(hashed)) == draws(np.random.default_rng(seed))
        assert draws(spawn_rng(paired)) == draws(AntitheticRng(seed, 1))

    @pytest.mark.parametrize("seed", [-1, -(2**63)])
    def test_negative_seeds_raise_as_default_rng_does(self, seed):
        hashed, = hashed_seeds([seed])
        assert type(hashed) is int
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(seed)
        with pytest.raises(ValueError) as raised:
            spawn_rng(hashed)
        assert str(raised.value) == str(expected.value)

    def test_other_seeds_come_back_unchanged(self):
        numpy_seed = np.int64(5)
        seeds = list(hashed_seeds([None, numpy_seed, 3]))
        assert seeds[0] is None and seeds[1] is numpy_seed
        assert type(seeds[2]) is HashedSeed

    def test_failed_check_sends_every_seed_to_default_rng(self, monkeypatch):
        # A words pass that disagrees with numpy on the probe seeds turns
        # the words path off: every seed then takes default_rng.
        monkeypatch.setattr(sampling, "_from_words", None)
        monkeypatch.setattr(sampling, "seed_words",
                            lambda seeds: np.zeros((len(seeds), 4), np.uint64))
        wrong = HashedSeed(7, np.zeros(4, np.uint64))
        assert draws(spawn_rng(wrong)) == draws(np.random.default_rng(7))
        assert isinstance(spawn_rng(wrong).bit_generator.seed_seq,
                          np.random.SeedSequence)


class TestArithmeticDropsWords:
    @given(seed=st.integers(min_value=1, max_value=2**62),
           other=st.integers(min_value=0, max_value=1000))
    def test_plain_seed(self, seed, other):
        hashed, = hashed_seeds([seed])
        for value in (hashed + other, other + hashed, hashed - other,
                      hashed * other, other * hashed, -hashed, hashed // 1):
            assert type(value) is int
        assert repr(hashed) == repr(seed)
        assert int(hashed) == seed and type(int(hashed)) is int

    @given(seed=st.integers(min_value=1, max_value=2**62),
           other=st.integers(min_value=0, max_value=1000))
    def test_paired_seed_keeps_its_member(self, seed, other):
        paired, = hashed_seeds([PairedSeed(seed, 1)])
        for value in (paired + other, other + paired, paired - other,
                      paired * other, other * paired):
            assert type(value) is PairedSeed
            assert value.member == 1 and value.words is None


def test_numpy_random_is_not_imported_until_a_generator_is_built():
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.experiments.montecarlo\n"
        "from repro.core.sampling import hashed_seeds, spawn_rng\n"
        "seeds = list(hashed_seeds([1, 2, 3]))\n"
        "assert 'numpy.random' not in sys.modules, 'imported early'\n"
        "spawn_rng(seeds[0])\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
        + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
