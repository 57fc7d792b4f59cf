"""Paired (antithetic) random streams for variance-reduced replication.

Antithetic variates halve the Monte-Carlo variance of any statistic that
is monotone in the underlying uniforms — often far better than halving —
by playing replications in *pairs*: member 0 of a pair consumes a
pseudo-random stream ``u_1, u_2, ...`` and member 1 consumes the
complementary stream ``1 - u_1, 1 - u_2, ...``, so their errors are
negatively correlated and cancel in the pair mean.  This module provides
the three primitives the rest of the code base builds on:

* :class:`PairedSeed` — an ``int`` subclass carrying a pair-member tag
  (0 or 1) alongside the shared pair seed.  It flows through every
  existing seed-plumbing path unchanged: arithmetic like ``seed + i``
  (machine-seed derivation in the scenario families) preserves the tag,
  while feeding it to :func:`numpy.random.default_rng` deliberately
  *drops* the tag — structural randomness (task bags, machine counts,
  speed factors) stays identical within a pair, so the two members differ
  **only** in their interrupt traces.
* :class:`AntitheticRng` — a ``numpy.random.Generator`` façade that draws
  from the native generator (member 0 returns those draws bitwise
  unchanged) and, for member 1, applies the distribution's antithetic
  reflection to every draw.  Both members consume identical bit-stream
  positions, so trace *structure* (e.g. block sizes in the vectorized
  Poisson sampler) never diverges between members.
* :func:`spawn_rng` / :func:`reseed` — the two hooks the samplers and
  scenario families call: ``spawn_rng`` turns any seed (plain int,
  ``None`` or :class:`PairedSeed`) into the right generator, and
  ``reseed`` re-attaches the pair-member tag to an integer seed derived
  from a structural draw.

The reflections are the exact antithetic maps for each distribution
(involutions that preserve the distribution):

=================  =====================================================
``random()``       ``u -> 1 - u``
``uniform(a, b)``  ``x -> a + b - x``
``exponential(s)`` ``x -> -s * log(-expm1(-x / s))``  (CDF complement)
``integers(a, b)`` ``k -> a + b - 1 - k``  (half-open convention)
``normal(m, s)``   ``x -> 2 * m - x``
=================  =====================================================

With plain integer seeds nothing here changes behaviour: ``spawn_rng``
returns a plain ``numpy.random.default_rng`` and ``reseed`` returns a
plain ``int``, keeping ``variance="none"`` byte-identical to the
pre-variance pipeline.

Seed words
----------
A ``default_rng(seed)`` stream is fixed by the four uint64 words
``SeedSequence(seed).generate_state(4, np.uint64)`` that seed its PCG64,
and hashing one seed at a time is most of the cost of building the
generator.  :func:`seed_words` derives those words for a whole array of
seeds in one pass of uint32 arithmetic, bit for bit numpy's; and
:func:`hashed_seeds` attaches them to each seed — a :class:`HashedSeed`,
or a :class:`PairedSeed` that keeps its member tag.  ``spawn_rng`` and
``AntitheticRng`` build a seed that carries its words as
``Generator(PCG64(words))`` — the same stream as ``default_rng(seed)`` —
and call ``default_rng`` for every other seed.  Arithmetic on a seed
drops its words.  ``numpy.random`` is imported on the first generator
built, never at import: the first build checks once that numpy's default
bit generator is still PCG64 and that generators built from words
reproduce ``default_rng`` on a few fixed seeds, and if not, every seed
takes ``default_rng``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = ["PairedSeed", "HashedSeed", "AntitheticRng", "spawn_rng", "reseed",
           "seed_words", "hashed_seeds"]

#: Smallest positive normal float: clamps ``-expm1(-x/s)`` away from zero
#: so the exponential reflection of ``x == 0.0`` stays finite.
_TINY = float(np.finfo(float).tiny)


class PairedSeed(int):
    """An integer seed tagged with an antithetic pair member (0 or 1).

    Being an ``int`` subclass, a ``PairedSeed`` passes through every
    integer-seed API untouched — ``numpy.random.default_rng(paired)``
    produces exactly the stream of the untagged seed, which is what the
    *structural* randomness of a scenario (task bags, machine counts)
    must do so that pair members differ only in their interrupt traces.
    Integer arithmetic (``seed + i``) keeps the tag, so derived machine
    seeds stay paired.  ``words`` are the pair seed's SeedSequence words
    when :func:`hashed_seeds` attached them (``None`` otherwise);
    arithmetic drops them.
    """

    def __new__(cls, seed: int, member: int, words: Optional[np.ndarray] = None):
        if member not in (0, 1):
            raise ValueError(f"pair member must be 0 or 1, got {member!r}")
        self = super().__new__(cls, int(seed))
        self.member = int(member)
        self.words = words
        return self

    def __repr__(self) -> str:
        return f"PairedSeed({int(self)}, member={self.member})"

    def __add__(self, other):
        return PairedSeed(int(self) + int(other), self.member)

    def __radd__(self, other):
        return PairedSeed(int(other) + int(self), self.member)

    def __sub__(self, other):
        return PairedSeed(int(self) - int(other), self.member)

    def __mul__(self, other):
        return PairedSeed(int(self) * int(other), self.member)

    def __rmul__(self, other):
        return PairedSeed(int(other) * int(self), self.member)


class HashedSeed(int):
    """An integer seed carrying its SeedSequence words (see :func:`seed_words`).

    :func:`spawn_rng` builds its generator from ``words`` instead of hashing
    the seed again; everywhere else it is the plain integer, and arithmetic
    returns a plain ``int`` without the words.
    """

    def __new__(cls, seed: int, words: np.ndarray):
        self = int.__new__(cls, seed)
        self.words = words
        return self


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, steps: int) -> list:
    """``init · mult^k mod 2^32`` for ``k = 0 .. steps``, as uint32."""
    constants = [init]
    for _ in range(steps):
        constants.append(constants[-1] * mult & 0xFFFF_FFFF)
    return [np.uint32(value) for value in constants]


def seed_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed at once.

    ``seeds`` are integers in ``[0, 2**64)``; returns a read-only
    ``(len(seeds), 4)`` uint64 array whose row ``i`` is bit for bit what
    numpy's SeedSequence makes of ``seeds[i]``.  Every step is numpy's own
    uint32 arithmetic, applied to the whole array: the seed's little-endian
    32-bit words hashed into a four-word pool (a seed below ``2**32`` hashes
    like one whose high word is 0), the pool mixed word into word, and
    eight output words hashed out of it.  The hash multiplier of every step
    is the same for all seeds, so the pass carries it as a scalar.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    # hashmix runs 16 times: 4 to fill the pool, 12 to mix it.
    constants = _hash_constants(_INIT_A, _MULT_A, 16)
    steps = zip(constants, constants[1:])

    def hashmix(value):
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    low = seeds.astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    out = np.empty((seeds.size, 2 * _POOL_SIZE), dtype=np.uint32)
    constants = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    for i in range(2 * _POOL_SIZE):
        value = (pool[i % _POOL_SIZE] ^ constants[i]) * constants[i + 1]
        out[:, i] = value ^ (value >> _XSHIFT)
    # Pairs of 32-bit words read little-endian, as numpy reads them.
    words = out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words.setflags(write=False)
    return words


def hashed_seeds(seeds: Sequence[Seed]) -> Iterator[Seed]:
    """``seeds``, each carrying its SeedSequence words, derived in one pass.

    Python integers in ``[0, 2**64)`` come back as :class:`HashedSeed`, or
    as a :class:`PairedSeed` of the same member; any other seed (``None``,
    negative, ``2**64`` or more, a numpy integer) comes back unchanged, so
    :func:`spawn_rng` hands it to ``default_rng`` as before.  The tagged
    seeds are made one at a time from the pass's words array, and each
    input seed is let go as its tagged copy is made: a chunk's seeds never
    exist twice, and their memory is reused by what the caller builds from
    them (a full copy held until the end raised mc-stream's peak RSS).
    """
    pending = list(seeds)
    del seeds
    inside = [isinstance(seed, int) and 0 <= seed < 1 << 64 for seed in pending]
    rows = iter(seed_words([seed for seed, ok in zip(pending, inside) if ok]))
    for i, ok in enumerate(inside):
        seed, pending[i] = pending[i], None
        if not ok:
            yield seed
        elif isinstance(seed, PairedSeed):
            yield PairedSeed(seed, seed.member, next(rows))
        else:
            yield HashedSeed(seed, next(rows))


#: ``(seed, words) -> Generator``, decided on the first build (see
#: :func:`_words_generator`).
_from_words: Optional[Callable] = None


def _words_generator() -> Callable:
    """How to build a generator from a seed's words, decided once.

    ``PCG64`` skips its own SeedSequence when handed a
    ``numpy.random.bit_generator.ISeedSequence``; the subclass is defined
    here, on first use, so importing this module never imports
    ``numpy.random``.  When numpy's default bit generator is not PCG64, or
    the words do not reproduce ``default_rng`` on a few fixed seeds, every
    seed takes ``default_rng``.
    """
    global _from_words
    if _from_words is not None:
        return _from_words
    from numpy.random import PCG64, Generator, SeedSequence, default_rng
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        """A seed's SeedSequence, with ``generate_state(4, uint64)`` precomputed.

        PCG64 reads the words once, when it is built; they are dropped
        then, so a generator does not keep its chunk's words array alive.
        Any other call is answered by the seed's own SeedSequence.
        """

        __slots__ = ("seed", "words")

        def __init__(self, seed: int, words: np.ndarray):
            self.seed = seed
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            words = self.words
            if words is not None and n_words == 4 and dtype is np.uint64:
                self.words = None
                return words
            return SeedSequence(self.seed).generate_state(n_words, dtype)

        def __reduce__(self):
            return SeedSequence, (self.seed,)

    def build(seed: int, words: np.ndarray):
        return Generator(PCG64(_SeedWords(seed, words)))

    probes = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
    valid = type(default_rng(0).bit_generator) is PCG64 and all(
        build(seed, words).bit_generator.state
        == default_rng(seed).bit_generator.state
        for seed, words in zip(probes, seed_words(probes)))
    _from_words = build if valid else (lambda seed, words: default_rng(seed))
    return _from_words


def _generator(seed, words: Optional[np.ndarray]):
    """``numpy.random.default_rng(seed)``, from ``words`` when given."""
    if words is None:
        return np.random.default_rng(seed)
    return _words_generator()(int(seed), words)


class AntitheticRng:
    """Generator façade producing a stream or its antithetic reflection.

    Wraps ``numpy.random.default_rng(seed)`` and mirrors the subset of
    its sampling API the interrupt-trace samplers and stochastic
    adversaries use.  Every method draws from the underlying generator —
    so both pair members consume identical bit-stream positions — and,
    for ``member == 1``, reflects each draw through the distribution's
    antithetic map.  ``member == 0`` returns the native draws bitwise
    unchanged, which makes an antithetic run's even-indexed replications
    exactly reproduce a ``variance="none"`` run with the same seeds.
    """

    __slots__ = ("_rng", "member")

    def __init__(self, seed: Optional[int], member: int):
        if member not in (0, 1):
            raise ValueError(f"pair member must be 0 or 1, got {member!r}")
        self._rng = _generator(None if seed is None else int(seed),
                               getattr(seed, "words", None))
        self.member = int(member)

    # -- uniforms ---------------------------------------------------------
    def random(self, size=None):
        u = self._rng.random(size)
        if self.member == 0:
            return u
        return 1.0 - u

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        x = self._rng.uniform(low, high, size)
        if self.member == 0:
            return x
        return low + high - x

    # -- exponentials -----------------------------------------------------
    def exponential(self, scale: float = 1.0, size=None):
        x = self._rng.exponential(scale, size)
        if self.member == 0:
            return x
        # Antithetic map for Exp(scale): x -> F^-1(1 - F(x)) with
        # F(x) = 1 - exp(-x/scale).  An involution; clamped so x == 0
        # (probability-zero but representable) reflects to a finite value.
        if size is None:
            u = max(-math.expm1(-float(x) / scale), _TINY)
            return -scale * math.log(u)
        u = np.maximum(-np.expm1(-np.asarray(x) / scale), _TINY)
        return -scale * np.log(u)

    # -- discrete ---------------------------------------------------------
    def integers(self, low, high=None, size=None):
        k = self._rng.integers(low, high, size)
        if self.member == 0:
            return k
        lo, hi = (0, low) if high is None else (low, high)
        return lo + hi - 1 - k

    # -- normals ----------------------------------------------------------
    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        x = self._rng.normal(loc, scale, size)
        if self.member == 0:
            return x
        return 2.0 * loc - x


Seed = Union[None, int, PairedSeed]


def spawn_rng(seed: Seed):
    """The sampler-facing generator for ``seed``.

    Plain ints and ``None`` get a plain ``numpy.random.default_rng`` —
    bitwise the historical behaviour; a :class:`HashedSeed` gets the same
    stream, built from its words.  A :class:`PairedSeed` gets an
    :class:`AntitheticRng` over the shared pair seed, reflecting draws
    for pair member 1.
    """
    if isinstance(seed, PairedSeed):
        return AntitheticRng(seed, seed.member)
    return _generator(seed, getattr(seed, "words", None))


def reseed(parent: Seed, value) -> Union[int, PairedSeed]:
    """Re-attach ``parent``'s pair-member tag to a derived integer seed.

    The scenario families derive machine seeds from a structural
    generator (``int(rng.integers(...))``), which would silently strip
    the pair tag; wrapping the derivation in ``reseed(seed, ...)`` keeps
    the derived seed on the same antithetic stream.  With a plain-int
    parent this is exactly ``int(value)``.
    """
    if isinstance(parent, PairedSeed):
        return PairedSeed(int(value), parent.member)
    return int(value)
