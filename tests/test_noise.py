"""The sensor noise generator against numpy.random, the code it replaces.

epifield.noise draws Generator(Philox(SeedSequence(seed))).normal() without
importing numpy.random. Here numpy.random is only the oracle: the key, the
raw Philox words and every field bit must equal its output.
"""

import hashlib

import numpy as np
import pytest

from epifield import noise

# 0 and 2**32 - 1 are one-word seeds, 2**32 takes two words, 2**97 + 12345
# fills SeedSequence's 4-word pool and 2**200 + 9 (7 words) overflows it.
SEEDS = [0, 2**32 - 1, 2**32, 2**97 + 12345, 2**200 + 9]


def _oracle(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_key_is_the_seed_sequence_state(seed):
    want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert noise._philox_key(seed) == tuple(int(w) for w in want)


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_are_philox_random_raw(seed):
    key = noise._philox_key(seed)
    want = np.random.Philox(np.random.SeedSequence(seed)).random_raw(4 * 3000)
    assert np.array_equal(noise._philox(key, 1, 3000), want)
    # block k starts at word 4 * (k - 1): a later first block continues the stream
    assert np.array_equal(noise._philox(key, 2049, 5), want[8192:8212])


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (256, 256), (512, 64)])
@pytest.mark.parametrize("seed", SEEDS)
def test_field_bits_are_generator_normal(seed, shape):
    got = noise.standard_normal(seed, shape)
    assert got.shape == shape and got.dtype == np.float64
    assert np.array_equal(_bits(got), _bits(_oracle(seed).normal(size=shape)))


@pytest.mark.parametrize(
    "seed, case, accepted",
    [(12, "wedge", False), (50, "wedge", True), (81, "tail", True)],
)
def test_a_slow_draw_reads_past_a_chunk_boundary(monkeypatch, seed, case, accepted):
    """At these seeds a 64 x 128 field has one slow draw that starts in the
    first chunk and reads its uniform words from the second."""
    crossings = []
    slow_draw = noise._slow_draw

    def spy(stream):
        block, word = stream.block, int(stream.words[stream.pos])
        z = slow_draw(stream)
        if stream.block != block:
            crossings.append(("tail" if word & 0xFF == 0 else "wedge", z is not None))
        return z

    monkeypatch.setattr(noise, "_slow_draw", spy)
    got = noise.standard_normal(seed, (64, 128))
    assert crossings == [(case, accepted)]
    assert np.array_equal(_bits(got), _bits(_oracle(seed).normal(size=(64, 128))))


def test_derived_tables_are_numpys_bytes():
    """SHA-256 of numpy 2.4.6's ki_double, wi_double and fi_double, the
    tables its random_standard_normal reads: the 2048 bytes of each symbol
    in the .rodata of the distributions object in numpy/random/lib/
    libnpyrandom.a (offsets from `objdump -t`), little-endian."""
    digests = [
        hashlib.sha256(table.astype(table.dtype.newbyteorder("<")).tobytes()).hexdigest()
        for table in (noise._KI, noise._WI, noise._FI)
    ]
    assert digests == [
        "565295797825931547a1036f5b012a247be54abbe077c39fe06c8ed1e9d0a5a9",
        "33c6472209e1d09ea3548f0291e5e1ad67fb4f1d0305e9f1086689584b7bb7fa",
        "acd898d9d87e212f657755ba43b21e40958090a7ff2103c9e79f4ea1b0fe2bc5",
    ]


def test_a_negative_seed_is_rejected_as_seed_sequence_does():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        noise.standard_normal(-1, (2, 2))
