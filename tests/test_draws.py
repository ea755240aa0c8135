"""The words of `random.Random.getrandbits` that `cohom.sample_orbit_point` reads are the
draws `randrange` and `choice` make.

Sample s takes each step's root index as the first k-bit word below the number of roots
(k its bit length) and its parameter index as the first 3-bit word below 6.  That is how
CPython's `randrange(n)` and `choice(seq)` draw, so the samples stay those that earlier
versions drew with them.  The flow oracle in `test_cohom.py` draws with `randrange` and
`choice`, which holds the sampler to them; this test holds the interpreter to the words.
It imports no numpy, so `python tests/test_draws.py` also runs it on an interpreter
without the package's dependencies.
"""

import random

ROOT_COUNTS = (2, 6, 8, 48, 126, 240)  # A1 (a power of two), A2, B2, F4, E7, E8
PARAMS = (-3, -2, -1, 1, 2, 3)  # cohom's flow parameters, in its order


def _below(word, n):
    k = n.bit_length()
    r = word(k)
    while r >= n:
        r = word(k)
    return r


def _draws_from_words(seed, nroots, steps):
    word = random.Random(seed).getrandbits
    return [(_below(word, nroots), PARAMS[_below(word, len(PARAMS))]) for _ in range(steps)]


def _draws_from_randrange(seed, nroots, steps):
    rng = random.Random(seed)
    return [(rng.randrange(nroots), rng.choice(PARAMS)) for _ in range(steps)]


def _seeds():
    # 60 small seeds, then cohom.derived_seed(SampleConfig(seed), s) for 40 samples of 4 seeds
    derived = [(seed * 1_000_003) ^ (s * 7_919) for seed in (0, 1, 3, 1 << 20) for s in range(40)]
    return list(range(60)) + derived


def test_word_draws_are_randrange_and_choice():
    for nroots in ROOT_COUNTS:
        for seed in _seeds():
            # a flow takes 2 x (number of positive roots) = nroots steps by default
            assert _draws_from_words(seed, nroots, nroots) == _draws_from_randrange(
                seed, nroots, nroots
            ), (nroots, seed)


if __name__ == "__main__":
    test_word_draws_are_randrange_and_choice()
    print("ok")
