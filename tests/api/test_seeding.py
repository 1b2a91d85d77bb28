"""seed_everything: one knob, every random source, reproducible streams."""

from __future__ import annotations

import random
import warnings

import numpy as np

from repro.api import seed_everything


def test_returns_reproducible_generator():
    first = seed_everything(7).random(4)
    second = seed_everything(7).random(4)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, seed_everything(8).random(4))


def test_seeds_stdlib_random():
    seed_everything(7)
    first = [random.random() for _ in range(4)]
    seed_everything(7)
    assert first == [random.random() for _ in range(4)]


def test_seeds_legacy_numpy_global():
    seed_everything(7)
    first = np.random.rand(4)
    seed_everything(7)
    assert np.array_equal(first, np.random.rand(4))


def test_matches_plain_default_rng():
    # The returned generator is exactly default_rng(seed), so scripts that
    # already used default_rng keep their streams when they migrate.
    assert np.array_equal(
        seed_everything(3).random(4), np.random.default_rng(3).random(4)
    )


def test_huge_seeds_fit_the_legacy_api():
    rng = seed_everything(2**63)  # would overflow np.random.seed unreduced
    assert rng.random() == np.random.default_rng(2**63).random()


def test_none_leaves_entropy_seeding():
    rng = seed_everything(None)
    other = seed_everything(None)
    assert rng.random(4).shape == (4,)
    assert not np.array_equal(rng.random(4), other.random(4))


def test_seed_everything_stays_warning_free():
    # Seeding must not warn, or the deprecation-clean CI gate
    # (-W error::DeprecationWarning) would trip on every seeded run.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        seed_everything(7)
