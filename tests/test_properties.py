"""Property tests over random small specs, checked against the dense oracle.

Each case draws a hybrid spec from a seeded generator: random kinds per
chain entry, chain lengths 1-3, a random truncation of the outermost
factor, and a random scene in the declared range.
"""

import numpy as np
import pytest

from hybridgi import (
    BucketSignals,
    ChainEntry,
    HybridSpec,
    NoiseModel,
    RangeTag,
    SceneImage,
    acquire,
    acquire_ideal,
    compose_chain,
    fileio,
    reconstruct_chain,
)

REAL_KINDS = ("hadamard", "dct", "haar", "identity")
ALL_KINDS = REAL_KINDS + ("dft",)
ORDERS = (2, 4, 8)
SEEDS = range(4)


def random_chain(rng, order: int, length: int, kinds) -> tuple[ChainEntry, ...]:
    chain = [ChainEntry(kinds[rng.integers(len(kinds))], order) for _ in range(length)]
    kept = int(rng.integers(1, order + 1))
    return (*chain[:-1], ChainEntry(chain[-1].kind, order, kept))


def random_case(seed: int, length: int, range_tag: RangeTag, kinds):
    """A spec whose left chain has ``length`` entries, and a scene for it."""
    rng = np.random.default_rng([seed, length, list(RangeTag).index(range_tag)])
    height, width = (int(ORDERS[i]) for i in rng.integers(len(ORDERS), size=2))
    spec = HybridSpec(
        random_chain(rng, height, length, kinds),
        random_chain(rng, width, int(rng.integers(1, 4)), kinds),
    )
    lo, hi = range_tag.bounds
    return spec, SceneImage(rng.uniform(lo, hi, (height, width)), range_tag)


cases = pytest.mark.parametrize(
    "seed, length, range_tag",
    [(s, n, r) for s in SEEDS for n in (1, 2, 3) for r in RangeTag],
)


@cases
def test_noiseless_acquire_equals_ideal(seed, length, range_tag):
    spec, scene = random_case(seed, length, range_tag, REAL_KINDS)
    physical = acquire(spec, scene, NoiseModel(0.0, 0)).values
    ideal = acquire_ideal(spec, scene).values
    assert physical.shape == ideal.shape == (spec.left_kept, spec.right_kept)
    assert np.max(np.abs(physical - ideal)) < 1e-12


@cases
def test_noiseless_reconstruction_is_projection(seed, length, range_tag):
    spec, scene = random_case(seed, length, range_tag, ALL_KINDS)
    left, right = (f.entries for f in compose_chain(spec))
    projection = left.conj().T @ left @ scene.values @ right.conj().T @ right
    result = reconstruct_chain(spec, acquire_ideal(spec, scene), range_tag=range_tag)
    assert result.image.range_tag is range_tag
    assert np.max(np.abs(result.image.values - np.real(projection))) < 1e-12


@cases
def test_bucket_files_round_trip_bitwise(tmp_path, seed, length, range_tag):
    spec, scene = random_case(seed, length, range_tag, ALL_KINDS)
    rng = np.random.default_rng(seed)
    written = BucketSignals(
        acquire_ideal(spec, scene).values,
        float(rng.uniform(0.0, 0.1)),
        int(rng.integers(1 << 63)),
        spec,
    )
    fileio.write_buckets(tmp_path / "buckets.csv", written)
    read = fileio.read_buckets(tmp_path / "buckets.csv")
    assert read.values.dtype == written.values.dtype
    assert read.values.tobytes() == written.values.tobytes()
    assert (read.noise_sigma, read.seed, read.spec) == (
        written.noise_sigma, written.seed, written.spec
    )
