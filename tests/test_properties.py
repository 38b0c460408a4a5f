"""Property tests over random small specs, checked against the dense oracle.

Each case draws a hybrid spec from a seeded generator: random kinds per
chain entry, chain lengths 1-3, a random truncation of the outermost
factor, and a random scene in the declared range. The metrics are checked
against direct per-window and per-entry oracles over random images, and
the noise draws against Box-Muller spelt out over a fresh Philox generator
per draw. The physical acquisition is checked bitwise against its closed
form spelt out, forward(L, R, X) plus each bucket's scale times its signed
draws from one fresh Philox stream, and to 1e-12 against the per-pattern
loop that splits every pattern into its halves, spelt out and through the
public per-bucket helpers.
"""

import re
import sys
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hybridgi import (
    BucketSignals,
    ParameterError,
    PatternRangeError,
    ShapeError,
    UnsupportedPatternError,
    ChainEntry,
    HybridSpec,
    NoiseModel,
    RangeTag,
    SceneImage,
    acquire,
    acquire_ideal,
    combined_noise,
    compose_chain,
    count_significant,
    fileio,
    kron,
    measure_bucket,
    noise_free,
    normalize_pattern,
    pattern,
    quality_report,
    reconstruct_1d,
    reconstruct_2d,
    reconstruct_chain,
    ssim,
    vec_rows,
)
from hybridgi.measurement import forward, resolve_kept_rows
from hybridgi.simulator import _noise_blocks


def _noise_block(sigma: float, seed: int, start: int, count: int) -> np.ndarray:
    """Noise draws ``start`` .. ``start + count - 1`` of ``seed``: one block."""
    return next(_noise_blocks(sigma, seed, start, count))


def _noise_draw(sigma: float, seed: int, index: int) -> float:
    """Noise draw ``index`` of ``seed``: the one draw of a one-draw block."""
    return float(_noise_block(sigma, seed, index, 1)[0])


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


kind_pairs = pytest.mark.parametrize(
    "left_kind, right_kind", [(l, r) for l in ALL_KINDS for r in ALL_KINDS]
)


def pair_case(left_kind, right_kind, left_kept=None, right_kept=None):
    """An 8x4 spec of one factor per side, its factors, and a reflectance scene."""
    spec = HybridSpec.pair(left_kind, 8, right_kind, 4, left_kept, right_kept)
    rng = np.random.default_rng([ALL_KINDS.index(left_kind), ALL_KINDS.index(right_kind)])
    return spec, compose_chain(spec), SceneImage(rng.uniform(0.0, 1.0, (8, 4)),
                                                 RangeTag.REFLECTANCE)


@kind_pairs
def test_kron_equals_forward(left_kind, right_kind):
    spec, (left, right), scene = pair_case(left_kind, right_kind, 5, 3)
    y = forward(left, right, scene.values)
    assert np.max(np.abs(acquire_ideal(spec, scene).values - y)) < 1e-12
    assert np.max(np.abs(kron(left, right).entries @ vec_rows(scene) - vec_rows(y))) < 1e-12


@kind_pairs
def test_pattern_dot_scene_equals_forward(left_kind, right_kind):
    _, (left, right), scene = pair_case(left_kind, right_kind, 5, 3)
    y = forward(left, right, scene.values)
    for m in range(5):
        for n in range(3):
            assert abs(np.sum(pattern(left, right, m, n) * scene.values) - y[m, n]) < 1e-12


@kind_pairs
def test_reconstruct_1d_inverts_acquire_ideal(left_kind, right_kind):
    spec, (left, right), scene = pair_case(left_kind, right_kind)
    y = vec_rows(acquire_ideal(spec, scene).values)
    recovered = reconstruct_1d(kron(left, right), y)
    assert np.max(np.abs(recovered - vec_rows(scene))) < 1e-10


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dft_side", ["left", "right"])
@pytest.mark.parametrize("truncated", [False, True], ids=["full", "truncated"])
@pytest.mark.parametrize("buckets", ["real", "complex"])
def test_real_by_dft_products_equal_the_dense_model(seed, dft_side, truncated, buckets):
    # A real factor by a dft runs forward and inverse in real arithmetic:
    # the dense kron(L, conj(R)) and the complex real(L^H Y R) are the oracles.
    rng = np.random.default_rng([seed, ("left", "right").index(dft_side), truncated])
    real_kind = REAL_KINDS[rng.integers(len(REAL_KINDS))]
    height, width = (int(ORDERS[i]) for i in rng.integers(len(ORDERS), size=2))
    kinds = ("dft", real_kind) if dft_side == "left" else (real_kind, "dft")
    kept = [int(rng.integers(1, order + 1)) if truncated else order
            for order in (height, width)]
    left, right = compose_chain(HybridSpec.pair(kinds[0], height, kinds[1], width, *kept))
    x = rng.uniform(-1.0, 1.0, (height, width))
    dense = np.kron(left.entries, right.entries.conj()) @ vec_rows(x)
    assert np.max(np.abs(vec_rows(forward(left, right, x)) - dense)) < 1e-12
    y = rng.normal(size=(left.kept_rows, right.kept_rows))
    if buckets == "complex":
        y = y + 1j * rng.normal(size=y.shape)
    image = reconstruct_2d(left, right, y).image.values
    assert np.max(np.abs(image - np.real(left.entries.conj().T @ y @ right.entries))) < 1e-12


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


def oracle_draw(sigma: float, seed: int, index: int) -> float:
    """The reference noise draw, spelt out from a new Philox generator per draw.

    Draw k is sigma * sqrt(-2 log1p(-u1)) * cos(2 pi u2) (Box-Muller), where
    u1, u2 are words 2k and 2k + 1 of the Philox(key=seed) stream as 53-bit
    fractions. Those two words lie in the 4-word block that a generator set
    to counter k // 2 yields first.
    """
    words = np.random.Philox(key=seed, counter=[index // 2, 0, 0, 0]).random_raw(4)
    first = 2 * (index % 2)
    u1, u2 = ((int(word) >> 11) * 2.0**-53 for word in words[first : first + 2])
    return float(sigma * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2))


def random_draws(count: int) -> list[tuple[float, int, int]]:
    """(sigma, seed, index) triples: edge seeds and indices, then random ones.

    A measurement index is below 4 * 4096**2; the edges reach 2**64 - 1.
    """
    rng = np.random.default_rng(7)
    edges = [
        (1.0, seed, index)
        for seed in (0, 1, 1 << 63, (1 << 64) - 1)
        for index in (0, 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 7, (1 << 63) - 1,
                      (1 << 64) - 2, (1 << 64) - 1)
    ]
    return edges + [
        (
            float(rng.choice([1e-3, 0.05, 1.0, 7.5])),
            int(rng.integers(1 << 64, dtype=np.uint64)),
            int(rng.integers(1 << int(rng.choice([8, 33, 63])))),
        )
        for _ in range(count)
    ]


def test_noise_draw_equals_fresh_generator_oracle():
    draws = random_draws(2000)
    assert [_noise_draw(*d) for d in draws] == [oracle_draw(*d) for d in draws]


def in_eight_threads(call, calls: list[tuple]) -> list:
    """[call(*args) for args in calls], from 8 threads that switch often."""
    got = [None] * len(calls)
    start = threading.Barrier(8)

    def worker(first: int) -> None:
        start.wait()
        for i in range(first, len(calls), 8):
            got[i] = call(*calls[i])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return got


def test_noise_draw_equals_oracle_from_eight_threads():
    draws = random_draws(4000)
    assert in_eight_threads(_noise_draw, draws) == [oracle_draw(*d) for d in draws]


NOISE_SEEDS = (0, 1, 1 << 63, (1 << 64) - 1)
LAST_ROW = 4 * 4096**2 - 4 * 4096  # first projection of a 4096-order signed scan's last row


@pytest.mark.parametrize("seed", NOISE_SEEDS)
@pytest.mark.parametrize(
    "start, count",
    [
        (0, 1), (1, 1), (0, 2), (1, 2), (2, 2),  # within one 4-word Philox block
        (1, 4), (2, 7), (3, 9), (6, 31),  # across Philox blocks, odd and even start
        (0, 3), (1, 3), (5, 7),  # odd counts, so the next block starts at the other parity
        (4 * 64 - 5, 10), (2 * 64 - 3, 2 * 64 + 6),  # across a 64-column left row
        (LAST_ROW - 3, 4 * 4096 + 3),  # up to the last index at the 4096 order cap
        (4 * 4096**2 - 1, 1), (4 * 4096**2 - 2, 2), (4 * 4096**2 - 7, 7),
    ],
)
def test_noise_block_equals_its_draws(seed, start, count):
    # Every block is its one-draw blocks, so draw k is the same whichever block
    # yields it, and block i of one stream is the block at start + i * count.
    block = _noise_block(0.05, seed, start, count)
    assert block.dtype == np.float64 and block.shape == (count,)
    assert block.tolist() == [_noise_draw(0.05, seed, start + i) for i in range(count)]
    stream = _noise_blocks(0.05, seed, start, count)
    for i in range(4):
        want = _noise_block(0.05, seed, start + i * count, count)
        assert next(stream).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", NOISE_SEEDS)
@pytest.mark.parametrize("block", [0, 3, 1 << 40])
def test_noise_block_reads_the_philox_stream_in_order(seed, block):
    # Draws 2 * block + {0, 1, ...} take consecutive word pairs of the
    # stream from Philox block ``block`` on; 2 * block + 1 skips one pair.
    words = np.random.Philox(key=seed, counter=[block, 0, 0, 0]).random_raw(2 * 1001)
    u = (words >> 11) * 2.0**-53
    u1, u2 = u[0::2].copy(), u[1::2].copy()
    want = 0.05 * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    assert _noise_block(0.05, seed, 2 * block, 1001).tobytes() == want.tobytes()
    assert _noise_block(0.05, seed, 2 * block + 1, 1000).tobytes() == want[1:].tobytes()


def test_noise_block_equals_its_draws_from_eight_threads():
    rng = np.random.default_rng(9)
    blocks = [
        (
            float(rng.choice([1e-3, 0.05, 1.0])),
            int(rng.integers(1 << 64, dtype=np.uint64)),
            int(rng.integers(4 * 4096**2 - 300)),
            int(rng.integers(1, 300)),
        )
        for _ in range(200)
    ]
    want = [[_noise_draw(s, seed, k + i) for i in range(n)] for s, seed, k, n in blocks]
    got = in_eight_threads(lambda *b: _noise_block(*b).tolist(), blocks)
    assert got == want


def scene_halves(scene) -> tuple:
    x = scene.values
    if scene.range_tag is RangeTag.SIGNED:
        return ((1.0 + x) / 2.0, (1.0 - x) / 2.0)
    return (x,)


def combine(terms: list) -> float:
    """A bucket from its projections in draw order: (+,+) - (+,-) - (-,+) + (-,-), or (+) - (-)."""
    if len(terms) == 4:
        return terms[0] - terms[1] - terms[2] + terms[3]
    return terms[0] - terms[1]


def oracle_stream(sigma: float, seed: int, count: int) -> np.ndarray:
    """Draws 0 .. count - 1 of ``seed``, spelt out from one fresh Philox stream."""
    words = np.random.Philox(key=seed).random_raw(2 * count)
    u1, u2 = ((words[k::2] >> 11) * 2.0**-53 for k in (0, 1))
    return sigma * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def oracle_acquire(spec, scene, sigma: float, seed: int) -> np.ndarray:
    """The closed form: L X R^T + (a b^T) * the signed sum of each bucket's draws.

    a and b are the factors' row max-abs, so a_m * b_n is pattern (m, n)'s
    scale; projection j of bucket (m, n) takes draw per * (m * rows_R + n) + j.
    """
    left, right = compose_chain(spec)
    y = forward(left, right, scene.values)
    if sigma == 0.0:
        return y
    per = 2 * len(scene_halves(scene))
    draws = oracle_stream(sigma, seed, per * y.size).reshape(*y.shape, per)
    a, b = (np.abs(f.entries).max(axis=1) for f in (left, right))
    return y + np.outer(a, b) * combine([draws[..., j] for j in range(per)])


def split_oracle_acquire(spec, scene, sigma: float, seed: int) -> np.ndarray:
    """The acquisition loop with each pattern explicitly split into its halves."""
    left, right = compose_chain(spec)
    halves = scene_halves(scene)
    buckets = np.empty((left.kept_rows, right.kept_rows))
    for m in range(left.kept_rows):
        for n in range(right.kept_rows):
            raw = pattern(left, right, m, n)
            scale = float(np.max(np.abs(raw)))
            scaled = raw / scale
            plus, minus = (1.0 + scaled) / 2.0, (1.0 - scaled) / 2.0
            pairs = [(p, h) for p in (plus, minus) for h in halves]
            base = len(pairs) * (m * right.kept_rows + n)
            terms = [
                float(np.sum(p * h)) + oracle_draw(sigma, seed, base + k)
                for k, (p, h) in enumerate(pairs)
            ]
            buckets[m, n] = scale * combine(terms)
    return buckets


def public_acquire(spec, scene, noise) -> np.ndarray:
    """The acquisition loop through normalize_pattern and measure_bucket."""
    left, right = compose_chain(spec)
    buckets = np.empty((left.kept_rows, right.kept_rows))
    for m in range(left.kept_rows):
        for n in range(right.kept_rows):
            scaled, scale = normalize_pattern(pattern(left, right, m, n))
            index = m * right.kept_rows + n
            buckets[m, n] = scale * measure_bucket(scaled, scene, noise, base_index=index)
    return buckets


@cases
def test_noisy_acquire_equals_oracle_loop(seed, length, range_tag):
    spec, scene = random_case(seed, length, range_tag, REAL_KINDS)
    noise_seed = (1 << 64) - 1 - seed
    got = acquire(spec, scene, NoiseModel(0.05, noise_seed)).values
    assert got.tobytes() == oracle_acquire(spec, scene, 0.05, noise_seed).tobytes()


@cases
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_acquire_equals_split_loop_to_rounding(seed, length, range_tag, sigma):
    spec, scene = random_case(seed, length, range_tag, REAL_KINDS)
    noise_seed = (1 << 64) - 1 - seed
    got = acquire(spec, scene, NoiseModel(sigma, noise_seed)).values
    assert np.max(np.abs(got - split_oracle_acquire(spec, scene, sigma, noise_seed))) <= 1e-12


@cases
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_acquire_equals_public_bucket_loop_to_rounding(seed, length, range_tag, sigma):
    spec, scene = random_case(seed, length, range_tag, REAL_KINDS)
    noise = NoiseModel(sigma, seed + 17)
    got = acquire(spec, scene, noise).values
    assert np.max(np.abs(got - public_acquire(spec, scene, noise))) <= 1e-12


def large_case(height: int, width: int, range_tag: RangeTag):
    """A spec of multi-factor truncated chains on a height x width scene.

    At 256 pixels and more a pattern's sums run through numpy's blocked
    pairwise summation (128-element blocks), which the order-8 cases
    never reach.
    """
    spec = HybridSpec(
        (ChainEntry("hadamard", height), ChainEntry("dct", height),
         ChainEntry("haar", height, height * 5 // 8)),
        (ChainEntry("dct", width), ChainEntry("haar", width, width * 3 // 4)),
    )
    rng = np.random.default_rng([height, width, list(RangeTag).index(range_tag)])
    lo, hi = range_tag.bounds
    return spec, SceneImage(rng.uniform(lo, hi, (height, width)), range_tag)


large_cases = pytest.mark.parametrize(
    "height, width, range_tag, sigma",
    [(h, w, r, s) for h, w in [(16, 16), (32, 64), (64, 64)] for r in RangeTag
     for s in (0.0, 0.05)],
)


@large_cases
def test_large_acquire_equals_oracle_loop(height, width, range_tag, sigma):
    spec, scene = large_case(height, width, range_tag)
    noise_seed = height * width + 11
    got = acquire(spec, scene, NoiseModel(sigma, noise_seed)).values
    assert got.tobytes() == oracle_acquire(spec, scene, sigma, noise_seed).tobytes()


@large_cases
def test_large_acquire_equals_split_loop_to_rounding(height, width, range_tag, sigma):
    spec, scene = large_case(height, width, range_tag)
    noise_seed = height * width + 11
    got = acquire(spec, scene, NoiseModel(sigma, noise_seed)).values
    assert np.max(np.abs(got - split_oracle_acquire(spec, scene, sigma, noise_seed))) <= 1e-12


@pytest.mark.parametrize("left_kept, right_kept", [(1, 16), (8, 1), (1, 1)])
@pytest.mark.parametrize("range_tag", list(RangeTag))
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_single_row_and_column_acquire_equals_oracle_loop(left_kept, right_kept, range_tag,
                                                          sigma):
    # One kept row or column: a noise block holds the one row of buckets, or
    # rows one bucket wide and a last block cut short.
    spec = HybridSpec((ChainEntry("hadamard", 8), ChainEntry("dct", 8, left_kept)),
                      (ChainEntry("haar", 16, right_kept),))
    rng = np.random.default_rng([left_kept, right_kept, list(RangeTag).index(range_tag)])
    lo, hi = range_tag.bounds
    scene = SceneImage(rng.uniform(lo, hi, (8, 16)), range_tag)
    got = acquire(spec, scene, NoiseModel(sigma, 5)).values
    assert got.shape == (left_kept, right_kept)
    assert got.tobytes() == oracle_acquire(spec, scene, sigma, 5).tobytes()


def test_acquire_from_eight_threads_equals_serial_calls():
    # Acquisitions share no state, so concurrent calls give the serial bytes.
    calls = [
        (*random_case(seed, length, range_tag, REAL_KINDS), NoiseModel(sigma, noise_seed))
        for seed in SEEDS for length in (1, 3) for range_tag in RangeTag
        for sigma, noise_seed in [(0.05, seed), (0.01, (1 << 64) - 1 - seed), (0.0, 0)]
    ] + [
        (*large_case(32, 64, range_tag), NoiseModel(0.05, seed))
        for range_tag in RangeTag for seed in (3, 4)
    ]
    want = [acquire(*call).values.tobytes() for call in calls]
    assert in_eight_threads(lambda *call: acquire(*call).values.tobytes(), calls) == want


TABLE_SEEDS = (0, 1, (1 << 64) - 1)


def table_case(height: int, width: int, range_tag: RangeTag, kept: str):
    """A chain spec on a height x width scene, kept at full rate, at the sweep's
    sub-Nyquist rate, or at odd row counts that cut the last noise block short."""
    rows = {
        "full": (height, width),
        "sub-nyquist": (resolve_kept_rows(0.906, height), resolve_kept_rows(0.906, width)),
        "odd": (height - 3, width // 2 + 1),
    }[kept]
    spec = HybridSpec((ChainEntry("hadamard", height), ChainEntry("dct", height, rows[0])),
                      (ChainEntry("haar", width, rows[1]),))
    rng = np.random.default_rng([height, width, list(RangeTag).index(range_tag)])
    lo, hi = range_tag.bounds
    return spec, SceneImage(rng.uniform(lo, hi, (height, width)), range_tag)


@pytest.mark.parametrize("seed", TABLE_SEEDS)
@pytest.mark.parametrize("sigma", [1e-3, 0.05])
@pytest.mark.parametrize("kept", ["full", "sub-nyquist", "odd"])
@pytest.mark.parametrize("range_tag", list(RangeTag))
@pytest.mark.parametrize("height, width", [(16, 32), (64, 64)])
def test_acquire_with_combined_noise_equals_acquire_without(height, width, range_tag, kept,
                                                            sigma, seed):
    # The noise a sweep holds per (seed, sigma, kept rows), with and without the set's
    # noise-free terms, against a call that makes both, and all against the closed form.
    spec, scene = table_case(height, width, range_tag, kept)
    noise = NoiseModel(sigma, seed)
    want = acquire(spec, scene, noise).values.tobytes()
    assert want == oracle_acquire(spec, scene, sigma, seed).tobytes()
    combined = combined_noise(noise, range_tag.projections, spec.left_kept, spec.right_kept)
    clean = noise_free(*compose_chain(spec), scene.values)
    assert acquire(spec, scene, noise, None, combined).values.tobytes() == want
    assert acquire(spec, scene, noise, clean, combined).values.tobytes() == want
    assert acquire(spec, scene, noise, clean).values.tobytes() == want


@pytest.mark.parametrize("range_tag", list(RangeTag))
@pytest.mark.parametrize("seed", TABLE_SEEDS)
def test_combined_noise_signs_each_buckets_draws(seed, range_tag):
    # Bucket (m, n) of 37 x 19 takes draws per * (m * 19 + n) + j, j < per, over blocks
    # that end inside a row.
    per = range_tag.projections
    combined = combined_noise(NoiseModel(0.05, seed), per, 37, 19)
    assert combined.shape == (37, 19) and combined.nbytes == 8 * 37 * 19
    assert combined.dtype == np.float64 and not combined.flags.writeable
    draws = oracle_stream(0.05, seed, per * 37 * 19).reshape(37, 19, per)
    assert combined.tobytes() == combine([draws[..., j] for j in range(per)]).tobytes()


@pytest.mark.parametrize("range_tag", list(RangeTag))
def test_an_overflowing_sigma_fails_alike_with_and_without_combined_noise(range_tag):
    spec, scene = table_case(16, 32, range_tag, "odd")
    noise = NoiseModel(1e308, 2)
    with pytest.raises(ParameterError) as without:
        acquire(spec, scene, noise)
    combined = combined_noise(noise, range_tag.projections, spec.left_kept, spec.right_kept)
    with pytest.raises(ParameterError) as given:
        acquire(spec, scene, noise, None, combined)
    assert type(given.value) is type(without.value)
    message = "sigma 1e+308 is too large: the noisy projections overflow"
    assert str(given.value) == str(without.value) == message


@pytest.mark.parametrize("shape", [(12, 17), (13, 16), (17, 13), (13 * 17,), (1, 13, 17)],
                         ids=["rows", "columns", "transposed", "flat", "stacked"])
@pytest.mark.parametrize("range_tag", list(RangeTag))
def test_combined_noise_of_another_shape_is_rejected(range_tag, shape):
    spec, scene = table_case(16, 32, range_tag, "odd")  # 13 x 17 kept rows
    message = rf"^combined noise of shape {re.escape(str(shape))} vs buckets \(13, 17\)$"
    with pytest.raises(ShapeError, match=message):
        acquire(spec, scene, NoiseModel(0.05, 3), None, np.zeros(shape))


@kind_pairs
def test_pattern_is_the_outer_product_bitwise(left_kind, right_kind):
    _, (left, right), _ = pair_case(left_kind, right_kind, 5, 3)
    for m in range(5):
        for n in range(3):
            got = pattern(left, right, m, n)
            want = np.outer(left.entries[m], right.entries[n].conj())
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (m, n)


def assert_pattern_peaks_are_row_peak_products(left, right):
    rows_l = np.abs(left.entries).max(axis=1)
    rows_r = np.abs(right.entries).max(axis=1)
    for m in range(left.kept_rows):
        for n in range(right.kept_rows):
            peak = float(np.abs(pattern(left, right, m, n)).max())
            assert peak == float(rows_l[m] * rows_r[n]), (m, n)


@pytest.mark.parametrize(
    "left_kind, right_kind", [(l, r) for l in REAL_KINDS for r in REAL_KINDS]
)
def test_pattern_peak_is_product_of_row_peaks(left_kind, right_kind):
    assert_pattern_peaks_are_row_peak_products(*pair_case(left_kind, right_kind)[1])


@cases
def test_chain_pattern_peak_is_product_of_row_peaks(seed, length, range_tag):
    spec, _ = random_case(seed, length, range_tag, REAL_KINDS)
    assert_pattern_peaks_are_row_peak_products(*compose_chain(spec))


def test_large_chain_pattern_peak_is_product_of_row_peaks():
    spec, _ = large_case(32, 64, RangeTag.SIGNED)
    assert_pattern_peaks_are_row_peak_products(*compose_chain(spec))


def reflectance(values) -> SceneImage:
    return SceneImage(np.asarray(values, dtype=np.float64), RangeTag.REFLECTANCE)


@pytest.mark.parametrize(
    "spec, scene, error, message",
    [
        (HybridSpec.pair("dft", 4, "dct", 2), reflectance(np.full((4, 2), 0.5)),
         UnsupportedPatternError, "complex transform factors cannot be physically projected"),
        (HybridSpec.pair("dct", 4, "dft", 2), reflectance(np.full((4, 2), 0.5)),
         UnsupportedPatternError, "complex transform factors cannot be physically projected"),
        (HybridSpec.pair("dct", 2, "haar", 2), reflectance([[0.5, np.nan], [0.0, 1.0]]),
         PatternRangeError,
         "scene values [nan, nan] lie outside the declared reflectance range [0.0, 1.0]"),
        (HybridSpec.pair("dct", 2, "haar", 2), reflectance([[0.5, 1.5], [0.25, 1.0]]),
         PatternRangeError,
         "scene values [0.25, 1.5] lie outside the declared reflectance range [0.0, 1.0]"),
        (HybridSpec.pair("dct", 2, "haar", 2),
         SceneImage(np.array([[-2.0, 0.0], [0.5, 1.0]]), RangeTag.SIGNED),
         PatternRangeError,
         "scene values [-2, 1] lie outside the declared signed range [-1.0, 1.0]"),
        (HybridSpec.pair("dct", 4, "haar", 2), reflectance(np.full((2, 4), 0.5)),
         ShapeError, "spec orders 4x2 do not match scene 2x4"),
    ],
    ids=["complex-left", "complex-right", "nan-scene", "out-of-range",
         "out-of-signed-range", "shape-mismatch"],
)
def test_acquire_error_contract(spec, scene, error, message):
    for sigma in (0.0, 0.05):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            acquire(spec, scene, NoiseModel(sigma, 3))


def oracle_ssim(a, b, peak, roi=None):
    """SSIM from explicit 8x8 window views: deviations from each window's mean."""
    if roi is not None:
        top, left, height, width = roi
        a = a[top : top + height, left : left + width]
        b = b[top : top + height, left : left + width]
    win_a = sliding_window_view(a, (8, 8))
    win_b = sliding_window_view(b, (8, 8))
    mu_a = win_a.mean(axis=(-2, -1))
    mu_b = win_b.mean(axis=(-2, -1))
    dev_a = win_a - mu_a[..., None, None]
    dev_b = win_b - mu_b[..., None, None]
    var_a = np.sum(dev_a**2, axis=(-2, -1)) / 63
    var_b = np.sum(dev_b**2, axis=(-2, -1)) / 63
    cov = np.sum(dev_a * dev_b, axis=(-2, -1)) / 63
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    per_window = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(per_window.mean())


def random_images(rng, texture: str, peak: float):
    """A reference and a test image of a random non-square shape from 8 to 70."""
    height, width = (int(n) for n in rng.integers(8, 71, size=2))
    lo = 0.0 if peak == 1.0 else -1.0
    base = rng.uniform(lo, lo + peak)
    if texture == "constant":
        return np.full((height, width), base), np.full((height, width), rng.uniform(lo, lo + peak))
    scale = 1e-9 if texture == "near-constant" else 0.2 * peak
    reference = base + scale * rng.normal(size=(height, width))
    return reference, reference + scale * rng.normal(size=(height, width))


def random_roi(rng, shape):
    height, width = (int(rng.integers(8, n + 1)) for n in shape)
    return (int(rng.integers(shape[0] - height + 1)), int(rng.integers(shape[1] - width + 1)),
            height, width)


@pytest.mark.parametrize("texture", ["constant", "near-constant", "noisy"])
@pytest.mark.parametrize("peak", [1.0, 2.0])
@pytest.mark.parametrize("with_roi", [False, True])
def test_ssim_equals_window_oracle(texture, peak, with_roi):
    rng = np.random.default_rng(["constant", "near-constant", "noisy"].index(texture))
    for _ in range(8):
        reference, test = random_images(rng, texture, peak)
        roi = random_roi(rng, reference.shape) if with_roi else None
        expected = oracle_ssim(reference, test, peak, roi)
        assert abs(ssim(reference, test, peak, roi) - expected) <= 1e-12


def oracle_positions(y, rel_tol):
    """Entries above rel_tol times the max, by descending magnitude, ties in row-major order."""
    magnitudes = np.abs(y)
    peak = magnitudes.max()
    entries = [
        (-magnitudes[i, j], i, j)
        for i in range(y.shape[0]) for j in range(y.shape[1])
        if peak > 0 and magnitudes[i, j] > rel_tol * peak
    ]
    return [(i, j) for _, i, j in sorted(entries)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_significant_count_equals_positions_oracle(seed, dtype):
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 12, size=2))
    # Few distinct magnitudes, signs and phases, so ties are common.
    y = rng.integers(-3, 4, size=shape) * rng.choice([1.0, 1e-7], size=shape)
    if dtype is np.complex128:
        y = y * np.exp(1j * np.pi / 2 * rng.integers(4, size=shape))
    rel_tol = float(rng.choice([1e-6, 0.1, 0.5]))
    count, positions = count_significant(y, rel_tol)
    assert positions == oracle_positions(y, rel_tol)
    assert all(type(i) is int and type(j) is int for i, j in positions)
    scene = np.zeros((8, 8))
    report = quality_report(scene, scene, peak=1.0, buckets=y, rel_tol=rel_tol)
    assert report.significant_count == count == len(positions)
