"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from hybridgi import (
    ChainEntry,
    HybridSpec,
    NoiseModel,
    RangeTag,
    SceneImage,
    acquire,
    build_transform,
    compose_chain,
    count_significant,
    footprint_report,
    kron,
    measure_bucket,
    pattern,
    psnr,
    reconstruct_2d,
    reconstruct_chain,
    separable_object,
    single_peak_stripe_search,
    staggered_stripes,
    unvec,
    vec_rows,
    windmill,
)
from hybridgi.cli import main
from hybridgi.transforms import orthonormality_defect

KINDS = ("hadamard", "dct", "haar")
ORDERED_PAIRS = [(l, r) for l in KINDS for r in KINDS]
SIX_SETS = [(l, r) for l in KINDS for r in KINDS if l != r]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:2d}: {label}")
        raise
    print(f"[PASS] criterion {number:2d}: {label}")


def test_criterion_01_orthonormality_suite():
    with criterion(1, "orthonormality of the four transform families"):
        start = time.perf_counter()
        for n in range(1, 8):
            assert orthonormality_defect(build_transform("hadamard", 2**n)) < 1e-10
            assert orthonormality_defect(build_transform("haar", 2**n)) < 1e-10
        for order in range(1, 65):
            assert orthonormality_defect(build_transform("dct", order)) < 1e-10
            assert orthonormality_defect(build_transform("dft", order)) < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_statement_one_equivalence():
    with criterion(2, "kron factorization equals the 2-D forward model"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for left_kind, right_kind in ORDERED_PAIRS:
            left = build_transform(left_kind, 8)
            right = build_transform(right_kind, 4)
            a = kron(left, right).entries
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, (8, 4))
                lhs = a @ vec_rows(x)
                rhs = vec_rows(left.entries @ x @ right.entries.T)
                assert np.max(np.abs(lhs - rhs)) < 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_statement_two_orthogonality():
    with criterion(3, "untruncated measurement matrices are orthonormal"):
        for left_kind, right_kind in ORDERED_PAIRS:
            a = kron(build_transform(left_kind, 8), build_transform(right_kind, 4))
            gram = a.entries @ a.entries.T
            assert np.max(np.abs(gram - np.eye(32))) < 1e-10


def test_criterion_04_pattern_equivalence():
    with criterion(4, "patterns equal reshaped measurement-matrix rows"):
        for left_kind, right_kind in ORDERED_PAIRS:
            left = build_transform(left_kind, 8)
            right = build_transform(right_kind, 4)
            a = kron(left, right).entries
            for m in range(8):
                for n in range(4):
                    expected = unvec(a[m * 4 + n], 8, 4)
                    assert np.array_equal(pattern(left, right, m, n), expected)


def test_criterion_05_splitting_exactness():
    with criterion(5, "split projections reproduce the signed dot product"):
        rng = np.random.default_rng(5)
        noise = NoiseModel(0.0, 0)
        for _ in range(1000):
            i = rng.uniform(-1.0, 1.0, (8, 8))
            x = rng.uniform(-1.0, 1.0, (8, 8))
            scene = SceneImage(x, RangeTag.SIGNED)  # four projections
            assert abs(measure_bucket(i, scene, noise) - np.sum(i * x)) < 1e-12
        for _ in range(1000):
            i = rng.uniform(-1.0, 1.0, (8, 8))
            x = rng.uniform(0.0, 1.0, (8, 8))
            scene = SceneImage(x, RangeTag.REFLECTANCE)  # two projections
            assert abs(measure_bucket(i, scene, noise) - np.sum(i * x)) < 1e-12


def test_criterion_06_perfect_reconstruction_six_sets():
    with criterion(6, "noiseless full-sampling recovery for all six sets"):
        start = time.perf_counter()
        scene = windmill(32, 64, 4)
        noise = NoiseModel(0.0, 0)
        for left_kind, right_kind in SIX_SETS:
            spec = HybridSpec.pair(left_kind, 32, right_kind, 64)
            buckets = acquire(spec, scene, noise)
            result = reconstruct_chain(spec, buckets, range_tag=RangeTag.REFLECTANCE)
            error = np.max(np.abs(result.image.values - scene.values))
            assert error < 1e-9, f"{spec.label}: {error:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_07_sub_nyquist_reproduction():
    with criterion(7, "rate 0.906 resolves to 29/58 and projects exactly"):
        scene = windmill(32, 64, 4)
        noise = NoiseModel(0.0, 0)
        for left_kind, right_kind in SIX_SETS:
            spec = HybridSpec.pair(
                left_kind, 32, right_kind, 64,
                left_kept=int(np.floor(0.906 * 32 + 0.5)),
                right_kept=int(np.floor(0.906 * 64 + 0.5)),
            )
            assert spec.left_kept == 29 and spec.right_kept == 58
            assert abs(spec.sampling_rate - 0.821) <= 0.001
            buckets = acquire(spec, scene, noise)
            left, right = compose_chain(spec)
            recovered = reconstruct_2d(
                left, right, buckets, range_tag=RangeTag.REFLECTANCE
            ).image.values
            projected = (
                left.entries.T
                @ left.entries
                @ scene.values
                @ right.entries.T
                @ right.entries
            )
            assert np.max(np.abs(recovered - projected)) < 1e-10, spec.label


def test_criterion_08_single_peak_compression():
    with criterion(8, "separable scenes and stripe sweep compress to one bucket"):
        noise = NoiseModel(0.0, 0)
        for left_kind, right_kind in ORDERED_PAIRS:
            spec = HybridSpec.pair(left_kind, 8, right_kind, 4)
            left, right = compose_chain(spec)
            for m in range(8):
                for n in range(4):
                    scene = separable_object(left, right, m, n)
                    buckets = acquire(spec, scene, noise)
                    count, positions = count_significant(buckets, 1e-6)
                    assert count == 1, (spec.label, m, n, count)
                    assert positions[0] == (m, n)

        target_sets = [("hadamard", "dct"), ("haar", "hadamard"), ("haar", "dct")]
        found = single_peak_stripe_search(32, 16, target_sets)
        assert found, "no 32x16 stripe config compresses all three sets"
        scene = staggered_stripes(found[0])
        for left_kind, right_kind in target_sets:
            spec = HybridSpec.pair(left_kind, 32, right_kind, 16)
            buckets = acquire(spec, scene, noise)
            count, _ = count_significant(buckets, 1e-6)
            assert count == 1, spec.label


def test_criterion_09_footprint_report():
    with criterion(9, "memory footprint for a 32x64 image"):
        report = footprint_report(32, 64)
        assert report.one_d_matrix_entries == 4_194_304
        assert report.two_d_left_entries == 4_096
        assert report.two_d_right_entries == 1_024


def test_criterion_10_chain_inversion():
    with criterion(10, "multi-factor chains invert exactly"):
        rng = np.random.default_rng(10)
        noise = NoiseModel(0.0, 0)
        two_by_two = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
        )
        padded = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("haar", 8),),
        )
        for spec in (two_by_two, padded):
            x = rng.uniform(-1.0, 1.0, (8, 8))
            buckets = acquire(spec, SceneImage(x, RangeTag.SIGNED), noise)
            result = reconstruct_chain(spec, buckets)
            assert np.max(np.abs(result.image.values - x)) < 1e-9


def test_criterion_11_noise_monotonicity():
    with criterion(11, "average psnr strictly decreases with sigma"):
        scene = windmill(16, 32, 4)
        sigmas = (0.001, 0.01, 0.1)
        seeds = range(10)
        for left_kind, right_kind in SIX_SETS:
            spec = HybridSpec.pair(left_kind, 16, right_kind, 32)
            averages = []
            for sigma in sigmas:
                values = []
                for seed in seeds:
                    buckets = acquire(spec, scene, NoiseModel(sigma, seed))
                    result = reconstruct_chain(
                        spec, buckets, range_tag=RangeTag.REFLECTANCE
                    )
                    values.append(psnr(scene.values, result.image.values, peak=1.0))
                averages.append(np.mean(values))
            assert averages[0] > averages[1] > averages[2], (spec.label, averages)


def test_criterion_12_determinism_byte_identical(tmp_path):
    with criterion(12, "same config and seed give byte-identical artifacts"):
        config = {
            "object": {
                "generator": "windmill", "height": 32, "width": 64, "blade_count": 4,
            },
            "hybrid": {
                "left": [{"kind": "hadamard", "order": 32, "sampling_rate": 0.906}],
                "right": [{"kind": "dct", "order": 64, "sampling_rate": 0.906}],
            },
            "noise": {"sigma": 0.01, "seed": 20240101},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            code = main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
            assert code == 0
        assert (out1 / "buckets.csv").read_bytes() == (out2 / "buckets.csv").read_bytes()
        assert (
            (out1 / "reconstruction.csv").read_bytes()
            == (out2 / "reconstruction.csv").read_bytes()
        )
