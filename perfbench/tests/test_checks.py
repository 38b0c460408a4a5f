"""Each output check accepts a correct result and rejects a corrupted one."""

import numpy as np
import pytest

import checks
from hybridgi import HybridSpec, NoiseModel, acquire, fileio, reconstruct_chain, windmill
from hybridgi.measurement import compose_chain
from hybridgi.scenes import StripeSpec, staggered_stripes
from workloads import IdealRoundtrip512, SweepSixSets


def _case(scene, sigma, left_kept=7, right_kept=14):
    spec = HybridSpec.pair("hadamard", scene.height, "dct", scene.width, left_kept, right_kept)
    left, right = (f.entries for f in compose_chain(spec))
    buckets = acquire(spec, scene, NoiseModel(sigma, 11))
    recon = reconstruct_chain(spec, buckets, range_tag=scene.range_tag).image.values
    return scene.values, left, right, buckets, recon


@pytest.fixture(scope="module")
def reflectance():
    return _case(windmill(16, 32, 4), 0.01, 14, 29)


@pytest.fixture(scope="module")
def signed():
    stripes = staggered_stripes(StripeSpec(16, 16, 8, "vertical", 3, 2))
    return _case(stripes, 0.05, 12, 12)


def test_orthonormal_factor_passes_and_scaled_factor_fails(reflectance):
    _, left, _, _, _ = reflectance
    assert checks.factor_problems("left", left) == []
    assert checks.factor_problems("left", 1.001 * left)


def test_noiseless_buckets_pass_and_perturbed_buckets_fail():
    x, left, right, buckets, _ = _case(windmill(8, 16, 3), 0.0)
    assert checks.bucket_problems(buckets.values, x, left, right, 0.0, False) == []
    perturbed = buckets.values.copy()
    perturbed[2, 3] += 1e-9
    assert checks.bucket_problems(perturbed, x, left, right, 0.0, False)


@pytest.mark.parametrize("case", ["reflectance", "signed"])
def test_noisy_buckets_pass_and_stripped_noise_fails(case, request):
    x, left, right, buckets, _ = request.getfixturevalue(case)
    sigma, is_signed = (0.05, True) if case == "signed" else (0.01, False)
    assert checks.bucket_problems(buckets.values, x, left, right, sigma, is_signed) == []
    clean = left @ x @ right.T
    assert checks.bucket_problems(clean, x, left, right, sigma, is_signed)
    # Reflectance noise claimed for a signed scene is too small by sqrt(2).
    if is_signed:
        assert checks.bucket_problems(buckets.values, x, left, right, sigma, False)


def test_dropped_bucket_row_fails(reflectance):
    x, left, right, buckets, _ = reflectance
    assert checks.bucket_problems(buckets.values[:-1], x, left, right, 0.01, False)


def test_reconstruction_check(reflectance):
    x, left, right, buckets, recon = reflectance
    assert checks.reconstruction_problems(recon, buckets.values, x, left, right, 0.01) == []
    assert checks.reconstruction_problems(x, buckets.values, x, left, right, 0.01)
    noiseless = left.T @ (left @ x @ right.T) @ right
    assert checks.reconstruction_problems(noiseless, left @ x @ right.T, x, left, right, 0.0) == []
    # Sub-Nyquist recovery is the projection, not the scene.
    assert checks.reconstruction_problems(x, left @ x @ right.T, x, left, right, 0.0)


def test_csv_round_trip_rejects_a_perturbed_value(reflectance, tmp_path):
    _, _, _, buckets, _ = reflectance
    path = tmp_path / "buckets.csv"
    fileio.write_buckets(path, buckets)
    assert checks.identical_problems("buckets", fileio.read_csv_matrix(path), buckets.values) == []
    lines = path.read_text().splitlines()
    first, rest = lines[0].split(",", 1)
    lines[0] = f"{float(first) * (1 + 2e-16)!r},{rest}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.identical_problems("buckets", fileio.read_csv_matrix(path), buckets.values)


def test_roundtrip_problems_counts_reads(tmp_path):
    buckets, recon = np.arange(6.0).reshape(2, 3), np.ones((4, 4))
    bucket_path, recon_path = tmp_path / "b.csv", tmp_path / "r.csv"
    reads = {str(bucket_path): [buckets.copy(), buckets.copy()], str(recon_path): [recon.copy()]}
    assert IdealRoundtrip512.roundtrip_problems(reads, bucket_path, buckets, recon_path, recon) == []
    reads[str(bucket_path)].pop()
    assert IdealRoundtrip512.roundtrip_problems(reads, bucket_path, buckets, recon_path, recon)
    reads[str(bucket_path)].append(buckets + 1e-300)
    assert IdealRoundtrip512.roundtrip_problems(reads, bucket_path, buckets, recon_path, recon)


def test_report_check():
    report = {"set": "had8-dct8", "sampling_rate": 0.75, "quality": {"ssim": 0.5}}
    assert checks.report_problems(report, dict(report)) == []
    assert checks.report_problems(report, dict(report, quality={"ssim": 0.51}))


def test_sweep_row_check():
    class Report:
        psnr_db, ssim, mse, significant_count = 31.25, 0.875, 0.001, 12

    row = {"index": "0", "status": "ok", "psnr_db": "31.25", "ssim": "0.875",
           "mse": "0.001", "significant_count": "12"}
    assert checks.sweep_row_problems(row, Report) == []
    assert checks.sweep_row_problems(dict(row, status="error"), Report)
    assert checks.sweep_row_problems(dict(row, ssim="0.876"), Report)


def test_rerun_check_rejects_changed_output(tmp_path):
    workload = SweepSixSets(tmp_path, seed=1, tiny=True)
    assert workload._rerun_problems("buckets", "abc") == []
    assert workload._rerun_problems("buckets", "abc") == []
    assert workload._rerun_problems("buckets", "abd")


def test_seed_fixes_the_generated_inputs(tmp_path):
    configs = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        workload = SweepSixSets(tmp_path / sub, seed=seed)
        workload.work_dir.mkdir()
        workload.prepare()
        configs.append(((tmp_path / sub / "sweep.json").read_text(), workload.noise_seed))
    assert configs[0] == configs[1]
    assert configs[0] != configs[2]
