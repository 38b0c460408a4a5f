"""Output checks of the benchmark.

Each check returns a list of problems; an empty list means the output
passed. The checks are statistical or exact identities of the forward
model, never golden values, so they keep holding when a change draws
different noise realisations for the same seed.
"""

import math

import numpy as np

# Absolute tolerance, scaled by max(1, max|reference|), for identities that
# hold exactly up to rounding.
EXACT_TOL = 1e-12
# Largest allowed max|F F^H - I| over the kept rows of a factor.
ORTHONORMAL_TOL = 1e-10
# Statistical checks accept an estimate within this many standard errors.
STANDARD_ERRORS = 5.0


def compose(factors, kept_rows: int) -> np.ndarray:
    """Effective factor of a chain: the reversed product, first kept rows.

    ``factors`` are the chain's square matrices in application order.
    """
    product = factors[0]
    for factor in factors[1:]:
        product = factor @ product
    return product[:kept_rows]


def orthonormality_defect(entries: np.ndarray) -> float:
    """max|F F^H - I| over the rows of F."""
    gram = entries @ entries.conj().T
    return float(np.max(np.abs(gram - np.eye(entries.shape[0]))))


def factor_problems(name: str, entries: np.ndarray) -> list[str]:
    defect = orthonormality_defect(entries)
    if not defect <= ORTHONORMAL_TOL:
        return [f"{name} factor orthonormality defect {defect:.3e} > {ORTHONORMAL_TOL}"]
    return []


def _close(what: str, actual: np.ndarray, expected: np.ndarray) -> list[str]:
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != expected {expected.shape}"]
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(actual - expected)))
    if not err <= EXACT_TOL * scale:
        return [f"{what}: max error {err:.3e} > {EXACT_TOL * scale:.3e}"]
    return []


def bucket_problems(
    buckets: np.ndarray,
    scene: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    sigma: float,
    signed: bool,
) -> list[str]:
    """Buckets against the forward model Y = L X R^H.

    At sigma = 0 the buckets must equal L X R^H. At sigma > 0 the
    normalised residual (Y - L X R^T) / (sigma a_m b_n), with
    a_m = max|L_m| and b_n = max|R_n|, must have mean 0 and standard
    deviation sqrt(2) for reflectance scenes (two projections per bucket)
    or 2 for signed scenes (four projections), each within
    STANDARD_ERRORS standard errors.
    """
    clean = left @ scene @ right.conj().T
    if buckets.shape != clean.shape:
        return [f"buckets: shape {buckets.shape} != expected {clean.shape}"]
    if sigma == 0.0:
        return _close("noiseless buckets vs L X R^H", buckets, clean)
    scale = sigma * np.outer(np.max(np.abs(left), axis=1), np.max(np.abs(right), axis=1))
    z = ((buckets - clean) / scale).ravel()
    expected_std = 2.0 if signed else math.sqrt(2.0)
    count = z.size
    problems = []
    mean_limit = STANDARD_ERRORS * expected_std / math.sqrt(count)
    mean = float(np.mean(z))
    if not abs(mean) <= mean_limit:
        problems.append(
            f"normalised residual mean {mean:.4f} outside +-{mean_limit:.4f}"
        )
    std_limit = STANDARD_ERRORS * expected_std / math.sqrt(2.0 * count)
    std = float(np.std(z))
    if not abs(std - expected_std) <= std_limit:
        problems.append(
            f"normalised residual std {std:.4f} not within {std_limit:.4f} "
            f"of {expected_std:.4f}"
        )
    return problems


def reconstruction_problems(
    recon: np.ndarray,
    buckets: np.ndarray,
    scene: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    sigma: float,
) -> list[str]:
    """Reconstruction against the inverse model.

    At sigma = 0 it must equal the orthogonal projection
    L_t^H L_t X R_t^H R_t of the scene (the scene itself at full
    sampling); at sigma > 0 it must equal L_t^H Y R_t of its own buckets.
    Complex results are compared by their real part, as the program
    stores them.
    """
    if sigma == 0.0:
        expected = left.conj().T @ (left @ scene @ right.conj().T) @ right
        what = "noiseless reconstruction vs orthogonal projection"
    else:
        expected = left.conj().T @ buckets @ right
        what = "reconstruction vs L^H Y R"
    return _close(what, recon, np.real(expected))


def identical_problems(what: str, actual: np.ndarray, expected: np.ndarray) -> list[str]:
    """Bitwise equality, dtype included (file round trips, reruns)."""
    if actual.dtype != expected.dtype or actual.shape != expected.shape:
        return [
            f"{what}: {actual.dtype}{actual.shape} != {expected.dtype}{expected.shape}"
        ]
    if actual.tobytes() != expected.tobytes():
        count = int(np.count_nonzero(actual != expected))
        return [f"{what}: {count} values differ"]
    return []


def report_problems(run_report: dict, metrics_report: dict) -> list[str]:
    """The ``metrics`` command must score exactly what ``run`` scored."""
    return [
        f"report field {key!r}: run {run_report.get(key)!r} != metrics {metrics_report.get(key)!r}"
        for key in ("set", "sampling_rate", "quality")
        if run_report.get(key) != metrics_report.get(key)
    ]


def sweep_row_problems(row: dict, report) -> list[str]:
    """One sweep table row against the in-memory quality report."""
    if row.get("status") != "ok":
        return [f"sweep row {row.get('index')}: status {row.get('status')!r} {row.get('message', '')}"]
    expected = {
        "psnr_db": f"{report.psnr_db:.6g}",
        "ssim": f"{report.ssim:.6g}",
        "mse": f"{report.mse:.6g}",
        "significant_count": str(report.significant_count),
    }
    return [
        f"sweep row {row.get('index')} {key}: table {row.get(key)!r} != run {value!r}"
        for key, value in expected.items()
        if row.get(key) != value
    ]
