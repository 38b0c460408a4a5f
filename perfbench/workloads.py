"""The benchmark's workloads.

A workload turns the benchmark seed into config files, names the CLI
calls that make up one op, and checks what one op produced. The program
receives only the generated configs.
"""

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from hybridgi.transforms import build_transform

import checks

SWEEP_PAIRS = (
    ("hadamard", "dct"), ("hadamard", "haar"), ("dct", "hadamard"),
    ("dct", "haar"), ("haar", "hadamard"), ("haar", "dct"),
)
SWEEP_SIGMAS = (0.0, 0.01)
SWEEP_SUB_RATE = 0.906


def kept_rows(entry: dict) -> int:
    """Kept rows of a config chain entry, resolved as the config schema does."""
    if "sampling_rate" in entry:
        return int(math.floor(entry["sampling_rate"] * entry["order"] + 0.5))
    return entry.get("kept_rows", entry["order"])


class Workload:
    """One named workload: ``prepare`` once, then ``argvs`` per op, then ``check``."""

    name = ""
    why = ""

    def __init__(self, work_dir: Path, seed: int, tiny: bool = False):
        self.work_dir = Path(work_dir)
        self.out_dir = self.work_dir / "out"
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.noise_seed = self.rng.randrange(1, 1 << 31)
        self._factors = {}
        self._first = None

    def _write(self, filename: str, payload: dict) -> str:
        path = self.work_dir / filename
        path.write_text(json.dumps(payload, indent=1))
        return str(path)

    def prepare(self) -> None:
        raise NotImplementedError

    def argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, capture) -> tuple[int, list[str]]:
        """(experiments that passed, problems) for the op just run."""
        raise NotImplementedError

    def _factor(self, chain: list[dict]) -> np.ndarray:
        key = json.dumps(chain, sort_keys=True)
        if key not in self._factors:
            matrices = [build_transform(e["kind"], e["order"]).entries for e in chain]
            self._factors[key] = checks.compose(matrices, kept_rows(chain[-1]))
        return self._factors[key]

    def _experiment_problems(self, experiment, hybrid: dict, sigma: float) -> list[str]:
        scene, buckets, result, _ = experiment
        left, right = self._factor(hybrid["left"]), self._factor(hybrid["right"])
        problems = checks.factor_problems("left", left) + checks.factor_problems("right", right)
        x, y = scene.values, buckets.values
        problems += checks.bucket_problems(
            y, x, left, right, sigma, signed=scene.range_tag.value == "signed"
        )
        if not problems:
            problems += checks.reconstruction_problems(
                result.image.values, y, x, left, right, sigma
            )
        return problems

    def _rerun_problems(self, what: str, digest: str) -> list[str]:
        """A repeated seed must reproduce the first op's output byte for byte."""
        if self._first is None:
            self._first = digest
            return []
        return [] if digest == self._first else [f"{what} differ from the first op's"]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SweepSixSets(Workload):
    name = "sweep_six_sets"
    why = ("the paper's experiment: 12 hybrid sets x 2 sigmas at 32x64 through "
           "hybridgi sweep; acquisition loop bound, no artifact writes")
    experiments_per_op = len(SWEEP_PAIRS) * 2 * len(SWEEP_SIGMAS)

    def prepare(self) -> None:
        height, width = (8, 16) if self.tiny else (32, 64)
        self.hybrid_sets = []
        for rate in (None, SWEEP_SUB_RATE):
            for left, right in SWEEP_PAIRS:
                sides = [{"kind": left, "order": height}, {"kind": right, "order": width}]
                if rate is not None:
                    for side in sides:
                        side["sampling_rate"] = rate
                self.hybrid_sets.append({"left": [sides[0]], "right": [sides[1]]})
        config = {
            "base": {
                "object": {"generator": "windmill", "height": height, "width": width,
                           "blade_count": self.rng.randint(3, 8)},
                "hybrid": self.hybrid_sets[0],
                "noise": {"sigma": 0.0, "seed": 0},
            },
            "vary": {"hybrid_sets": self.hybrid_sets, "sigmas": list(SWEEP_SIGMAS)},
            "table": "sweep.csv",
        }
        self.config = self._write("sweep.json", config)

    def argvs(self):
        return [["sweep", "--config", self.config, "--out", str(self.out_dir),
                 "--seed", str(self.noise_seed), "--quiet"]]

    def check(self, capture):
        experiments = capture.experiments
        if len(experiments) != self.experiments_per_op:
            return 0, [f"{len(experiments)} experiments run, expected {self.experiments_per_op}"]
        with open(self.out_dir / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        problems = []
        if len(rows) != len(experiments):
            problems.append(f"sweep table has {len(rows)} rows, expected {len(experiments)}")
        passed = 0
        for index, experiment in enumerate(experiments):
            hybrid = self.hybrid_sets[index // len(SWEEP_SIGMAS)]
            sigma = SWEEP_SIGMAS[index % len(SWEEP_SIGMAS)]
            found = self._experiment_problems(experiment, hybrid, sigma)
            if index < len(rows):
                found += checks.sweep_row_problems(rows[index], experiment[3])
            problems += [f"experiment {index}: {p}" for p in found]
            passed += not found
        digest = _digest(b"".join(e[1].values.tobytes() for e in experiments))
        problems += self._rerun_problems("sweep buckets", digest)
        return (passed if not problems else 0), problems


class SignedChainNoisy(Workload):
    name = "signed_chain_noisy"
    why = ("hybridgi run on a 64x64 signed stripe object, hadamard-dct chain vs haar, "
           "rate 0.75, sigma 0.05: four projections per bucket and small file writes")

    def prepare(self) -> None:
        size = 16 if self.tiny else 64
        self.hybrid = {
            "left": [{"kind": "hadamard", "order": size},
                     {"kind": "dct", "order": size, "sampling_rate": 0.75}],
            "right": [{"kind": "haar", "order": size, "sampling_rate": 0.75}],
        }
        self.sigma = 0.05
        config = {
            "object": {"generator": "stripes", "height": size, "width": size,
                       "stripe_period": 8, "orientation": "vertical",
                       "band_size": 2 if self.tiny else 4,
                       "stagger_offset": self.rng.randint(1, 7)},
            "hybrid": self.hybrid,
            "noise": {"sigma": self.sigma, "seed": self.noise_seed},
        }
        self.config = self._write("signed.json", config)

    def argvs(self):
        return [["run", "--config", self.config, "--out", str(self.out_dir), "--quiet"]]

    def check(self, capture):
        if len(capture.experiments) != 1:
            return 0, [f"{len(capture.experiments)} experiments run, expected 1"]
        problems = self._experiment_problems(capture.experiments[0], self.hybrid, self.sigma)
        problems += self._rerun_problems(
            "bucket CSV bytes", _digest((self.out_dir / "buckets.csv").read_bytes())
        )
        return (0 if problems else 1), problems


class IdealRoundtrip512(Workload):
    name = "ideal_roundtrip_512"
    why = ("run, reconstruct and metrics on a 512x512 windmill with a dft factor: the ideal "
           "path, bypassing the acquisition loop; SSIM and CSV I/O bound")

    def prepare(self) -> None:
        size = 32 if self.tiny else 512
        self.hybrid = {
            "left": [{"kind": "hadamard", "order": size},
                     {"kind": "dct", "order": size, "sampling_rate": 0.75}],
            "right": [{"kind": "dft", "order": size}],
        }
        config = {
            "object": {"generator": "windmill", "height": size, "width": size,
                       "blade_count": self.rng.randint(3, 8)},
            "hybrid": self.hybrid,
            "noise": {"sigma": 0.0, "seed": self.noise_seed},
            "outputs": {"report": "run_report.json"},
        }
        self.config = self._write("roundtrip.json", config)
        config["outputs"] = {"report": "metrics_report.json"}
        self.metrics_config = self._write("roundtrip_metrics.json", config)

    def argvs(self):
        out = str(self.out_dir)
        return [
            ["run", "--config", self.config, "--out", out, "--quiet"],
            ["reconstruct", "--config", self.config, "--out", out, "--quiet"],
            ["metrics", "--config", self.metrics_config, "--out", out, "--quiet"],
        ]

    def check(self, capture):
        if len(capture.experiments) != 1:
            return 0, [f"{len(capture.experiments)} experiments run, expected 1"]
        experiment = capture.experiments[0]
        problems = self._experiment_problems(experiment, self.hybrid, 0.0)
        buckets_path = self.out_dir / "buckets.csv"
        problems += self.roundtrip_problems(
            capture.reads, buckets_path, experiment[1].values,
            self.out_dir / "reconstruction.csv", experiment[2].image.values,
        )
        problems += checks.report_problems(
            json.loads((self.out_dir / "run_report.json").read_text()),
            json.loads((self.out_dir / "metrics_report.json").read_text()),
        )
        problems += self._rerun_problems("bucket CSV bytes", _digest(buckets_path.read_bytes()))
        return (0 if problems else 1), problems

    @staticmethod
    def roundtrip_problems(reads, buckets_path, buckets, recon_path, recon) -> list[str]:
        """Every matrix read back by ``reconstruct`` and ``metrics`` is bitwise
        the one ``run`` held in memory: buckets twice, the reconstruction once."""
        problems = []
        for path, expected, times in ((buckets_path, buckets, 2), (recon_path, recon, 1)):
            read = reads.get(str(Path(path).resolve()), [])
            if len(read) != times:
                problems.append(f"{Path(path).name} read {len(read)} times, expected {times}")
            for values in read:
                problems += checks.identical_problems(f"{Path(path).name} read back", values, expected)
        return problems


WORKLOADS = {w.name: w for w in (SweepSixSets, SignedChainNoisy, IdealRoundtrip512)}
