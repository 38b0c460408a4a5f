"""Wrappers the benchmark installs around the program's public functions.

Nothing under ``src/`` changes: a wrapper replaces a function at its
defining module and at every module that imported it by name, and is
taken out again after the op. ``Capture`` keeps the in-memory results the
output checks need; ``Tracer`` times each layer (one layer per module of
the package) and is installed only for traced ops.
"""

import os
import statistics
import sys
import time

from hybridgi.simulator import RangeTag

# Functions timed as spans: called a few times per experiment.
SPAN_FUNCTIONS = {
    "config": ("parse_config",),
    "transforms": ("build_transform",),
    "measurement": ("compose_chain",),
    "simulator": ("acquire", "acquire_ideal"),
    "reconstruct": ("reconstruct_chain",),
    "metrics": ("quality_report", "ssim", "count_significant"),
    "scenes": ("windmill", "staggered_stripes", "save_image"),
    "fileio": (
        "write_csv_matrix", "read_csv_matrix", "write_pgm", "write_json",
        "read_json", "write_buckets", "read_buckets",
    ),
}
# Functions called once or more per bucket: aggregated into counters so
# that memory stays bounded.
COUNTER_FUNCTIONS = {
    "measurement": ("pattern",),
    "simulator": ("measure_bucket", "project", "normalize_pattern"),
}
# The last layer, cli, is the orchestration: op time not covered by a wrapped call.
MODULES = ("config", "transforms", "measurement", "simulator", "reconstruct",
           "metrics", "scenes", "fileio", "cli")

_WRITERS = ("fileio.write_csv_matrix", "fileio.write_pgm", "fileio.write_json")
_READERS = ("fileio.read_csv_matrix", "fileio.read_json")


def _function_keys() -> list[str]:
    keys = []
    for table in (SPAN_FUNCTIONS, COUNTER_FUNCTIONS):
        for module, names in table.items():
            keys.extend(f"{module}.{name}" for name in names)
    order = {module: i for i, module in enumerate(MODULES)}
    return sorted(keys, key=lambda key: order[key.split(".")[0]])


FUNCTION_KEYS = _function_keys()

# Per-layer metric name -> (unit, better).
PER_LAYER = {}
for _key in FUNCTION_KEYS:
    PER_LAYER[f"{_key}.calls"] = ("count", "lower")
    PER_LAYER[f"{_key}.self_ms"] = ("ms", "lower")
for _module in MODULES:
    PER_LAYER[f"{_module}.self_share"] = ("fraction", "lower")
PER_LAYER.update({
    "simulator.buckets": ("count", "lower"),
    "simulator.projections": ("count", "lower"),
    "simulator.us_per_bucket": ("us", "lower"),
    "transforms.distinct_frac": ("fraction", "higher"),
    "reconstruct.gflops": ("GFLOP/s", "higher"),
    "metrics.ssim.ns_per_window": ("ns", "lower"),
    "fileio.bytes_written": ("B", "lower"),
    "fileio.bytes_read": ("B", "lower"),
    "fileio.write_mb_per_s": ("MB/s", "higher"),
    "fileio.read_mb_per_s": ("MB/s", "higher"),
    "cli.self_ms": ("ms", "lower"),
    "trace.op_p50_ms_untraced": ("ms", "lower"),
    "trace.op_p50_ms_traced": ("ms", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
})


def _package_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "hybridgi" or name.startswith("hybridgi."))
    ]


def rebind(original, replacement) -> list[tuple]:
    """Point every package-level name bound to ``original`` at ``replacement``.

    Returns the (module, attribute, original) triples to restore.
    """
    bound = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound.append((module, attr, original))
    return bound


def restore(bound: list[tuple]) -> None:
    for module, attr, original in reversed(bound):
        setattr(module, attr, original)


def _defined(key: str):
    module, name = key.split(".")
    return getattr(sys.modules[f"hybridgi.{module}"], name)


class Capture:
    """Records what one op computed, for the output checks.

    ``experiments`` holds each ``cli.run_experiment`` result
    (scene, buckets, result, report) in call order; ``reads`` maps each
    resolved path to the matrices ``fileio.read_csv_matrix`` returned.
    """

    def __init__(self):
        self.experiments = []
        self.reads = {}
        self._bound = []

    def reset(self) -> None:
        self.experiments = []
        self.reads = {}

    def install(self) -> None:
        run_experiment = _defined("cli.run_experiment")
        read_csv_matrix = _defined("fileio.read_csv_matrix")

        def capture_run(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            self.experiments.append(result)
            return result

        def capture_read(path, *args, **kwargs):
            values = read_csv_matrix(path, *args, **kwargs)
            self.reads.setdefault(os.path.realpath(path), []).append(values)
            return values

        self._bound = rebind(run_experiment, capture_run) + rebind(
            read_csv_matrix, capture_read
        )

    def uninstall(self) -> None:
        restore(self._bound)
        self._bound = []


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Per-layer timing of traced ops.

    Each wrapped call measures its duration and the part of it covered by
    wrapped calls it made (its children); self time is the difference.
    The cost of a wrapper itself lands in its caller's self time.
    Span functions also append (name, start, end, parent span, op id,
    self seconds) to ``spans``; counter functions only add to ``stats``.
    Op time not covered by any top-level wrapped call is the ``cli``
    layer's self time.
    """

    def __init__(self):
        self.stats = {key: [0, 0.0, 0.0] for key in FUNCTION_KEYS}  # calls, total s, child s
        self.spans = []
        self.sites = {}
        self.op_id = -1
        self.op_times = []
        self.top_level = 0.0
        self.work = {
            "buckets": 0, "projections": 0, "flops": 0, "ssim_windows": 0,
            "bytes_written": 0, "bytes_read": 0,
        }
        self.distinct_fracs = []
        self._builds = []
        self._stack = []  # child seconds of each open wrapped call
        self._parents = []  # span index of each open span
        self._bound = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for key in FUNCTION_KEYS:
            original = _defined(key)
            module, name = key.split(".")
            if name in COUNTER_FUNCTIONS.get(module, ()):
                wrapper = self._counter(key, original)
            else:
                wrapper = self._span(key, original, *self._hooks(key))
            bound = rebind(original, wrapper)
            self.sites[key] = sorted({m.__name__ for m, _, _ in bound})
            self._bound += bound

    def uninstall(self) -> None:
        restore(self._bound)
        self._bound = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._builds = []

    def end_op(self, seconds: float) -> None:
        self.op_times.append(seconds)
        if self._builds:
            self.distinct_fracs.append(len(set(self._builds)) / len(self._builds))

    # -- wrappers ------------------------------------------------------

    def _counter(self, key, fn):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level += duration

        return wrapper

    def _span(self, key, fn, before, after):
        stats = self.stats[key]
        stack = self._stack
        parents = self._parents
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = parents[-1] if parents else None
            index = len(spans)
            spans.append(None)
            token = before(args, kwargs) if before else None
            parents.append(index)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                child = stack.pop()
                parents.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += child
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level += duration
                spans[index] = (key, start, end, parent, self.op_id, duration - child)
            if after:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def _hooks(self, key):
        """Work counts derived from argument and result shapes and file sizes."""
        work = self.work

        def first(args, kwargs, name):
            return args[0] if args else kwargs[name]

        if key in _WRITERS:
            def count_written(args, kwargs, result, token):
                work["bytes_written"] += _size(first(args, kwargs, "path"))
            return None, count_written
        if key in _READERS:
            def size_before(args, kwargs):
                return _size(first(args, kwargs, "path"))

            def count_read(args, kwargs, result, size):
                work["bytes_read"] += size
            return size_before, count_read
        if key in ("simulator.acquire", "simulator.acquire_ideal"):
            def count_buckets(args, kwargs, result, token):
                work["buckets"] += result.values.size
                if key == "simulator.acquire":
                    scene = args[1] if len(args) > 1 else kwargs["scene"]
                    per_bucket = 4 if scene.range_tag is RangeTag.SIGNED else 2
                    work["projections"] += per_bucket * result.values.size
            return None, count_buckets
        if key == "transforms.build_transform":
            def record_build(args, kwargs, result, token):
                self._builds.append((result.kind.value, result.order))
            return None, record_build
        if key == "reconstruct.reconstruct_chain":
            def count_flops(args, kwargs, result, token):
                kept_l, kept_r = result.spec.left_kept, result.spec.right_kept
                height, width = result.image.values.shape
                flops = 2 * (height * kept_l * kept_r + height * kept_r * width
                             + kept_l * height * width + kept_l * width * kept_r)
                values = getattr(args[1] if len(args) > 1 else kwargs["y"], "values", None)
                complex_factor = 4 if values is not None and values.dtype.kind == "c" else 1
                work["flops"] += complex_factor * flops
            return None, count_flops
        if key == "metrics.ssim":
            def count_windows(args, kwargs, result, token):
                shape = getattr(args[0], "values", args[0]).shape
                roi = args[3] if len(args) > 3 else kwargs.get("roi")
                height, width = (roi[2], roi[3]) if roi else shape
                work["ssim_windows"] += max(0, height - 7) * max(0, width - 7)
            return None, count_windows
        return None, None

    # -- results -------------------------------------------------------

    def self_seconds(self, key: str) -> float:
        _, total, child = self.stats[key]
        return total - child

    def metrics(self, untraced_ms: list[float], traced_ms: list[float]) -> dict:
        """Per-layer metrics, per traced op. The overhead compares the
        contention-corrected op times of the untraced and traced ops."""
        ops = len(self.op_times)
        op_total = sum(self.op_times)
        values = {}
        for key in FUNCTION_KEYS:
            values[f"{key}.calls"] = self.stats[key][0] / ops
            values[f"{key}.self_ms"] = 1e3 * self.self_seconds(key) / ops
        cli_self = op_total - self.top_level
        for module in MODULES[:-1]:
            own = sum(self.self_seconds(k) for k in FUNCTION_KEYS if k.startswith(module + "."))
            values[f"{module}.self_share"] = own / op_total
        values["cli.self_share"] = cli_self / op_total

        work = self.work
        simulator_s = sum(self.stats[k][1] for k in ("simulator.acquire", "simulator.acquire_ideal"))
        write_s = sum(self.self_seconds(k) for k in _WRITERS)
        read_s = sum(self.self_seconds(k) for k in _READERS)
        recon_s = self.self_seconds("reconstruct.reconstruct_chain")
        ssim_s = self.self_seconds("metrics.ssim")
        values.update({
            "simulator.buckets": work["buckets"] / ops,
            "simulator.projections": work["projections"] / ops,
            "simulator.us_per_bucket": 1e6 * simulator_s / work["buckets"] if work["buckets"] else 0.0,
            "transforms.distinct_frac": statistics.fmean(self.distinct_fracs) if self.distinct_fracs else 0.0,
            "reconstruct.gflops": work["flops"] / recon_s / 1e9 if recon_s > 0 else 0.0,
            "metrics.ssim.ns_per_window": 1e9 * ssim_s / work["ssim_windows"] if work["ssim_windows"] else 0.0,
            "fileio.bytes_written": work["bytes_written"] / ops,
            "fileio.bytes_read": work["bytes_read"] / ops,
            "fileio.write_mb_per_s": work["bytes_written"] / write_s / 1e6 if write_s > 0 else 0.0,
            "fileio.read_mb_per_s": work["bytes_read"] / read_s / 1e6 if read_s > 0 else 0.0,
            "cli.self_ms": 1e3 * cli_self / ops,
        })
        traced = statistics.median(traced_ms)
        untraced = statistics.median(untraced_ms)
        values["trace.op_p50_ms_untraced"] = untraced
        values["trace.op_p50_ms_traced"] = traced
        values["trace.overhead_frac"] = traced / untraced - 1.0
        return values
