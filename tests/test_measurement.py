"""Measurement matrix, vectorization, pattern, and chain tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridgi.measurement import CONFIG_KINDS, as_int, fields

from hybridgi import (
    ChainCompositionError,
    ChainEntry,
    ConfigError,
    HybridSpec,
    ResourceLimitError,
    ShapeError,
    TransformKind,
    TruncatedTransform,
    build_dct,
    build_hadamard,
    build_haar,
    build_transform,
    compose_chain,
    footprint_report,
    kron,
    orthonormality_defect,
    pattern,
    single_peak_stripe_search,
    truncate,
    unvec,
    vec_rows,
)

KINDS = ("hadamard", "dct", "haar")


def test_vec_rows_ordering():
    assert np.array_equal(vec_rows(np.array([[1, 2], [3, 4]])), [1, 2, 3, 4])


def test_vec_rows_single_row():
    row = np.arange(5.0).reshape(1, 5)
    assert np.array_equal(vec_rows(row), np.arange(5.0))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 9))
    assert np.array_equal(unvec(vec_rows(x), 6, 9), x)
    v = rng.normal(size=12)
    assert np.array_equal(vec_rows(unvec(v, 3, 4)), v)


def test_unvec_examples():
    assert np.array_equal(unvec(np.array([1, 2, 3, 4]), 2, 2), [[1, 2], [3, 4]])
    assert unvec(np.arange(4), 1, 4).shape == (1, 4)


def test_unvec_length_mismatch():
    with pytest.raises(ShapeError):
        unvec(np.arange(5), 2, 3)


class TestKron:
    def test_dimensions(self):
        a = kron(build_hadamard(5), build_dct(16))
        assert (a.row_count, a.col_count) == (512, 512)

    def test_matches_hadamard_recursion(self):
        d1 = build_hadamard(1)
        a = kron(d1, d1)
        assert_allclose(a.entries, build_hadamard(2).entries, atol=1e-15)

    @pytest.mark.parametrize("left_kind", KINDS)
    @pytest.mark.parametrize("right_kind", KINDS)
    def test_untruncated_orthonormal(self, left_kind, right_kind):
        a = kron(build_transform(left_kind, 8), build_transform(right_kind, 4))
        assert orthonormality_defect(a) < 1e-10

    @pytest.mark.parametrize("left_kind", KINDS)
    @pytest.mark.parametrize("right_kind", KINDS)
    def test_statement_one_equivalence(self, left_kind, right_kind):
        left = build_transform(left_kind, 8)
        right = build_transform(right_kind, 4)
        a = kron(left, right)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, (8, 4))
            lhs = a.entries @ vec_rows(x)
            rhs = vec_rows(left.entries @ x @ right.entries.T)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_truncated_row_orthonormality(self):
        a = kron(truncate(build_hadamard(3), 5), truncate(build_dct(4), 3))
        assert a.entries.shape == (15, 32)
        assert orthonormality_defect(a) < 1e-10

    def test_index_map(self):
        left = truncate(build_haar(3), 6)
        right = truncate(build_dct(4), 4)
        a = kron(left, right)
        for m in range(6):
            for i in range(8):
                for n in range(4):
                    for j in range(4):
                        assert a.entries[m * 4 + n, i * 4 + j] == (
                            left.entries[m, i] * right.entries[n, j]
                        )

    def test_entry_cap(self):
        big = build_hadamard(12)
        with pytest.raises(ResourceLimitError):
            kron(big, big)


class TestPattern:
    def test_constant_pattern(self):
        d1 = build_hadamard(1)
        assert_allclose(pattern(d1, d1, 0, 0), np.full((2, 2), 0.5), atol=1e-15)

    def test_equals_kron_rows(self):
        left = build_hadamard(3)
        right = build_dct(4)
        a = kron(left, right)
        for m in range(8):
            for n in range(4):
                expected = unvec(a.entries[m * 4 + n], 8, 4)
                assert np.array_equal(pattern(left, right, m, n), expected)

    def test_dot_product_gives_bucket_entry(self):
        left = build_haar(3)
        right = build_hadamard(2)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 4))
        buckets = left.entries @ x @ right.entries.T
        for m in range(8):
            for n in range(4):
                value = np.sum(pattern(left, right, m, n) * x)
                assert abs(value - buckets[m, n]) < 1e-10

    def test_patterns_mutually_orthogonal(self):
        left = build_dct(8)
        right = build_haar(2)
        flat = [
            pattern(left, right, m, n).ravel() for m in range(8) for n in range(4)
        ]
        gram = np.array(flat) @ np.array(flat).T
        assert np.max(np.abs(gram - np.eye(32))) < 1e-10

    def test_out_of_range(self):
        d2 = build_hadamard(1)
        with pytest.raises(IndexError):
            pattern(d2, d2, 2, 0)
        with pytest.raises(IndexError):
            pattern(truncate(d2, 1), d2, 1, 0)


class TestComposeChain:
    def test_single_entry_chains_pass_through(self):
        spec = HybridSpec.pair("hadamard", 32, "dct", 16)
        left, right = compose_chain(spec)
        assert np.array_equal(left.entries, build_hadamard(5).entries)
        assert np.array_equal(right.entries, build_dct(16).entries)
        assert left.source.kind is TransformKind.HADAMARD

    def test_two_factor_product_order(self):
        # First chain entry acts first, so the product is C8 @ D8.
        spec = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("haar", 8),),
        )
        left, _ = compose_chain(spec)
        expected = build_dct(8).entries @ build_hadamard(3).entries
        assert_allclose(left.entries, expected, atol=1e-14)
        assert left.source.kind is TransformKind.COMPOSITE

    def test_composite_still_orthonormal(self):
        spec = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("haar", 8), ChainEntry("hadamard", 8)),
        )
        left, right = compose_chain(spec)
        assert orthonormality_defect(left) < 1e-10
        assert orthonormality_defect(right) < 1e-10

    def test_identity_padding_equivalent(self):
        # j=2, k=1: explicitly padding the right side with identity changes
        # nothing.
        short = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("haar", 8),),
        )
        padded = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8)),
            (ChainEntry("haar", 8), ChainEntry("identity", 8)),
        )
        for a, b in zip(compose_chain(short), compose_chain(padded)):
            assert_allclose(a.entries, b.entries, atol=1e-15)

    def test_outermost_truncation_after_product(self):
        spec = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8, kept_rows=5)),
            (ChainEntry("haar", 8),),
        )
        left, _ = compose_chain(spec)
        full = build_dct(8).entries @ build_hadamard(3).entries
        assert left.entries.shape == (5, 8)
        assert_allclose(left.entries, full[:5], atol=1e-14)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ChainCompositionError):
            HybridSpec(
                (ChainEntry("hadamard", 8), ChainEntry("dct", 16)),
                (ChainEntry("haar", 8),),
            )

    def test_inner_truncation_rejected(self):
        with pytest.raises(ChainCompositionError):
            HybridSpec(
                (ChainEntry("hadamard", 8, kept_rows=4), ChainEntry("dct", 8)),
                (ChainEntry("haar", 8),),
            )

    def test_empty_chain_rejected(self):
        with pytest.raises(ChainCompositionError):
            HybridSpec((), (ChainEntry("dct", 8),))


class TestTruncatedTransform:
    def test_full_reproduces_source(self):
        src = build_dct(16)
        assert np.array_equal(TruncatedTransform.full(src).entries, src.entries)

    def test_rows_stay_orthonormal(self):
        t = truncate(build_haar(5), 29)
        assert orthonormality_defect(t) < 1e-10

    def test_bad_kept_rows(self):
        with pytest.raises(ShapeError):
            truncate(build_dct(8), 0)
        with pytest.raises(ShapeError):
            truncate(build_dct(8), 9)

    def test_truncated_recovery_is_projection(self):
        left = truncate(build_hadamard(5), 29)
        right = truncate(build_dct(16), 13)
        a = kron(left, right)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(32, 16))
        via_a = unvec(a.entries.T @ (a.entries @ vec_rows(x)), 32, 16)
        projected = (
            left.entries.T @ left.entries @ x @ right.entries.T @ right.entries
        )
        assert np.max(np.abs(via_a - projected)) < 1e-10


class TestHybridSpec:
    def test_label_and_rates(self):
        spec = HybridSpec.pair("hadamard", 32, "dct", 64, 29, 58)
        assert spec.label == "had32-dct64"
        assert spec.left_kept == 29 and spec.right_kept == 58
        assert abs(spec.sampling_rate - 1682 / 2048) < 1e-12

    def test_dict_roundtrip(self):
        spec = HybridSpec(
            (ChainEntry("hadamard", 8), ChainEntry("dct", 8, kept_rows=6)),
            (ChainEntry("haar", 16),),
        )
        assert HybridSpec.from_dict(spec.to_dict()) == spec

    def test_kept_rows_bounds(self):
        with pytest.raises(ChainCompositionError):
            HybridSpec.pair("hadamard", 8, "dct", 8, left_kept=0)


class TestChainEntryKinds:
    @pytest.mark.parametrize(
        "kind", ["bogus", "composite", TransformKind.COMPOSITE, 5, None]
    )
    def test_kind_outside_config_kinds_is_chain_error(self, kind):
        with pytest.raises(ChainCompositionError, match="unknown kind"):
            ChainEntry(kind, 8)
        with pytest.raises(ChainCompositionError, match="unknown kind"):
            HybridSpec.pair(kind, 8, "dct", 8)

    def test_stripe_search_with_unknown_kind_is_chain_error(self):
        with pytest.raises(ChainCompositionError):
            single_peak_stripe_search(8, 8, [("fourier", "dct")])

    def test_every_config_kind_has_a_label(self):
        labels = {HybridSpec.pair(kind, 8, "dct", 8).label for kind in CONFIG_KINDS}
        assert labels == {"had8-dct8", "dct8-dct8", "haar8-dct8", "dft8-dct8", "id8-dct8"}


class TestFields:
    def test_checks_each_present_field_with_its_path(self):
        seen = []

        def check(value, path):
            seen.append(path)
            return value * 2

        values = fields({"a": 1, "b": 2}, "sec", {"a": check}, {"b": check, "c": check})
        assert values == {"a": 2, "b": 4}
        assert seen == ["sec.a", "sec.b"]

    def test_root_fields_have_bare_names(self):
        with pytest.raises(ConfigError) as err:
            fields({"a": 1, "z": 0}, "", {"a": as_int}, {})
        assert err.value.field == "z"
        with pytest.raises(ConfigError) as err:
            fields({}, "", {"a": as_int}, {})
        assert err.value.field == "a"

    @pytest.mark.parametrize(
        "data, field, message",
        [
            ([1], "sec", "expected a JSON object"),
            ({"b": 1}, "sec.a", "required field is missing"),
            ({"a": 1, "z": 0}, "sec.z", "unknown field"),
            ({"a": "1"}, "sec.a", "expected an integer"),
        ],
        ids=["not-an-object", "missing", "unknown", "bad-value"],
    )
    def test_rejections_name_the_field(self, data, field, message):
        with pytest.raises(ConfigError, match=message) as err:
            fields(data, "sec", {"a": as_int}, {"b": as_int})
        assert err.value.field == field


class TestFootprint:
    def test_reference_dimensions(self):
        report = footprint_report(32, 64)
        assert report.one_d_matrix_entries == 4_194_304
        assert report.two_d_left_entries == 4_096
        assert report.two_d_right_entries == 1_024

    def test_degenerate(self):
        report = footprint_report(1, 1)
        assert (
            report.one_d_matrix_entries,
            report.two_d_left_entries,
            report.two_d_right_entries,
        ) == (1, 1, 1)

    def test_small(self):
        report = footprint_report(2, 2)
        assert (
            report.one_d_matrix_entries,
            report.two_d_left_entries,
            report.two_d_right_entries,
        ) == (16, 4, 4)

    def test_invalid(self):
        with pytest.raises(ShapeError):
            footprint_report(0, 4)
