"""Tests for the Table 1 pipeline specifications."""

import pytest

from repro.flow import DEFAULT_SCHEMA
from repro.pipeline import (
    PIPELINES,
    TABLE1_EXPECTED,
    get_pipeline_spec,
)


class TestTable1Counts:
    @pytest.mark.parametrize("name", sorted(TABLE1_EXPECTED))
    def test_counts_match_paper(self, name):
        spec = PIPELINES[name]
        tables, traversals = TABLE1_EXPECTED[name]
        assert spec.table_count == tables
        assert spec.traversal_count == traversals


class TestSpecWellFormedness:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_traversals_reference_known_tables(self, name):
        spec = PIPELINES[name]
        known = {t.table_id for t in spec.tables}
        for template in spec.traversals:
            assert set(template.path) <= known

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_traversals_are_unique_paths(self, name):
        spec = PIPELINES[name]
        paths = [t.path for t in spec.traversals]
        assert len(set(paths)) == len(paths), "duplicate traversal template"

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_traversals_start_at_entry_table(self, name):
        spec = PIPELINES[name]
        entry = spec.tables[0].table_id
        for template in spec.traversals:
            assert template.path[0] == entry

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_paths_are_forward_only(self, name):
        # Feed-forward: table IDs strictly increase along every template,
        # except OFD's learning table (9) which OF-DPA visits mid-pipeline.
        spec = PIPELINES[name]
        for template in spec.traversals:
            filtered = [t for t in template.path if not (name == "OFD" and t == 9)]
            assert filtered == sorted(filtered), template.path

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_declared_fields_exist_in_schema(self, name):
        spec = PIPELINES[name]
        for table in spec.tables:
            for field in table.fields + table.rewrites:
                assert field in DEFAULT_SCHEMA, (table.name, field)

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_build_creates_working_pipeline(self, name):
        pipeline = PIPELINES[name].build()
        assert len(pipeline) == TABLE1_EXPECTED[name][0]
        assert not any(len(table) for table in pipeline.tables.values())

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_weights_positive(self, name):
        for template in PIPELINES[name].traversals:
            assert template.weight > 0


class TestLookupHelpers:
    def test_get_pipeline_spec_case_insensitive(self):
        assert get_pipeline_spec("ols") is PIPELINES["OLS"]

    def test_get_pipeline_spec_unknown(self):
        with pytest.raises(KeyError):
            get_pipeline_spec("nope")

    def test_table_spec_lookup(self):
        spec = PIPELINES["PSC"]
        assert spec.table_spec(5).name == "acl"
        with pytest.raises(KeyError):
            spec.table_spec(99)
