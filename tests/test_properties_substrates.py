"""Property-based tests across the higher substrates (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.etl.operators import (
    Aggregate,
    Deduplicate,
    Project,
    Rename,
    Sort,
    SurrogateKey,
)
from repro.mda import (
    BusinessRequirement,
    CimModel,
    DimensionSpec,
    MeasureSpec,
    cim_to_pim,
    generate_code,
    pim_to_psm,
)
from repro.mof import (
    MetaAttribute,
    MetaClass,
    MetaReference,
    Metamodel,
    ModelExtent,
    read_xmi,
    write_xmi,
)
from repro.olap import CubeSchema

identifiers = st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                      min_size=1, max_size=8)
small_ints = st.integers(min_value=-1000, max_value=1000)


@st.composite
def etl_rows(draw, max_rows=25):
    count = draw(st.integers(min_value=0, max_value=max_rows))
    return [
        {"k": draw(small_ints), "v": draw(small_ints),
         "tag": draw(identifiers)}
        for _ in range(count)
    ]


def run(operator, rows):
    return list(operator.process(iter([dict(r) for r in rows])))


class TestEtlOperatorProperties:
    @settings(max_examples=30)
    @given(etl_rows())
    def test_project_preserves_cardinality(self, rows):
        assert len(run(Project(["k", "v"]), rows)) == len(rows)

    @settings(max_examples=30)
    @given(etl_rows())
    def test_deduplicate_is_idempotent(self, rows):
        once = run(Deduplicate(["k"]), rows)
        twice = run(Deduplicate(["k"]), once)
        assert once == twice

    @settings(max_examples=30)
    @given(etl_rows())
    def test_deduplicate_keys_are_unique(self, rows):
        output = run(Deduplicate(["k", "tag"]), rows)
        keys = [(row["k"], row["tag"]) for row in output]
        assert len(keys) == len(set(keys))

    @settings(max_examples=30)
    @given(etl_rows())
    def test_sort_output_is_sorted_and_same_multiset(self, rows):
        output = run(Sort(["k"]), rows)
        values = [row["k"] for row in output]
        assert values == sorted(values)
        assert sorted(map(repr, output)) == sorted(
            map(repr, [dict(r) for r in rows]))

    @settings(max_examples=30)
    @given(etl_rows())
    def test_aggregate_sum_matches_python(self, rows):
        output = run(Aggregate(["tag"], {"total": ("sum", "v"),
                                         "n": ("count", "v")}), rows)
        total_from_groups = sum(row["total"] for row in output
                                if row["total"] is not None)
        assert total_from_groups == sum(row["v"] for row in rows)
        assert sum(row["n"] for row in output) == len(rows)

    @settings(max_examples=30)
    @given(etl_rows(), st.integers(min_value=1, max_value=100))
    def test_surrogate_keys_are_dense(self, rows, start):
        output = run(SurrogateKey("sk", start=start), rows)
        assert [row["sk"] for row in output] == \
            list(range(start, start + len(rows)))

    @settings(max_examples=30)
    @given(etl_rows())
    def test_rename_then_reverse_is_identity(self, rows):
        there = run(Rename({"k": "key"}), rows)
        back = run(Rename({"key": "k"}), there)
        assert back == [dict(r) for r in rows]


class TestXmiProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(identifiers, small_ints), min_size=0,
                    max_size=15))
    def test_xmi_roundtrip_preserves_elements_and_links(self, specs):
        metamodel = Metamodel("P", [
            MetaClass("Node", attributes=[
                MetaAttribute("name", "string"),
                MetaAttribute("weight", "integer"),
            ], references=[
                MetaReference("next", "Node"),
            ]),
        ])
        extent = ModelExtent(metamodel, "chain")
        elements = []
        for name, weight in specs:
            elements.append(extent.create(
                "Node", name=name, weight=weight))
        for first, second in zip(elements, elements[1:]):
            first.link("next", second)

        restored = read_xmi(write_xmi(extent), metamodel)
        assert len(restored) == len(extent)
        restored_chain = sorted(
            ((element.get("name"), element.get("weight"),
              element.ref("next").element_id
              if element.ref("next") else None)
             for element in restored),
            key=repr)
        original_chain = sorted(
            ((element.get("name"), element.get("weight"),
              element.ref("next").element_id
              if element.ref("next") else None)
             for element in extent),
            key=repr)
        assert restored_chain == original_chain


@st.composite
def cim_models(draw):
    subject_count = draw(st.integers(min_value=1, max_value=4))
    dimension_pool = [
        DimensionSpec("Time", ["year", "month"], is_time=True),
        DimensionSpec("Product", ["category", "sku"]),
        DimensionSpec("Geo", ["region"]),
        DimensionSpec("Channel", ["kind", "name"]),
    ]
    requirements = []
    for index in range(subject_count):
        measure_count = draw(st.integers(min_value=1, max_value=3))
        dimension_count = draw(st.integers(min_value=1, max_value=4))
        requirements.append(BusinessRequirement(
            subject=f"Subject{index}",
            measures=[MeasureSpec(f"m{index}_{m}")
                      for m in range(measure_count)],
            dimensions=dimension_pool[:dimension_count]))
    return CimModel("prop", requirements)


class TestMdaChainProperties:
    @settings(max_examples=20, deadline=None)
    @given(cim_models())
    def test_chain_always_yields_valid_deployable_artifacts(self, cim):
        """For arbitrary CIMs: PIM valid, PSM valid, DDL deploys, and
        every generated cube validates against the deployed schema."""
        pim, _ = cim_to_pim(cim)
        assert pim.validate() == []
        psm, _ = pim_to_psm(pim, cim.technical)
        assert psm.validate() == []
        artifacts = generate_code(psm, pim)
        database = Database()
        for statement in artifacts.ddl:
            database.execute(statement)
        assert len(artifacts.cube_definitions) == \
            len(cim.requirements)
        for definition in artifacts.cube_definitions:
            schema = CubeSchema.from_definition(definition)
            assert schema.validate_against(database.catalog) == []

    @settings(max_examples=20, deadline=None)
    @given(cim_models())
    def test_dimension_conformance(self, cim):
        """Shared dimension specs never duplicate PSM tables."""
        pim, _ = cim_to_pim(cim)
        psm, _ = pim_to_psm(pim, cim.technical)
        names = [table.name for table in psm.tables()]
        assert len(names) == len(set(names))
        distinct_dimensions = {
            spec.name
            for requirement in cim.requirements
            for spec in requirement.dimensions
        }
        dim_tables = [name for name in names
                      if name.startswith("dim_")]
        assert len(dim_tables) == len(distinct_dimensions)


class TestOlapVsSqlProperty:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=5),
                  st.integers(min_value=1, max_value=3),
                  st.floats(min_value=0, max_value=1000,
                            allow_nan=False)),
        min_size=1, max_size=40))
    def test_cube_totals_match_direct_sql(self, facts):
        """The OLAP engine's aggregates must equal direct SQL."""
        from repro.olap import CubeDimension, Measure, OlapEngine

        database = Database()
        database.execute(
            "CREATE TABLE dim_g (g_key INTEGER PRIMARY KEY, "
            "bucket TEXT)")
        for key in range(1, 6):
            database.execute("INSERT INTO dim_g VALUES (?, ?)",
                             (key, f"b{key % 2}"))
        database.execute(
            "CREATE TABLE dim_h (h_key INTEGER PRIMARY KEY, "
            "label TEXT)")
        for key in range(1, 4):
            database.execute("INSERT INTO dim_h VALUES (?, ?)",
                             (key, f"l{key}"))
        database.execute(
            "CREATE TABLE fact_f (g_key INTEGER, h_key INTEGER, "
            "amount REAL)")
        for g_key, h_key, amount in facts:
            database.execute("INSERT INTO fact_f VALUES (?, ?, ?)",
                             (g_key, h_key, amount))

        schema = CubeSchema(
            "F", "fact_f",
            measures=[Measure("amount", "amount", "sum")],
            dimensions=[
                CubeDimension("G", "dim_g", "g_key", ["bucket"]),
                CubeDimension("H", "dim_h", "h_key", ["label"]),
            ])
        engine = OlapEngine(database, schema)
        cells = engine.query(["amount"], [("G", "bucket")])
        direct = database.query(
            "SELECT d.bucket AS bucket, SUM(f.amount) AS amount "
            "FROM fact_f f JOIN dim_g d ON f.g_key = d.g_key "
            "GROUP BY d.bucket ORDER BY d.bucket")
        assert [(row["G.bucket"], row["amount"])
                for row in cells.rows] == \
            [(row["bucket"], row["amount"]) for row in direct]
