"""Unit tests for the model and rule-DSL linters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_cube_schema, lint_model, lint_rules
from repro.cwm import TransformationBuilder, cwm_metamodel
from repro.engine import Catalog, make_schema
from repro.errors import RulesError
from repro.mof import ModelExtent
from repro.rules import parse_rules


@pytest.fixture
def extent():
    return ModelExtent(cwm_metamodel(), "under-test")


def codes(collector):
    return collector.codes()


class TestModelLinter:
    def test_clean_pipeline_has_no_errors(self, extent):
        builder = TransformationBuilder(extent)
        activity = builder.activity("nightly")
        task = builder.task("load")
        first = builder.step(activity, "extract", task)
        builder.step(activity, "transform", task, after=[first])
        collector = lint_model(extent)
        assert not collector.has_errors(), collector.render()

    def test_dangling_reference(self, extent):
        builder = TransformationBuilder(extent)
        other = ModelExtent(cwm_metamodel(), "elsewhere")
        foreign = other.create("Package", name="alien")
        builder.transformation("load", sources=[foreign])
        assert "ODB201" in codes(lint_model(extent))

    def test_required_reference_unset(self, extent):
        extent.create("TransformationStep", name="taskless")
        collector = lint_model(extent)
        assert "ODB205" in codes(collector)
        assert "task" in str(collector.by_code("ODB205")[0])

    def test_orphan_composite_child(self, extent):
        builder = TransformationBuilder(extent)
        task = builder.task("load")
        # A step never attached to any activity: composite-owned class
        # with no owner.
        step = extent.create("TransformationStep", name="lost")
        step.link("task", task)
        collector = lint_model(extent)
        assert "ODB202" in codes(collector)
        assert not collector.has_errors()  # orphans are warnings

    def test_conflicting_composite_owners(self, extent):
        builder = TransformationBuilder(extent)
        task = builder.task("load")
        first = builder.activity("one")
        second = builder.activity("two")
        step = builder.step(first, "shared", task)
        second.link("step", step)
        assert "ODB206" in codes(lint_model(extent))

    def test_step_precedence_cycle(self, extent):
        builder = TransformationBuilder(extent)
        activity = builder.activity("cyclic")
        task = builder.task("load")
        first = builder.step(activity, "s1", task)
        second = builder.step(activity, "s2", task, after=[first])
        first.link("precedence", second)
        collector = lint_model(extent)
        cycle_errors = collector.by_code("ODB203")
        assert cycle_errors
        assert "->" in cycle_errors[0].message

    def test_transformation_chain_cycle(self, extent):
        builder = TransformationBuilder(extent)
        staging = extent.create("Package", name="staging")
        mart = extent.create("Package", name="mart")
        builder.transformation("up", sources=[staging],
                               targets=[mart])
        builder.transformation("down", sources=[mart],
                               targets=[staging])
        assert "ODB203" in codes(lint_model(extent))

    def test_acyclic_chain_is_clean(self, extent):
        builder = TransformationBuilder(extent)
        staging = extent.create("Package", name="staging")
        mart = extent.create("Package", name="mart")
        builder.transformation("up", sources=[staging],
                               targets=[mart])
        assert "ODB203" not in codes(lint_model(extent))


class TestCubeSchemaLint:
    def catalog(self):
        catalog = Catalog()
        catalog.add_table(make_schema("fact_sales", [
            ("region_id", "INTEGER"),
            ("amount", "REAL"),
        ]))
        catalog.add_table(make_schema("dim_region", [
            ("region_id", "INTEGER"),
            ("country", "TEXT"),
        ]))
        return catalog

    def definition(self, **overrides):
        definition = {
            "name": "sales",
            "fact_table": "fact_sales",
            "measures": [{"name": "revenue", "column": "amount",
                          "aggregator": "sum"}],
            "dimensions": [{"name": "region", "table": "dim_region",
                            "key": "region_id",
                            "levels": ["country"]}],
        }
        definition.update(overrides)
        return definition

    def test_valid_cube_is_clean(self):
        collector = lint_cube_schema(self.definition(), self.catalog())
        assert codes(collector) == []

    def test_missing_fact_table(self):
        definition = self.definition(fact_table="fact_ghost")
        collector = lint_cube_schema(definition, self.catalog())
        assert codes(collector) == ["ODB204"]

    def test_missing_measure_column(self):
        definition = self.definition(
            measures=[{"name": "revenue", "column": "profit",
                       "aggregator": "sum"}])
        collector = lint_cube_schema(definition, self.catalog())
        assert "ODB204" in codes(collector)

    def test_missing_dimension_table_and_level(self):
        definition = self.definition(
            dimensions=[{"name": "region", "table": "dim_ghost",
                         "key": "region_id", "levels": ["country"]},
                        {"name": "geo", "table": "dim_region",
                         "key": "region_id", "levels": ["city"]}])
        collector = lint_cube_schema(definition, self.catalog())
        assert codes(collector) == ["ODB204", "ODB204"]


CLEAN_RULES = '''
rule "flag-high-usage"
when
    usage: Usage(amount > 1000)
then
    modify(usage, flagged=True)
    log("high usage: " + usage.tenant)
end
'''


class TestRuleLinter:
    def test_clean_rules_have_no_findings(self):
        assert codes(lint_rules(CLEAN_RULES)) == []

    def test_unbound_variable_in_action(self):
        text = ('rule "r"\nwhen\n    u: Usage()\nthen\n'
                '    modify(other, flagged=True)\nend')
        collector = lint_rules(text)
        assert codes(collector) == ["ODB301"]
        assert "other" in str(collector.errors[0])

    def test_forward_reference_in_condition(self):
        text = ('rule "r"\nwhen\n'
                '    a: Alert(a.tenant == u.tenant)\n'
                '    u: Usage()\nthen\n    retract(a)\nend')
        collector = lint_rules(text)
        assert codes(collector) == ["ODB301"]

    def test_bare_names_in_conditions_may_be_fact_attributes(self):
        text = ('rule "r"\nwhen\n    u: Usage(amount > 10)\nthen\n'
                '    retract(u)\nend')
        assert codes(lint_rules(text)) == []

    def test_duplicate_rule_name(self):
        duplicated = CLEAN_RULES + CLEAN_RULES
        collector = lint_rules(duplicated)
        assert "ODB302" in codes(collector)

    def test_shadowed_rule_despite_renamed_variable(self):
        text = ('rule "first"\nwhen\n    u: Usage(u.amount > 5)\n'
                'then\n    retract(u)\nend\n'
                'rule "second"\nwhen\n    x: Usage(x.amount > 5)\n'
                'then\n    log("still matches")\nend')
        collector = lint_rules(text)
        assert codes(collector) == ["ODB303"]
        assert not collector.has_errors()  # shadowing is a warning
        assert "first" in str(collector.warnings[0])

    def test_structural_syntax_error(self):
        collector = lint_rules('rule "broken"\nwhen\nthen\nend')
        # missing actions; scan stops at the structural problem
        assert "ODB304" in codes(collector)

    @pytest.mark.parametrize("conditions", [
        "",                                      # no condition
        "    u: Usage()\n    u: Usage()\n",      # one variable twice
    ])
    def test_rule_shape_parse_rules_refuses_is_odb304(self, conditions):
        text = f'rule "r"\nwhen\n{conditions}then\n    log("x")\nend'
        with pytest.raises(RulesError):
            parse_rules(text)
        assert codes(lint_rules(text)) == ["ODB304"]

    def test_bad_expression_syntax(self):
        text = ('rule "r"\nwhen\n    u: Usage(u.amount >)\nthen\n'
                '    retract(u)\nend')
        assert "ODB304" in codes(lint_rules(text))

    def test_retract_of_unbound_variable(self):
        text = ('rule "r"\nwhen\n    u: Usage()\nthen\n'
                '    retract(ghost)\nend')
        assert codes(lint_rules(text)) == ["ODB301"]

    def test_findings_carry_line_numbers(self):
        text = ('rule "r"\nwhen\n    u: Usage()\nthen\n'
                '    retract(ghost)\nend')
        collector = lint_rules(text)
        assert collector.errors[0].span.line == 5


#: Replacement argument texts for a condition or action line.
BROKEN_ARGUMENTS = ["", " ", "amount >", "amount > 1000)", "(amount",
                    "__import__('os')", "amount ** 2", "usage, ",
                    "flagged=True", "Alert(level=)", "usage.x.y",
                    "1 + * 2", "u ghost"]


@st.composite
def mutated_rules(draw):
    """CLEAN_RULES with up to four edits: a dropped line (keywords
    included), a stray space, a replaced argument list, or an emptied
    one."""
    lines = CLEAN_RULES.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        index = draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        kind = draw(st.sampled_from(["drop", "space", "argument",
                                     "empty"]))
        if kind == "drop":
            del lines[index]
        elif kind == "space":
            at = draw(st.integers(0, len(line)))
            lines[index] = line[:at] + " " + line[at:]
        elif "(" in line:
            argument = draw(st.sampled_from(BROKEN_ARGUMENTS)) \
                if kind == "argument" else ""
            lines[index] = line[:line.index("(") + 1] + argument + ")"
    return "\n".join(lines)


class TestRuleLintAgreesWithTheCompiler:
    @settings(max_examples=300, deadline=None)
    @given(mutated_rules())
    def test_parse_rules_raises_iff_lint_reports_odb304(self, text):
        try:
            parse_rules(text)
        except RulesError:
            raised = True
        else:
            raised = False
        assert raised == ("ODB304" in codes(lint_rules(text))), text
