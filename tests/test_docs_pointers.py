"""Every regenerator the docs cite must exist.

README, DESIGN and EXPERIMENTS name, in backticks, what regenerates
each figure, claim and cost: ``tests/<file>.py[::Class]::name`` (a
bare ``::name`` continues the file cited before it), an ``examples/``
script, or — in the phrase "``bench/`` metric(s) ``a``, ``b`` and
``c``" — metrics declared in ``BENCHMARK.json``.  A renamed test or a
dropped metric then fails tier-1 instead of rotting unseen.
"""

import ast
import functools
import json
import pathlib
import re

REPO = pathlib.Path(__file__).parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
METRICS = {metric["name"] for metric in
           CONTRACT["end_to_end"] + CONTRACT["per_layer"]}

FENCED = re.compile(r"```.*?```", re.S)
TOKEN = re.compile(r"`([^`]+)`")
CITED = re.compile(r"tests/|examples/|::\w")
METRIC_LIST = re.compile(
    r"`bench/`\s+metrics?\s+((?:`[^`]+`(?:,?\s+and\s+|,\s+)?)+)")


@functools.lru_cache(maxsize=None)
def tree_of(path):
    return ast.parse(path.read_text())


def defined_in(path, names):
    """Is ``names`` (a def, or a class then one of its defs) in ``path``?"""
    body = tree_of(path).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def citations(text):
    """(what, problem-or-None) for every regenerator ``text`` cites."""
    text = FENCED.sub("", text)
    found = []
    last_file = None
    for token in TOKEN.findall(text):
        if not CITED.match(token):
            continue
        # A line wrap inside the backticks may have split the path.
        path, *names = re.sub(r"\s+", "", token).split("::")
        if path:
            last_file = path
        elif last_file is None:
            found.append((token, "no file cited before it"))
            continue
        target = REPO / last_file
        names = [name.split("[")[0] for name in names]
        problem = None
        if not target.exists():
            problem = "no such file"
        elif names and not defined_in(target, names):
            problem = f"{'::'.join(names)} is not defined in it"
        found.append(("::".join([last_file] + names), problem))
    for listed in METRIC_LIST.findall(text):
        found += [(metric, None if metric in METRICS
                   else "not in BENCHMARK.json")
                  for metric in TOKEN.findall(listed)]
    return found


def unresolved(text):
    return [f"{what}: {problem}"
            for what, problem in citations(text) if problem]


def uncited_experiments(text):
    """``## E<n>`` sections that name no regenerator at all."""
    sections = re.split(r"^## (?=E\d+\b)", text, flags=re.M)[1:]
    return [section.split(" ", 1)[0] for section in sections
            if not citations(section.split("\n## ", 1)[0])]


def test_every_cited_regenerator_resolves():
    for doc in DOCS:
        cited = citations((REPO / doc).read_text())
        assert [pair for pair in cited if pair[1]] == [], doc
        assert len(cited) >= 10, f"{doc}: the scan found nothing"


def test_every_experiment_cites_a_regenerator():
    text = (REPO / "EXPERIMENTS.md").read_text()
    assert len(re.findall(r"^## E\d+\b", text, flags=re.M)) >= 20
    assert uncited_experiments(text) == []


def test_the_checker_fails_on_a_renamed_node_a_lost_file_or_metric():
    good = ("## E1 — ok\n`tests/test_docs_pointers.py::unresolved` and\n"
            "`::defined_in`, `examples/quickstart.py`, the `bench/`\n"
            "metrics `setup_s`, `olap.share` and `web.share`.\n")
    assert len(citations(good)) == 6
    assert unresolved(good) == uncited_experiments(good) == []
    bad = ("## E1 — rotted\n`tests/test_docs_pointers.py::test_renamed`,\n"
           "`::TestGone::test_x`, `tests/test_gone.py`, `examples/gone.py`\n"
           "and the `bench/` metric `olap.query_ms`.\n"
           "## E2 — prose only\nNumbers, and `repro.olap` in backticks.\n"
           "## Not an experiment\n")
    assert unresolved(bad) == [
        "tests/test_docs_pointers.py::test_renamed: "
        "test_renamed is not defined in it",
        "tests/test_docs_pointers.py::TestGone::test_x: "
        "TestGone::test_x is not defined in it",
        "tests/test_gone.py: no such file",
        "examples/gone.py: no such file",
        "olap.query_ms: not in BENCHMARK.json"]
    assert uncited_experiments(bad) == ["E2"]
