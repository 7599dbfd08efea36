"""Every public name defined in ``src/`` is reached by code outside the
tests, or is on an allow-list that says why it stays.

A definition is a public module-level function or class of
``src/switchflow/*.py``, or a public method of such a class.  It is reached
when its name appears as an ``ast.Name``, as the attribute of an
``ast.Attribute`` or as an import alias in ``src/`` (less ``__init__.py``,
whose re-exports reach nothing), ``scripts/`` or ``bench/``.  The check
matches names, not a call graph: a name spelled only inside a string, such
as ``"nnz"``, is not reached.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "switchflow"

# public names that only tests reach, each with the reason it stays
ALLOWED = {
    "chains.lift_kernel": "the viability kernel; ROADMAP item 10 reaches it",
    "sequences.constant_sequence": "ROADMAP item 14 (limit sets of the shift flow)",
    "sequences.periodic_sequence": "ROADMAP item 14 (limit sets of the shift flow)",
    "sequences.transitive_sequence": "ROADMAP item 14 (limit sets of the shift flow)",
    "sequences.contains_factor": "ROADMAP item 14 (limit sets of the shift flow)",
    "signals.lift_membership": "ROADMAP item 14 (limit sets of the shift flow)",
    "signals.sensitivity_witness": "ROADMAP item 14 (limit sets of the shift flow)",
    "graph.RangeRows.nnz": "bench/spans.py names it only as a string; "
                           "ROADMAP items 12 and 23 read it",
    "graph.DirectedGraph.complete": "the complete graph of the paper's Example 2, "
                                    "which acceptance criterion 7 builds",
    "graph.DirectedGraph.cycle": "the cycle graph of the paper's Example 2, "
                                 "which acceptance criterion 8 builds",
}


def _public(nodes):
    return [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def definitions() -> dict[str, str]:
    """``module.name`` and ``module.Class.method`` of every public
    definition in ``src/``, mapped to the name that reaches it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(ast.parse(path.read_text()).body):
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    found[f"{path.stem}.{node.name}.{method.name}"] = method.name
    return found


def mentioned() -> set[str]:
    """The names that code outside the tests mentions."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def unreached() -> set[str]:
    names = mentioned()
    return {key for key, name in definitions().items() if name not in names}


def test_every_public_name_is_reached_outside_tests():
    # a public name that only tests call is code to delete, or to allow here
    # with the reason it stays
    assert sorted(unreached() - set(ALLOWED)) == []


def test_allow_list_names_only_unreached_definitions():
    # an entry that is reached, or no longer defined, has gone stale
    assert sorted(set(ALLOWED) - unreached()) == []
