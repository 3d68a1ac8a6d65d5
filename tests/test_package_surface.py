"""Every public top-level name in the package is on a decision path.

Walks the modules of `src/padicdyn` with `ast` and requires each public
(not underscore-prefixed) function, class and constant defined at module
level to be referenced somewhere in the package outside its own
definition.  A name that only tests, or nothing at all, would call belongs
in `tests/scalar_reference.py` or nowhere.  The few names that stay for a
reader outside the decision paths are listed with their reason.
"""

import ast
from pathlib import Path

import padicdyn

PACKAGE = Path(padicdyn.__file__).resolve().parent

_PAPER_TABLE = "paper-table conversion; the acceptance tests check the paper's tables with it"

ALLOWED = {
    "HAVE_NUMBA": "perfbench/worker.py reads it for its environment report",
    "transitive_scan": "perfbench/tracer.py times it as a layer; acceptance 01 runs the census on it",
    "ergodic_conditions": "the sound ergodicity route classify is to be checked against "
    "(ROADMAP item 1)",
    "case_table_mask": _PAPER_TABLE,
    "vdp_from_mahler_p2": _PAPER_TABLE,
    "mahler_from_vdp_p2": _PAPER_TABLE,
    "alpha_from_mahler_p3": _PAPER_TABLE,
    "mahler_from_alpha_p3": _PAPER_TABLE,
    "selector_from_mahler_p3": _PAPER_TABLE,
    "mahler_normals_from_vdp_p3": _PAPER_TABLE,
    "vdp_normals_from_mahler_p3": _PAPER_TABLE,
    "vdp_to_mahler": "exact basis conversion; acceptance 10 checks its round trips",
    "mahler_to_vdp": "exact basis conversion; acceptance 10 checks its round trips",
    "valuation": "returns INFINITY at 0; acceptance 10 checks indicator valuations with it",
}


def _definitions(tree):
    """(name, node) for each public name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _references(tree, skip):
    """Names and attributes read in tree, outside the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def unreferenced_names(package: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            used = any(
                name in _references(other, node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                dead.append(f"{module[:-3]}.{name}")
    return dead


def test_every_public_name_is_referenced_in_the_package():
    dead = [name for name in unreferenced_names(PACKAGE) if name.split(".")[1] not in ALLOWED]
    assert dead == []


def test_allowed_names_exist_and_are_still_unreferenced():
    # an allow-list entry that is referenced again, or gone, is stale
    assert sorted(name.split(".")[1] for name in unreferenced_names(PACKAGE)) == sorted(ALLOWED)


def test_package_init_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in tree.body)
