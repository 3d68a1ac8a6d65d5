"""Every public top-level name, every relative import and every defaulted
parameter in the package is on a decision path.

Walks the modules of `src/padicdyn` with `ast` and requires:

- each public (not underscore-prefixed) function, class and constant
  defined at module level, and each public method or property of a
  public class, to be referenced somewhere in the package outside its own
  definition (a method by its attribute name).  A name that only tests,
  or nothing at all, would call belongs in `tests/scalar_reference.py` or
  nowhere, and a cached property nothing reads is dead;
- each name a module imports with `from .x import name` to be read by
  that module, so no module re-exports another's names;
- each defaulted parameter of a package function to be set, by position or
  by keyword, by some call in the package.  A call that only passes on an
  unset parameter of its caller does not count, so a flag threaded through
  several layers from nowhere is found as a whole.

The few names and parameters that stay for a caller outside the package
are listed with their reason.  The package's modules together also stay
within a line ceiling.
"""

import ast
import importlib
from pathlib import Path

import padicdyn
from padicdyn import backends, identities

PACKAGE = Path(padicdyn.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

ALLOWED = {
    "HAVE_NUMBA": "perfbench/worker.py reads it for its environment report",
    "transitive_scan": "perfbench/tracer.py times it as a layer; acceptance 01 runs the census on it",
    "m_minus": "perfbench/tracer.py counts its calls as a layer (0 on every workload); "
               "dropping that entry is a benchmark change",
    "solve_fp": "perfbench/tracer.py counts its calls as a layer (0 on every workload since "
                "the power-basis solve interpolates); dropping that entry is a benchmark change",
    "PadicFunction.value_table": "perfbench/tracer.py times it as a layer; tests compare level tables with it",
}

_SUITE_RANGE = "an identity-suite range; verify sets it through identities.check_ranges"

# "function(parameter)" for defaulted parameters that no call in the package sets
ALLOWED_DEFAULTS = {
    "main(argv)": "the console script calls main(); tests pass argv",
    "abc_suite(p_max)": _SUITE_RANGE,
    "pzero_suite(p_max)": _SUITE_RANGE,
    "valpro_suite(p_max)": _SUITE_RANGE,
    "valpro_suite(s_max)": _SUITE_RANGE,
    "bipro_suite(p_max)": _SUITE_RANGE,
    "bipro_suite(s_max)": _SUITE_RANGE,
    "bip2_suite(s_max)": _SUITE_RANGE,
    "from_mahler(depth)": "classify calls it as ctor(series, depth)",
    "from_vdp(depth)": "classify calls it as ctor(series, depth)",
}


def _definitions(tree):
    """(name, node) for each public name bound at module level, and
    ("Class.method", node) for each public method or property of a public
    class."""
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
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


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
            attr = name.rsplit(".", 1)[-1]  # a method is read by its attribute name
            used = any(
                attr in _references(other, node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                dead.append(f"{module[:-3]}.{name}")
    return dead


def test_every_public_name_is_referenced_in_the_package():
    dead = [name for name in unreferenced_names(PACKAGE) if name.split(".", 1)[1] not in ALLOWED]
    assert dead == []


def test_allowed_names_exist_and_are_still_unreferenced():
    # an allow-list entry that is referenced again, or gone, is stale
    assert sorted(name.split(".", 1)[1] for name in unreferenced_names(PACKAGE)) == sorted(ALLOWED)


def test_package_init_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in tree.body)


def unread_imports(package: Path) -> list[str]:
    """module.name for each `from .x import name` the module never reads."""
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                bound = (alias.asname or alias.name for alias in node.names)
                unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    return unread


def test_every_relative_import_is_read():
    assert unread_imports(PACKAGE) == []


def _functions(tree):
    """(name a call uses, node, parameters a call fills by position) for
    every function in tree: a method's self or cls is skipped, and __init__
    is called by its class's name."""
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                args = child.args.posonlyargs + child.args.args
                positional = [a.arg for a in args[cls is not None and not static:]]
                name = cls if child.name == "__init__" and cls else child.name
                yield name, child, positional
            stack.append((child, child.name if isinstance(child, ast.ClassDef) else None))


def _calls(node):
    """Calls in node's own body, not in the functions nested inside it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _calls(child)


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def unset_parameters(package: Path, allowed=()) -> list[str]:
    """module.function(parameter) for each defaulted parameter that no call
    in the package sets.  Allowed "function(parameter)" entries count as
    set, and so do the parameters they are passed on to."""
    defs = []  # (module, name, node, positional, defaulted)
    scopes = []  # (function node or None, its calls)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes.append((None, list(_calls(tree))))
        for name, fn, positional in _functions(tree):
            a = fn.args
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            defs.append((path.stem, name, fn, positional, defaulted))
            scopes.append((fn, list(_calls(fn))))
    by_name: dict = {}
    for _, name, fn, positional, _ in defs:
        by_name.setdefault(name, []).append((fn, positional))
    unset = {(fn, p) for _, name, fn, _, defaulted in defs for p in defaulted
             if f"{name}({p})" not in allowed}
    changed = True
    while changed:
        changed = False
        for caller, calls in scopes:
            for call in calls:
                for fn, positional in by_name.get(_callee(call), ()):
                    given = [(k.arg, k.value) for k in call.keywords]
                    given += list(zip(positional, call.args))
                    for param, value in given:
                        # passing on an unset parameter of the caller sets nothing
                        if (fn, param) in unset and (caller, getattr(value, "id", None)) not in unset:
                            unset.discard((fn, param))
                            changed = True
    return [f"{module}.{name}({p})" for module, name, fn, _, defaulted in defs
            for p in defaulted if (fn, p) in unset]


def test_every_defaulted_parameter_is_set_in_the_package():
    assert unset_parameters(PACKAGE, ALLOWED_DEFAULTS) == []


def test_allowed_parameters_exist_and_are_still_unset():
    unset = {name.split(".", 1)[1] for name in unset_parameters(PACKAGE)}
    assert set(ALLOWED_DEFAULTS) <= unset


def _tracer_table(name):
    """The literal tuple perfbench/tracer.py binds to name, read without
    importing the tracer."""
    tree = ast.parse(TRACER.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == name for target in node.targets))


def test_the_benchmark_tracers_names_resolve():
    # the tracer rebinds each (module, attr, class) by string, the identity
    # suites through _SUITES by function name; the worker reads the backend
    for module, attr, cls, *_ in _tracer_table("SPANNED") + _tracer_table("COUNTED"):
        owner = importlib.import_module(f"padicdyn.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(vars(owner).get(attr)), (module, attr, cls)
    assert identities._SUITES
    for fn in identities._SUITES.values():
        assert getattr(identities, fn.__name__) is fn
    assert isinstance(backends.HAVE_NUMBA, bool)
    assert backends.current_backend() == "numpy"


# the package's line ceiling: new code is paid for by code moved out or cut;
# lowered by 27 when reduce_map's per-level well-definedness check gave way
# to the one Lipschitz rule, `require_lipschitz`; raised by 25 for the UD1
# sweep's literal fallback and the proof of its cheap checks, which keep the
# sweep's witness the first failing (u, s, h)
LINE_CEILING = 3150


def test_package_stays_under_its_line_ceiling():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= LINE_CEILING
