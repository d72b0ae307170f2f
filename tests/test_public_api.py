"""Every public name in the package is used by the program, not only by tests,
and the tests reach the package through its public names only.

A public function, method or class of ``src/strongcluster/`` must be
referenced somewhere outside its own definition: in ``src/``, in the
benchmark's ``perfbench/*.py`` (which wraps module bindings by name), or as
an export of the package's ``__init__``.  References are matched by name: a
bare name, an attribute, an imported name or a string constant for a
module-level definition, and an attribute or a string constant for a
method.

A test may not import an ``_``-prefixed name from ``strongcluster``: what
it checks must be reachable through the public API.  Patching a private
attribute on a module the test imported publicly stays allowed.

Every check ``verify.py`` reports is named in some test, so each claim has
a test that can assert its verdict by name.

Every per-node list the simulator keeps, but for its port wiring, is read
by the node program, so no node state is only written, or kept only for
what the simulator reads off it at phase boundaries.

Every run of either backend starts in one function, the phase-stream seam
``cluster._backend_phases``: no other function builds a ``Simulator`` or
calls the reference phase loop ``_phases``, and the simulator has no
second entry point beside ``Simulator.phases``.

The node program (``Simulator._wake`` and ``_rehang``) reads no state that
spans the graph: not the graph itself, the identifier table, the run's alive
set or the identifier map.  A node knows its own slots of the per-node
lists, its inbox and the round context, nothing more.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "strongcluster"

# Public names that nothing in the program calls, each kept for a reason.
ALLOWED = {
    "check_ruling": "the ruling-radius checker; ROADMAP item 4 gives it a program caller "
                    "that checks each streamed phase",
    "check_step_invariants": "the checker of the per-step claims the acceptance module "
                             "runs; the program's modules name it only in docstrings",
}


def _definitions(tree: ast.Module):
    """(name, is_method, first line, last line) of each public top-level or class-level def."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, False, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield item.name, True, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line, is_attribute_like) for every name a module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno, True


def unreferenced_public_names() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, is_method, first, last in _definitions(trees[path]):
            used = any(
                ref == name and (attr_like or not is_method)
                and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ref, line, attr_like in found
            )
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_public_name_is_used_outside_tests():
    unused = [entry for entry in unreferenced_public_names() if entry.split()[-1] not in ALLOWED]
    assert unused == [], "public API that only tests call: " + ", ".join(unused)


def test_allowlist_names_only_unused_definitions():
    # An allowlisted name that the program has started to use, or that is
    # gone, leaves the list.
    unused = {entry.split()[-1] for entry in unreferenced_public_names()}
    assert set(ALLOWED) <= unused


def private_imports_in_tests() -> list[str]:
    """``file:line name`` of every ``_``-prefixed name a test imports from the package."""
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "strongcluster":
                names = [node.module + "." + alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.split(".")[0] == "strongcluster"]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if any(part.startswith("_") and not part.endswith("__") for part in name.split("."))
            ]
    return found


def test_tests_import_no_private_names():
    assert private_imports_in_tests() == []


def check_names() -> list[str]:
    """The name each ``CheckResult`` in ``verify.py`` is built with: a string, or an f-string's leading text."""
    names = []
    for node in ast.walk(ast.parse((PACKAGE / "verify.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult" and node.args:
            first = node.args[0]
            if isinstance(first, ast.JoinedStr) and first.values:
                first = first.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.append(first.value)
    return names


def test_every_check_name_appears_in_a_test():
    names = check_names()
    assert {"color-count", "step-depth-claims", "blame-ledger"} <= set(names)
    texts = [path.read_text() for path in sorted((ROOT / "tests").glob("*.py")) if path.name != Path(__file__).name]
    unnamed = sorted({name for name in names if not any(name in text for text in texts)})
    assert unnamed == [], "checks no test names: " + ", ".join(unnamed)


def _self_attr(node) -> str | None:
    """``x`` if node is ``self.x``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def unread_simulator_lists() -> tuple[list[str], list[str]]:
    """The per-node lists ``Simulator.__init__`` assigns, and those the node program does not read.

    A per-node list is ``self.x = [...] * n`` or a list comprehension; a
    read is a Load-context subscript ``self.x[...]`` in ``_wake`` or
    ``_rehang``.
    """
    tree = ast.parse((PACKAGE / "sim.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Simulator")
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    lists = []
    read = set()
    for method in methods:
        for node in ast.walk(method):
            if method.name == "__init__" and isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                per_node = isinstance(value, ast.ListComp) or (
                    isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)
                    and isinstance(value.left, ast.List)
                )
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                lists += [name for name in map(_self_attr, targets) if per_node and name]
            elif method.name in NODE_PROGRAM and isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                read.add(_self_attr(node.value))
    return lists, [name for name in lists if name not in read]


# The simulator's own port wiring, read when it delivers a message.
PORT_WIRING = ("rev_port",)


def test_every_simulator_list_is_read():
    lists, unread = unread_simulator_lists()
    assert {"parent", "depth", "root", "red_nbr", "rev_port"} <= set(lists)
    unread = [name for name in unread if name not in PORT_WIRING]
    assert unread == [], "simulator state the node program does not read: " + ", ".join(unread)


# Simulator attributes that hold the whole graph's state, not one node's.
GLOBAL_STATE = ("g", "start", "ids")
NODE_PROGRAM = ("_wake", "_rehang")


def global_reads_in_node_program(source: str) -> tuple[list[str], list[str]]:
    """The node-program methods found in ``source``, and each read of ``GLOBAL_STATE`` inside them."""
    tree = ast.parse(source)
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Simulator")
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name in NODE_PROGRAM]
    reads = [
        f"sim.py:{node.lineno} {method.name} reads self.{_self_attr(node)}"
        for method in methods
        for node in ast.walk(method)
        if _self_attr(node) in GLOBAL_STATE
    ]
    return [method.name for method in methods], reads


def test_node_program_reads_only_local_state():
    found, reads = global_reads_in_node_program((PACKAGE / "sim.py").read_text())
    assert sorted(found) == sorted(NODE_PROGRAM)
    assert reads == [], "the node program reads global state: " + ", ".join(reads)


def test_node_program_guard_sees_a_one_line_mutant():
    # A wakeup that reads its neighbours off the graph is caught.
    source = (PACKAGE / "sim.py").read_text()
    anchor = "        if not self.alive[v]:\n            return\n"
    assert source.count(anchor) == 1
    _, reads = global_reads_in_node_program(source.replace(anchor, anchor + "        self.g.adj[v]\n"))
    assert len(reads) == 1 and reads[0].endswith("_wake reads self.g"), reads


SEAM = "_backend_phases"


def _calls_by_function(tree: ast.AST, owner: str | None = None):
    """(name of the innermost enclosing function, call) for every call in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(node, node.name)
            continue
        if isinstance(node, ast.Call):
            yield owner, node
        yield from _calls_by_function(node, owner)


def backend_starts(package: Path = PACKAGE) -> list[str]:
    """``file:line function callee`` of every call that builds a ``Simulator`` or runs ``_phases``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for owner, call in _calls_by_function(ast.parse(path.read_text(), filename=str(path))):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if callee in ("Simulator", "_phases"):
                found.append(f"{path.name}:{call.lineno} {owner} {callee}")
    return found


def second_entry_points(package: Path = PACKAGE) -> list[str]:
    """``_streamed_run`` anywhere in the package, and a ``run`` method on ``Simulator``."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name == "_streamed_run":
                found.append(f"{path.name}:{node.lineno} _streamed_run")
            if isinstance(node, ast.ClassDef) and node.name == "Simulator":
                found += [
                    f"{path.name}:{item.lineno} Simulator.run"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "run"
                ]
    return found


def test_every_backend_run_starts_in_the_seam():
    starts = backend_starts()
    assert sorted(entry.split()[-1] for entry in starts) == ["Simulator", "_phases"], starts
    assert [entry for entry in starts if entry.split()[1] != SEAM] == []
    assert second_entry_points() == []
