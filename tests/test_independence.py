"""Code independence of the routes ``count --method all`` runs.

Two counters that agree are a cross-check only as far as they share no
code.  This test reads the source of ``gzcount`` with ``ast`` and
builds a reference graph: a function, a method, a class or a module
constant is a node, with an edge to every node its code names.  Calls
through a module (``genfun.build_G``) and attributes of a receiver whose
class is known resolve to the member they name: ``self`` in a method, a
parameter annotated with a class of the package, or a local assigned
from a constructor or from a function whose return annotation names
one.  An attribute of a receiver of unknown type resolves to nothing, so
``memo.get`` on a dict is not taken for ``CountCache.get``.  Naming a
class reaches its bases, its dunder methods (called implicitly) and the
values in its body; its other methods are reached by attribute only.

Each route starts from the names its branch of ``cli._cmd_count``'s
dispatch uses.  Two routes are code-disjoint when the node sets they
reach meet only in ``ALLOWED``: the guardrails in ``limits``, the record
base in ``records`` and ``cli.parse_partition``, which every route's
input passes through.  For each regime of ``cli.routes_for``, the
largest set of pairwise code-disjoint routes it chooses is checked
against ``DISJOINT_ROUTES`` (the fewest over the regime's inputs).
"""

import ast
from itertools import combinations
from pathlib import Path

import pytest

import gzcount
from gzcount import cli, counting
from gzcount.cli import COUNT_METHODS, routes_for
from gzcount.limits import DEFAULT_LIMIT_DIM

PACKAGE = Path(gzcount.__file__).parent

# The code shared between routes today: none.  a-infinity and the fiber
# route each strip their keys and walk the count DAG with their own code.
SHARED = {}

# Regime -> the largest number of pairwise code-disjoint routes that
# ``count --method all`` runs there, at the default --limit-dim.
DISJOINT_ROUTES = {
    ("at most 3 values", "n <= 6"): 4,
    ("at most 3 values", "n >= 7"): 3,
    ("4 or more values", "n <= 6"): 3,
    ("4 or more values", "n >= 7"): 2,
}

ALLOWED_MODULES = ("limits", "records")
ALLOWED = {"cli.parse_partition"}


def _walk(node):
    """``ast.walk`` without annotations, which name types, not code that runs."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    todo.append(child)


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


class Scope:
    """Where a function's code is read: its local names, each with the
    package classes it may hold, and the names its own imports bind."""

    def __init__(self, types=None, imports=None):
        self.types = types if types is not None else {}
        self.imports = imports if imports is not None else {}


class Graph:
    """The reference graph of every module of the package."""

    def __init__(self, root: Path):
        self.trees = {path.stem: ast.parse(path.read_text()) for path in root.glob("*.py")}
        self.defs = {}  # node -> (module, ast of the def, class node or None)
        self.members = {}  # class node -> {member name: node}
        self.fields = {}  # class node -> {field name: annotation}
        self.bases = {}  # class node -> [base expressions]
        self.top = {}  # module -> {top-level name: node}
        self.imports = {}  # module -> {name: (module, name) or (module, None)}
        for module, tree in self.trees.items():
            self.top[module], self.imports[module] = {}, {}
            self._read_block(module, tree.body)
        self.edges = {node: self._edges(node) for node in self.defs}

    def _read_block(self, module, body):
        for stmt in body:
            if _is_def(stmt):
                self._add(f"{module}.{stmt.name}", module, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                self._read_class(module, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in _walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            self._add(f"{module}.{name.id}", module, stmt, None)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.imports[module].update(self._bindings(stmt))
            elif isinstance(stmt, (ast.If, ast.Try)):
                self._read_block(module, stmt.body)

    def _read_class(self, module, stmt):
        node = f"{module}.{stmt.name}"
        self._add(node, module, stmt, None)
        self.members[node], self.fields[node], self.bases[node] = {}, {}, stmt.bases
        for item in stmt.body:
            if _is_def(item):
                self.members[node][item.name] = f"{node}.{item.name}"
                self.defs[f"{node}.{item.name}"] = (module, item, node)
            elif isinstance(item, ast.AnnAssign) and item.value is None:
                self.fields[node][item.target.id] = item.annotation
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.members[node][target.id] = node

    def _add(self, node, module, stmt, cls):
        self.defs[node] = (module, stmt, cls)
        self.top[module][node.split(".", 1)[1]] = node

    @staticmethod
    def _bindings(stmt):
        """Names an import statement binds: (package module, name), or
        (package module, None) for a module; None outside the package."""
        if isinstance(stmt, ast.Import):
            return {(alias.asname or alias.name).split(".")[0]: None for alias in stmt.names}
        if stmt.level == 0:
            return {alias.asname or alias.name: None for alias in stmt.names}
        if stmt.module is None:  # from . import genfun
            return {alias.asname or alias.name: (alias.name, None) for alias in stmt.names}
        return {alias.asname or alias.name: (stmt.module, alias.name) for alias in stmt.names}

    def lookup(self, module, name, local_imports=()):
        """The node ``name`` means in ``module``, following imports (first
        those of the function, if any): a node, ("module", name), or None."""
        if name in local_imports:
            if local_imports[name] is None:
                return None
            module, name = local_imports[name]
            if name is None:
                return ("module", module)
        for _ in range(len(self.trees)):
            if name in self.top[module]:
                return self.top[module][name]
            target = self.imports[module].get(name)
            if target is None:
                return None
            module, name = target
            if name is None:
                return ("module", module)
        raise AssertionError(f"import cycle at {module}.{name}")

    def member(self, cls, name):
        """The node of ``cls``'s member ``name``, searching its package bases."""
        if name in self.members[cls]:
            return self.members[cls][name]
        module = self.defs[cls][0]
        for base in self.bases[cls]:
            base = self._resolve(module, Scope(), base)
            if base in self.members:
                found = self.member(base, name)
                if found:
                    return found
        return None

    def classes_in(self, module, annotation):
        """Package classes named in an annotation (strings included)."""
        if annotation is None:
            return set()
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        found = set()
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found |= self.classes_in(module, node)
            elif isinstance(node, ast.Name):
                target = self.lookup(module, node.id)
                if target in self.members:
                    found.add(target)
        return found

    def _resolve(self, module, scope, expr):
        """The node a name refers to, or None for a local or another expression."""
        if isinstance(expr, ast.Name) and expr.id not in scope.types:
            return self.lookup(module, expr.id, scope.imports)
        return None

    def types(self, module, scope, expr):
        """Package classes the value of ``expr`` may be an instance of."""
        if isinstance(expr, ast.Name):
            if expr.id in scope.types:
                return scope.types[expr.id]
            target = self._resolve(module, scope, expr)
            if target in self.defs and isinstance(self.defs[target][1], ast.Assign):
                # A module constant: the classes of its value.
                defining, stmt, _ = self.defs[target]
                return self.types(defining, Scope(), stmt.value)
            return set()
        if isinstance(expr, ast.Attribute):
            found = set()
            for cls in self._receivers(module, scope, expr.value):
                if expr.attr in self.fields[cls]:
                    found |= self.classes_in(self.defs[cls][0], self.fields[cls][expr.attr])
                node = self.member(cls, expr.attr)
                if node in self.defs and node not in self.members:
                    defining, stmt, _ = self.defs[node]
                    if _is_def(stmt):
                        found |= self.classes_in(defining, stmt.returns)
            return found
        if isinstance(expr, ast.Call):
            target = self._target(module, scope, expr.func)
            if target in self.members:
                return {target}
            if target in self.defs and _is_def(self.defs[target][1]):
                return self.classes_in(self.defs[target][0], self.defs[target][1].returns)
        return set()

    def _receivers(self, module, scope, expr):
        """Package classes whose members ``expr.<name>`` may name: the
        classes of its value, or the class it names itself."""
        target = self._resolve(module, scope, expr)
        named = {target} if target in self.members else set()
        return self.types(module, scope, expr) | named

    def _target(self, module, scope, expr):
        """The node a name or an attribute refers to, or None."""
        if isinstance(expr, ast.Name):
            return self._resolve(module, scope, expr)
        if isinstance(expr, ast.Attribute):
            base = self._resolve(module, scope, expr.value)
            if isinstance(base, tuple):
                return self.lookup(base[1], expr.attr)
            for cls in self._receivers(module, scope, expr.value):
                found = self.member(cls, expr.attr)
                if found:
                    return found
        return None

    def scope_of(self, module, fn, cls):
        """The ``Scope`` of a function, its nested functions included."""
        scope, local_imports = {}, {}
        params = []
        for node in _walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                local_imports.update(self._bindings(node))
            elif isinstance(node, ast.arguments):
                params += node.posonlyargs + node.args + node.kwonlyargs
                params += [a for a in (node.vararg, node.kwarg) if a]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                scope.setdefault(node.id, set())
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not fn:
                scope.setdefault(node.name, set())
        for param in params:
            scope[param.arg] = self.classes_in(module, param.annotation)
        first = fn.args.posonlyargs + fn.args.args if _is_def(fn) else []
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in getattr(fn, "decorator_list", []))
        if cls and first and not static:
            scope[first[0].arg] = {cls}
        for name in local_imports:
            scope.pop(name, None)
        scope = Scope(scope, local_imports)
        for _ in range(2):  # a local typed from another local typed before it
            for node in _walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    scope.types[node.targets[0].id] |= self.types(module, scope, node.value)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    scope.types[node.target.id] |= self.classes_in(module, node.annotation)
        return scope

    def refs(self, module, nodes, scope):
        """Nodes the code in ``nodes`` names, read in ``scope``."""
        found = set()
        for root in nodes:
            for node in _walk(root):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found |= scope.types.get(node.id, set())
                    target = self._resolve(module, scope, node)
                elif isinstance(node, ast.Attribute):
                    target = self._target(module, scope, node)
                else:
                    continue
                if isinstance(target, str):
                    found.add(target)
        return found

    def _edges(self, node):
        module, stmt, cls = self.defs[node]
        if isinstance(stmt, ast.ClassDef):
            dunders = {m for name, m in self.members[node].items()
                       if name.startswith("__") and name.endswith("__") and m != node}
            body = [item for item in stmt.body if not _is_def(item)]
            return self.refs(module, stmt.bases + stmt.decorator_list + body, Scope()) | dunders
        if _is_def(stmt):
            return self.refs(module, [stmt], self.scope_of(module, stmt, cls))
        return self.refs(module, [stmt.value], Scope())

    def reach(self, start):
        seen, todo = set(), list(start)
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(self.edges[node])
        return seen


def _function(body, name):
    return next(stmt for stmt in body if _is_def(stmt) and stmt.name == name)


def route_entries(graph):
    """Route -> the nodes its branch of ``_cmd_count``'s ``run`` names.

    Each ``if method == "<route>":`` branch belongs to that route; the
    statements after the last branch belong to the one route left.
    """
    cmd = _function(graph.trees["cli"].body, "_cmd_count")
    run = _function(cmd.body, "run")
    scope = graph.scope_of("cli", cmd, None)
    entries = {}
    for i, stmt in enumerate(run.body):
        test = getattr(stmt, "test", None)
        if isinstance(test, ast.Compare) and isinstance(test.comparators[0], ast.Constant):
            entries[test.comparators[0].value] = graph.refs("cli", stmt.body, scope)
        elif not isinstance(stmt, ast.Expr):  # the rest, after any docstring
            (last,) = set(COUNT_METHODS) - set(entries)
            entries[last] = graph.refs("cli", run.body[i:], scope)
            break
    assert set(entries) == set(COUNT_METHODS)
    return entries


@pytest.fixture(scope="module")
def reach():
    graph = Graph(PACKAGE)
    allowed = ALLOWED | {node for node, (module, _, _) in graph.defs.items()
                         if module in ALLOWED_MODULES}
    return {route: graph.reach(start) - allowed
            for route, start in route_entries(graph).items()}


def _regime(mults, n):
    values = "at most 3 values" if len(mults) <= 3 else "4 or more values"
    return values, "n <= 6" if n <= 6 else "n >= 7"


def _compositions(n):
    """Every multiplicity vector of n values."""
    for cuts in range(1 << (n - 1)):
        mults, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                mults.append(run)
                run = 1
            else:
                run += 1
        yield tuple(mults + [run])


def _largest_disjoint(routes, shared):
    for size in range(len(routes), 0, -1):
        for group in combinations(routes, size):
            if not any(shared(a, b) for a, b in combinations(group, 2)):
                return size
    return 0


def test_each_route_reaches_its_own_counter(reach):
    expected = {
        "a-infinity": {"counting.a_infinity", "counting._a_walk", "counting._a_children",
                       "counting.CountCache"},
        "fiber": {"counting.count_by_fiber_recursion", "counting._fiber_walk",
                  "counting._fiber_children", "counting._two_value_count"},
        "formula": {"counting.binomial_formula_V"},
        "recurrence": {"counting.recurrence_V3", "counting._rec3_cone_cells"},
        "oracle": {"oracle.oracle_count", "oracle.build_hrep", "oracle.count_vertices",
                   "oracle._file_edges", "oracle._row_fault",
                   "oracle.GZShape", "oracle.GZShape.__init__", "oracle.GZShape.n",
                   "oracle.HRep", "oracle.HRep.dim", "oracle._child_rows"},
    }
    for route, nodes in expected.items():
        assert nodes <= reach[route], (route, sorted(nodes - reach[route]))
    # A dict method is not taken for the CountCache method of the same name.
    assert "counting.CountCache.get" not in reach["a-infinity"]
    assert "counting.CountCache.load" not in reach["a-infinity"]


def test_routes_share_only_the_pinned_code(reach):
    shared = {}
    for a, b in combinations(COUNT_METHODS, 2):
        common = reach[a] & reach[b]
        if common:
            shared[a, b] = common
    assert shared == SHARED


def test_largest_code_disjoint_route_set_in_each_regime(reach):
    def shares(a, b):
        return bool(reach[a] & reach[b])

    fewest = {}
    for n in range(1, 10):
        for mults in _compositions(n):
            chosen, _ = routes_for(mults, n, DEFAULT_LIMIT_DIM)
            regime = _regime(mults, n)
            size = _largest_disjoint(chosen, shares)
            fewest[regime] = min(fewest.get(regime, size), size)
    assert fewest == DISJOINT_ROUTES


def test_a_fault_in_a_infinity_alone_is_caught_at_n_8(monkeypatch, capsys):
    # Four or more values at n >= 7 run a-infinity and the fiber route
    # only; with no code in common, a fault in one shows as a mismatch.
    exact = counting._a_children

    def doubled_leaf(key):
        children = exact(key)
        if () in children:
            children[()] *= 2
        return children

    monkeypatch.setattr(counting, "_a_children", doubled_leaf)
    # A cold table, and no cache file to read from or to write the fault to.
    monkeypatch.setattr(counting, "SHARED_CACHE", counting.CountCache())
    monkeypatch.delenv("GZCOUNT_CACHE", raising=False)
    assert cli.main(["count", "1 2 3 4 5 6 7 8", "--method", "all"]) == 2
    out = capsys.readouterr().out
    assert "a-infinity 6001472" in out and "fiber 3000736" in out
    assert "agreement: MISMATCH" in out


def test_tri_table_shares_no_code_with_g_polynomial():
    # The tri check compares the table with g_s and h_s; it is a check
    # only while the table's growth loop is not the polynomials' loop.
    graph = Graph(PACKAGE)
    allowed = {node for node, (module, _, _) in graph.defs.items() if module in ALLOWED_MODULES}
    table = graph.reach({"counting.tri_table"}) - allowed
    slices = graph.reach({"counting.g_polynomial"}) | graph.reach({"counting.h_polynomial"})
    assert "polyseries._g_steps" in slices and "polyseries._h_steps" in slices
    assert table & slices == set()
