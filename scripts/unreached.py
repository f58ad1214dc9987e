"""List the code in ``src/`` that only tests reach, and fail on knobs
nobody sets.

Usage::

    python scripts/unreached.py

The scan reads code with :mod:`ast`, so a name that appears only in a
comment, a docstring or a string does not count as a use.  References
count from ``src/`` (outside the referencing name's own definition and
the ``__init__`` re-exports), ``benchmarks/``, ``examples/`` and
``perfbench/``; ``tests/`` does not count, except where said below.

Reachability is marked from roots to a fixed point, so code that only
unreached code uses is reported too:

* roots are every name the non-``src`` directories import or use, and
  the module-level statements of ``src`` that define nothing;
* a module-level function, class or assignment is reached when reached
  code uses its name;
* a method is reached when its class is reached and reached code uses
  its name as an attribute or a name.  Dunder methods of a reached class
  are reached, and so is a method that overrides an attribute of a base
  class defined outside ``repro``.

Matching is by identifier, not by type: any ``x.fit`` keeps every
method named ``fit``.  The scan can therefore miss dead code, but a name
it reports has no use outside tests.

It also lists parameters with a default, positional or keyword-only,
that no reached call passes, in two sections: those that no call
passes, tests included (the scan run again with ``tests/`` counted as a
caller), and those that only tests pass.  A call matches a function by
its name (a class name matches its ``__init__``) and passes the
parameters its positional arguments reach.  Passing the caller's own
parameter of the same name, or the attribute ``self.<name>`` it was
stored in, is a forward: a forward counts only if what it forwards is
itself passed.  A call with ``**kwargs`` passes every parameter, and so
does any call of a function that reached code names other than as a
callee (it may be called through a variable).

A parameter that no call passes, tests included, is an option with one
value in use: make it a constant.  The exit status is 1 when the first
section lists any, else 0; the other lists are a report.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
CALLER_DIRS = ("benchmarks", "examples", "perfbench")
TEST_DIR = "tests"

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class CallSite:
    """A call, and the function and class the call sits in."""

    callee: str
    positional: int  # -1 when a *args spreads an unknown number
    keywords: list[tuple[str | None, ast.expr]]
    caller: ast.AST | None
    cls_name: str | None


@dataclass
class Code:
    """What one piece of code uses: identifiers, escaped names, calls."""

    refs: set[str] = field(default_factory=set)
    # Identifiers used other than as the callee of a call.
    escaped: set[str] = field(default_factory=set)
    calls: list[CallSite] = field(default_factory=list)

    def add(self, other: "Code") -> None:
        self.refs |= other.refs
        self.escaped |= other.escaped
        self.calls += other.calls


@dataclass(eq=False)
class Def:
    """One module-level function, class or assignment, or one method."""

    kind: str  # "function" | "class" | "name" | "method"
    name: str
    path: Path
    node: ast.AST
    code: Code
    owner: "Def | None" = None  # a method's class
    bases: list[str] = field(default_factory=list)  # a class's base names
    external_bases: list[type] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.owner.name}.{self.name}" if self.owner else self.name

    @property
    def first_line(self) -> int:
        decorators = getattr(self.node, "decorator_list", [])
        return min([self.node.lineno] + [d.lineno for d in decorators])

    @property
    def lines(self) -> int:
        return self.node.end_lineno - self.first_line + 1


class _Collector(ast.NodeVisitor):
    def __init__(self, count_imports: bool, cls_name: str | None) -> None:
        self.code = Code()
        self._count_imports = count_imports
        self._cls_name = cls_name
        self._functions: list[ast.AST] = []
        self._locals: list[set[str]] = []
        self._callees: set[int] = set()

    def _use(self, name: str, node: ast.AST) -> None:
        self.code.refs.add(name)
        if id(node) not in self._callees:
            self.code.escaped.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and not any(
            node.id in scope for scope in self._locals
        ):
            self._use(node.id, node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr, node)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        if self._count_imports:
            for alias in node.names:
                self.code.refs.update(alias.name.split("."))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._count_imports:
            self.code.refs.update(alias.name for alias in node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        for expr in node.decorator_list + args.defaults + args.kw_defaults:
            if expr is not None:
                self.visit(expr)
        for arg in _all_args(node):
            if arg.annotation is not None:
                self.visit(arg.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        bound = {a.arg for a in _all_args(node)}
        bound |= {a.arg for a in (args.vararg, args.kwarg) if a}
        bound |= {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
        }
        self._functions.append(node)
        self._locals.append(bound)
        for stmt in node.body:
            self.visit(stmt)
        self._locals.pop()
        self._functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        target, positional = node.func, len(node.args)
        self._callees.add(id(target))
        if _callee(target) == "partial" and node.args:
            target, positional = node.args[0], positional - 1
            self._callees.add(id(target))
        if any(isinstance(a, ast.Starred) for a in node.args):
            positional = -1
        callee = _callee(target)
        if callee == "cls" and self._cls_name:
            callee = self._cls_name
        if callee:
            self.code.calls.append(CallSite(
                callee=callee,
                positional=positional,
                keywords=[(k.arg, k.value) for k in node.keywords],
                caller=self._functions[-1] if self._functions else None,
                cls_name=self._cls_name,
            ))
        self.generic_visit(node)


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _all_args(fn: ast.AST) -> list[ast.arg]:
    args = fn.args
    return args.posonlyargs + args.args + args.kwonlyargs


def _collect(nodes, *, count_imports: bool = False, cls_name: str | None = None) -> Code:
    collector = _Collector(count_imports, cls_name)
    for node in nodes:
        collector.visit(node)
    return collector.code


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, for the module's top-level imports."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _external_bases(cls: ast.ClassDef, imports: dict[str, str]) -> list[type]:
    """Base classes of ``cls`` that are importable and not ``repro``'s."""
    bases = []
    for base in cls.bases:
        head, _, rest = ast.unparse(base).partition(".")
        origin = imports.get(head) or ("builtins." + head if not rest else None)
        if origin is None or origin.startswith("repro"):
            continue
        module_name, _, attr = (origin + ("." + rest if rest else "")).rpartition(".")
        try:
            bases.append(getattr(importlib.import_module(module_name), attr))
        except (ImportError, AttributeError):
            continue
    return bases


def _class_defs(cls: ast.ClassDef, path: Path, imports: dict[str, str]) -> list[Def]:
    body = [s for s in cls.body if not isinstance(s, FunctionNode)]
    owner = Def("class", cls.name, path, cls,
                _collect(body + cls.bases + cls.keywords + cls.decorator_list,
                         cls_name=cls.name),
                bases=[ast.unparse(b).rpartition(".")[2] for b in cls.bases],
                external_bases=_external_bases(cls, imports))
    defs = [owner]
    for stmt in cls.body:
        if isinstance(stmt, FunctionNode):
            defs.append(Def("method", stmt.name, path, stmt,
                            _collect([stmt], cls_name=cls.name), owner=owner))
    return defs


def scan_src() -> tuple[list[Def], Code]:
    """Definitions in ``src``, and the code of the module-level statements
    that define nothing (imports are re-exports, not uses)."""
    defs: list[Def] = []
    roots = Code()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = _imports(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, FunctionNode):
                defs.append(Def("function", stmt.name, path, stmt, _collect([stmt])))
            elif isinstance(stmt, ast.ClassDef):
                defs.extend(_class_defs(stmt, path, imports))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                if isinstance(stmt, ast.Assign):
                    targets, exprs = stmt.targets, [stmt.value]
                else:
                    targets, exprs = [stmt.target], [stmt.annotation, stmt.value]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if names == ["__all__"]:
                    continue
                code = _collect([e for e in exprs if e is not None])
                for name in names:
                    defs.append(Def("name", name, path, stmt, code))
                if not names:
                    roots.add(code)
            else:
                roots.add(_collect([stmt]))
    return defs, roots


def scan_callers(directories: tuple[str, ...]) -> Code:
    """Everything the code in ``directories`` uses."""
    code = Code()
    for directory in directories:
        for path in sorted((REPO / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            code.add(_collect([tree], count_imports=True))
    return code


def _always_reached(d: Def) -> bool:
    """Names the interpreter or a library calls without naming them here."""
    dunder = d.name.startswith("__") and d.name.endswith("__")
    if d.kind != "method":
        return dunder
    if dunder:
        return True
    return any(hasattr(base, d.name) for base in d.owner.external_bases)


def mark(defs: list[Def], roots: Code) -> tuple[set[int], Code]:
    """Reached definitions (by ``id``) and the code they add up to."""
    live = Code()
    live.add(roots)
    reached: set[int] = set()
    changed = True
    while changed:
        changed = False
        for d in defs:
            if id(d) in reached:
                continue
            if d.kind == "method" and id(d.owner) not in reached:
                continue
            if _always_reached(d) or d.name in live.refs:
                reached.add(id(d))
                live.add(d.code)
                changed = True
    return reached, live


def _forward_sources(value: ast.expr, name: str, call: CallSite):
    """What a keyword value forwards, or None when it is a value of its own.

    A forward is the caller's parameter ``name`` or ``self.name`` /
    ``self._name`` (the parameter its class stored), possibly chosen
    between by a conditional expression or an ``or``.
    """
    if isinstance(value, ast.IfExp):
        parts = [value.body, value.orelse]
    elif isinstance(value, ast.BoolOp):
        parts = value.values
    else:
        parts = [value]
    sources = []
    for part in parts:
        if (
            isinstance(part, ast.Name) and part.id == name
            and call.caller is not None
            and name in {a.arg for a in _all_args(call.caller)}
        ):
            sources.append(("param", call.caller))
        elif (
            isinstance(part, ast.Attribute) and part.attr in (name, "_" + name)
            and isinstance(part.value, ast.Name) and part.value.id == "self"
            and call.cls_name is not None
        ):
            sources.append(("init", call.cls_name))
        elif len(parts) > 1 and isinstance(part, ast.Constant):
            continue
        elif len(parts) > 1 and isinstance(part, (ast.IfExp, ast.BoolOp)):
            inner = _forward_sources(part, name, call)
            if inner is None:
                return None
            sources += inner
        else:
            return None
    return sources


def unpassed_parameters(defs: list[Def], reached: set[int], live: Code) -> list[tuple[Def, str]]:
    """Parameters with a default, of reached functions, that no reached
    call passes."""
    functions = [d for d in defs if id(d) in reached and isinstance(d.node, FunctionNode)]
    inits = {d.owner.name: d.node for d in functions if d.name == "__init__"}
    subclasses: dict[str, set[str]] = {}
    for d in defs:
        for base in d.bases:
            subclasses.setdefault(base, set()).add(d.name)
    by_callee: dict[str, list[CallSite]] = {}
    for call in live.calls:
        by_callee.setdefault(call.callee, []).append(call)

    # (id of function node, parameter with a default) -> passed by some call?
    passed: dict[tuple[int, str], bool] = {}
    for d in functions:
        args = d.node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, v in zip(args.kwonlyargs, args.kw_defaults) if v is not None]
        escaped = d.kind == "function" and d.name in live.escaped
        for arg in defaulted:
            passed[(id(d.node), arg.arg)] = escaped

    def source_passed(kind: str, where, name: str) -> bool:
        node = where if kind == "param" else inits.get(where)
        if node is None:
            return True  # not a function the scan tracks: assume passed
        return passed.get((id(node), name), True)

    def passes(call: CallSite, name: str, value: ast.expr) -> bool:
        sources = _forward_sources(value, name, call)
        if sources is None:
            return True
        return any(source_passed(kind, where, name) for kind, where in sources)

    changed = True
    while changed:
        changed = False
        for d in functions:
            args = d.node.args
            positional = args.posonlyargs + args.args
            if d.kind == "method" and not any(
                ast.unparse(dec) == "staticmethod" for dec in d.node.decorator_list
            ):
                positional = positional[1:]
            names = [a.arg for a in positional + args.kwonlyargs]
            if d.name == "__init__":
                # ``Owner(...)``, or ``super().__init__(...)`` in a subclass.
                calls = by_callee.get(d.owner.name, []) + [
                    c for c in by_callee.get("__init__", ())
                    if c.cls_name in subclasses.get(d.owner.name, ())
                ]
            else:
                calls = by_callee.get(d.name, [])
            for call in calls:
                for index, arg in enumerate(positional):
                    key = (id(d.node), arg.arg)
                    if passed.get(key) is False and (call.positional < 0 or call.positional > index):
                        passed[key] = changed = True
                for keyword, value in call.keywords:
                    for name in names if keyword is None else [keyword]:
                        key = (id(d.node), name)
                        if passed.get(key) is False and (
                            keyword is None or passes(call, name, value)
                        ):
                            passed[key] = changed = True
    return [
        (d, arg.arg)
        for d in functions
        for arg in _all_args(d.node)
        if passed.get((id(d.node), arg.arg)) is False
    ]


def scan(defs: list[Def], src_roots: Code, directories: tuple[str, ...]):
    """Reached definitions, their code, and the parameters with a default
    that no reached call passes, with ``directories`` as the callers."""
    roots = scan_callers(directories)
    roots.add(src_roots)
    reached, live = mark(defs, roots)
    return reached, unpassed_parameters(defs, reached, live)


def main() -> int:
    defs, src_roots = scan_src()
    reached, unpassed = scan(defs, src_roots, CALLER_DIRS)
    _, never_passed = scan(defs, src_roots, CALLER_DIRS + (TEST_DIR,))

    unreached = [d for d in defs if id(d) not in reached]
    by_module: dict[Path, list[Def]] = {}
    for d in defs:
        by_module.setdefault(d.path, []).append(d)
    dead_modules = sorted(
        path for path, members in by_module.items()
        if path.name != "__init__.py" and all(id(d) not in reached for d in members)
    )

    total = 0
    print("Modules that only tests reach:")
    for path in dead_modules:
        count = len(path.read_text().splitlines())
        total += count
        print(f"  {path.relative_to(REPO)}  ({count} lines)")
    print("Names and methods that only tests reach:")
    for d in sorted(unreached, key=lambda d: (str(d.path), d.first_line)):
        if d.path in dead_modules or (d.owner is not None and id(d.owner) not in reached):
            continue  # reported with its module or class
        total += d.lines
        print(f"  {d.path.relative_to(REPO)}:{d.first_line}  {d.kind} {d.label}"
              f"  ({d.lines} lines)")
    print(f"  total: {total} lines")
    nobody = {(id(d), name) for d, name in never_passed}
    for title, params in (
        ("no call passes, tests included", never_passed),
        ("only tests pass",
         [(d, name) for d, name in unpassed if (id(d), name) not in nobody]),
    ):
        print(f"Parameters with a default that {title}:")
        for d, name in params:
            print(f"  {d.path.relative_to(REPO)}:{d.node.lineno}"
                  f"  {d.label}({name}=)")
    return 1 if never_passed else 0


if __name__ == "__main__":
    raise SystemExit(main())
