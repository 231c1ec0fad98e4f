"""Scope and symbol-table helpers for the concurrency rules (REP1xx).

The concurrency pass needs facts the determinism rules never did:

* which attributes a class has *declared* lock-protected (the
  ``# guarded-by: <lock>`` annotation grammar, parsed here);
* which locks are held at a given AST node (``with self._lock:``
  context tracking, threaded through :func:`nodes_with_guards`).

Everything here is a pure AST/tokenize walk: linting a file never
imports or executes it.

The ``# guarded-by:`` grammar
-----------------------------

Attached to an attribute declaration (any assignment to ``self.X``,
usually in ``__init__``, or a class-body annotation)::

    self._history: Dict[str, Deque[float]] = {}  # guarded-by: _lock

declares that every ``self._history`` access outside ``__init__`` must
happen under ``with self._lock:`` (REP101).  Attached to a ``def``
line::

    def _live_spend(self, account, now):  # guarded-by: _lock

declares that the *caller* must hold the lock: the method body is
checked as if the lock were held, and every call site is checked for
actually holding it.

The special guard name ``<event-loop>`` declares single-task
confinement instead of a lock: the attribute may only be touched from
``async def`` methods (everything then runs on the one event loop, so
no lock is needed — but a sync method touching it could run on any
thread).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from repro.devtools.rules import attr_tokens

#: The pseudo-guard for asyncio single-task confinement.
EVENT_LOOP_GUARD = "<event-loop>"

_GUARD_RE = re.compile(r"#\s*guarded-by:\s*(?P<guard>\S+)")

AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def guard_comments(source: str) -> Dict[int, str]:
    """Map line number -> guard name for every ``# guarded-by:`` comment."""
    out: Dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _GUARD_RE.search(tok.string)
            if match is not None:
                out[tok.start[0]] = match.group("guard")
    except tokenize.TokenizeError:
        pass  # the ast parse will report the file as unparseable
    return out


def _stmt_guard(
    stmt: ast.stmt, comments: Dict[int, str]
) -> Optional[str]:
    """The guard annotated on any physical line of *stmt* (declarations
    can span lines — a ``self._pending: List[...] = []`` wrapped by the
    formatter keeps its trailing comment on the last line)."""
    end = stmt.end_lineno or stmt.lineno
    for line in range(stmt.lineno, end + 1):
        guard = comments.get(line)
        if guard is not None:
            return guard
    return None


@dataclass
class ClassScope:
    """One class with its guard annotations resolved."""

    node: ast.ClassDef
    name: str
    #: method name -> def node (own body only, not nested classes).
    methods: Dict[str, AnyFunctionDef] = field(default_factory=dict)
    #: attribute name -> (guard name, declaration line).
    guarded_attrs: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: method name -> guard the *caller* must hold.
    method_guards: Dict[str, str] = field(default_factory=dict)


def collect_class_scopes(
    tree: ast.Module, source: str
) -> List[ClassScope]:
    """Every class in *tree* with its ``# guarded-by:`` annotations."""
    comments = guard_comments(source)
    scopes: List[ClassScope] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        scope = ClassScope(node=cls, name=cls.name)
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.methods[item.name] = item
                # A guard on the signature (def line through the line
                # before the body) binds the method, not an attribute.
                sig_end = item.body[0].lineno - 1 if item.body else item.lineno
                for line in range(item.lineno, max(item.lineno, sig_end) + 1):
                    guard = comments.get(line)
                    if guard is not None:
                        scope.method_guards[item.name] = guard
                        break
                # Attribute declarations live in method bodies
                # (conventionally __init__).
                for stmt in ast.walk(item):
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    guard = _stmt_guard(stmt, comments)
                    if guard is None:
                        continue
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        tokens = attr_tokens(target)
                        if len(tokens) == 2 and tokens[0] == "self":
                            scope.guarded_attrs[tokens[1]] = (
                                guard,
                                stmt.lineno,
                            )
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                # Class-body declaration: ``hits: int = 0  # guarded-by: _lock``
                guard = _stmt_guard(item, comments)
                if guard is None:
                    continue
                targets = (
                    item.targets
                    if isinstance(item, ast.Assign)
                    else [item.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope.guarded_attrs[target.id] = (
                            guard,
                            item.lineno,
                        )
        if scope.guarded_attrs or scope.method_guards:
            scopes.append(scope)
    return scopes


def _with_guard_name(expr: ast.AST) -> Optional[str]:
    """The guard a ``with`` context expression acquires, or ``None``.

    Recognises ``with self._lock:`` and ``with _lock:`` (module-level
    lock).  Anything fancier (a lock fetched from a dict, a condition
    variable method) is conservatively not treated as acquiring a
    guard.
    """
    tokens = attr_tokens(expr)
    if len(tokens) == 2 and tokens[0] == "self":
        return tokens[1]
    if len(tokens) == 1:
        return tokens[0]
    return None


def nodes_with_guards(
    fn: AnyFunctionDef, initial: FrozenSet[str] = frozenset()
) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
    """Yield ``(node, held_guards)`` for every node under *fn*.

    ``with self._lock:`` bodies extend the held set; the context
    expressions themselves are yielded with the *outer* set (taking the
    lock is not yet holding it).  Nested ``def``s inherit the held set
    at their definition site — a deliberate simplification: an
    immediately-invoked helper sees the true set, a stored closure may
    get a false negative, never a false positive.
    """

    def visit(
        node: ast.AST, held: FrozenSet[str]
    ) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
        yield node, held
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                yield from visit(item, held)
                guard = _with_guard_name(item.context_expr)
                if guard is not None:
                    acquired.add(guard)
            inner = held | frozenset(acquired)
            for stmt in node.body:
                yield from visit(stmt, inner)
        else:
            for child in ast.iter_child_nodes(node):
                yield from visit(child, held)

    for child in ast.iter_child_nodes(fn):
        yield from visit(child, initial)


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested ``def``s."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
