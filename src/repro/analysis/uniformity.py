"""Replication-level dataflow over function bodies.

Implements the three-level lattice documented in
:mod:`repro.analysis.callgraph` (``TRUE`` > ``CONV`` > ``NONUNIFORM``) as a
single forward walk over a function's statements.  The same walker serves
two consumers:

* :func:`compute_returns` — a function's return-replication summary, used
  at call sites ("branching on ``stream.settle()`` is safe, it ends in a
  verdict broadcast");
* the collective-lockstep rule, which subclasses :class:`FlowWalker` and
  hooks statement entry to flag collectives guarded by non-replicated
  control flow.

Two deliberate domain conventions:

* ``comm is None`` tests select the *sequential* execution path.  The
  sequential arm is skipped entirely (there is no lockstep to violate with
  one PE) and the distributed arm is walked as if unconditional.
* Function parameters and ``self`` state are replicated **by convention**
  (SPMD programs pass the same configuration everywhere), but per-PE
  measurements of the data they carry — ``.size``/``.shape``/``len()``/
  ``.rank``/``.local`` — are not.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import (
    CONV,
    NONUNIFORM,
    REPLICATED_COLLECTIVES,
    TRUE,
    CallGraph,
    FunctionInfo,
    _attr_chain,
    _is_comm_like,
    _SHAPE_ATTRS,
    _PER_PE_TOKENS,
)


def comm_guard(test: ast.expr) -> str | None:
    """Classify a branch test as a sequential/distributed comm guard.

    Returns ``"sequential-body"`` for ``<comm> is None`` (the body is the
    sequential arm), ``"distributed-body"`` for ``<comm> is not None``,
    and None for everything else.
    """
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and _is_comm_like(test.left)
    ):
        return (
            "sequential-body"
            if isinstance(test.ops[0], ast.Is)
            else "distributed-body"
        )
    return None


class FlowWalker:
    """Forward replication-level propagation over one function body."""

    def __init__(self, graph: CallGraph, info: FunctionInfo, param_level: int):
        self.graph = graph
        self.info = info
        self.module_names = self._module_level_names()
        self.env: dict[str, int] = {}
        args = info.node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.env[arg.arg] = param_level
        if info.class_name is not None:
            # The receiver is judged at each call site (see ``_lvl_Call``),
            # so a method's body sees it replicated at least by convention.
            for name in ("self", "cls"):
                self.env[name] = max(self.env.get(name, param_level), CONV)
        self.return_levels: list[int] = []

    def _module_level_names(self) -> set[str]:
        names: set[str] = set()
        module = None
        for m in self.graph.project.modules:
            if m.path == self.info.module_path:
                module = m
                break
        if module is None:
            return names
        for node in module.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
        return names

    # -- expression levels ---------------------------------------------------

    def level(self, expr: ast.expr | None) -> int:
        if expr is None:
            return TRUE
        method = getattr(self, f"_lvl_{type(expr).__name__}", None)
        if method is not None:
            return method(expr)
        # Unknown expression kinds: conservative.
        return NONUNIFORM

    def _lvl_Constant(self, node) -> int:
        return TRUE

    def _lvl_Name(self, node) -> int:
        if node.id in self.env:
            return self.env[node.id]
        if node.id in self.module_names or node.id in _BUILTIN_NAMES:
            return TRUE
        return NONUNIFORM

    def _lvl_Attribute(self, node) -> int:
        chain = _attr_chain(node)
        if chain and set(chain) & _PER_PE_TOKENS:
            return NONUNIFORM
        base = self.level(node.value)
        if node.attr in _SHAPE_ATTRS:
            # `.size` on a communicator is the PE count — replicated by
            # definition, unlike `.size` on data (the local chunk length).
            if _is_comm_like(node.value):
                return base
            return TRUE if base == TRUE else NONUNIFORM
        return base

    def _lvl_Subscript(self, node) -> int:
        return min(self.level(node.value), self.level(node.slice))

    def _lvl_Slice(self, node) -> int:
        return min(
            self.level(node.lower), self.level(node.upper), self.level(node.step)
        )

    def _lvl_Call(self, node: ast.Call) -> int:
        op = CallGraph.collective_op(node)
        if op is not None:
            return TRUE if op in REPLICATED_COLLECTIVES else NONUNIFORM
        arg_levels = [self.level(a) for a in node.args] + [
            self.level(kw.value) for kw in node.keywords
        ]
        func = node.func
        targets: list[FunctionInfo] = []
        receiver_level = TRUE
        callee_name = None
        if isinstance(func, ast.Name):
            callee_name = func.id
            targets = self.graph.resolve_edge(self.info, "bare", func.id)
        elif isinstance(func, ast.Attribute):
            callee_name = func.attr
            chain = _attr_chain(func)
            if chain and set(chain) & _PER_PE_TOKENS:
                return NONUNIFORM
            kind = "self" if chain and chain[0] in ("self", "cls") else "attr"
            root = chain[0] if chain and kind == "attr" else None
            targets = self.graph.resolve_edge(self.info, kind, func.attr, root)
            receiver_level = self.level(func.value)
        if callee_name == "len":
            inner = min(arg_levels) if arg_levels else TRUE
            return TRUE if inner == TRUE else NONUNIFORM
        floor = min(arg_levels + [receiver_level]) if (arg_levels or targets) else receiver_level
        if targets:
            worst = min(t.returns_worst for t in targets)
            best = min(t.returns_best for t in targets)
            if worst == TRUE:
                # Return value forced replicated (e.g. ends in a verdict
                # broadcast) regardless of the arguments.
                return TRUE
            if worst == CONV:
                # Replicated whatever the arguments, given the receiver
                # (e.g. a checker decoding the bytes of an allreduce with
                # its own configuration): as replicated as the receiver.
                return min(CONV, receiver_level)
            return min(best, floor)
        # Unanalyzed callee (numpy, stdlib): assume pure in its arguments.
        return floor

    def _lvl_BoolOp(self, node) -> int:
        return min(self.level(v) for v in node.values)

    def _lvl_BinOp(self, node) -> int:
        return min(self.level(node.left), self.level(node.right))

    def _lvl_UnaryOp(self, node) -> int:
        return self.level(node.operand)

    def _lvl_Compare(self, node) -> int:
        # Optional-argument presence is SPMD-uniform: `x is None` is the
        # idiom for "was this configured", not a data inspection.
        if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and all(
            isinstance(c, ast.Constant) and c.value is None
            for c in node.comparators
        ):
            return TRUE
        return min(
            [self.level(node.left)] + [self.level(c) for c in node.comparators]
        )

    def _lvl_IfExp(self, node) -> int:
        return min(
            self.level(node.test), self.level(node.body), self.level(node.orelse)
        )

    def _lvl_Tuple(self, node) -> int:
        return min((self.level(e) for e in node.elts), default=TRUE)

    _lvl_List = _lvl_Tuple
    _lvl_Set = _lvl_Tuple

    def _lvl_Dict(self, node) -> int:
        levels = [self.level(k) for k in node.keys if k is not None]
        levels += [self.level(v) for v in node.values]
        return min(levels, default=TRUE)

    def _lvl_JoinedStr(self, node) -> int:
        return min((self.level(v) for v in node.values), default=TRUE)

    def _lvl_FormattedValue(self, node) -> int:
        return self.level(node.value)

    def _lvl_Starred(self, node) -> int:
        return self.level(node.value)

    def _lvl_Await(self, node) -> int:
        return self.level(node.value)

    def _lvl_NamedExpr(self, node) -> int:
        lvl = self.level(node.value)
        if isinstance(node.target, ast.Name):
            self.env[node.target.id] = lvl
        return lvl

    def _lvl_Lambda(self, node) -> int:
        return TRUE  # a function object is replicated; its results are judged at call sites

    def _comprehension_level(self, node) -> int:
        child_env = dict(self.env)
        try:
            for gen in node.generators:
                lvl = self.level(gen.iter)
                for name in _target_names(gen.target):
                    self.env[name] = lvl
            if isinstance(node, ast.DictComp):
                return min(self.level(node.key), self.level(node.value))
            return self.level(node.elt)
        finally:
            self.env = child_env

    _lvl_ListComp = _comprehension_level
    _lvl_SetComp = _comprehension_level
    _lvl_GeneratorExp = _comprehension_level
    _lvl_DictComp = _comprehension_level

    # -- statement walk ------------------------------------------------------

    def walk_function(self) -> None:
        self.walk_block(self.info.node.body)

    def walk_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        self.enter_stmt(stmt)
        if isinstance(stmt, ast.Assign):
            lvl = self.level(stmt.value)
            for target in stmt.targets:
                self._assign(target, lvl)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.level(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            lvl = self.level(stmt.value)
            if isinstance(stmt.target, ast.Name):
                old = self.env.get(stmt.target.id, NONUNIFORM)
                self.env[stmt.target.id] = min(old, lvl)
        elif isinstance(stmt, ast.Return):
            self.return_levels.append(self.level(stmt.value))
        elif isinstance(stmt, ast.If):
            self._walk_if(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            lvl = self.level(stmt.iter)
            for name in _target_names(stmt.target):
                self.env[name] = lvl
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.level(stmt.test)
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.walk_block(stmt.body)
            for handler in stmt.handlers:
                self.walk_block(handler.body)
            self.walk_block(stmt.orelse)
            self.walk_block(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                lvl = self.level(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, lvl)
            self.walk_block(stmt.body)
        elif isinstance(stmt, ast.Expr):
            self.level(stmt.value)
        # Raise / Pass / Break / Continue / nested defs: no level effects.

    def _walk_if(self, stmt: ast.If) -> None:
        guard = comm_guard(stmt.test)
        if guard == "sequential-body":
            # Only the distributed arm exists under lockstep analysis.
            if not _block_always_exits(stmt.body):
                self._walk_branch_merge(stmt, walk_body=False)
            else:
                self.walk_block(stmt.orelse)
            return
        if guard == "distributed-body":
            self.walk_block(stmt.body)
            return
        self.level(stmt.test)
        self._walk_branch_merge(stmt, walk_body=True)

    def _walk_branch_merge(self, stmt: ast.If, walk_body: bool) -> None:
        saved = dict(self.env)
        branch_envs = []
        if walk_body:
            self.env = dict(saved)
            self.walk_block(stmt.body)
            branch_envs.append(self.env)
        self.env = dict(saved)
        self.walk_block(stmt.orelse)
        branch_envs.append(self.env)
        merged = dict(saved)
        for env in branch_envs:
            for name, lvl in env.items():
                if name in merged:
                    merged[name] = min(merged[name], lvl)
                else:
                    merged[name] = lvl
        self.env = merged

    def _assign(self, target: ast.expr, lvl: int) -> None:
        for name in _target_names(target):
            self.env[name] = lvl

    def enter_stmt(self, stmt: ast.stmt) -> None:
        """Hook for subclasses (the lockstep rule); default: nothing."""


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _block_always_exits(stmts: list[ast.stmt]) -> bool:
    """Whether a block unconditionally returns/raises (its tail is dead)."""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


import builtins as _builtins

#: Builtin names treated as replicated (function objects, not results).
_BUILTIN_NAMES = frozenset(dir(_builtins))


def compute_returns(graph: CallGraph, info: FunctionInfo) -> tuple[int, int]:
    """(worst, best) return-replication of ``info``.

    ``worst`` assumes every parameter but a method's receiver is per-PE
    data, and the receiver replicated by convention; ``worst == TRUE``
    therefore proves the return value is replicated no matter what was
    passed (it went through an ``allreduce``/``bcast``), and ``worst ==
    CONV`` that it is as replicated as the receiver.  ``best`` assumes
    replicated parameters and bounds the parametric case.
    """
    levels = []
    for param_level in (NONUNIFORM, TRUE):
        walker = FlowWalker(graph, info, param_level)
        walker.walk_function()
        if walker.return_levels:
            levels.append(min(walker.return_levels))
        else:
            levels.append(TRUE)  # implicit `return None`
    return levels[0], levels[1]
