"""Collective-call summaries and replication (uniformity) analysis.

The lockstep rule needs two whole-program facts about every function:

* its **collective summary** — which collective operations the function may
  issue, directly (``comm.allreduce(...)``) or transitively through calls to
  other analyzed functions (``stream.settle(comm)``); and
* whether its **return value is replicated** across PEs — branching on a
  replicated value is lockstep-safe (all PEs take the same arm), branching
  on per-PE data is the bug class the rule exists to catch.

Both are computed here over the whole :class:`~repro.analysis.engine.Project`
with a conservative, name-based call resolution: bare calls resolve through
per-module import maps, ``self.method()`` through the enclosing class and
its (project-local) bases, and ``obj.method()`` through *every* analyzed
function of that name — over-approximation is the right failure mode for a
deadlock detector.

Replication is a three-level lattice:

* ``TRUE`` — provably replicated: constants, module-level names, results of
  replicated collectives (``allreduce``/``broadcast``/``allgather``), and
  ``x is None`` tests (argument *presence* is SPMD-uniform even when the
  argument's *contents* are per-PE).
* ``CONV`` — replicated by the SPMD calling convention: function parameters
  and ``self`` state.  Configuration objects really are passed identically
  to every PE; but anything that measures the *local data* hung off them —
  ``.size``/``.shape``/``len()``/``.rank``/``.local`` — drops to
  ``NONUNIFORM``, which is exactly how a per-PE chunk hidden behind a
  replicated parameter is caught.
* ``NONUNIFORM`` — everything else: per-PE quantities, and the results of
  non-replicated collectives (``exscan``/``scan``/``gather``/``reduce``/
  ``alltoall`` deliver rank-dependent values).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# -- collective vocabulary ---------------------------------------------------

#: Methods on a communicator handle that are collectives.
COMM_COLLECTIVES = {
    "allreduce",
    "reduce",
    "broadcast",
    "bcast",
    "allgather",
    "gather",
    "scan",
    "exscan",
    "alltoall",
    "alltoallv",
    "alltoall_hypercube",
    "barrier",
}

#: The subset whose result is identical on every PE.
REPLICATED_COLLECTIVES = {"allreduce", "broadcast", "bcast", "allgather", "barrier"}

#: Modules whose top-level functions named like collectives ARE the
#: collective primitives (they implement them from point-to-point sends,
#: so a textual scan of their bodies would not see any collective).
_PRIMITIVE_MODULE_SUFFIXES = (
    "comm.collectives",
    "comm.communicator",
    # Transport backends implement the same primitives over real fabrics
    # (shared-memory rings, MPI); their internal send/recv loops are the
    # primitives themselves, not call sites to check for lockstep.
    "comm.backend",
    "comm.proc_backend",
    "comm.mpi_backend",
)

_SHAPE_ATTRS = {"size", "shape", "ndim", "nbytes"}
_PER_PE_TOKENS = {"rank", "local"}

# Replication lattice.
NONUNIFORM = 0
CONV = 1
TRUE = 2


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty list when not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _is_comm_like(node: ast.AST) -> bool:
    """Whether an expression denotes a communicator handle.

    Recognized: any name or attribute chain whose final component is
    ``comm`` or ends with ``comm`` (``comm``, ``self.comm``, ``subcomm``).
    """
    chain = _attr_chain(node)
    return bool(chain) and chain[-1].endswith("comm")


@dataclass
class FunctionInfo:
    """Static summary of one function or method."""

    module_path: str
    module_dotted: str
    qualname: str  # "Class.method" or "function"
    name: str
    class_name: str | None
    node: ast.FunctionDef
    #: (collective op, line) pairs issued directly in this body.
    direct: list[tuple[str, int]] = field(default_factory=list)
    #: unresolved call edges: (kind, name, receiver root) with kind in
    #: bare|self|attr; root is the leftmost name of an attribute chain
    #: (``np`` in ``np.sort``), used to rule out external modules.
    edges: list[tuple[str, str, str | None]] = field(default_factory=list)
    #: fixed point: every collective op reachable from this function.
    transitive: set[str] = field(default_factory=set)
    #: return-replication assuming per-PE parameters (a method's receiver
    #: replicated by convention).  ``TRUE`` here means the return value is
    #: replicated *no matter what was passed* — it went through an
    #: ``allreduce``/``bcast`` on the distributed path; ``CONV`` that it is
    #: as replicated as the receiver.
    returns_worst: int = NONUNIFORM
    #: return-replication assuming replicated parameters (bounds the
    #: parametric case at call sites).
    returns_best: int = NONUNIFORM


@dataclass
class ClassInfo:
    module_dotted: str
    name: str
    bases: list[str]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


class CallGraph:
    """Whole-project indexes + fixed-point collective summaries."""

    def __init__(self, project):
        self.project = project
        self.functions: list[FunctionInfo] = []
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.classes: dict[str, ClassInfo] = {}  # by bare class name
        self.imports: dict[str, dict[str, str]] = {}  # module -> name -> target
        self._index()
        self._fixed_point()
        self._returns_levels()

    # -- indexing ------------------------------------------------------------

    def _index(self) -> None:
        for module in self.project.modules:
            imports: dict[str, str] = {}
            self.imports[module.dotted] = imports
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        imports[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        imports[alias.asname or alias.name] = alias.name
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(module, node, class_name=None)
                elif isinstance(node, ast.ClassDef):
                    info = ClassInfo(
                        module_dotted=module.dotted,
                        name=node.name,
                        bases=[
                            chain[-1]
                            for base in node.bases
                            if (chain := _attr_chain(base))
                        ],
                    )
                    self.classes.setdefault(node.name, info)
                    for item in node.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            fn = self._add_function(
                                module, item, class_name=node.name
                            )
                            info.methods[item.name] = fn

    def _add_function(self, module, node, class_name) -> FunctionInfo:
        qual = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            module_path=module.path,
            module_dotted=module.dotted,
            qualname=qual,
            name=node.name,
            class_name=class_name,
            node=node,
        )
        # The comm layer's primitives ARE the collectives: seed them by name.
        if (
            module.dotted.endswith(_PRIMITIVE_MODULE_SUFFIXES)
            and node.name in COMM_COLLECTIVES
        ):
            info.direct.append((node.name, node.lineno))
        self._scan_body(info)
        self.functions.append(info)
        self.by_name.setdefault(node.name, []).append(info)
        return info

    def _scan_body(self, info: FunctionInfo) -> None:
        """Collect direct collective calls + unresolved edges.

        A nested def is indexed nowhere of its own: its calls count
        toward the function that encloses it, so a function that hands
        a closure to shared code reads as issuing the closure's
        collectives.
        """
        for call in self._own_calls(info.node):
            op = self.collective_op(call)
            if op is not None:
                info.direct.append((op, call.lineno))
                continue
            func = call.func
            if isinstance(func, ast.Name):
                info.edges.append(("bare", func.id, None))
            elif isinstance(func, ast.Attribute):
                chain = _attr_chain(func)
                if chain and chain[0] in ("self", "cls"):
                    info.edges.append(("self", func.attr, None))
                else:
                    info.edges.append(
                        ("attr", func.attr, chain[0] if chain else None)
                    )

    @staticmethod
    def _own_calls(fn_node: ast.AST):
        """Call nodes in a function body and its nested defs, not
        descending into nested classes."""
        stack = list(ast.iter_child_nodes(fn_node))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def collective_op(call: ast.Call) -> str | None:
        """The collective op name of a ``comm.<op>(...)`` call, else None."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in COMM_COLLECTIVES
            and _is_comm_like(func.value)
        ):
            return func.attr
        return None

    # -- call resolution -------------------------------------------------------

    def resolve_edge(
        self, info: FunctionInfo, kind: str, name: str, root: str | None = None
    ) -> list[FunctionInfo]:
        if kind == "attr" and root is not None:
            # `np.sort(...)` must not union with the project's own `sort`:
            # an attr call whose receiver root is an imported *external*
            # module is not a project call at all.
            target = self.imports.get(info.module_dotted, {}).get(root)
            if target is not None and not target.split(".")[0] == "repro":
                return []
        if kind == "bare":
            imports = self.imports.get(info.module_dotted, {})
            target = imports.get(name)
            if target is not None:
                dotted_mod, _, fn_name = target.rpartition(".")
                for candidate in self.by_name.get(fn_name or name, []):
                    if candidate.class_name is None and candidate.module_dotted == dotted_mod:
                        return [candidate]
                # Imported collective primitive referenced by bare name.
                if (
                    dotted_mod.endswith(_PRIMITIVE_MODULE_SUFFIXES)
                    and fn_name in COMM_COLLECTIVES
                ):
                    return []
            return [
                c
                for c in self.by_name.get(name, [])
                if c.class_name is None and c.module_dotted == info.module_dotted
            ]
        if kind == "self" and info.class_name is not None:
            targets = self._method_in_hierarchy(info.class_name, name)
            if targets:
                return targets
        # attr (and unresolved self): every analyzed function of that name.
        return self.by_name.get(name, [])

    def _method_in_hierarchy(self, class_name: str, method: str):
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return [cls.methods[method]]
            queue.extend(cls.bases)
        return []

    # -- fixed point -------------------------------------------------------------

    def _fixed_point(self) -> None:
        for info in self.functions:
            info.transitive = {op for op, _ in info.direct}
        changed = True
        while changed:
            changed = False
            for info in self.functions:
                for kind, name, root in info.edges:
                    for target in self.resolve_edge(info, kind, name, root):
                        if not target.transitive <= info.transitive:
                            info.transitive |= target.transitive
                            changed = True

    # -- return-replication -------------------------------------------------------

    def _returns_levels(self) -> None:
        # Optimistic start (callees default TRUE), then tighten to a fixed
        # point — cycles settle downward, never upward.
        from repro.analysis.uniformity import compute_returns

        for info in self.functions:
            info.returns_worst = TRUE
            info.returns_best = TRUE
        for _ in range(4):
            changed = False
            for info in self.functions:
                worst, best = compute_returns(self, info)
                if (worst, best) != (info.returns_worst, info.returns_best):
                    info.returns_worst = worst
                    info.returns_best = best
                    changed = True
            if not changed:
                break


def get_callgraph(project) -> CallGraph:
    """The project's (cached) :class:`CallGraph`."""
    if project._callgraph is None:
        project._callgraph = CallGraph(project)
    return project._callgraph
