"""Repo-invariant rules: ownership, concurrency, and resource discipline.

These encode the non-local invariants NOMAD's correctness claim rests on
(Yun et al., VLDB 2014, §3.5/§4.1) plus the resource rules earlier PRs
fixed real bugs against:

* NMD001 — a factor-matrix write outside an owner-guarded context.  The
  algorithm is lock-free *because* exactly one worker owns each ``h_j``
  (and each ``W`` row) at a time; any write site outside the declared
  token-dispatch functions breaks that argument silently.
* NMD002 — a thread target closure mutating enclosing state without an
  ``Event``/``Queue`` mediation object in sight.
* NMD003 — a ``SharedMemory(create=True)`` whose block can leak on an
  exception path (the PR 4 ``/dev/shm`` leak, made unrepeatable).
* NMD004 — a socket/Transport acquired without a ``close()`` on every
  path.
* NMD005 — ``time.time()`` in a timing-sensitive module (the PR 1
  wall/join fix: durations come from ``perf_counter``, deadlines from
  ``monotonic`` — never the settable wall clock).
* NMD006 — ``time.perf_counter()`` called directly in a substrate
  module (runtime/cluster/stream/serve).  Substrates stamp spans with
  ``repro.telemetry.clock`` — one sanctioned source keeps every
  recorded stamp on the same clock, so hop latencies measured across
  workers (and processes) stay comparable.

Ownership contexts are **declared per-module**: a substrate lists its
token-dispatch functions in a module-level ``__nomad_owner_contexts__``
tuple, and NMD001 reads that declaration from the AST.  A new engine
file that writes factors without declaring its owner functions is
flagged until it does — the declaration is the reviewable artifact.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import Finding, ModuleContext, terminal_name
from .rules import INVARIANT_TIER, Rule, register_rule

__all__ = [
    "FACTOR_NAMES",
    "FACTOR_SEGMENTS",
    "KERNEL_CALLS",
    "OWNER_DECLARATION",
    "SPAN_TIMING_SEGMENTS",
    "TIMING_SEGMENTS",
]

#: Names under which the factor matrices travel through the substrates.
FACTOR_NAMES = frozenset({"w", "h", "_w", "_h", "w_shared", "h_shared"})

#: Path segments marking a module as a factor-carrying substrate.
FACTOR_SEGMENTS = frozenset({"runtime", "cluster", "stream", "serve"})

#: Module-level dunder declaring the owner-guarded function allowlist.
OWNER_DECLARATION = "__nomad_owner_contexts__"

#: Kernel entry points that mutate W and the token's h_j in place — a
#: call to any of them is a factor write for NMD001 purposes.
KERNEL_CALLS = frozenset(
    {
        "process_column",
        "process_column_loss",
        "process_column_batch",
        "process_items",
    }
)

#: Path segments whose modules feed reported timings (wall/join splits,
#: prequential stamps, monitor deadlines).
TIMING_SEGMENTS = frozenset(
    {"runtime", "cluster", "stream", "metrics", "api", "serve", "telemetry"}
)

#: Path segments whose modules record telemetry spans — substrates that
#: must stamp through ``repro.telemetry.clock`` (NMD006).  Narrower than
#: :data:`TIMING_SEGMENTS`: the api/metrics layers time whole runs and
#: never feed the recorder, so ``perf_counter`` stays legitimate there
#: (and in :mod:`repro.telemetry` itself, which defines the clock).
SPAN_TIMING_SEGMENTS = frozenset({"runtime", "cluster", "stream", "serve"})

#: Synchronization constructors accepted as closure-state mediation.
_MEDIATORS = frozenset(
    {
        "threading.Event", "threading.Condition", "threading.Lock",
        "threading.RLock", "threading.Semaphore",
        "threading.BoundedSemaphore", "threading.Barrier",
        "queue.Queue", "queue.SimpleQueue", "queue.LifoQueue",
        "queue.PriorityQueue",
        "multiprocessing.Event", "multiprocessing.Queue",
        "multiprocessing.SimpleQueue", "multiprocessing.JoinableQueue",
    }
)

#: Call targets that acquire a socket-like resource.
_SOCKET_FACTORIES = frozenset(
    {"socket.socket", "socket.create_connection", "socket.create_server"}
)

#: Server constructors that bind a listening socket at construction —
#: acquiring one is acquiring the socket (``repro.serve`` brought the
#: first of these into the tree).
_SERVER_FACTORIES = frozenset(
    {
        "http.server.HTTPServer",
        "http.server.ThreadingHTTPServer",
        "socketserver.TCPServer",
        "socketserver.ThreadingTCPServer",
        "socketserver.UDPServer",
        "socketserver.ThreadingUDPServer",
    }
)


def _subscript_base(node: ast.AST) -> str | None:
    """Base name of a (possibly chained/attribute) subscript target,
    unwrapping a leading ``self.`` (``self._w[u]`` → ``"_w"``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr
        return None
    if isinstance(node, ast.Name):
        return node.id
    return None


def _owner_declaration(module: ModuleContext) -> frozenset[str] | None:
    """The module's ``__nomad_owner_contexts__`` allowlist, if declared."""
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == OWNER_DECLARATION:
                names = set()
                if isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.add(element.value)
                return frozenset(names)
    return None


@register_rule
class FactorWriteOutsideOwnerContext(Rule):
    code = "NMD001"
    name = "factor-write-outside-owner-context"
    description = (
        "factor-matrix write (W/H row store or process_column call) in a "
        "runtime/cluster/stream module outside the functions declared in "
        "__nomad_owner_contexts__"
    )
    tier = INVARIANT_TIER

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not FACTOR_SEGMENTS & set(module.segments[:-1]):
            return
        if module.segments[-1] == "__init__.py":
            return
        allowed = _owner_declaration(module)
        declared = allowed is not None
        allowed = allowed or frozenset()

        def flag(node: ast.AST, what: str) -> Finding:
            hint = (
                f"add the function to {OWNER_DECLARATION} if it is a "
                "sanctioned token-dispatch context"
                if declared
                else f"declare the module's {OWNER_DECLARATION} allowlist"
            )
            return module.finding(
                self.code,
                node,
                f"{what} outside an owner-guarded context — only the "
                "current owner of a row may write it (lock-freedom "
                f"argument, §3.5/§4.1); {hint}",
            )

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    base = _subscript_base(target)
                    if base not in FACTOR_NAMES:
                        continue
                    if not allowed & set(
                        module.enclosing_function_names(node)
                    ):
                        yield flag(node, f"store into factor matrix {base!r}")
            elif isinstance(node, ast.Call):
                called = terminal_name(node.func)
                if called not in KERNEL_CALLS:
                    continue
                if not allowed & set(module.enclosing_function_names(node)):
                    yield flag(
                        node,
                        f"{called} call (mutates W and h_j in place)",
                    )


@register_rule
class UnmediatedThreadClosure(Rule):
    code = "NMD002"
    name = "unmediated-thread-closure"
    description = (
        "threading.Thread target closure mutates enclosing-scope state "
        "while the spawning function creates no Event/Queue mediation"
    )
    tier = INVARIANT_TIER

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.resolve_call(node) != "threading.Thread":
                continue
            target = next(
                (kw.value for kw in node.keywords if kw.arg == "target"),
                node.args[0] if node.args else None,
            )
            if not isinstance(target, ast.Name):
                continue
            spawner = module.enclosing_function(node)
            if spawner is None:
                continue
            closure = next(
                (
                    stmt
                    for stmt in module.walk_shallow(spawner)
                    if isinstance(stmt, ast.FunctionDef)
                    and stmt.name == target.id
                ),
                None,
            )
            if closure is None:
                continue  # target defined elsewhere; not a capture
            shared = module.mutated_outer_names(
                closure
            ) & module.direct_bindings(spawner)
            shared -= module.direct_bindings(closure)
            if not shared:
                continue
            mediated = any(
                isinstance(inner, ast.Call)
                and module.resolve_call(inner) in _MEDIATORS
                for inner in ast.walk(spawner)
            )
            if mediated:
                continue
            names = ", ".join(sorted(shared))
            yield module.finding(
                self.code,
                node,
                f"thread target {target.id!r} mutates enclosing state "
                f"({names}) with no Event/Queue mediation in "
                f"{spawner.name!r} — add a stop Event or hand the state "
                "through a Queue (ownership mediation)",
            )


@register_rule
class SharedMemoryLeak(Rule):
    code = "NMD003"
    name = "shared-memory-unlink-gap"
    description = (
        "SharedMemory(create=True) outside a try whose finally "
        "unlinks/releases the block — leaks /dev/shm on an exception path"
    )
    tier = INVARIANT_TIER

    @staticmethod
    def _is_create(module: ModuleContext, call: ast.Call) -> bool:
        resolved = module.resolve_call(call) or ""
        if not (
            resolved.endswith("shared_memory.SharedMemory")
            or resolved == "SharedMemory"
        ):
            return False
        return any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )

    @staticmethod
    def _finally_releases(handler: ast.Try) -> bool:
        for node in handler.finalbody:
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                name = terminal_name(inner.func) or ""
                if "unlink" in name or "release" in name:
                    return True
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and self._is_create(module, node)):
                continue
            guarded = any(
                isinstance(ancestor, ast.Try)
                and self._finally_releases(ancestor)
                for ancestor in module.ancestors(node)
            )
            if not guarded:
                yield module.finding(
                    self.code,
                    node,
                    "shared-memory block created outside a try/finally "
                    "that unlinks it — an exception between create and "
                    "unlink leaks the block in /dev/shm until reboot "
                    "(the PR 4 MultiprocessNomad leak)",
                )


@register_rule
class UnclosedSocketResource(Rule):
    code = "NMD004"
    name = "socket-close-gap"
    description = (
        "socket, Transport, or HTTP server acquired without close() on "
        "all paths: not a with-block, never closed locally, and not "
        "owned by a class that defines close()"
    )
    tier = INVARIANT_TIER

    @staticmethod
    def _is_acquisition(module: ModuleContext, call: ast.Call) -> bool:
        resolved = module.resolve_call(call) or ""
        if resolved in _SOCKET_FACTORIES or resolved in _SERVER_FACTORIES:
            return True
        name = terminal_name(call.func) or ""
        if name == "accept" and isinstance(call.func, ast.Attribute):
            return True
        # Class-looking names: ...Transport and ...HTTPServer subclasses
        # (an HTTP server binds its listening socket at construction).
        return (
            name.endswith("Transport") or name.endswith("HTTPServer")
        ) and name[:1].isupper()

    @staticmethod
    def _base_is_self(node: ast.AST) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _bound_name(self, module: ModuleContext, call: ast.Call):
        """(local name, stored-on-self) for the acquisition's target."""
        parent = module.parent(call)
        # accept() returns (conn, addr): unwrap a tuple target's head.
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Tuple) and target.elts:
                target = target.elts[0]
            if isinstance(target, ast.Name):
                return target.id, False
            if self._base_is_self(target):
                return None, True
        if isinstance(parent, ast.withitem):
            return None, False  # with-managed: always closed
        if isinstance(parent, ast.Return):
            return None, False  # factory: ownership transfers to the caller
        return None, None

    @staticmethod
    def _class_closes(module: ModuleContext, node: ast.AST) -> bool:
        cls = module.enclosing_class(node)
        if cls is None:
            return False
        return any(
            isinstance(member, ast.FunctionDef)
            and member.name in ("close", "__exit__", "__del__")
            for member in cls.body
        )

    def _escapes(
        self, module: ModuleContext, func: ast.AST, name: str
    ) -> bool:
        """Whether local ``name`` is closed, returned, with-managed, or
        handed to ``self`` (whose class then owns the close)."""
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                fn = node.func
                if (
                    isinstance(fn, ast.Attribute)
                    and fn.attr in ("close", "server_close")
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id == name
                ):
                    return True
                # self._conns.append(conn) / self._peers.pop(...) style.
                if self._base_is_self(fn) and any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in node.args
                ):
                    return self._class_closes(module, node)
            elif isinstance(node, ast.Return):
                if isinstance(node.value, ast.Name) and node.value.id == name:
                    return True
            elif isinstance(node, ast.withitem):
                expr = node.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
            elif isinstance(node, ast.Assign):
                if any(
                    self._base_is_self(target) for target in node.targets
                ) and (
                    isinstance(node.value, ast.Name) and node.value.id == name
                ):
                    return self._class_closes(module, node)
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and self._is_acquisition(module, node)
            ):
                continue
            name, on_self = self._bound_name(module, node)
            if on_self is None and name is None:
                # Unbound acquisition (expression statement / argument):
                # nobody can ever close it.
                yield module.finding(
                    self.code,
                    node,
                    "socket/transport acquired without binding a name — "
                    "no path can close it; assign it and close in a "
                    "finally, or use a with-block",
                )
                continue
            if on_self is False and name is None:
                continue  # with-managed
            if on_self:
                if not self._class_closes(module, node):
                    yield module.finding(
                        self.code,
                        node,
                        "socket/transport stored on self, but the class "
                        "defines no close()/__exit__ to release it",
                    )
                continue
            func = module.enclosing_function(node) or module.tree
            if not self._escapes(module, func, name):
                yield module.finding(
                    self.code,
                    node,
                    f"socket/transport {name!r} is never closed on this "
                    "path — close it in a finally, use a with-block, or "
                    "hand ownership to a class with close()",
                )


@register_rule
class WallClockInTimingPath(Rule):
    code = "NMD005"
    name = "wall-clock-in-timing-path"
    description = (
        "time.time() in a timing-sensitive module (runtime/cluster/"
        "stream/metrics/api) — use perf_counter for durations, "
        "monotonic for deadlines"
    )
    tier = INVARIANT_TIER

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not TIMING_SEGMENTS & set(module.segments[:-1]):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.resolve_call(node) != "time.time":
                continue
            yield module.finding(
                self.code,
                node,
                "time.time() is settable and non-monotonic; use "
                "time.perf_counter() for durations or time.monotonic() "
                "for deadlines (PR 1 wall/join timing contract)",
            )


@register_rule
class BespokeSpanTiming(Rule):
    code = "NMD006"
    name = "bespoke-span-timing"
    description = (
        "time.perf_counter() called directly in a substrate module "
        "(runtime/cluster/stream/serve) — stamp spans through "
        "repro.telemetry.clock instead"
    )
    tier = INVARIANT_TIER

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not SPAN_TIMING_SEGMENTS & set(module.segments[:-1]):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.resolve_call(node) != "time.perf_counter":
                continue
            yield module.finding(
                self.code,
                node,
                "substrate modules stamp spans with repro.telemetry.clock, "
                "not time.perf_counter() directly — one sanctioned clock "
                "source keeps recorded stamps comparable across workers "
                "and processes, and a future clock swap is one edit "
                "(time.monotonic() remains fine for deadlines)",
            )
