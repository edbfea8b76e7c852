"""The sodalint rule set and registry.

Each rule is a class with a ``rule_id``, a one-line ``summary``, and a
``check(model)`` generator yielding :class:`Diagnostic` objects.  Rules
register themselves with :func:`register_rule`; extensions add their own
rules the same way:

    from repro.analysis.rules import LintRule, register_rule

    @register_rule
    class MulticastFanoutRule(LintRule):
        rule_id = "EXT101"
        summary = "multicast send with no member check"
        def check(self, model):
            ...

The built-in rules encode the conventions of PAPER.md §3 that the kernel
cannot enforce at runtime; see docs/ANALYSIS.md for the full table.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Type

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.model import (
    ModuleModel,
    ProgramClass,
    api_call_name,
    attribute_chain,
    normalized_chain,
)

#: SODAL primitives that suspend the *task* (or end the handler early via
#: the saved-PC maneuver, §4.1.1) and therefore do not belong in handler
#: context: a handler must run to ENDHANDLER without blocking (§3.2).
TASK_ONLY_BLOCKING = frozenset(
    {
        "b_request",
        "b_signal",
        "b_put",
        "b_get",
        "b_exchange",
        "discover",
        "discover_all",
        "boot_node",
        "boot_start",
        "poll",
        "serve_forever",
        "wait_completion",
        "await_completion",
        "sleep",
    }
)

#: Non-blocking REQUEST variants (§4.1.1); they complete through the
#: handler, so issuing one requires a completion path somewhere.
NONBLOCKING_REQUESTS = frozenset(
    {"request", "signal", "put", "get", "exchange"}
)

#: SodalApi methods that are generators: calling one without ``yield
#: from`` silently does nothing (the generator is never driven).
GENERATOR_API = frozenset(
    {
        "advertise",
        "unadvertise",
        "getuniqueid",
        "open",
        "close",
        "die",
        "request",
        "signal",
        "put",
        "get",
        "exchange",
        "accept",
        "accept_signal",
        "accept_put",
        "accept_get",
        "accept_exchange",
        "accept_current",
        "accept_current_signal",
        "accept_current_put",
        "accept_current_get",
        "accept_current_exchange",
        "reject",
        "cancel",
        "b_request",
        "b_signal",
        "b_put",
        "b_get",
        "b_exchange",
        "discover",
        "discover_all",
        "boot_node",
        "boot_start",
        "enqueue",
        "dequeue",
        "poll",
        "serve_forever",
        "wait_completion",
        "await_completion",
    }
)

#: Calls returning a SimFuture that is useless unless kept and awaited.
FUTURE_API = frozenset({"watch_completion", "new_future"})

#: Kernel handler-dispatch entry points; client code calling these can
#: re-enter the handler and nest invocations the kernel forbids (§3.2).
HANDLER_DISPATCH = frozenset({"run_handler", "poll_handler"})


_REGISTRY: Dict[str, "LintRule"] = {}


def register_rule(cls: Type["LintRule"]) -> Type["LintRule"]:
    """Class decorator: add a rule to the global registry.

    Re-registering a rule_id replaces the previous rule (extensions may
    override a built-in with a stricter variant).
    """
    instance = cls()
    if not instance.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    _REGISTRY[instance.rule_id] = instance
    return cls


def get_rule(rule_id: str) -> "LintRule":
    return _REGISTRY[rule_id]


def all_rules() -> List["LintRule"]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


class LintRule:
    """Base class for sodalint rules."""

    rule_id: str = ""
    summary: str = ""
    severity: Severity = Severity.ERROR

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, model: ModuleModel, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            rule_id=self.rule_id,
            message=message,
            file=model.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            severity=self.severity,
        )


def _walk_calls(fn: ast.FunctionDef) -> Iterator[ast.Call]:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class HandlerBlockingRule(LintRule):
    """SODA001: blocking task-level primitive in handler context.

    The handler is client code invoked by kernel interrupt; it must not
    block (§3.2).  A B_* request from the handler triggers the saved-PC
    maneuver — the rest of the handler silently becomes task-level code
    (§4.1.1) — and polling loops wedge the client, so both are flagged.
    """

    rule_id = "SODA001"
    summary = "blocking primitive called from handler context"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        for cls in model.program_classes:
            for section in cls.handler_sections():
                for call in _walk_calls(section):
                    name = api_call_name(call)
                    if name in TASK_ONLY_BLOCKING:
                        yield self.diagnostic(
                            model,
                            call,
                            f"{cls.name}.{section.name} calls blocking "
                            f"api.{name}(); handlers must run to "
                            f"ENDHANDLER without suspending the task",
                        )
                        continue
                    # sim.sleep / api.sim.sleep from handler context.
                    chain = (
                        normalized_chain(call.func)
                        if isinstance(call.func, ast.Attribute)
                        else None
                    )
                    if chain and chain[-1] == "sleep" and "sim" in chain[:-1]:
                        yield self.diagnostic(
                            model,
                            call,
                            f"{cls.name}.{section.name} sleeps on the "
                            f"simulator clock inside a handler",
                        )


@register_rule
class ReservedAdvertiseRule(LintRule):
    """SODA002: client ADVERTISEs a reserved pattern.

    BOOT/LOAD/KILL/SYSTEM patterns are interpreted by the kernel (§3.5);
    a client advertising one shadows the kernel's own protocol.
    """

    rule_id = "SODA002"
    summary = "ADVERTISE of a reserved pattern"

    def _is_reserved_expr(self, model: ModuleModel, expr: ast.AST) -> bool:
        chain = attribute_chain(expr)
        if chain is not None:
            name = chain[-1]
            return (
                name in model.reserved_aliases
                or name in model.reserved_locals
                or name
                in {"DEFAULT_KILL_PATTERN", "SYSTEM_PATTERN", "KERNEL_RMR_PATTERN"}
            )
        if isinstance(expr, ast.Call):
            callee = attribute_chain(expr.func)
            if callee and (
                callee[-1] in {"make_reserved_pattern", "boot_pattern_for"}
                or callee[-1] in model.reserved_factories
            ):
                return True
        return False

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        for cls, node in model.walk_program_code():
            if not isinstance(node, ast.Call):
                continue
            if api_call_name(node) != "advertise" or not node.args:
                continue
            if self._is_reserved_expr(model, node.args[0]):
                yield self.diagnostic(
                    model,
                    node,
                    f"{cls.name} advertises a reserved pattern; "
                    f"BOOT/LOAD/KILL/SYSTEM patterns belong to the kernel "
                    f"(use getuniqueid or a well-known client pattern)",
                )


@register_rule
class OrphanRequestRule(LintRule):
    """SODA003: non-blocking REQUEST with no completion path.

    A REQUEST completes through a handler interrupt (§3.7.5).  A program
    that issues one but neither inspects completions in its handler nor
    awaits/cancels the TID leaks the request slot until MAXREQUESTS
    starves it.
    """

    rule_id = "SODA003"
    summary = "REQUEST issued with no reachable completion handling"

    #: A class "handles completions" if any of these appear in its body.
    _COMPLETION_CALLS = frozenset(
        {"await_completion", "watch_completion", "wait_completion", "cancel"}
    )
    _COMPLETION_MARKS = frozenset(
        {"is_completion", "REQUEST_COMPLETE", "status", "reason"}
    )

    def _handles_completions(self, cls: ProgramClass) -> bool:
        for node in ast.walk(cls.node):
            if isinstance(node, ast.Call):
                name = api_call_name(node)
                if name in self._COMPLETION_CALLS:
                    return True
            elif isinstance(node, ast.Attribute):
                if node.attr in self._COMPLETION_MARKS:
                    return True
        return False

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        for cls in model.program_classes:
            requests = [
                call
                for fn in cls.methods.values()
                for call in _walk_calls(fn)
                if api_call_name(call) in NONBLOCKING_REQUESTS
            ]
            if not requests or self._handles_completions(cls):
                continue
            for call in requests:
                name = api_call_name(call)
                yield self.diagnostic(
                    model,
                    call,
                    f"{cls.name} issues api.{name}() but never handles "
                    f"completions (no is_completion/status check in the "
                    f"handler and no await/watch/cancel of the TID)",
                )


@register_rule
class HandlerNestingRule(LintRule):
    """SODA004: client code that can nest handler invocations.

    Handler invocations never nest (§3.2): the kernel owns dispatch.
    Calling the handler method directly, or poking the kernel's
    dispatch machinery, re-enters the handler under the kernel's feet.
    """

    rule_id = "SODA004"
    summary = "handler invocation that can nest"

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        for cls, node in model.walk_program_code():
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if not chain:
                continue
            if chain[0] == "self" and chain[-1] in ("handler", "initialization"):
                yield self.diagnostic(
                    model,
                    node,
                    f"{cls.name} invokes self.{chain[-1]}() directly; "
                    f"handler invocations are dispatched by the kernel "
                    f"and must never nest",
                )
            elif chain[-1] in HANDLER_DISPATCH and len(chain) > 1:
                yield self.diagnostic(
                    model,
                    node,
                    f"{cls.name} calls {'.'.join(chain)}(); client code "
                    f"must not drive the kernel's handler dispatch",
                )


@register_rule
class DiscardedResultRule(LintRule):
    """SODA005: discarded generator or SimFuture result.

    Every SODAL primitive is a generator — ``api.advertise(p)`` without
    ``yield from`` builds a generator object and throws it away, doing
    nothing.  Likewise a bare ``yield`` of a primitive hands the
    generator to the scheduler as if it were a time cost, and a
    discarded ``watch_completion``/``new_future`` future can never be
    awaited.
    """

    rule_id = "SODA005"
    summary = "unawaited generator or SimFuture result"

    def _offender(self, call: ast.Call) -> str:
        name = api_call_name(call)
        if name in GENERATOR_API:
            return (
                f"api.{name}() is a generator; invoking it without "
                f"'yield from' does nothing"
            )
        chain = (
            normalized_chain(call.func)
            if isinstance(call.func, ast.Attribute)
            else None
        )
        if chain and chain[-1] in FUTURE_API:
            return (
                f"{'.'.join(chain)}() returns a SimFuture that is "
                f"discarded and can never be awaited"
            )
        return ""

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        for cls, node in model.walk_program_code():
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                message = self._offender(node.value)
                if message:
                    yield self.diagnostic(
                        model, node, f"{cls.name}: {message}"
                    )
            elif (
                isinstance(node, ast.Yield)
                and node.value is not None
                and isinstance(node.value, ast.Call)
            ):
                name = api_call_name(node.value)
                if name in GENERATOR_API:
                    yield self.diagnostic(
                        model,
                        node,
                        f"{cls.name}: 'yield api.{name}(...)' yields the "
                        f"generator object itself; use 'yield from'",
                    )


@register_rule
class KernelMutationRule(LintRule):
    """SODA006: client code mutating kernel-owned state.

    The kernel owns handler state, the pattern table, connections, and
    request records (§3.3).  Clients observe them read-only through the
    api; writing them bypasses every protocol invariant.
    """

    rule_id = "SODA006"
    summary = "direct mutation of kernel-owned state from client code"

    @staticmethod
    def _kernel_chain(chain: List[str]) -> bool:
        return "kernel" in chain[:-1] and chain[0] in ("api", "kernel")

    def check(self, model: ModuleModel) -> Iterator[Diagnostic]:
        for cls, node in model.walk_program_code():
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                chain = normalized_chain(target)
                if chain and (
                    self._kernel_chain(chain)
                    or chain[:1] == ["kernel"]
                    and len(chain) > 1
                ):
                    yield self.diagnostic(
                        model,
                        node,
                        f"{cls.name} assigns {'.'.join(chain)}; kernel "
                        f"state is owned by the kernel (§3.3) and must "
                        f"only change through primitives",
                    )
            if isinstance(node, ast.Call):
                chain = (
                    normalized_chain(node.func)
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if (
                    chain
                    and chain[0] == "api"
                    and any(part.startswith("_") for part in chain[1:])
                ):
                    yield self.diagnostic(
                        model,
                        node,
                        f"{cls.name} calls private "
                        f"{'.'.join(chain)}(); internal kernel/runtime "
                        f"entry points are not part of the client API",
                    )
