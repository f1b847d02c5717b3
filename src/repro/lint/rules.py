"""The initial rule pack: this repository's real invariants, checked at AST.

Each rule encodes an invariant the test suite cannot exhaustively enforce:

==========  ==========================================================
``LCK001``  lock discipline — an attribute a class ever assigns under
            ``with self._lock`` must never be touched outside a lock
            block of that class (module-level globals guarded by a
            module-level lock are held to the same standard)
``PAR001``  batch-parity coverage — every backend family registering a
            vectorized ``evaluate_batch`` in ``core/backends.py`` must
            be exercised by a test module that asserts scalar parity
``FRZ001``  frozen-type mutation — ``object.__setattr__`` on a frozen
            dataclass is only legitimate during ``__post_init__``
``CEIL001`` ceil discipline — metrics/cost code must spell
            ceil-of-quotient as :func:`repro.utils.numerics.ceil_div`
            so the scalar and batch paths stay bitwise identical
``DIC001``  ``from_dict`` coverage — every deserialiser must reject
            unknown keys via the typed ``UnknownFieldError`` machinery
``SIM001``  batched-simulator parity coverage — every ``simulate_*``
            entry point in ``simulator/batch.py``, and every algorithm
            opting out of data-dependent probe tracing, must be
            exercised by a test module asserting scalar parity; a
            kernel in such a module that overrides
            ``representative_blocks`` must be named by a test that
            compares its block classes with ``execute_all``
==========  ==========================================================

The rules are deliberately conservative: they reason over syntactic
evidence (`self.X = threading.Lock()`, ``with self._lock:`` blocks,
``@dataclass(frozen=True)`` decorators) rather than attempting type
inference, and anything they cannot prove safe is reported so a human
either fixes it or records a justification with a suppression comment.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    PackageContext,
    Rule,
    SourceFile,
    register_rule,
)
from repro.lint.findings import Finding

#: Constructors whose result makes an attribute a lock guard.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def _is_lock_constructor(node: ast.AST) -> bool:
    """Whether ``node`` is a ``threading.Lock()``-style constructor call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    return False


def _self_attr(node: ast.AST) -> Optional[str]:
    """The attribute name when ``node`` is ``self.<name>``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assigned_names(target: ast.AST, attr_of_self: bool) -> Iterator[str]:
    """Names written by one assignment target.

    With ``attr_of_self`` the targets of interest are ``self.X`` and
    ``self.X[...]``; without it, module globals ``X`` and ``X[...]``.
    """
    nodes = [target]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Tuple, ast.List)):
            nodes.extend(node.elts)
            continue
        if isinstance(node, ast.Starred):
            nodes.append(node.value)
            continue
        if isinstance(node, ast.Subscript):
            node = node.value
        if attr_of_self:
            name = _self_attr(node)
            if name is not None:
                yield name
        elif isinstance(node, ast.Name):
            yield node.id


def _with_lock_bodies(
    fn: ast.AST, lock_names: Set[str], attr_of_self: bool
) -> Iterator[ast.With]:
    """Every ``with`` statement in ``fn`` whose context is a known lock."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            expr = item.context_expr
            # ``with self._lock:`` / ``with LOCK:`` and the acquire-with-
            # timeout spelling ``with self._lock.acquire():`` both guard.
            if isinstance(expr, ast.Call):
                expr = expr.func
                if isinstance(expr, ast.Attribute) and expr.attr == "acquire":
                    expr = expr.value
            if attr_of_self:
                name = _self_attr(expr)
            else:
                name = expr.id if isinstance(expr, ast.Name) else None
            if name in lock_names:
                yield node
                break


def _function_locals(fn: ast.AST) -> Set[str]:
    """Names local to ``fn``: parameters plus every bound name.

    Over-approximates (comprehension targets have their own scope but are
    included) — erring toward locals avoids false module-global findings.
    Names declared ``global`` are removed; rebinding those mutates module
    state for real.
    """
    locals_: Set[str] = {
        arg.arg
        for arg in (
            fn.args.args + fn.args.kwonlyargs + fn.args.posonlyargs
        )
    }
    for vararg in (fn.args.vararg, fn.args.kwarg):
        if vararg is not None:
            locals_.add(vararg.arg)
    declared_global: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            locals_.add(node.id)
    return locals_ - declared_global


def _nodes_under(stmts: Sequence[ast.stmt]) -> Set[int]:
    """Identity set of every AST node inside the given statements."""
    seen: Set[int] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            seen.add(id(node))
    return seen


@register_rule
class LockDisciplineRule(Rule):
    """LCK001: shared state a lock ever guards is *always* guarded."""

    id = "LCK001"
    title = "lock-guarded attribute accessed outside the lock"
    rationale = (
        "Session caches, the serving queue/stats and the backend registry "
        "are shared across threads; one unlocked read of a counter that is "
        "elsewhere mutated under the lock is a data race no test reliably "
        "reproduces."
    )

    def check(self, ctx: PackageContext) -> Iterator[Finding]:
        for source in self.targets(ctx):
            yield from self._check_classes(source)
            yield from self._check_module(source)

    # ------------------------------------------------------------------ #
    # Class-level discipline: self.<attr> under ``with self._lock``
    # ------------------------------------------------------------------ #
    def _check_classes(self, source: SourceFile) -> Iterator[Finding]:
        for cls in ast.walk(source.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [
                stmt for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            lock_names = self._class_lock_names(methods)
            if not lock_names:
                continue
            guarded, locked_nodes = self._guarded_attributes(
                methods, lock_names
            )
            guarded -= lock_names
            if not guarded:
                continue
            for method in methods:
                if method.name in ("__init__", "__post_init__"):
                    continue
                for node in ast.walk(method):
                    name = _self_attr(node)
                    if name is None or name not in guarded:
                        continue
                    if id(node) in locked_nodes:
                        continue
                    access = (
                        "written" if isinstance(node.ctx, ast.Store)
                        else "read"
                    )
                    yield self.finding(
                        source, node.lineno,
                        f"attribute {name!r} of class {cls.name!r} is "
                        f"assigned under a lock elsewhere but {access} "
                        f"without one in {method.name!r}; take the lock or "
                        "suppress with a reason",
                        column=node.col_offset,
                    )

    @staticmethod
    def _class_lock_names(methods: Sequence[ast.AST]) -> Set[str]:
        locks: Set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and _is_lock_constructor(
                    node.value
                ):
                    for target in node.targets:
                        name = _self_attr(target)
                        if name is not None:
                            locks.add(name)
        return locks

    @staticmethod
    def _guarded_attributes(
        methods: Sequence[ast.AST], lock_names: Set[str]
    ) -> Tuple[Set[str], Set[int]]:
        """Attributes assigned under a lock, plus every node under one."""
        guarded: Set[str] = set()
        locked_nodes: Set[int] = set()
        for method in methods:
            for with_node in _with_lock_bodies(
                method, lock_names, attr_of_self=True
            ):
                body_nodes = _nodes_under(with_node.body)
                locked_nodes |= body_nodes
                for node in ast.walk(with_node):
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            guarded.update(_assigned_names(target, True))
                    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                        guarded.update(_assigned_names(node.target, True))
        return guarded, locked_nodes

    # ------------------------------------------------------------------ #
    # Module-level discipline: globals under ``with _SOME_LOCK``
    # ------------------------------------------------------------------ #
    def _check_module(self, source: SourceFile) -> Iterator[Finding]:
        lock_names = {
            name
            for stmt in source.tree.body
            if isinstance(stmt, ast.Assign)
            and _is_lock_constructor(stmt.value)
            for target in stmt.targets
            if isinstance(target, ast.Name)
            for name in [target.id]
        }
        if not lock_names:
            return
        functions = [
            stmt for stmt in ast.walk(source.tree)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        fn_locals = {id(fn): _function_locals(fn) for fn in functions}
        guarded: Set[str] = set()
        locked_nodes: Set[int] = set()
        for fn in functions:
            assigned: Set[str] = set()
            for with_node in _with_lock_bodies(
                fn, lock_names, attr_of_self=False
            ):
                locked_nodes |= _nodes_under(with_node.body)
                for node in ast.walk(with_node):
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            assigned.update(_assigned_names(target, False))
                    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                        assigned.update(_assigned_names(node.target, False))
            # A name assigned inside the function is a local, not the
            # module global, unless declared ``global`` — only those and
            # subscript stores (``_REGISTRY[k] = v``) guard module state.
            guarded |= assigned - fn_locals[id(fn)]
        guarded -= lock_names
        if not guarded:
            return
        for fn in functions:
            local_names = fn_locals[id(fn)]
            for node in ast.walk(fn):
                if not isinstance(node, ast.Name):
                    continue
                if node.id not in guarded or node.id in local_names:
                    continue
                if id(node) in locked_nodes:
                    continue
                access = (
                    "written" if isinstance(node.ctx, ast.Store) else "read"
                )
                yield self.finding(
                    source, node.lineno,
                    f"module global {node.id!r} is assigned under a lock "
                    f"elsewhere but {access} without one in {fn.name!r}; "
                    "take the lock or suppress with a reason",
                    column=node.col_offset,
                )


# --------------------------------------------------------------------- #
# PAR001 — batch-parity coverage
# --------------------------------------------------------------------- #
#: Vocabulary a test file must use (with the family name) to count as a
#: scalar/batch parity assertion.
_PARITY_EVIDENCE = re.compile(r"parity|bitwise|bit.for.bit", re.IGNORECASE)
#: The oracle a block-class parity test compares representative blocks with.
_CLASS_PARITY_EVIDENCE = "execute_all"


def _module_str_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments (incl. annotated)."""
    out: Dict[str, str] = {}
    for stmt in tree.body:
        value = None
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        if (
            value is not None
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = value.value
    return out


def _name_candidates(
    expr: ast.expr, consts: Dict[str, str]
) -> List[str]:
    """Possible backend-name strings an expression may evaluate to."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return [expr.value]
    if isinstance(expr, ast.Name):
        value = consts.get(expr.id)
        return [value] if value is not None else []
    if isinstance(expr, ast.BoolOp):
        out: List[str] = []
        for value in expr.values:
            out.extend(_name_candidates(value, consts))
        return out
    if isinstance(expr, ast.IfExp):
        return _name_candidates(expr.body, consts) + _name_candidates(
            expr.orelse, consts
        )
    if isinstance(expr, ast.JoinedStr):
        # Longest resolvable prefix of the f-string: stop at the first
        # part whose value is unknown (``f"atgpu-async{chunks}"`` →
        # ``"atgpu-async"``; ``f"{TOPOLOGY_BACKEND}-{hash}"`` →
        # ``"atgpu-topo-"``).
        prefix = ""
        for part in expr.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                prefix += part.value
                continue
            if (
                isinstance(part, ast.FormattedValue)
                and isinstance(part.value, ast.Name)
                and part.value.id in consts
            ):
                prefix += consts[part.value.id]
                continue
            break
        prefix = prefix.rstrip("-")
        return [prefix] if prefix else []
    return []


@register_rule
class BatchParityCoverageRule(Rule):
    """PAR001: every batch-capable backend family has a parity test."""

    id = "PAR001"
    title = "backend family registers evaluate_batch without a parity test"
    rationale = (
        "The batch evaluators promise bit-for-bit agreement with the "
        "scalar models; a family whose vectorized path no test compares "
        "against the scalar path can drift silently."
    )
    #: File the registrations live in.
    registry_suffix = "core/backends.py"

    def check(self, ctx: PackageContext) -> Iterator[Finding]:
        registries = [
            f for f in ctx.files if f.path.endswith(self.registry_suffix)
        ]
        if not registries or not ctx.test_files:
            # No registry in the linted tree (fixture runs) or no test
            # tree to cross-reference: nothing checkable.
            return
        for source in registries:
            consts = _module_str_constants(source.tree)
            for family, node in self._families(source.tree, consts):
                if not self._has_parity_test(family, ctx.test_files):
                    yield self.finding(
                        source, node.lineno,
                        f"backend family {family!r} registers a vectorized "
                        "evaluate_batch but no test module mentions it "
                        "together with a scalar-parity assertion "
                        "(looked for the family name plus "
                        "'parity'/'bitwise'/'bit-for-bit' in the test tree)",
                    )

    def _families(
        self, tree: ast.Module, consts: Dict[str, str]
    ) -> Iterator[Tuple[str, ast.Call]]:
        """(family-name, make_backend call) for batch-capable backends."""
        # Map each make_backend call to its enclosing function (if any) so
        # factory-built names can be recovered from local assignments.
        parents: Dict[int, ast.AST] = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    parents.setdefault(id(node), fn)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name != "make_backend":
                continue
            batch_kw = next(
                (kw for kw in node.keywords if kw.arg == "evaluate_batch"),
                None,
            )
            if batch_kw is None or (
                isinstance(batch_kw.value, ast.Constant)
                and batch_kw.value.value is None
            ):
                continue
            if not node.args:
                continue
            candidates = _name_candidates(node.args[0], consts)
            if not candidates:
                candidates = self._candidates_from_function(
                    node.args[0], parents.get(id(node)), consts
                )
            if candidates:
                yield candidates[0], node
            else:
                # A batch-capable registration whose name the rule cannot
                # resolve is itself a finding: the coverage contract is
                # unverifiable.
                yield "<unresolved>", node

    @staticmethod
    def _candidates_from_function(
        first_arg: ast.expr,
        fn: Optional[ast.AST],
        consts: Dict[str, str],
    ) -> List[str]:
        """Recover the name from assignments in the enclosing factory."""
        if fn is None or not isinstance(first_arg, ast.Name):
            return []
        out: List[str] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == first_arg.id
                    ):
                        out.extend(_name_candidates(node.value, consts))
        return out

    @staticmethod
    def _has_parity_test(
        family: str, test_files: Sequence[SourceFile]
    ) -> bool:
        if family == "<unresolved>":
            return False
        for test in test_files:
            if family in test.source and _PARITY_EVIDENCE.search(test.source):
                return True
        return False


# --------------------------------------------------------------------- #
# SIM001 — batched-simulator parity coverage
# --------------------------------------------------------------------- #
@register_rule
class SimBatchParityCoverageRule(Rule):
    """SIM001: every batched simulator entry point has a scalar-parity test."""

    id = "SIM001"
    title = "batched simulator path without a scalar-parity test"
    rationale = (
        "The batched observation paths promise bit-for-bit agreement with "
        "the scalar per-size loops, and algorithms asserting "
        "sim_trace_data_dependent = False additionally promise their "
        "traces ignore input values and that their kernels' "
        "representative blocks are exact classes; each claim can drift "
        "silently unless a test compares the two paths exactly."
    )
    #: File the batched entry points live in.
    batch_suffix = "simulator/batch.py"
    #: Directory of the per-algorithm opt-outs.
    algorithms_part = "algorithms"

    def check(self, ctx: PackageContext) -> Iterator[Finding]:
        if not ctx.test_files:
            # No test tree to cross-reference (fixture runs).
            return
        for source in ctx.files:
            if source.path.endswith(self.batch_suffix):
                yield from self._check_entry_points(source, ctx)
            if f"/{self.algorithms_part}/" in source.path.replace("\\", "/"):
                yield from self._check_opt_outs(source, ctx)

    def _check_entry_points(
        self, source: SourceFile, ctx: PackageContext
    ) -> Iterator[Finding]:
        for node in source.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("simulate_"):
                continue
            if not self._has_parity_test(node.name, ctx.test_files):
                yield self.finding(
                    source, node.lineno,
                    f"batched simulator entry point {node.name!r} has no "
                    "scalar-parity test (looked for its name plus "
                    "'parity'/'bitwise'/'bit-for-bit' in the test tree); "
                    "bit-for-bit agreement with the scalar path is the "
                    "function's contract",
                )

    def _check_opt_outs(
        self, source: SourceFile, ctx: PackageContext
    ) -> Iterator[Finding]:
        opted_out = False
        for cls in ast.walk(source.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            opt_out = self._opt_out_assignment(cls)
            if opt_out is None:
                continue
            opted_out = True
            algorithm = self._algorithm_name(cls)
            if not self._has_parity_test(algorithm, ctx.test_files):
                yield self.finding(
                    source, opt_out.lineno,
                    f"algorithm {algorithm!r} sets "
                    "sim_trace_data_dependent = False but no test module "
                    "mentions it together with a scalar-parity assertion; "
                    "the opt-out is only sound while a parity test proves "
                    "the traces ignore input values",
                )
        if opted_out:
            yield from self._check_block_classes(source, ctx)

    def _check_block_classes(
        self, source: SourceFile, ctx: PackageContext
    ) -> Iterator[Finding]:
        """Kernels overriding ``representative_blocks`` in such a module.

        The batched probe runs one block per class at every grid size for
        data-independent algorithms, so each class must be exact: a test
        naming the kernel must compare it with ``execute_all``.
        """
        for cls in ast.walk(source.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            override = next(
                (
                    stmt for stmt in cls.body
                    if isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "representative_blocks"
                ),
                None,
            )
            if override is None:
                continue
            if not any(
                cls.name in test.source and _CLASS_PARITY_EVIDENCE in test.source
                for test in ctx.test_files
            ):
                yield self.finding(
                    source, override.lineno,
                    f"kernel {cls.name!r} overrides representative_blocks in "
                    "a data-independent algorithm module but no test module "
                    "names it and compares its classes with "
                    f"{_CLASS_PARITY_EVIDENCE}; the probe trusts the classes "
                    "to be exact at every grid size",
                )

    @staticmethod
    def _opt_out_assignment(cls: ast.ClassDef) -> Optional[ast.stmt]:
        """The ``sim_trace_data_dependent = False`` statement, if present."""
        for stmt in cls.body:
            targets: List[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not (
                isinstance(value, ast.Constant) and value.value is False
            ):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "sim_trace_data_dependent"
                ):
                    return stmt
        return None

    @staticmethod
    def _algorithm_name(cls: ast.ClassDef) -> str:
        """The class's ``name = "..."`` attribute, else the class name."""
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
                and any(
                    isinstance(t, ast.Name) and t.id == "name"
                    for t in stmt.targets
                )
            ):
                return stmt.value.value
        return cls.name

    @staticmethod
    def _has_parity_test(
        needle: str, test_files: Sequence[SourceFile]
    ) -> bool:
        for test in test_files:
            if needle in test.source and _PARITY_EVIDENCE.search(test.source):
                return True
        return False


# --------------------------------------------------------------------- #
# FRZ001 — frozen-type mutation
# --------------------------------------------------------------------- #
def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "dataclass":
            continue
        for kw in decorator.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


@register_rule
class FrozenMutationRule(Rule):
    """FRZ001: no ``object.__setattr__`` on frozen types after construction."""

    id = "FRZ001"
    title = "frozen dataclass mutated outside __post_init__"
    rationale = (
        "ExperimentSpec and Topology are hashable cache keys; a post-init "
        "mutation changes identity out from under every cache and "
        "coalescing key that already captured the hash."
    )

    def check(self, ctx: PackageContext) -> Iterator[Finding]:
        for source in self.targets(ctx):
            for cls in ast.walk(source.tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                if not _is_frozen_dataclass(cls):
                    continue
                for method in cls.body:
                    if not isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    if method.name in ("__post_init__", "__init__"):
                        continue
                    for node in ast.walk(method):
                        if self._is_object_setattr(node):
                            yield self.finding(
                                source, node.lineno,
                                f"object.__setattr__ on frozen dataclass "
                                f"{cls.name!r} outside __post_init__ (in "
                                f"{method.name!r}); frozen instances are "
                                "cache keys — mutate only during "
                                "construction or suppress with a reason",
                                column=node.col_offset,
                            )

    @staticmethod
    def _is_object_setattr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        )


# --------------------------------------------------------------------- #
# CEIL001 — ceil discipline
# --------------------------------------------------------------------- #
@register_rule
class CeilDisciplineRule(Rule):
    """CEIL001: ceil-of-quotient must be ``ceil_div``."""

    id = "CEIL001"
    title = "raw ceil-division idiom in metrics/cost code"
    rationale = (
        "Scalar/batch bit-for-bit parity holds only while every ceiling of "
        "a quotient is the same float-division idiom on both paths; "
        "repro.utils.numerics.ceil_div is the one blessed spelling."
    )
    scope_parts = ("core", "algorithms")
    exempt_suffixes = ("utils/numerics.py",)

    def check(self, ctx: PackageContext) -> Iterator[Finding]:
        for source in self.targets(ctx):
            for node in ast.walk(source.tree):
                if self._is_ceil_of_division(node):
                    yield self.finding(
                        source, node.lineno,
                        "ceil of a quotient spelled directly "
                        f"({self._spelling(node)}); route through "
                        "repro.utils.numerics.ceil_div so the scalar and "
                        "batch paths stay bitwise identical",
                        column=node.col_offset,
                    )
                elif self._is_negated_floordiv(node):
                    yield self.finding(
                        source, node.lineno,
                        "integer ceil idiom -(-a // b) detected; it "
                        "disagrees with the float-division ceil the batch "
                        "path uses — route through "
                        "repro.utils.numerics.ceil_div",
                        column=node.col_offset,
                    )

    @staticmethod
    def _is_ceil_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "ceil"
        return isinstance(func, ast.Attribute) and func.attr == "ceil"

    @classmethod
    def _is_ceil_of_division(cls, node: ast.AST) -> bool:
        return (
            cls._is_ceil_call(node)
            and len(node.args) == 1
            and isinstance(node.args[0], ast.BinOp)
            and isinstance(node.args[0].op, ast.Div)
        )

    @staticmethod
    def _is_negated_floordiv(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.BinOp)
            and isinstance(node.operand.op, ast.FloorDiv)
            and isinstance(node.operand.left, ast.UnaryOp)
            and isinstance(node.operand.left.op, ast.USub)
        )

    @staticmethod
    def _spelling(node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            return f"{func.value.id}.ceil over /"
        return "ceil over /"


# --------------------------------------------------------------------- #
# DIC001 — from_dict coverage
# --------------------------------------------------------------------- #
@register_rule
class FromDictCoverageRule(Rule):
    """DIC001: deserialisers reject unknown keys, loudly and typed."""

    id = "DIC001"
    title = "from_dict accepts unknown keys silently"
    rationale = (
        "Specs and topologies round-trip through JSON caches; a typo'd "
        "field that from_dict drops silently produces a default-valued "
        "object whose hash collides with nothing the author meant."
    )
    #: Call/raise targets accepted as unknown-key rejection evidence.
    accepted = ("UnknownFieldError", "reject_unknown_fields")

    def check(self, ctx: PackageContext) -> Iterator[Finding]:
        for source in self.targets(ctx):
            for node in ast.walk(source.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if node.name != "from_dict":
                    continue
                if not self._rejects_unknown(node):
                    yield self.finding(
                        source, node.lineno,
                        "from_dict does not reject unknown keys; call "
                        "repro.utils.validation.reject_unknown_fields (or "
                        "raise UnknownFieldError) so typo'd fields fail "
                        "loudly instead of deserialising to defaults",
                    )

    def _rejects_unknown(self, fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in self.accepted:
                return True
            if isinstance(node, ast.Attribute) and node.attr in self.accepted:
                return True
        return False
