"""OBS001 — probe parity between components and their subclasses.

The observability contract (docs/observability.md) is that every mode of
the bit-identical matrix produces *byte-identical* event streams.  Two
static invariants keep that true:

1.  **Override parity.**  If a subclass overrides a method whose base
    implementation emits event kinds (for example a specialised
    ``StreamingMultiprocessor`` subclass), the override must either call
    ``super()`` (inheriting the emission) or emit the same kinds itself.
    An override that silently drops an emission desynchronizes the
    streams only when that subclass is selected — exactly the bug class
    runtime parity tests catch late and expensively.

2.  **Kind coverage.**  When the analyzed tree defines the ``Ev`` enum,
    every member must have at least one emission site somewhere in the
    tree (a kind nobody emits is dead schema), and every emitted kind
    must be an ``Ev`` member (an unknown kind would fail schema
    validation at runtime).

Emission sites are recognized by the established probe idioms::

    self.obs.emit((_EV_WARP_ISSUE, ...))     # module-level alias
    emit((Ev.WARP_ISSUE, ...))               # local binding of bus.emit
    _EV_WARP_ISSUE = int(Ev.WARP_ISSUE)      # the alias declaration

The same machinery, parameterized over (enum class, call-site method
names), backs FBK001 in :mod:`repro.sanitize.rules_fbk` for the feedback
channel's ``Sig``/``publish`` idiom — one engine, two schemas.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from ..analysis.common import Severity
from .registry import Hit, SanitizeContext, hit, rule
from .source import SourceModule


@dataclass(frozen=True)
class ParitySpec:
    """One (enum, call idiom) pairing the parity engine checks.

    ``enum_name`` is the kind-enum class (``Ev``, ``Sig``); ``methods``
    the attribute/name call targets recognized as sites (``emit``,
    ``publish``); ``verb``/``noun`` feed the finding messages.
    """

    enum_name: str
    methods: FrozenSet[str]
    verb: str  # "emission" / "publication"
    stream: str  # "event streams" / "signal streams"
    dead_msg: str  # tail of the dead-schema finding


def _kind_from_enum_attr(node: ast.expr, enum_name: str) -> Optional[str]:
    """``<Enum>.X`` or ``int(<Enum>.X)`` -> "X"."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and len(node.args) == 1
    ):
        node = node.args[0]
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == enum_name
    ):
        return node.attr
    return None


def _module_aliases(module: SourceModule, enum_name: str) -> Dict[str, str]:
    """Module-level ``_EV_X = int(Ev.X)`` / ``= Ev.X`` alias bindings."""
    aliases: Dict[str, str] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        kind = _kind_from_enum_attr(stmt.value, enum_name)
        if kind is not None:
            aliases[target.id] = kind
    return aliases


def _site_kinds(
    node: ast.AST, aliases: Dict[str, str], spec: ParitySpec
) -> Iterator[Tuple[str, int]]:
    """``(kind, lineno)`` for every recognizable site under ``node``."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        is_site = (
            isinstance(func, ast.Name) and func.id in spec.methods
        ) or (isinstance(func, ast.Attribute) and func.attr in spec.methods)
        if not is_site or not sub.args:
            continue
        record = sub.args[0]
        if not isinstance(record, ast.Tuple) or not record.elts:
            continue
        head = record.elts[0]
        kind = _kind_from_enum_attr(head, spec.enum_name)
        if kind is None and isinstance(head, ast.Name):
            kind = aliases.get(head.id)
        if kind is not None:
            yield kind, sub.lineno


def _class_methods(cls_node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in cls_node.body
        if isinstance(stmt, ast.FunctionDef)
    }


def _calls_super(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "super"
        ):
            return True
    return False


def iter_parity_hits(
    ctx: SanitizeContext, spec: ParitySpec
) -> Iterator[Hit]:
    """Override-parity + kind-coverage findings for one :class:`ParitySpec`."""
    alias_cache: Dict[str, Dict[str, str]] = {}

    def aliases_of(module: SourceModule) -> Dict[str, str]:
        if module.rel not in alias_cache:
            alias_cache[module.rel] = _module_aliases(module, spec.enum_name)
        return alias_cache[module.rel]

    # -- override parity -------------------------------------------------
    for module in ctx.tree.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            own = _class_methods(node)
            if not own:
                continue
            checked: Set[str] = set()
            for base_mod, base_cls in ctx.tree.resolve_bases(node):
                base_aliases = aliases_of(base_mod)
                for name, base_fn in _class_methods(base_cls).items():
                    if name not in own or name in checked:
                        continue
                    checked.add(name)  # nearest base definition governs
                    base_kinds = {
                        k
                        for k, _ in _site_kinds(base_fn, base_aliases, spec)
                    }
                    if not base_kinds:
                        continue
                    override = own[name]
                    if _calls_super(override):
                        continue
                    mine = {
                        k
                        for k, _ in _site_kinds(
                            override, aliases_of(module), spec
                        )
                    }
                    missing = base_kinds - mine
                    if missing:
                        yield hit(
                            module,
                            override.lineno,
                            f"override of {base_cls.name}.{name} drops "
                            f"{spec.verb} of {sorted(missing)}; twins must "
                            f"produce identical {spec.stream} — call "
                            "super() or reproduce the same kinds",
                        )

    # -- kind coverage ---------------------------------------------------
    enum_entry = ctx.tree.classes.get(spec.enum_name)
    if enum_entry is None:
        return
    enum_module, enum_cls = enum_entry
    members: Dict[str, int] = {}
    for stmt in enum_cls.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                members[target.id] = stmt.lineno
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            members[stmt.target.id] = stmt.lineno

    sites: Dict[str, Tuple[SourceModule, int]] = {}
    for module in ctx.tree.modules:
        for kind, lineno in _site_kinds(
            module.tree, aliases_of(module), spec
        ):
            sites.setdefault(kind, (module, lineno))

    for kind, lineno in members.items():
        if kind not in sites:
            yield hit(
                enum_module,
                lineno,
                f"{spec.enum_name}.{kind} has no site anywhere in the "
                f"tree; {spec.dead_msg}",
            )
    for kind, (module, lineno) in sorted(sites.items()):
        if kind not in members:
            yield hit(
                module,
                lineno,
                f"uses kind {kind!r}, which is not a {spec.enum_name} "
                "member; the record would fail schema validation",
            )


OBS_SPEC = ParitySpec(
    enum_name="Ev",
    methods=frozenset({"emit"}),
    verb="emission",
    stream="event streams",
    dead_msg="dead schema entries rot the exporter and collectors",
)


@rule(
    "OBS001",
    Severity.ERROR,
    "probe parity broken between a component and its twin",
)
def check_probe_parity(ctx: SanitizeContext) -> Iterator[Hit]:
    yield from iter_parity_hits(ctx, OBS_SPEC)
