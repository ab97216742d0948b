"""Determinism linter over the repro codebase itself (family ``DT``).

Bit-identical reproducibility is an *asserted* property of this flow:
the stage cache, the parallel matrix runner, and the kernel-oracle
tests all assume that a (netlist, options, seed) triple fully determines
every result.  This pass walks the ``ast`` of ``src/repro`` and flags
the hazard patterns that historically break that assumption:

``DT001``
    Use of an unseeded random source — the shared module-level
    ``random.*`` functions, ``random.Random()`` with no seed, or
    ``numpy.random.default_rng()`` / legacy ``numpy.random.*`` samplers
    with no seed.
``DT002``
    Wall-clock reads (``time.time`` / ``perf_counter`` / ``strftime``,
    ``datetime.now`` ...) outside the observability subsystem, whose
    whole purpose is timestamps.  Timing that feeds *reports* is fine —
    suppress with a justification comment; timing that feeds an
    algorithm is the bug this rule exists for.
``DT003``
    Direct iteration over a set expression (``for x in set(...)``,
    ``{...}`` literals, set comprehensions, or ``list/tuple/enumerate``
    of one).  Set order depends on ``PYTHONHASHSEED`` for str keys; if
    the order reaches a placement, a cache key, or printed output, runs
    stop being reproducible.  Wrap in ``sorted(...)`` or dedup with
    ``dict.fromkeys(...)`` (insertion-ordered) instead.
``DT004``
    Mutable default argument (``def f(x=[])``) — state leaks across
    calls, so results depend on call history.
``DT005``
    Builtin ``hash()`` outside a ``__hash__`` method — salted per
    process for ``str``/``bytes``, so it must never reach persisted
    keys or ordering (use :func:`repro.flow.cache.stable_hash`).

A finding on a deliberate, justified use is suppressed with an inline
``# check: allow(DTnnn)`` comment on the offending line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .findings import Finding, Severity
from .rules import Rule, rule

DT001 = rule(
    "DT001", Severity.ERROR, "self",
    "random sources must be explicitly seeded",
)
DT002 = rule(
    "DT002", Severity.WARNING, "self",
    "no wall-clock reads outside the observability subsystem",
)
DT003 = rule(
    "DT003", Severity.WARNING, "self",
    "no direct iteration over set expressions (hash-seed ordering)",
)
DT004 = rule(
    "DT004", Severity.ERROR, "self",
    "no mutable default arguments",
)
DT005 = rule(
    "DT005", Severity.WARNING, "self",
    "no builtin hash() outside __hash__ (salted per process)",
)

#: Module path fragments exempt from DT002: timestamps are their job
#: (obs records them; the serve job server schedules with them).
TIME_EXEMPT_PARTS = ("obs", "serve")

#: Shared-state random.* functions (the module-level global RNG).
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "seed",
}

#: Legacy numpy.random module-level samplers (global state).
_NUMPY_GLOBAL_FNS = {
    "rand", "randn", "randint", "random", "choice", "shuffle",
    "permutation", "uniform", "normal", "seed",
}

#: Wall-clock callables as (module-ish name, attribute).
_CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "strftime"), ("time", "localtime"),
    ("time", "gmtime"), ("time", "time_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "today"), ("datetime", "utcnow"),
    ("date", "today"),
}

#: Calls through which a set expression is still "directly iterated".
_ITER_WRAPPERS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: Calls that impose an order (iterating a set through them is fine)
#: or are order-insensitive reductions.
_ORDER_SAFE_WRAPPERS = {
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
}


def _dotted(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``a.b`` / ``a.b.c`` call targets as (owner, attr)."""
    if isinstance(node, ast.Attribute):
        owner = node.value
        if isinstance(owner, ast.Name):
            return owner.id, node.attr
        if isinstance(owner, ast.Attribute):
            return owner.attr, node.attr
    return None


def _is_set_expression(node: ast.AST) -> bool:
    """True when ``node`` syntactically constructs a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return True
        dotted = _dotted(fn)
        # dict.keys() is insertion-ordered; set ops like a.union(b) are not.
        if dotted and dotted[1] in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # a | b etc. over sets can't be proven syntactically; skip.
        return False
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    """One file's walk; collects (rule, line, message) triples."""

    def __init__(self, filename: str, time_exempt: bool) -> None:
        self.filename = filename
        self.time_exempt = time_exempt
        self.hits: List[Tuple[Rule, int, str]] = []
        self._in_hash_method = 0

    # -- DT004 ----------------------------------------------------------
    def _check_defaults(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call):
                fn = default.func
                if isinstance(fn, ast.Name) and fn.id in (
                    "list", "dict", "set", "bytearray",
                ):
                    mutable = True
            if mutable:
                self.hits.append((
                    DT004, default.lineno,
                    f"mutable default argument in {node.name}()",
                ))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        is_hash = node.name == "__hash__"
        self._in_hash_method += is_hash
        self.generic_visit(node)
        self._in_hash_method -= is_hash

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- DT001 / DT002 / DT005 ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            owner, attr = dotted
            if owner == "random" and attr in _GLOBAL_RANDOM_FNS:
                self.hits.append((
                    DT001, node.lineno,
                    f"random.{attr}() uses the shared global RNG; "
                    f"construct random.Random(seed)",
                ))
            elif owner == "random" and attr == "Random" and not node.args:
                self.hits.append((
                    DT001, node.lineno,
                    "random.Random() without a seed",
                ))
            elif attr == "default_rng" and not node.args:
                self.hits.append((
                    DT001, node.lineno,
                    "default_rng() without a seed",
                ))
            elif owner == "random" and attr in _NUMPY_GLOBAL_FNS:
                # np.random.<sampler>: owner resolves to "random" via
                # the attribute chain np . random . <fn>.
                self.hits.append((
                    DT001, node.lineno,
                    f"numpy.random.{attr}() uses global state; "
                    f"use default_rng(seed)",
                ))
            elif dotted in _CLOCK_CALLS and not self.time_exempt:
                self.hits.append((
                    DT002, node.lineno,
                    f"wall-clock read {owner}.{attr}() in a core path",
                ))
        elif isinstance(node.func, ast.Name):
            if node.func.id == "hash" and not self._in_hash_method:
                self.hits.append((
                    DT005, node.lineno,
                    "builtin hash() is salted per process; use "
                    "repro.flow.cache.stable_hash for persisted keys",
                ))
            if node.func.id in _ITER_WRAPPERS and node.args:
                if _is_set_expression(node.args[0]):
                    self.hits.append((
                        DT003, node.lineno,
                        f"{node.func.id}() over a set expression leaks "
                        f"hash ordering",
                    ))
        self.generic_visit(node)

    # -- DT003 ----------------------------------------------------------
    def _check_iter(self, iterable: ast.AST) -> None:
        if _is_set_expression(iterable):
            self.hits.append((
                DT003, iterable.lineno,
                "iteration over a set expression leaks hash ordering",
            ))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)


def suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """Line -> rule ids allowed by ``# check: allow(XXnnn)`` comments.

    Shared by every codebase-lint family (DT here, CC in
    :mod:`repro.check.concurrency`): a justified finding is silenced
    with an inline ``# check: allow(<rule id>)`` on the offending line.
    """
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        marker = "# check: allow("
        index = line.find(marker)
        if index < 0:
            continue
        inner = line[index + len(marker):]
        close = inner.find(")")
        if close < 0:
            continue
        ids = {part.strip() for part in inner[:close].split(",")}
        allowed[lineno] = {i for i in ids if i}
    return allowed


def lint_source(
    source: str, filename: str = "<string>"
) -> List[Finding]:
    """Lint one module's source text; returns DT findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [DT001.finding(
            f"{filename}:{exc.lineno or 0}",
            f"not parseable: {exc.msg}",
            severity=Severity.ERROR,
        )]
    parts = Path(filename).parts
    time_exempt = any(part in TIME_EXEMPT_PARTS for part in parts)
    visitor = _DeterminismVisitor(filename, time_exempt)
    visitor.visit(tree)
    allowed = suppressed_lines(source)
    findings: List[Finding] = []
    for rule_obj, lineno, message in visitor.hits:
        if rule_obj.rule_id in allowed.get(lineno, ()):
            continue
        findings.append(rule_obj.finding(f"{filename}:{lineno}", message))
    return findings


def default_lint_root() -> Path:
    """``src/repro`` as installed: the package directory itself."""
    return Path(__file__).resolve().parent.parent


def lint_paths(
    paths: Optional[Iterable[Path]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (default: the package)."""
    roots = [Path(p) for p in paths] if paths else [default_lint_root()]
    findings: List[Finding] = []
    for root in roots:
        files: Sequence[Path]
        if root.is_file():
            files = [root]
        else:
            files = sorted(root.rglob("*.py"))
        for path in files:
            source = path.read_text(encoding="utf-8")
            findings.extend(lint_source(source, filename=str(path)))
    return findings
