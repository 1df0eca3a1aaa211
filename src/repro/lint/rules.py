"""The repro-lint rule set: one rule per historically violated invariant.

Each rule is an :class:`ast`-based checker carrying its own rationale —
the invariant, the real bug in this repository's history that motivated
it, and how to suppress a false positive.  ``repro-lint --explain RXXX``
prints the rationale, so a CI failure is self-documenting.

Rules are deliberately narrow: they pattern-match the *specific* shapes
that caused past bugs rather than attempting general program analysis,
which keeps the false-positive rate near zero on this codebase.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class RawFinding:
    """A rule hit before path/suppression handling: (line, col, message)."""

    line: int
    col: int
    message: str


class Rule:
    """Base class: subclasses set the id/title/rationale and implement check."""

    rule_id: str = ""
    title: str = ""
    #: Path components that scope the rule (empty = applies everywhere).
    scope: Tuple[str, ...] = ()
    rationale: str = ""

    def applies_to(self, parts: Sequence[str]) -> bool:
        """Whether the rule runs on a file with the given path components."""
        if not self.scope:
            return True
        return any(part in parts for part in self.scope)

    def check(self, tree: ast.AST) -> List[RawFinding]:
        """Return the raw findings for one parsed module."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared AST helpers.
# ---------------------------------------------------------------------------

#: Identifiers that denote integer counts (sizes of address sets, hit
#: tallies, day tallies) in this codebase's naming convention.
_COUNT_NAME = re.compile(
    r"(?:^|_)(count|counts|total|totals|size|sizes|num|hits|n)(?:_|$)",
    re.IGNORECASE,
)

#: Identifiers that denote float-valued scale factors.
_FLOATY_NAME = re.compile(
    r"(?:^|_)(fraction|frac|threshold|share|ratio|pct|percent|density|rate)(?:_|$)",
    re.IGNORECASE,
)

#: Identifiers that denote structured address arrays (or views of them).
_ADDRESSISH_NAME = re.compile(
    r"(?:^|_)(array|arrays|address|addresses|addrs|active)(?:_|$)",
    re.IGNORECASE,
)

#: Bare names bound to ``hi``/``lo`` uint64 column arrays by convention.
_COLUMN_NAMES = frozenset(
    {"hi", "lo", "shi", "slo", "xor_hi", "xor_lo", "hi_col", "lo_col", "eui_lo"}
)


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute expression, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None for other shapes)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_column_expr(node: ast.AST) -> bool:
    """Whether an expression denotes a ``hi``/``lo`` uint64 column array.

    Matches bare conventional names (``hi``, ``xor_lo``, ...) and
    subscript chains that bottom out in a ``["hi"]``/``["lo"]`` field
    access (``array["hi"]``, ``array["hi"][1:]``).
    """
    while isinstance(node, ast.Subscript):
        if isinstance(node.slice, ast.Constant) and node.slice.value in ("hi", "lo"):
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in _COLUMN_NAMES


def _contains_column_subscript(node: ast.AST) -> bool:
    """Whether any sub-expression subscripts a ``"hi"``/``"lo"`` column."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.slice, ast.Constant)
            and sub.slice.value in ("hi", "lo")
        ):
            return True
    return False


def _comprehension_iters(node: ast.AST) -> List[ast.expr]:
    """The iterable expressions of a comprehension node."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        return [generator.iter for generator in node.generators]
    return []


# ---------------------------------------------------------------------------
# R001 — float-arithmetic threshold comparisons against integer counts.
# ---------------------------------------------------------------------------


class FloatThresholdRule(Rule):
    """R001: float-scaled threshold compared against an integer count."""

    rule_id = "R001"
    title = "float-scaled threshold compared against an integer count"
    rationale = """\
Invariant: thresholds applied to integer counts (address-set sizes, hit
tallies, subtree counts) must be computed exactly over integers, never
as float products.

Historical bug: the aguri-style aggregation compared a node's integer
count against ``fraction * total`` — but ``0.07 * 100`` is
``7.000000000000001`` in binary floating point, so a node holding
exactly the threshold share (count 7 of 100) was misclassified and
folded into its parent.  The fix (repro.trie.aguri.aguri_aggregate)
reads the fraction as the decimal it was written as and compares
``count * denominator < numerator * total`` in exact integers.

Fix: restate the comparison over integers — e.g. for ``count <
fraction * total`` with ``fraction = a/b``, compare ``count * b < a *
total``; for density thresholds use ceiling-integer shift arithmetic as
in repro.core.spatial.density_threshold.

Suppress with ``# repro-lint: ignore[R001]`` when both sides are
genuinely real-valued (no integer count involved).
"""

    def check(self, tree: ast.AST) -> List[RawFinding]:
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
            ):
                continue
            operands = [node.left] + list(node.comparators)
            countish = [o for o in operands if self._is_countish(o)]
            scaled = [o for o in operands if self._is_float_scaled(o)]
            if countish and scaled:
                name = _terminal_name(countish[0]) or "count"
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"integer count '{name}' compared against a "
                        "float-scaled threshold; compute the threshold "
                        "exactly over integers (the aguri 0.07*100 == "
                        "7.000000000000001 bug class)",
                    )
                )
        return findings

    @staticmethod
    def _is_countish(node: ast.AST) -> bool:
        name = _terminal_name(node)
        return name is not None and bool(_COUNT_NAME.search(name))

    @staticmethod
    def _is_float_scaled(node: ast.AST) -> bool:
        if not isinstance(node, ast.BinOp) or not isinstance(
            node.op, (ast.Mult, ast.Div)
        ):
            return False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if isinstance(sub, (ast.Name, ast.Attribute)):
                name = _terminal_name(sub)
                if name and _FLOATY_NAME.search(name):
                    return True
        return False


# ---------------------------------------------------------------------------
# R002 — per-element Python loops over address arrays in core/.
# ---------------------------------------------------------------------------


class ElementLoopRule(Rule):
    """R002: per-element Python loop over address arrays in core/."""

    rule_id = "R002"
    title = "per-element Python loop over structured address arrays in core/"
    scope = ("core",)
    rationale = """\
Invariant: core/ hot paths operate on whole (hi, lo) address columns
with vectorized numpy passes; Python-level iteration over address
elements is the complexity class the sweep and spatial engines exist to
eliminate.

Historical bug: the tree-based spatial classifier materialized one
Python object per address (per-element loops everywhere), which could
not densify a year-scale store in reasonable time; the temporal
classifier rescanned each day array once per overlapping window.  Both
were rebuilt as array engines (repro.core.sweep, repro.core.spatial) —
an ~80x speedup on 1M-address densify — and a single stray per-element
loop silently reintroduces the old complexity class.

Fix: replace the loop with column operations (searchsorted, cumsum,
repro.data.store.address_ids, bincount); to materialize Python ints at an API boundary, use
the vectorized repro.net.batchparse.halves_to_ints /
repro.data.store.from_array helpers.

Suppress with ``# repro-lint: ignore[R002]`` on loops that are provably
output-bounded (iterating a handful of report rows, not addresses).
"""

    def check(self, tree: ast.AST) -> List[RawFinding]:
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            else:
                iters = _comprehension_iters(node)
            for iterable in iters:
                if self._iterates_elements(iterable):
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            "per-element Python loop over structured "
                            "address-array data; use vectorized column "
                            "operations instead",
                        )
                    )
                    break
        return findings

    @staticmethod
    def _iterates_elements(iterable: ast.expr) -> bool:
        # Direct (or zip/enumerate-wrapped) iteration of hi/lo columns.
        candidates: List[ast.expr] = [iterable]
        if isinstance(iterable, ast.Call):
            callee = _terminal_name(iterable.func)
            if callee in ("zip", "enumerate"):
                candidates = list(iterable.args)
            elif callee == "range":
                # range(len(array)) / range(array.shape[0]) index loops.
                for arg in iterable.args:
                    if ElementLoopRule._is_array_extent(arg):
                        return True
                return False
            else:
                return False
        return any(_contains_column_subscript(c) for c in candidates)

    @staticmethod
    def _is_array_extent(node: ast.expr) -> bool:
        if (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) == "len"
            and node.args
        ):
            name = _terminal_name(node.args[0])
            return name is not None and bool(_ADDRESSISH_NAME.search(name))
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape"
        ):
            name = _terminal_name(node.value.value)
            return name is not None and bool(_ADDRESSISH_NAME.search(name))
        return False


# ---------------------------------------------------------------------------
# R003 — public core/ entry points bypassing the canonical guard.
# ---------------------------------------------------------------------------

#: Calls that canonicalize arbitrary address input (sorted + unique).
_GUARD_CALLS = frozenset({"_as_address_array", "to_array"})

#: Parameter names that, by convention, carry *unvalidated* address input.
_UNVALIDATED_PARAMS = frozenset({"addresses", "addrs"})


class UnguardedEntryRule(Rule):
    """R003: public core/ entry point bypassing _as_address_array."""

    rule_id = "R003"
    title = "public core/ function uses an address parameter without the canonical guard"
    scope = ("core",)
    rationale = """\
Invariant: every public core/ entry point that accepts addresses (the
``addresses`` parameter convention: structured arrays OR iterables of
ints, unvalidated) must route the input through
repro.core.mra._as_address_array before treating it as a canonical
array.  The engines read structure off *adjacent* elements, so they are
only correct on sorted, deduplicated input.

Historical bug: trusting arbitrary structured-array input returned
wrong MRA aggregate counts for unsorted arrays and double-counted
duplicated addresses in the dense-prefix and population accounting; the
guard (with its cheap ascending-order fast path) was added reactively
in the spatial-engine PR after the miscounts were observed.

Fix: rebind the parameter through the guard —
``array = _as_address_array(addresses)`` — before any subscripting,
attribute access, aliasing, or iteration.  Forwarding the parameter to
another guarded function is fine.

Suppress with ``# repro-lint: ignore[R003]`` on the offending line when
the function's contract genuinely accepts non-canonical input (rare;
document why).
"""

    def check(self, tree: ast.AST) -> List[RawFinding]:
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            params = self._address_params(node)
            if not params:
                continue
            for param in params:
                finding = self._check_param(node, param)
                if finding is not None:
                    findings.append(finding)
        return findings

    @staticmethod
    def _address_params(node: ast.AST) -> List[str]:
        args = node.args  # type: ignore[attr-defined]
        every = args.posonlyargs + args.args + args.kwonlyargs
        return [
            a.arg
            for a in every
            if a.arg in _UNVALIDATED_PARAMS
            and not UnguardedEntryRule._is_scalar_annotation(a.annotation)
        ]

    @staticmethod
    def _is_scalar_annotation(annotation: Optional[ast.expr]) -> bool:
        """Whether the annotation declares a plain int container.

        Scalar reference variants (``addresses: Iterable[int]``) iterate
        Python ints by contract and never see structured arrays, so the
        canonical-array guard does not apply to them.  Annotations that
        mention arrays (``np.ndarray``, ``ArrayOrAddresses``) — or no
        annotation at all — stay in scope.
        """
        if annotation is None:
            return False
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            text = annotation.value
        else:
            text = ast.unparse(annotation)
        if "ndarray" in text or "ArrayOrAddresses" in text:
            return False
        return "int]" in text

    def _check_param(
        self, func: ast.AST, param: str
    ) -> Optional[RawFinding]:
        body = func.body  # type: ignore[attr-defined]
        guarded = False
        alias: Optional[ast.AST] = None
        raw_use: Optional[ast.AST] = None
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    callee = _terminal_name(node.func)
                    if (
                        callee in _GUARD_CALLS
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == param
                    ):
                        guarded = True
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                    if node.value.id == param and alias is None:
                        alias = node
                if isinstance(node, ast.Subscript) or isinstance(node, ast.Attribute):
                    base = node.value
                    if isinstance(base, ast.Name) and base.id == param:
                        if raw_use is None:
                            raw_use = node
                if isinstance(node, ast.For):
                    if isinstance(node.iter, ast.Name) and node.iter.id == param:
                        if raw_use is None:
                            raw_use = node
                for iterable in _comprehension_iters(node):
                    if isinstance(iterable, ast.Name) and iterable.id == param:
                        if raw_use is None:
                            raw_use = node
        # A bare alias lets the raw input escape the guard even when the
        # guard is also called on another control-flow path (the exact
        # shape of the census bug); direct raw use is bad only unguarded.
        offender = alias if alias is not None else (None if guarded else raw_use)
        if offender is None:
            return None
        return RawFinding(
            offender.lineno,
            offender.col_offset,
            f"parameter '{param}' is used as a canonical address array "
            "without routing through _as_address_array(); unsorted or "
            "duplicated input silently miscounts",
        )


# ---------------------------------------------------------------------------
# R004 — unseeded randomness in sim/.
# ---------------------------------------------------------------------------

_STDLIB_GLOBAL_RANDOM = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
    }
)

_NUMPY_LEGACY_RANDOM = frozenset(
    {
        "choice",
        "normal",
        "permutation",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "uniform",
    }
)


class UnseededRandomRule(Rule):
    """R004: unseeded or global-stream randomness in sim/."""

    rule_id = "R004"
    title = "unseeded or global-stream randomness in sim/"
    scope = ("sim",)
    rationale = """\
Invariant: every simulated quantity must be reproducible bit-for-bit
from one root seed, and independent components must not share streams —
otherwise adding a subscriber to one network perturbs another and no
golden test can pin simulator output.

Historical bug: the simulator's golden Table 2 tests (multi-epoch
scenario runs) are only meaningful because all draws flow through
repro.sim.rng's hash-derived substreams; during development, draws that
touched the interpreter-global `random` module made scenario output
depend on import order and on unrelated test execution.

Fix: derive a stream with repro.sim.rng.substream(seed, *keys) /
numpy_substream(seed, *keys), or construct random.Random(seed) /
np.random.default_rng(seed) with an explicit seed.  Never call
module-level random.* / np.random.* functions (they share hidden global
state), and never construct a generator without a seed.

Suppress with ``# repro-lint: ignore[R004]`` only in code explicitly
documented as non-reproducible (none exists today).
"""

    def check(self, tree: ast.AST) -> List[RawFinding]:
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            message = self._classify(dotted, node)
            if message is not None:
                findings.append(
                    RawFinding(node.lineno, node.col_offset, message)
                )
        return findings

    @staticmethod
    def _classify(dotted: str, node: ast.Call) -> Optional[str]:
        parts = dotted.split(".")
        last = parts[-1]
        unseeded = not node.args and not node.keywords
        if len(parts) >= 2 and parts[-2] == "random":
            if parts[0] in ("np", "numpy") or (
                len(parts) >= 3 and parts[-3] in ("np", "numpy")
            ):
                if last in _NUMPY_LEGACY_RANDOM:
                    return (
                        f"numpy legacy global random function '{dotted}'; "
                        "use repro.sim.rng.numpy_substream or a seeded "
                        "np.random.default_rng"
                    )
            elif parts[0] == "random" and last in _STDLIB_GLOBAL_RANDOM:
                return (
                    f"module-level random stream '{dotted}'; use "
                    "repro.sim.rng.substream or a seeded random.Random"
                )
        if last == "default_rng" and unseeded:
            return (
                "np.random.default_rng() without a seed; derive one with "
                "repro.sim.rng.numpy_substream"
            )
        if last == "Random" and unseeded:
            return (
                "random.Random() without a seed; derive one with "
                "repro.sim.rng.substream"
            )
        return None


# ---------------------------------------------------------------------------
# R005 — fork-unsafety around jobs=N fan-out.
# ---------------------------------------------------------------------------

_THREAD_FACTORIES = frozenset(
    {
        "Barrier",
        "BoundedSemaphore",
        "Condition",
        "Event",
        "Lock",
        "RLock",
        "Semaphore",
        "Thread",
        "ThreadPoolExecutor",
        "Timer",
    }
)

_HANDLE_FACTORIES = frozenset({"open", "mmap"})

_POOL_FACTORIES = frozenset(
    {"Pool", "ProcessPoolExecutor", "run_supervised", "supervised_map"}
)


class ForkSafetyRule(Rule):
    """R005: threads, locks, or open handles mixed with fork fan-out."""

    rule_id = "R005"
    title = "threads, locks, or open handles mixed with fork-based fan-out"
    rationale = """\
Invariant: modules that fan work out over fork-based worker pools
(sweep/spatial ``jobs=N``, parallel ingestion) must not create threads
or thread locks, and the pool-creating function must not hold open file
or mmap handles at fork time.  fork() clones only the calling thread —
a lock held by any other thread stays locked forever in the child — and
duplicated handles share file offsets with the parent, so reads in
workers corrupt each other's positions.

Historical bug: fan-outs once passed worker inputs through module-global
stores set just before the fork, so that nothing else — handles, locks,
executors — was alive across it.  Every fan-out now maps a closure
through supervised_map, which forks one worker per job slot; the
closure reaches the workers through the forked address space, so it must
capture data, never live handles.  load_store copies day-cache hits out
of their memory map before the miss pool forks, and misses load inside
the mapped closure, for the same reason.  supervised_map and
run_supervised calls count as fork sites.

Fix: open handles inside the mapped function or closure (it runs after
the fork), never in the fan-out function before the pool; replace
threads with processes or create them only in code that never coexists
with a fork pool.

Suppress with ``# repro-lint: ignore[R005]`` when a handle provably
never crosses the fork (e.g. opened and closed before the pool in a
``with`` block) — or restructure so the question does not arise.
"""

    def check(self, tree: ast.AST) -> List[RawFinding]:
        pool_lines = self._fork_sites(tree)
        if not pool_lines:
            return []
        findings: List[RawFinding] = []
        # Threads/locks anywhere in a forking module are unsafe: their
        # lifetime cannot be proven disjoint from the pool's.
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _terminal_name(node.func)
                if callee in _THREAD_FACTORIES:
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"'{callee}' created in a module that forks "
                            "worker pools; fork() clones only the calling "
                            "thread, so locks held elsewhere deadlock the "
                            "children",
                        )
                    )
        # Open file/mmap handles created in the pool-creating function
        # before the fork are inherited with shared offsets.
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_pools = [
                line for line in pool_lines if self._contains_line(func, line)
            ]
            if not local_pools:
                continue
            first_pool = min(local_pools)
            for node in self._own_calls(func):
                if node.lineno >= first_pool:
                    continue
                callee = _terminal_name(node.func)
                if callee in _HANDLE_FACTORIES or self._is_mmap_load(node):
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"'{callee}' opened before the fork-based pool "
                            f"on line {first_pool}; handles inherited "
                            "across fork share file offsets — open inside "
                            "the worker instead",
                        )
                    )
        return findings

    @staticmethod
    def _fork_sites(tree: ast.AST) -> List[int]:
        lines: List[int] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _terminal_name(node.func)
            if callee in _POOL_FACTORIES:
                lines.append(node.lineno)
            elif callee == "get_context" and any(
                isinstance(arg, ast.Constant) and arg.value == "fork"
                for arg in node.args
            ):
                lines.append(node.lineno)
        return lines

    @staticmethod
    def _own_calls(func: ast.AST) -> Iterator[ast.Call]:
        """Calls in ``func``'s own body.  Nested functions and lambdas are
        skipped: a mapped closure runs in the child, after the fork."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _contains_line(func: ast.AST, line: int) -> bool:
        end = getattr(func, "end_lineno", None)
        return func.lineno <= line and (end is None or line <= end)

    @staticmethod
    def _is_mmap_load(node: ast.Call) -> bool:
        return _terminal_name(node.func) == "load" and any(
            keyword.arg == "mmap_mode" for keyword in node.keywords
        )


# ---------------------------------------------------------------------------
# R006 — dtype discipline in hi/lo column arithmetic.
# ---------------------------------------------------------------------------


class DtypeMixRule(Rule):
    """R006: bare int literal mixed into uint64 hi/lo arithmetic."""

    rule_id = "R006"
    title = "bare Python int literal mixed into uint64 hi/lo arithmetic"
    rationale = """\
Invariant: arithmetic on the ``hi``/``lo`` uint64 address columns wraps
integer literals in ``np.uint64(...)`` so every operand is explicitly
unsigned 64-bit.

Historical bug: numpy's promotion rules make mixed signed/unsigned
64-bit arithmetic either raise or silently promote — classically,
``uint64 + int64`` yields *float64*, which cannot represent every
128-bit address half exactly (floats above 2**53 lose low bits), and
NEP 50 changed the rules for Python-int operands between numpy 1.x and
2.x.  The batch parser and census masks were written with explicit
``np.uint64`` wrapping after address-bit corruption of exactly this
kind surfaced in development; this rule keeps new column arithmetic
honest.

Fix: wrap the literal — ``lo >> np.uint64(24)``, ``hi &
np.uint64(0xFFFF)`` — or hoist it into a module-level ``np.uint64``
constant.

Suppress with ``# repro-lint: ignore[R006]`` when the expression is
provably not uint64 column math (e.g. a same-named local that holds a
Python int).
"""

    _OPS = (
        ast.LShift,
        ast.RShift,
        ast.BitAnd,
        ast.BitOr,
        ast.BitXor,
        ast.Add,
        ast.Sub,
        ast.Mult,
        ast.FloorDiv,
        ast.Mod,
    )

    def check(self, tree: ast.AST) -> List[RawFinding]:
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp) or not isinstance(node.op, self._OPS):
                continue
            sides = (node.left, node.right)
            for column, literal in (sides, sides[::-1]):
                if (
                    _is_column_expr(column)
                    and isinstance(literal, ast.Constant)
                    and type(literal.value) is int
                ):
                    findings.append(
                        RawFinding(
                            node.lineno,
                            node.col_offset,
                            "bare int literal in hi/lo uint64 arithmetic; "
                            "wrap it in np.uint64(...) to pin the dtype",
                        )
                    )
                    break
        return findings


# ---------------------------------------------------------------------------
# R007 — swallowed faults: bare/blanket excepts that silence the
# resilience layer.
# ---------------------------------------------------------------------------

_BLANKET_EXCEPTIONS = frozenset({"Exception", "BaseException"})


class SwallowedFaultRule(Rule):
    """R007: bare ``except:`` or blanket ``except Exception: pass``."""

    rule_id = "R007"
    title = "bare or blanket except handler that swallows faults silently"
    rationale = """\
Invariant: no fault in this pipeline may vanish.  The resilience layer
(:mod:`repro.runtime`) exists so every failure is *classified* — a
quarantine record, a pool retry, a checkpoint resume, a nonzero exit
code.  A bare ``except:`` (which also eats SystemExit and
KeyboardInterrupt) or an ``except Exception: pass`` pre-empts all of
that: the fault is gone, the output is silently wrong, and the
operator pages nobody.

Historical bug: a blanket handler around cache-meta parsing turned a
half-written ``.meta.json`` into "cache always misses, silently" for
weeks of warm runs — parsing faults must instead be *reported* (the
quarantine's ``cache-rebuilt`` info records) so the rebuild rate is
visible.  This rule pins that lesson: handle the exceptions you can
name, and route the rest to the classifier.

Fix: name the exception types the code can actually recover from
(``except (OSError, ValueError):``), or re-raise / record the fault
before continuing.  Narrow handlers with real recovery bodies are
fine; so is a blanket handler that logs, reports, or re-raises.

Suppress with ``# repro-lint: ignore[R007]`` only where swallowing is
the contract — e.g. best-effort stdout cleanup in a BrokenPipeError
path, where the process is already exiting.
"""

    def check(self, tree: ast.AST) -> List[RawFinding]:
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        "bare 'except:' swallows every fault (including "
                        "SystemExit); name the exceptions this code can "
                        "recover from",
                    )
                )
                continue
            blanket = self._blanket_names(node.type)
            if blanket and self._is_silent_body(node.body):
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"'except {'/'.join(sorted(blanket))}: pass' "
                        "silences faults the resilience layer should "
                        "classify; narrow the type or record the fault",
                    )
                )
        return findings

    @staticmethod
    def _blanket_names(type_node: ast.expr) -> List[str]:
        """Blanket exception names caught by this handler's type."""
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        return [
            _terminal_name(item)
            for item in candidates
            if _terminal_name(item) in _BLANKET_EXCEPTIONS
        ]

    @staticmethod
    def _is_silent_body(body: List[ast.stmt]) -> bool:
        """True when the handler does nothing observable with the fault."""
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring / Ellipsis placeholder
            return False
        return True


# ---------------------------------------------------------------------------
# R008 — np.lexsort over address columns instead of the ordering kernel.
# ---------------------------------------------------------------------------


class LexsortRule(Rule):
    """R008: ``np.lexsort`` in src/ instead of ``store.address_ids``."""

    rule_id = "R008"
    title = "np.lexsort in src/; order 128-bit pairs with store.address_ids"
    scope = ("src",)
    rationale = """\
Invariant: the library orders ``(hi, lo)`` address pairs with one
kernel, repro.data.store.address_ids: three unstable argsorts (numpy
runs them as SIMD quicksorts) give each pair a dense id in 128-bit
order, which is everything a merge, a group-by or a dedupe needs.

Historical bug: the ingest merge (store.merge_halves) ordered pairs
with a two-key ``np.lexsort``, a mergesort over both columns; on the
shuffled logs of benchmarks/bench_ingest.py it cost 1.0 s of the
30 x 100k text parse, and ~10 ms of each 40k-line day, twice what the
ranked merge takes.

Fix: number the pairs with ``address_ids(hi, lo)`` and scatter or
reduce by id (``out[ids] = hi``, ``np.add.at``, ``np.bincount``,
``np.minimum.at``); for sorted arrays that only need merging, see
store.union_many.

Suppress with ``# repro-lint: ignore[R008]`` where the keys are not
address halves and a stable multi-key order is really wanted.
"""

    def check(self, tree: ast.AST) -> List[RawFinding]:
        findings: List[RawFinding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _terminal_name(node.func) == "lexsort":
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        "np.lexsort orders address pairs by a two-key "
                        "mergesort; use repro.data.store.address_ids",
                    )
                )
        return findings


#: Every rule, in id order.
RULES: Tuple[Rule, ...] = (
    FloatThresholdRule(),
    ElementLoopRule(),
    UnguardedEntryRule(),
    UnseededRandomRule(),
    ForkSafetyRule(),
    DtypeMixRule(),
    SwallowedFaultRule(),
    LexsortRule(),
)

_RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


def get_rule(rule_id: str) -> Rule:
    """Look a rule up by id (case-insensitive); raises KeyError when unknown."""
    return _RULES_BY_ID[rule_id.upper()]
