"""Supervised fork-based worker pools for the pipeline's fan-out paths.

The bare ``multiprocessing.Pool``/``ProcessPoolExecutor`` fan-outs the
engines used before this module had three failure modes a year-long run
cannot afford: a worker killed by the OOM killer poisons or hangs the
whole map, a wedged worker stalls it forever, and a transient fault
(NFS hiccup, cache race) aborts instead of retrying.  ``run_supervised``
replaces them with one supervisor that provides:

* **per-task isolation** — every task attempt runs in its own forked
  child, so killing a misbehaving attempt cannot disturb its siblings;
* **crashed-worker detection** — a child that dies without reporting
  (nonzero exit, lost pipe) is detected and the task retried;
* **per-task timeouts** — a child exceeding ``timeout`` seconds is
  killed and the task retried;
* **bounded retry with exponential backoff + jitter** — deterministic
  jitter derived from :mod:`repro.sim.rng` substreams, so two
  supervisors retrying the same task never thunder in lockstep and a
  rerun with the same seed schedules identically;
* **serial re-execution fallback** — a poison task that exhausts its
  retries is re-run inline in the parent, where a genuine exception
  surfaces with its real traceback instead of a pickled shadow;
* **a structured** :class:`RunReport` of every attempt, retry,
  timeout, crash, and fallback, so "it worked" and "it worked after
  recovering from three dead workers" are distinguishable.

Each child is started by the ``fork`` context with ``func`` and its
task as ``Process`` arguments, so both reach the child through the
forked address space (copy-on-write) and are never pickled: ``func``
may be a closure over the caller's stores and parameters.  Only
results (and error tracebacks) are pickled, back through each child's
pipe.  Where fork is unavailable the supervisor degrades to serial
in-process execution — slower, never wrong.

Results are returned in task order regardless of completion order; the
optional ``on_result`` callback fires in *completion* order and is the
checkpoint layer's hook.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: Outcomes a task attempt can end in.
OUTCOME_OK = "ok"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"
OUTCOME_SERIAL_OK = "serial-ok"
OUTCOME_SERIAL_FAIL = "serial-fail"

_WORKER_OUTCOMES = (OUTCOME_CRASH, OUTCOME_TIMEOUT, OUTCOME_ERROR)


@dataclass(frozen=True)
class PoolConfig:
    """Supervision parameters for one ``run_supervised`` call.

    ``retries`` bounds *additional* worker attempts after the first;
    once exhausted, the task falls back to serial in-parent execution
    (unless ``fallback`` is False, in which case a
    :class:`PoolTaskError` is raised).  ``timeout`` is per attempt, in
    seconds; ``None`` disables it.  Backoff before retry ``k`` is
    ``min(max_delay, base_delay * 2**k)`` scaled by deterministic
    jitter in [0.5, 1.5) derived from ``(seed, label, task, k)``.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0
    label: str = "pool"
    fallback: bool = True


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt at one task: which, how it ended, and how long it took."""

    index: int
    attempt: int
    outcome: str
    detail: str = ""
    elapsed: float = 0.0


@dataclass
class RunReport:
    """Structured account of a supervised run's attempts and recoveries."""

    label: str
    tasks: int
    attempts: List[TaskAttempt] = field(default_factory=list)

    def _count(self, *outcomes: str) -> int:
        return sum(1 for a in self.attempts if a.outcome in outcomes)

    @property
    def crashes(self) -> int:
        """Worker attempts that died without reporting a result."""
        return self._count(OUTCOME_CRASH)

    @property
    def timeouts(self) -> int:
        """Worker attempts killed for exceeding the per-task timeout."""
        return self._count(OUTCOME_TIMEOUT)

    @property
    def errors(self) -> int:
        """Worker attempts that raised and reported an exception."""
        return self._count(OUTCOME_ERROR)

    @property
    def retries(self) -> int:
        """Worker attempts beyond each task's first."""
        worker_outcomes = (OUTCOME_OK,) + _WORKER_OUTCOMES
        return sum(
            1 for a in self.attempts if a.attempt > 0 and a.outcome in worker_outcomes
        )

    @property
    def fallbacks(self) -> int:
        """Tasks that were re-executed serially in the parent."""
        return self._count(OUTCOME_SERIAL_OK, OUTCOME_SERIAL_FAIL)

    @property
    def clean(self) -> bool:
        """True when every task succeeded on its first worker attempt."""
        return all(a.outcome == OUTCOME_OK and a.attempt == 0 for a in self.attempts)

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        return (
            f"{self.label}: {self.tasks} task(s), "
            f"{len(self.attempts)} attempt(s) — "
            f"{self.crashes} crash(es), {self.timeouts} timeout(s), "
            f"{self.errors} error(s), {self.fallbacks} serial fallback(s)"
        )


class PoolTaskError(RuntimeError):
    """A task failed every worker attempt and serial fallback was disabled."""

    def __init__(self, label: str, index: int, detail: str) -> None:
        super().__init__(
            f"{label}: task {index} failed all worker attempts: {detail}"
        )
        self.index = index
        self.detail = detail


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None``/1 -> serial; 0 -> all CPUs; N -> N workers."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0: {jobs}")
    return jobs


def backoff_delay(config: PoolConfig, index: int, attempt: int) -> float:
    """Deterministic backoff-with-jitter before retry ``attempt``."""
    from repro.sim.rng import stable_uniform

    delay = min(config.max_delay, config.base_delay * (2.0 ** max(attempt - 1, 0)))
    jitter = 0.5 + stable_uniform(config.seed, config.label, "backoff", index, attempt)
    return delay * jitter


def _child_main(
    func: Callable[[Any], Any],
    task: Any,
    index: int,
    attempt: int,
    label: str,
    conn: Any,
) -> None:
    """Forked child body: run one task attempt, report through the pipe.

    Exits via ``os._exit`` so the parent's inherited atexit handlers and
    buffered streams are never run twice.  Fault-injection hooks (see
    :mod:`repro.sim.faults`) are applied first, so a deterministic
    "kill this worker" plan lands before any real work.
    """
    code = 0
    try:
        if os.environ.get("REPRO_FAULTS"):
            from repro.sim.faults import apply_worker_faults

            apply_worker_faults(label, index, attempt)
        result = func(task)
        conn.send((OUTCOME_OK, result))
    except BaseException:  # noqa: BLE001 - the pipe is the error channel
        code = 1
        try:
            conn.send((OUTCOME_ERROR, traceback.format_exc()))
        except (OSError, ValueError):
            code = 2
    try:
        conn.close()
    finally:
        os._exit(code)


@dataclass
class _Running:
    process: Any
    index: int
    attempt: int
    deadline: Optional[float]
    started: float


def run_supervised(
    func: Callable[[Any], Any],
    tasks: Sequence[Any],
    config: PoolConfig,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> Tuple[List[Any], RunReport]:
    """Run ``func`` over ``tasks`` under supervision; see module docstring.

    Returns ``(results, report)`` with ``results[i] = func(tasks[i])``
    in task order.  Serial execution (``jobs <= 1``, a single task, or
    no fork support) runs everything inline with no supervision
    overhead — exceptions propagate unchanged, exactly like a plain
    loop.
    """
    task_list = list(tasks)
    report = RunReport(label=config.label, tasks=len(task_list))
    results: List[Any] = [None] * len(task_list)
    if not task_list:
        return results, report
    use_fork = (
        config.jobs > 1
        and len(task_list) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    if not use_fork:
        for index, task in enumerate(task_list):
            started = time.monotonic()
            results[index] = func(task)
            report.attempts.append(
                TaskAttempt(
                    index, 0, OUTCOME_OK, elapsed=time.monotonic() - started
                )
            )
            if on_result is not None:
                on_result(index, results[index])
        return results, report

    context = multiprocessing.get_context("fork")
    pending: Deque[Tuple[int, int]] = deque(
        (index, 0) for index in range(len(task_list))
    )
    #: (ready_time, index, attempt) — tasks sleeping out a backoff.
    waiting: List[Tuple[float, int, int]] = []
    running: Dict[Any, _Running] = {}
    done = 0

    def finish(index: int, value: Any) -> None:
        nonlocal done
        results[index] = value
        done += 1
        if on_result is not None:
            on_result(index, value)

    def kill(process: Any) -> None:
        try:
            process.kill()
        except (OSError, ValueError):
            pass
        process.join()

    def handle_failure(index: int, attempt: int, detail: str) -> None:
        """Schedule a retry, fall back to serial, or raise."""
        if attempt < config.retries:
            ready = time.monotonic() + backoff_delay(config, index, attempt + 1)
            waiting.append((ready, index, attempt + 1))
            return
        if not config.fallback:
            raise PoolTaskError(config.label, index, detail)
        started = time.monotonic()
        try:
            value = func(task_list[index])
        except BaseException:
            report.attempts.append(
                TaskAttempt(
                    index,
                    attempt + 1,
                    OUTCOME_SERIAL_FAIL,
                    detail=detail,
                    elapsed=time.monotonic() - started,
                )
            )
            raise
        report.attempts.append(
            TaskAttempt(
                index,
                attempt + 1,
                OUTCOME_SERIAL_OK,
                detail=detail,
                elapsed=time.monotonic() - started,
            )
        )
        finish(index, value)

    try:
        while done < len(task_list):
            now = time.monotonic()
            if waiting:
                still: List[Tuple[float, int, int]] = []
                for ready, index, attempt in waiting:
                    if ready <= now:
                        pending.append((index, attempt))
                    else:
                        still.append((ready, index, attempt))
                waiting[:] = still
            while pending and len(running) < config.jobs:
                index, attempt = pending.popleft()
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_child_main,
                    args=(func, task_list[index], index, attempt, config.label, sender),
                    daemon=True,
                )
                process.start()
                sender.close()
                started = time.monotonic()
                deadline = (
                    None if config.timeout is None else started + config.timeout
                )
                running[receiver] = _Running(process, index, attempt, deadline, started)
            if not running:
                if waiting:
                    time.sleep(max(0.0, min(r for r, _i, _a in waiting) - now))
                    continue
                break  # pragma: no cover - supervisor invariant

            poll: Optional[float] = None
            bounds = [
                entry.deadline for entry in running.values() if entry.deadline
            ] + [ready for ready, _i, _a in waiting]
            if bounds:
                poll = max(0.01, min(bounds) - time.monotonic())
            ready_connections = connection_wait(list(running), timeout=poll)

            for connection in ready_connections:
                entry = running.pop(connection)
                try:
                    kind, payload = connection.recv()
                except (EOFError, OSError):
                    kind, payload = OUTCOME_CRASH, ""
                connection.close()
                entry.process.join()
                elapsed = time.monotonic() - entry.started
                if kind == OUTCOME_OK:
                    report.attempts.append(
                        TaskAttempt(entry.index, entry.attempt, OUTCOME_OK, elapsed=elapsed)
                    )
                    finish(entry.index, payload)
                elif kind == OUTCOME_CRASH:
                    detail = (
                        f"worker pid {entry.process.pid} died "
                        f"(exitcode {entry.process.exitcode})"
                    )
                    report.attempts.append(
                        TaskAttempt(
                            entry.index,
                            entry.attempt,
                            OUTCOME_CRASH,
                            detail=detail,
                            elapsed=elapsed,
                        )
                    )
                    handle_failure(entry.index, entry.attempt, detail)
                else:
                    report.attempts.append(
                        TaskAttempt(
                            entry.index,
                            entry.attempt,
                            OUTCOME_ERROR,
                            detail=str(payload),
                            elapsed=elapsed,
                        )
                    )
                    handle_failure(entry.index, entry.attempt, str(payload))

            now = time.monotonic()
            for connection, entry in list(running.items()):
                if entry.deadline is not None and now > entry.deadline:
                    running.pop(connection)
                    kill(entry.process)
                    connection.close()
                    detail = (
                        f"worker pid {entry.process.pid} exceeded "
                        f"{config.timeout}s timeout"
                    )
                    report.attempts.append(
                        TaskAttempt(
                            entry.index,
                            entry.attempt,
                            OUTCOME_TIMEOUT,
                            detail=detail,
                            elapsed=now - entry.started,
                        )
                    )
                    handle_failure(entry.index, entry.attempt, detail)
    finally:
        for connection, entry in running.items():
            kill(entry.process)
            try:
                connection.close()
            except (OSError, ValueError):
                pass
    return results, report


def supervised_map(
    func: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    config: Optional[PoolConfig] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    report_sink: Optional[List[RunReport]] = None,
) -> List[Any]:
    """Convenience wrapper: resolve ``jobs``, run, collect the report.

    ``report_sink`` (when given) receives the :class:`RunReport`, so
    callers that only sometimes care about supervision detail can get
    it without threading tuples everywhere.
    """
    base = config if config is not None else PoolConfig()
    workers = min(resolve_jobs(jobs if jobs is not None else base.jobs), max(len(tasks), 1))
    results, report = run_supervised(
        func, tasks, replace(base, jobs=workers), on_result=on_result
    )
    if report_sink is not None:
        report_sink.append(report)
    return results
