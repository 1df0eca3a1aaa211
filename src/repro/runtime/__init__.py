"""Resilience layer for long-running pipeline paths.

Every multi-day, multi-process path in the pipeline routes through this
package so that partial failure degrades gracefully instead of aborting
or hanging:

* :mod:`repro.runtime.quarantine` — bounded, reported diversion of
  malformed inputs (``errors="quarantine"`` ingestion mode);
* :mod:`repro.runtime.pool` — supervised fork-based worker pools with
  timeouts, retry/backoff, crash detection, and serial fallback;
* :mod:`repro.runtime.checkpoint` — atomic, hash-validated sweep
  checkpoints enabling kill-and-resume with bit-identical output;
* :mod:`repro.runtime.exitcodes` — the classified CLI exit-code map;
* :mod:`repro.runtime.atomicio` — the atomic file replacement every
  on-disk cache writes through.

The deterministic fault-injection harness that exercises all of the
above lives in :mod:`repro.sim.faults` (it reuses the simulator's
seeded substreams) and is driven by the ``repro-faultcheck`` CLI.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    KILL_AFTER_CHECKPOINTS_ENV,
    SweepCheckpoint,
    sweep_signature,
)
from repro.runtime.exitcodes import (
    EXIT_FINDINGS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_QUARANTINE,
    EXIT_USAGE,
    InputError,
    classify_exception,
)
from repro.runtime.pool import (
    PoolConfig,
    PoolTaskError,
    RunReport,
    TaskAttempt,
    backoff_delay,
    resolve_jobs,
    run_supervised,
    supervised_map,
)
from repro.runtime.quarantine import (
    ERRORS_QUARANTINE,
    ERRORS_STRICT,
    QuarantinePolicy,
    QuarantineRecord,
    QuarantineReport,
    QuarantineThresholdError,
    check_errors_mode,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "KILL_AFTER_CHECKPOINTS_ENV",
    "SweepCheckpoint",
    "sweep_signature",
    "EXIT_FINDINGS",
    "EXIT_INPUT",
    "EXIT_INTERNAL",
    "EXIT_OK",
    "EXIT_QUARANTINE",
    "EXIT_USAGE",
    "InputError",
    "classify_exception",
    "PoolConfig",
    "PoolTaskError",
    "RunReport",
    "TaskAttempt",
    "backoff_delay",
    "resolve_jobs",
    "run_supervised",
    "supervised_map",
    "ERRORS_QUARANTINE",
    "ERRORS_STRICT",
    "QuarantinePolicy",
    "QuarantineRecord",
    "QuarantineReport",
    "QuarantineThresholdError",
    "check_errors_mode",
]
