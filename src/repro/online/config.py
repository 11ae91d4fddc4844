"""Unified monitor configuration: one frozen object instead of kwarg sprawl.

The engine/fault/retry/worker knobs used to travel as loose keywords
through four separate entry points (``OnlineMonitor``, ``MonitoringProxy``,
``run_suite``, ``sweep``), each validating the engine string on its own.
:class:`MonitorConfig` collapses them into a single frozen dataclass that
every entry point accepts as ``config=``; :class:`Engine` promotes the
engine string to a str-enum whose :meth:`Engine.coerce` is the one place
an engine value is validated.

The old keywords went through a deprecation cycle (``DeprecationWarning``
since the ``MonitorConfig`` PR) and are now *removed*: passing bare
``engine=``/``faults=``/``retry=``/``workers=`` to a config-accepting
entry point raises :class:`TypeError` through :func:`resolve_config`, the
shared graduation shim, with a message naming the ``config=`` replacement.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.faults import FailureModel, RetryPolicy
    from repro.online.health import HealthConfig
    from repro.online.shedding import SheddingConfig


class Engine(str, enum.Enum):
    """The interchangeable monitor implementations.

    A str-enum: ``Engine.VECTORIZED == "vectorized"`` holds, so existing
    string comparisons keep working wherever an ``Engine`` flows.

    ``Engine.AUTO`` is not a third implementation: it dispatches between
    the two fixed engines per run — and re-evaluates the choice per
    chronon via a bag-size hysteresis (:mod:`repro.online.dispatch`),
    migrating the candidate pool exactly when the workload regime
    changes.  Schedules stay bit-identical to either fixed engine.
    """

    REFERENCE = "reference"
    VECTORIZED = "vectorized"
    AUTO = "auto"

    @classmethod
    def coerce(cls, value: "Engine | str") -> "Engine":
        """The single validation point for engine values."""
        if isinstance(value, Engine):
            return value
        try:
            return cls(value)
        except ValueError:
            options = tuple(engine.value for engine in cls)
            raise ModelError(
                f"unknown engine {value!r}; expected one of {options}"
            ) from None


#: Backwards-compatible tuple of valid engine names.
ENGINES = tuple(engine.value for engine in Engine)


@dataclass(frozen=True, slots=True)
class MonitorConfig:
    """How a monitoring run executes, independent of *what* it monitors.

    Parameters
    ----------
    engine:
        Monitor implementation — :attr:`Engine.REFERENCE` (the Algorithm 1
        transcription), :attr:`Engine.VECTORIZED` (the structure-of-arrays
        fast path) or :attr:`Engine.AUTO` (bag-size-aware dispatch between
        the two, bit-identical to both).  A plain string is coerced and
        validated on construction.
    faults:
        Optional :class:`repro.online.faults.FailureModel` injecting probe
        failures into every run using this config.
    retry:
        Optional :class:`repro.online.faults.RetryPolicy`.  A config may
        carry a retry policy without a failure model (e.g. as a ``sweep``
        template whose per-point models arrive later); the monitor rejects
        that combination at run construction.
    workers:
        Process-pool size for ``run_suite``/``sweep`` (None or 1 = serial).
        Ignored by the single-run entry points.
    health:
        Optional :class:`repro.online.health.HealthConfig` enabling
        per-resource online failure estimation (and, optionally, circuit
        breaking) learned from the run's own probe outcomes.  Requires a
        failure model to observe; the monitor rejects a health config
        without one at run construction.
    shedding:
        Optional :class:`repro.online.shedding.SheddingConfig` enabling
        admission control / tiered load shedding under sustained overload:
        an EWMA demand-to-budget detector with hysteresis, and a
        utility-per-probe victim selector that degrades ``soft`` CEIs and
        sheds ``best-effort`` ones (``hard`` CEIs are never touched).
        Engine-neutral: both engines produce bit-identical schedules under
        the same shedding config.

    The object is frozen: derive variants with :meth:`replace`.
    """

    engine: Engine = Engine.REFERENCE
    faults: "Optional[FailureModel]" = None
    retry: "Optional[RetryPolicy]" = None
    workers: Optional[int] = None
    health: "Optional[HealthConfig]" = None
    shedding: "Optional[SheddingConfig]" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", Engine.coerce(self.engine))
        if self.workers is not None and self.workers < 1:
            raise ModelError(f"workers must be >= 1, got {self.workers}")

    def replace(self, **changes) -> "MonitorConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


def resolve_config(
    config: Optional[MonitorConfig],
    *,
    engine: "Optional[Engine | str]" = None,
    faults: "Optional[FailureModel]" = None,
    retry: "Optional[RetryPolicy]" = None,
    workers: Optional[int] = None,
    owner: str = "OnlineMonitor",
    stacklevel: int = 3,
) -> MonitorConfig:
    """The graduation shim shared by every config-accepting entry point.

    The loose keywords (``engine=``, ``faults=``, ``retry=``,
    ``workers=``) were deprecated when :class:`MonitorConfig` landed and
    have completed their cycle: passing any of them now raises
    :class:`TypeError` naming the ``config=`` replacement, so old call
    sites fail loudly with a migration hint instead of a generic
    "unexpected keyword argument".  ``stacklevel`` is kept for
    signature compatibility with older callers of the shim itself.
    """
    del stacklevel  # no longer warns; kept for signature compatibility
    legacy = {
        name: value
        for name, value in (
            ("engine", engine),
            ("faults", faults),
            ("retry", retry),
            ("workers", workers),
        )
        if value is not None
    }
    if legacy:
        names = ", ".join(f"{name}=" for name in legacy)
        raise TypeError(
            f"{owner}: the {names} keyword(s) were removed; "
            f"pass config=MonitorConfig({', '.join(f'{n}=...' for n in legacy)}) "
            f"instead"
        )
    if config is None:
        return MonitorConfig()
    if not isinstance(config, MonitorConfig):
        raise ModelError(
            f"{owner}: config must be a MonitorConfig, got {type(config).__name__}"
        )
    return config
