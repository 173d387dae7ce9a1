"""Deterministic fault injection for the storage layer (a test harness).

The store's fault handling is only trustworthy when its failure paths run
on every CI pass, not just on the day a disk actually fills up.  This module
makes backend failures *scriptable*: :class:`FaultInjectingBackend` wraps any
:class:`~repro.serve.backends.base.StorageBackend` and executes a
:class:`FaultPlan` -- "fail the 3rd read with ``OSError``", "make every 5th
write take 50 ms", "tear the 2nd write mid-payload" -- with per-operation
call counters, so a test (or the CI chaos run via ``$REPRO_FAULT_PLAN``)
reproduces the exact same fault sequence every time.

Fault-plan grammar (full spec in ``docs/resilience.md``)::

    plan   := rule (";" rule)*
    rule   := op ":" when ":" action
    op     := read | write | delete | exists | keys | entries
            | claim | renew | release | lease | any
              (aliases: get -> read, put -> write)
    when   := N        the Nth call of that op (1-based)
            | N-M      calls N through M inclusive
            | N+       every call from the Nth on
            | %K       every Kth call (K, 2K, 3K, ...)
            | *        every call
    action := oserror[:MESSAGE]   raise OSError (a disk fault)
            | latency:SECONDS     sleep, then perform the operation normally
            | torn                write/read only half the payload (a torn write)

Examples::

    read:3:oserror                   the 3rd read fails once
    write:*:oserror                  every write fails
    read:%5:latency:0.05             every 5th read takes an extra 50 ms
    write:2:torn;read:4-6:oserror    tear write #2, fail reads 4..6

The wrapper sits *below* :class:`~repro.serve.store.ArtifactStore`, so the
store's retries observe injected faults exactly like real ones, and *above*
the concrete backend, so one plan exercises the directory backend and its
memory test double identically.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import ServeError
from repro.serve.backends.base import BackendEntry, Lease, StorageBackend

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "FaultInjectingBackend",
    "parse_fault_plan",
    "resolve_fault_plan",
]

#: Environment default for the fault plan (the CI chaos job sets it so the
#: injected-fault paths run on every CI pass).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_OPS = (
    "read",
    "write",
    "delete",
    "exists",
    "keys",
    "entries",
    "claim",
    "renew",
    "release",
    "lease",
    "any",
)
_OP_ALIASES = {"get": "read", "put": "write"}
_ACTIONS = ("oserror", "latency", "torn")


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One scripted fault: which op, which calls, what happens.

    ``start``/``stop`` bound the matching 1-based call numbers (``stop`` is
    ``None`` for open-ended ``N+`` ranges); ``every`` is the ``%K`` period
    (0 when the rule is range-based).  ``delay`` only applies to the
    ``latency`` action.
    """

    op: str
    action: str
    start: int = 1
    stop: int | None = None
    every: int = 0
    delay: float = 0.0
    message: str = ""

    def matches(self, op: str, call: int) -> bool:
        """Whether this rule fires for the *call*-th invocation of *op*."""
        if self.op != "any" and self.op != op:
            return False
        if self.every:
            return call % self.every == 0
        if call < self.start:
            return False
        return self.stop is None or call <= self.stop

    def describe(self) -> str:
        """The spec term this rule round-trips through :func:`parse_fault_plan`."""
        if self.every:
            when = f"%{self.every}"
        elif self.stop is None:
            when = "*" if self.start == 1 else f"{self.start}+"
        elif self.start == self.stop:
            when = str(self.start)
        else:
            when = f"{self.start}-{self.stop}"
        action = self.action
        if self.action == "latency":
            action = f"latency:{self.delay:g}"
        elif self.action == "oserror" and self.message:
            action = f"oserror:{self.message}"
        return f"{self.op}:{when}:{action}"


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An ordered list of fault rules (first matching rule wins per call)."""

    rules: tuple[FaultRule, ...] = ()

    def rule_for(self, op: str, call: int) -> FaultRule | None:
        for rule in self.rules:
            if rule.matches(op, call):
                return rule
        return None

    def describe(self) -> str:
        return ";".join(rule.describe() for rule in self.rules)

    def __bool__(self) -> bool:
        return bool(self.rules)


@dataclass(frozen=True, slots=True)
class InjectedFault:
    """One fault that actually fired (the injection log entry)."""

    op: str
    call: int
    action: str
    kind: str = ""
    key: str = ""


def _parse_when(token: str) -> tuple[int, int | None, int]:
    """``(start, stop, every)`` from a ``when`` token; raises on nonsense."""
    token = token.strip()
    if token == "*":
        return 1, None, 0
    try:
        if token.startswith("%"):
            every = int(token[1:])
            if every < 1:
                raise ValueError("period must be >= 1")
            return 1, None, every
        if token.endswith("+"):
            start = int(token[:-1])
            if start < 1:
                raise ValueError("call numbers are 1-based")
            return start, None, 0
        if "-" in token:
            raw_start, _, raw_stop = token.partition("-")
            start, stop = int(raw_start), int(raw_stop)
            if start < 1 or stop < start:
                raise ValueError("range must be 1-based and non-empty")
            return start, stop, 0
        start = int(token)
        if start < 1:
            raise ValueError("call numbers are 1-based")
        return start, start, 0
    except ValueError as exc:
        raise ServeError(
            f"bad fault selector {token!r}: expected N, N-M, N+, %K or *"
        ) from exc


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a fault-plan spec string (see the module docstring grammar)."""
    rules: list[FaultRule] = []
    for term in spec.split(";"):
        term = term.strip()
        if not term:
            continue
        parts = term.split(":", 2)
        if len(parts) != 3:
            raise ServeError(
                f"bad fault rule {term!r}: expected op:when:action "
                "(e.g. read:3:oserror)"
            )
        op, when, action_spec = (part.strip().lower() for part in parts)
        op = _OP_ALIASES.get(op, op)
        if op not in _OPS:
            raise ServeError(
                f"unknown fault op {op!r} (expected one of {', '.join(_OPS)}"
                " or the aliases get/put)"
            )
        start, stop, every = _parse_when(when)
        action, _, argument = action_spec.partition(":")
        if action not in _ACTIONS:
            raise ServeError(
                f"unknown fault action {action!r} "
                f"(expected one of {', '.join(_ACTIONS)})"
            )
        delay = 0.0
        message = ""
        if action == "latency":
            try:
                delay = float(argument)
            except ValueError as exc:
                raise ServeError(
                    f"latency needs seconds, got {argument!r}"
                ) from exc
            if delay < 0:
                raise ServeError("latency seconds must be non-negative")
        elif action == "oserror":
            message = argument
        elif argument:
            raise ServeError(f"fault action {action!r} takes no argument")
        if action == "torn" and op not in ("read", "write", "any"):
            raise ServeError("the torn action only applies to read/write")
        rules.append(
            FaultRule(
                op=op,
                action=action,
                start=start,
                stop=stop,
                every=every,
                delay=delay,
                message=message,
            )
        )
    return FaultPlan(tuple(rules))


def resolve_fault_plan(spec: str | None) -> FaultPlan:
    """A plan from *spec*, falling back to ``$REPRO_FAULT_PLAN`` (may be empty)."""
    if spec is None:
        spec = os.environ.get(FAULT_PLAN_ENV, "")
    return parse_fault_plan(spec)


class FaultInjectingBackend(StorageBackend):
    """A storage backend that executes a scripted fault plan.

    Every operation increments a per-op call counter, consults the plan, and
    either raises the scripted error, sleeps the scripted latency, tears the
    payload, or proceeds normally.  Counters and the injection log are
    guarded by a lock so concurrent callers (the async executor) still see
    one deterministic global call ordering per op.

    The wrapper reports the *inner* backend's ``name`` and ``root`` so stores
    and services built over it behave identically to the unwrapped backend.
    """

    def __init__(
        self,
        inner: StorageBackend,
        plan: FaultPlan | str,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if isinstance(plan, str):
            plan = parse_fault_plan(plan)
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        self._calls: dict[str, int] = {}
        self.injected: list[InjectedFault] = []
        self._lock = threading.Lock()

    # -- identity ---------------------------------------------------------------------

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def root(self) -> Path | None:  # type: ignore[override]
        return self.inner.root

    def describe(self) -> str:
        return f"fault-injecting[{self.plan.describe()}] over {self.inner.describe()}"

    def __getattr__(self, attribute: str):
        # Backend extras (path_for, quarantined, ...) pass straight through.
        return getattr(self.inner, attribute)

    # -- injection machinery ----------------------------------------------------------

    def _consult(self, op: str, kind: str = "", key: str = "") -> FaultRule | None:
        """Count one call of *op*; if a rule fires, log it and return it.

        A ``latency`` rule sleeps here (inside the lock-free section) and
        returns ``None`` so the caller proceeds normally; error/torn rules
        are returned for the caller to act on.
        """
        with self._lock:
            call = self._calls.get(op, 0) + 1
            self._calls[op] = call
            rule = self.plan.rule_for(op, call)
            if rule is not None:
                self.injected.append(
                    InjectedFault(op=op, call=call, action=rule.action, kind=kind, key=key)
                )
        if rule is None:
            return None
        if rule.action == "latency":
            self._sleep(rule.delay)
            return None
        return rule

    @staticmethod
    def _raise(rule: FaultRule, op: str) -> None:
        if rule.action != "oserror":
            raise AssertionError(f"unreachable fault action {rule.action!r}")
        raise OSError(rule.message or f"injected fault on {op}")

    def calls(self, op: str) -> int:
        """How many times *op* has been invoked (including faulted calls)."""
        with self._lock:
            return self._calls.get(op, 0)

    # -- the backend surface ----------------------------------------------------------

    def read(self, kind: str, key: str) -> str | None:
        rule = self._consult("read", kind, key)
        if rule is not None:
            if rule.action == "torn":
                text = self.inner.read(kind, key)
                return text[: len(text) // 2] if text else text
            self._raise(rule, "read")
        return self.inner.read(kind, key)

    def write(self, kind: str, key: str, text: str) -> None:
        rule = self._consult("write", kind, key)
        if rule is not None:
            if rule.action == "torn":
                # A torn write lands half the payload *under the final name*,
                # simulating a backend whose writes are not atomic -- exactly
                # the corruption the store's quarantine path must absorb.
                self.inner.write(kind, key, text[: len(text) // 2])
                return
            self._raise(rule, "write")
        self.inner.write(kind, key, text)

    def delete(self, kind: str, key: str) -> bool:
        rule = self._consult("delete", kind, key)
        if rule is not None:
            self._raise(rule, "delete")
        return self.inner.delete(kind, key)

    def exists(self, kind: str, key: str) -> bool:
        rule = self._consult("exists", kind, key)
        if rule is not None:
            self._raise(rule, "exists")
        return self.inner.exists(kind, key)

    def keys(self, kind: str) -> list[str]:
        rule = self._consult("keys", kind)
        if rule is not None:
            self._raise(rule, "keys")
        return self.inner.keys(kind)

    def entries(self) -> Iterator[BackendEntry]:
        rule = self._consult("entries")
        if rule is not None:
            self._raise(rule, "entries")
        return self.inner.entries()

    def claim(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        rule = self._consult("claim", kind, key)
        if rule is not None:
            self._raise(rule, "claim")
        return self.inner.claim(kind, key, owner, ttl, now=now)

    def renew(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        rule = self._consult("renew", kind, key)
        if rule is not None:
            self._raise(rule, "renew")
        return self.inner.renew(kind, key, owner, ttl, now=now)

    def release(self, kind: str, key: str, owner: str) -> bool:
        rule = self._consult("release", kind, key)
        if rule is not None:
            self._raise(rule, "release")
        return self.inner.release(kind, key, owner)

    def lease(
        self, kind: str, key: str, *, now: float | None = None
    ) -> Lease | None:
        rule = self._consult("lease", kind, key)
        if rule is not None:
            self._raise(rule, "lease")
        return self.inner.lease(kind, key, now=now)

    def quarantine(self, kind: str, key: str) -> None:
        # Quarantine is best-effort everywhere; faults are never injected
        # here so a scripted read fault cannot cascade into a wedged slot.
        self.inner.quarantine(kind, key)

    def total_bytes(self) -> int:
        return self.inner.total_bytes()

    def close(self) -> None:
        self.inner.close()
