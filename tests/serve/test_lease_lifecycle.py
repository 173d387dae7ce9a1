"""Property-based lease lifecycle: a model-checked state machine per backend.

Hypothesis drives random interleavings of ``claim`` / ``renew`` / ``release``
/ clock advances from a small cast of owners against each real backend,
mirroring every step in a trivial reference model (one ``(owner,
expires_at)`` slot).  The invariant checked after every rule is the whole
lease contract at once:

* at most one live holder exists, and :meth:`lease` reports exactly the
  model's holder (never two live holders, never a phantom);
* a claim wins if and only if the model says the slot is free, expired, or
  already ours;
* renew succeeds only for the live holder;
* release succeeds only for the current holder -- a stale release (from an
  owner whose lease expired and was re-claimed) never clobbers a successor.

Time is a fake monotonic clock advanced explicitly by a rule, and TTLs and
deltas are integers, so expiry comparisons are exact -- no float-epsilon
flakes, fully deterministic replay on failure.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.serve.backends import DirectoryBackend, MemoryBackend

KIND = "analysis"
KEY = "feedfacecafe"

OWNERS = st.sampled_from(["alpha", "beta", "gamma"])
TTLS = st.integers(min_value=1, max_value=20)
STEPS = st.integers(min_value=1, max_value=15)

#: Clock origin far from zero so no backend can confuse "never" with "now".
EPOCH = 1_000.0


class LeaseLifecycle(RuleBasedStateMachine):
    """One slot, three owners, a fake clock, and the real backend under test."""

    backend_name: str = "memory"

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="lease-machine-"))
        if self.backend_name == "directory":
            self.backend = DirectoryBackend(self.root / "cache")
        else:
            self.backend = MemoryBackend()
        self.now = EPOCH
        # The reference model: (owner, expires_at) of the slot, or None.
        self.model: tuple[str, float] | None = None

    def teardown(self) -> None:
        self.backend.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- model helpers ----------------------------------------------------------------

    def _live_holder(self) -> tuple[str, float] | None:
        if self.model is not None and self.model[1] > self.now:
            return self.model
        return None

    # -- rules ------------------------------------------------------------------------

    @rule(steps=STEPS)
    def advance_clock(self, steps: int) -> None:
        self.now += steps

    @rule(owner=OWNERS, ttl=TTLS)
    def claim(self, owner: str, ttl: int) -> None:
        lease = self.backend.claim(KIND, KEY, owner, ttl, now=self.now)
        live = self._live_holder()
        if live is None or live[0] == owner:
            # Free, expired, or an idempotent re-claim: must win.
            assert lease is not None
            assert lease.owner == owner
            assert lease.expires_at == self.now + ttl
            self.model = (owner, self.now + ttl)
        else:
            assert lease is None

    @rule(owner=OWNERS, ttl=TTLS)
    def renew(self, owner: str, ttl: int) -> None:
        lease = self.backend.renew(KIND, KEY, owner, ttl, now=self.now)
        live = self._live_holder()
        if live is not None and live[0] == owner:
            assert lease is not None
            assert lease.expires_at == self.now + ttl
            self.model = (owner, self.now + ttl)
        else:
            assert lease is None

    @rule(owner=OWNERS)
    def release(self, owner: str) -> None:
        dropped = self.backend.release(KIND, KEY, owner)
        # Release is owner-checked against the *stored* slot, live or not:
        # an expired-but-unclaimed lease may still be cleaned up by its
        # owner, while a stale owner must never clobber a successor's claim.
        if self.model is not None and self.model[0] == owner:
            assert dropped
            self.model = None
        else:
            assert not dropped

    # -- the contract, checked after every rule ---------------------------------------

    @invariant()
    def backend_matches_model(self) -> None:
        lease = self.backend.lease(KIND, KEY, now=self.now)
        live = self._live_holder()
        if live is None:
            assert lease is None
        else:
            assert lease is not None
            assert (lease.owner, lease.expires_at) == live


COMMON = settings(max_examples=30, stateful_step_count=25, deadline=None)


class MemoryLeaseLifecycle(LeaseLifecycle):
    backend_name = "memory"


class DirectoryLeaseLifecycle(LeaseLifecycle):
    backend_name = "directory"


TestMemoryLeaseLifecycle = MemoryLeaseLifecycle.TestCase
TestMemoryLeaseLifecycle.settings = COMMON
TestDirectoryLeaseLifecycle = DirectoryLeaseLifecycle.TestCase
TestDirectoryLeaseLifecycle.settings = COMMON
