"""Resilient fetch client: retries, hedging, and circuit breaking.

Models what a production parameter-server client actually does when the
network misbehaves, on the simulated clock:

* **per-attempt timeout** — an attempt that has not completed within the
  budget is abandoned;
* **capped exponential backoff with jitter** between attempts;
* **hedging** — if the primary request is still outstanding after
  ``hedge_delay`` (a p99-ish threshold), a second request goes to a
  replica and whichever finishes first wins, cancelling the straggler;
* **per-shard circuit breaker** — ``closed -> open -> half-open``; an
  open breaker fails fetches fast (no network wait) so a browned-out
  shard costs the caller microseconds instead of serial timeouts.

Fetch cost is the sum of the actual attempt timeline, so tail latency
under faults is modelled honestly instead of "timeout + base".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from ..obs.registry import Observable
from .injector import FaultInjector

US = 1e-6

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/hedge behaviour of the resilient fetch client."""

    #: Attempts before giving up (1 = no retries).
    max_attempts: int = 3
    #: Per-attempt completion budget.
    attempt_timeout: float = 1_000 * US
    #: First backoff; doubles each retry up to ``backoff_cap``.
    backoff_base: float = 100 * US
    backoff_cap: float = 2_000 * US
    #: Backoff is scaled by ``1 + U(-jitter, +jitter)``.
    jitter: float = 0.2
    #: Fire a hedged request after this long; ``None`` disables hedging.
    hedge_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.attempt_timeout <= 0:
            raise ConfigError("attempt_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ConfigError("need 0 <= backoff_base <= backoff_cap")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")
        if self.hedge_delay is not None and not (
            0.0 < self.hedge_delay < self.attempt_timeout
        ):
            raise ConfigError("hedge_delay must be in (0, attempt_timeout)")

    @classmethod
    def naive(cls, timeout: float = 1_000 * US) -> "RetryPolicy":
        """The seed's model: wait out the timeout, retry exactly once."""
        return cls(
            max_attempts=2,
            attempt_timeout=timeout,
            backoff_base=0.0,
            backoff_cap=0.0,
            jitter=0.0,
            hedge_delay=None,
        )


@dataclass(frozen=True)
class BreakerConfig:
    """Per-shard circuit-breaker tuning."""

    #: Open when the failure rate over the window reaches this.
    failure_threshold: float = 0.5
    #: Recent attempts considered for the failure rate.
    window: int = 10
    #: Attempts required before the breaker may trip.
    min_samples: int = 4
    #: How long an open breaker rejects before probing (half-open).
    cooldown: float = 20_000 * US

    def __post_init__(self) -> None:
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigError("failure_threshold must be in (0, 1]")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if not 1 <= self.min_samples <= self.window:
            raise ConfigError("need 1 <= min_samples <= window")
        if self.cooldown <= 0:
            raise ConfigError("cooldown must be positive")


class CircuitBreaker:
    """``closed -> open -> half-open`` breaker on the simulated clock."""

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.state = CLOSED
        self._results: deque = deque(maxlen=config.window)
        self._opened_at = 0.0
        self._open_time = 0.0  # closed intervals already accounted

    def allow(self, now: float) -> bool:
        """Whether a request may go out at ``now`` (may flip to half-open)."""
        if self.state == OPEN:
            if now >= self._opened_at + self.config.cooldown:
                self._open_time += now - self._opened_at
                self.state = HALF_OPEN
                return True
            return False
        return True

    def record(self, ok: bool, now: float) -> None:
        """Feed one attempt result back into the breaker."""
        if self.state == HALF_OPEN:
            if ok:
                self.state = CLOSED
                self._results.clear()
            else:
                self._trip(now)
            return
        self._results.append(ok)
        if len(self._results) >= self.config.min_samples:
            failures = self._results.count(False)
            if failures / len(self._results) >= self.config.failure_threshold:
                self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self._opened_at = now
        self._results.clear()

    def open_time(self, now: float) -> float:
        """Total simulated time spent open, up to ``now``."""
        extra = max(0.0, now - self._opened_at) if self.state == OPEN else 0.0
        return self._open_time + extra


@dataclass(frozen=True)
class FetchOutcome:
    """Timeline summary of one resilient fetch."""

    success: bool
    #: Total simulated time from issue to completion (or abandonment).
    elapsed: float
    attempts: int
    hedges_fired: int = 0
    #: ``"ok"``, or why the fetch failed (``"breaker-open"``: the breaker
    #: rejected it without touching the network).
    reason: str = "ok"


class ResilientFetchClient(Observable):
    """Simulates the retry/hedge/breaker timeline of one fetch.

    Args:
        injector: fault source (schedule + seeded RNG).
        policy: retry/hedge policy.
        num_shards: parameter-server shards (one breaker each).
        breaker: breaker config, or ``None`` to disable breaking.
        seed: seeds the backoff-jitter RNG (independent of the
            injector's fault RNG so fault timing replays cleanly).
    """

    def __init__(
        self,
        injector: FaultInjector,
        policy: RetryPolicy,
        num_shards: int,
        breaker: Optional[BreakerConfig] = None,
        seed: int = 0,
    ):
        if num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        self.injector = injector
        self.policy = policy
        self.breakers: List[Optional[CircuitBreaker]] = [
            CircuitBreaker(breaker) if breaker else None
            for _ in range(num_shards)
        ]
        self._rng = np.random.default_rng(seed)
        self._now = 0.0  # latest issue time seen, for open-time reporting

    # ------------------------------------------------------------ fetch

    def fetch(self, base_cost: float, shard: int, now: float) -> FetchOutcome:
        """Run one fetch's full attempt timeline starting at ``now``."""
        policy = self.policy
        breaker = self.breakers[shard % len(self.breakers)]
        self._now = max(self._now, now)
        obs = self.obs
        elapsed = 0.0
        hedges = 0
        reason = "ok"
        for attempt in range(policy.max_attempts):
            issue_at = now + elapsed
            if breaker is not None and not breaker.allow(issue_at):
                # Fail fast: the breaker is open, no network wait at all.
                obs.inc("faults.breaker_fast_fails")
                obs.inc("faults.failures")
                return FetchOutcome(
                    success=False,
                    elapsed=elapsed,
                    attempts=attempt,
                    hedges_fired=hedges,
                    reason="breaker-open",
                )
            obs.inc("faults.attempts")
            if attempt > 0:
                obs.inc("faults.retries")
            ok, spent, hedged, won, reason = self._one_attempt(
                base_cost, shard, issue_at
            )
            if hedged:
                hedges += 1
                obs.inc("faults.hedges_fired")
                if won:
                    obs.inc("faults.hedge_wins")
            if breaker is not None:
                breaker.record(ok, issue_at + spent)
            elapsed += spent
            if ok:
                return FetchOutcome(
                    success=True,
                    elapsed=elapsed,
                    attempts=attempt + 1,
                    hedges_fired=hedges,
                    reason="ok",
                )
            if attempt + 1 < policy.max_attempts:
                elapsed += self._backoff(attempt)
        obs.inc("faults.failures")
        return FetchOutcome(
            success=False,
            elapsed=elapsed,
            attempts=policy.max_attempts,
            hedges_fired=hedges,
            reason=reason,
        )

    def _one_attempt(self, base_cost: float, shard: int, issue_at: float):
        """Simulate one attempt (plus its hedge); returns the timeline.

        Returns ``(ok, elapsed, hedged, hedge_won, reason)`` where
        ``elapsed`` is capped at the attempt timeout.
        """
        policy = self.policy
        primary = self.injector.attempt(shard, issue_at)
        primary_done = (
            base_cost * primary.latency_factor if primary.ok else float("inf")
        )
        hedged = False
        hedge_won = False
        reason = primary.reason
        if (
            policy.hedge_delay is not None
            and primary_done > policy.hedge_delay
        ):
            # Primary still outstanding at the hedge threshold: fire a
            # second request to a replica and race them.
            hedged = True
            hedge = self.injector.attempt(shard, issue_at + policy.hedge_delay)
            hedge_done = (
                policy.hedge_delay + base_cost * hedge.latency_factor
                if hedge.ok else float("inf")
            )
            if hedge_done < primary_done:
                hedge_won = True
                primary_done = hedge_done
                reason = hedge.reason
        if primary_done <= policy.attempt_timeout:
            return True, primary_done, hedged, hedge_won, "ok"
        if reason == "ok":
            reason = "timeout"
        return False, policy.attempt_timeout, hedged, hedge_won, reason

    def _backoff(self, attempt: int) -> float:
        policy = self.policy
        backoff = min(policy.backoff_cap, policy.backoff_base * (2 ** attempt))
        if policy.jitter > 0.0 and backoff > 0.0:
            backoff *= 1.0 + policy.jitter * float(
                self._rng.uniform(-1.0, 1.0)
            )
        return backoff

    # ------------------------------------------------------------ stats

    def breaker_open_time(self, now: Optional[float] = None) -> float:
        """Total simulated breaker-open time summed over shards."""
        at = self._now if now is None else now
        return sum(
            b.open_time(at) for b in self.breakers if b is not None
        )
