"""Serving requests: what arrives, and the sampled token budgets it carries.

A :class:`Request` is one user's generation job: it shows up at ``arrival_s``
with a ``prompt_tokens``-token prompt that must first be *prefilled* (processed
into the KV cache, paying :meth:`~repro.serve.stepcost.StepCostModel.prefill_cycles`
under the scheduler's step-planning policy) before ``output_tokens`` are
decoded one per iteration.  Requests are frozen -- all mutable progress
(prompt tokens prefilled, tokens generated so far, admission/prefill-end/
first-token/finish timestamps) lives in the scheduler's
:class:`~repro.serve.scheduler.ActiveRequest` wrapper, so arrival processes
can hand the same request objects to any number of simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed, make_rng

#: Default (min, max) prompt lengths, inclusive, in tokens.
DEFAULT_PROMPT_TOKENS = (128, 1024)

#: Default (min, max) output lengths, inclusive, in tokens.
DEFAULT_OUTPUT_TOKENS = (16, 64)


def check_token_range(name: str, tokens: tuple[int, int]) -> None:
    """Raise a ConfigError unless ``tokens`` is a ``(min, max)`` with 0 < min <= max."""

    lo, hi = tokens
    if lo <= 0 or hi < lo:
        raise ConfigError(f"{name} range must satisfy 0 < min <= max, got ({lo}, {hi})")


@dataclass(frozen=True, slots=True)
class Request:
    """One prefill-then-decode request of a serving stream."""

    request_id: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int

    def validate(self) -> "Request":
        if self.arrival_s < 0:
            raise ConfigError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if self.prompt_tokens <= 0:
            raise ConfigError(f"prompt_tokens must be positive, got {self.prompt_tokens}")
        if self.output_tokens <= 0:
            raise ConfigError(f"output_tokens must be positive, got {self.output_tokens}")
        return self


class RequestSampler:
    """Draws per-request token budgets from a seeded RNG.

    Arrival processes own the *timing* of a stream; the sampler owns the
    *sizes*.  It derives an independent RNG stream from the run seed, so the
    sampled sizes do not depend on how many timing draws an arrival process
    makes (two processes with the same seed sample identical size sequences).
    """

    #: Stream id mixed into the seed so size draws never alias timing draws.
    _STREAM = 0x5A

    def __init__(
        self,
        seed: int,
        prompt_tokens: tuple[int, int] = DEFAULT_PROMPT_TOKENS,
        output_tokens: tuple[int, int] = DEFAULT_OUTPUT_TOKENS,
    ) -> None:
        check_token_range("prompt_tokens", prompt_tokens)
        check_token_range("output_tokens", output_tokens)
        self.seed = int(seed)
        self.prompt_tokens = (int(prompt_tokens[0]), int(prompt_tokens[1]))
        self.output_tokens = (int(output_tokens[0]), int(output_tokens[1]))
        self._rng = make_rng(derive_seed(self.seed, self._STREAM))
        self._next_id = 0

    def sample(self, arrival_s: float) -> Request:
        """Create the next request of the stream, arriving at ``arrival_s``."""

        request = Request(
            request_id=self._next_id,
            arrival_s=float(arrival_s),
            prompt_tokens=int(self._rng.integers(self.prompt_tokens[0], self.prompt_tokens[1] + 1)),
            output_tokens=int(self._rng.integers(self.output_tokens[0], self.output_tokens[1] + 1)),
        ).validate()
        self._next_id += 1
        return request
