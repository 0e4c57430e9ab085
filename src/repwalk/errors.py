"""Shared exception types."""


class CapacityError(Exception):
    """A request exceeds a module's configured exact-computation limit.

    Carries enough context to tell the caller which knob to turn.
    """

    def __init__(self, what: str, requested, limit):
        self.what = what
        self.requested = requested
        self.limit = limit
        super().__init__(f"{what}: requested {requested} exceeds limit {limit}")


class SamplerError(RuntimeError):
    """A sampler gave up: its attempt cap ran out, or threshold enclosures
    failed to separate a uniform draw at the highest precision."""
