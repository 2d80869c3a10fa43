"""Exception hierarchy shared by all chirpfed modules."""


class ChirpfedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ChirpfedError):
    """A parameter object violates one of its invariants."""


class InputError(ChirpfedError):
    """Runtime input (waveform, batch, vector) has the wrong shape or content."""


class ParseError(ChirpfedError):
    """A serialized file is malformed; carries the byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TrainingError(ChirpfedError):
    """Training diverged; carries the round, node and step it diverged in,
    where known, as attributes and in one context suffix of the message."""

    def __init__(self, message, round_index=None, node_id=None, step_index=None):
        self.reason = message
        self.round_index = round_index
        self.node_id = node_id
        self.step_index = step_index
        ctx = [f"{name} {value}" for name, value in (
            ("round", round_index), ("node", node_id), ("step", step_index))
            if value is not None]
        super().__init__(f"{message} ({', '.join(ctx)})" if ctx else message)


class ValidityError(ChirpfedError):
    """A closed-form bound was evaluated outside its region of validity."""


class EmptyRoundError(ChirpfedError):
    """No scheduled node decoded successfully; the caller keeps the previous
    global parameters instead of aggregating."""
