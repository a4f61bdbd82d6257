"""Exception types shared across the engine, and the JSON file reader that raises them."""

import json


class EngineError(Exception):
    """Base class for all engine-level failures."""


class InputError(EngineError):
    """Malformed or inconsistent user input (bad JSON, wrong shapes, zero denominators)."""


class NonDiagonalizableAction(EngineError):
    """The action has a vanishing diagonal top coefficient, so the diagonal homotopy does not exist."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"diagonal coefficient of variable {index} is zero")


class NotGenericAtWeight(EngineError):
    """A per-weight slice matrix of id - keep o eta is singular: the action is not generic.

    The offending weight is reported so the failure is reproducible; no change
    of variables is attempted.
    """

    def __init__(self, weight: int):
        self.weight = weight
        super().__init__(f"slice matrix singular at weight {weight}: action is not generic")


class NonTerminating(EngineError):
    """eta or a part of the perturbation sent a term to a weight the keep/drop split rules out.

    The weight sweep of (id - delta o eta)^{-1} ends only because drop o eta
    strictly lowers weight and keep o eta stays in its slice; an image that
    breaks either would make it run on or truncate silently.
    """


class SingularMatrix(EngineError):
    """Exact linear solve hit a rank-deficient matrix."""


class NotAllowable(EngineError):
    """A contour fails the decay check Re(s) <= -30 along its end rays."""


class ToleranceNotReached(EngineError):
    """Adaptive quadrature could not certify the requested tolerance."""


def read_json(path: str):
    """The parsed contents of a JSON file; an unreadable, non-UTF-8 or malformed file is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a syntax error, bytes that are not UTF-8, an integer over Python's digit limit, or nesting too deep
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
