"""Exception types shared across the package, and require, the shape check of its inputs."""

import numbers

# each scalar kind: the class its values are instances of, and its noun
_SCALARS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
            str: (str, "a string"), object: (object, "")}


def require(name: str, value, kind) -> None:
    """Raise ValueError, naming the part that fails, unless value has shape kind.

    A kind is int, float (any real) or str, and a bool is never a number;
    object takes anything.  [kind] is a list, (kind, kind) a pair and {str: kind}
    an object with any keys.  {key: kind, ...} is an object with exactly those
    keys, where "key?" may be left out; each is named by itself, as in the file.
    """
    if isinstance(kind, (list, tuple)):
        pair = isinstance(kind, tuple)
        if not isinstance(value, (list, tuple)) or pair and len(value) != len(kind):
            raise ValueError(f"{name} must be {'a pair' if pair else 'a list'}, not {value!r}")
        for i, item in enumerate(value):
            require(f"{name}[{i}]", item, kind[i] if pair else kind[0])
    elif isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, not {value!r}")
        keys = {key.rstrip("?"): key for key in kind if key is not str}
        for key, item in value.items():
            if str in kind:
                require(f"{name}[{key!r}]", item, kind[str])
            elif key not in keys:
                raise ValueError(f"{name} has unknown key {key!r}")
        for key, declared in keys.items():
            if key in value:
                require(key, value[key], kind[declared])
            elif not declared.endswith("?"):
                raise ValueError(f"{name} needs key {key!r}")
    else:
        test, noun = _SCALARS[kind]
        if not isinstance(value, test) or isinstance(value, bool) and kind in (int, float):
            raise ValueError(f"{name} must be {noun}, not {value!r}")


class StableSearchError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(StableSearchError):
    """Array dimensions disagree with what the operation requires."""


class DegenerateData(StableSearchError):
    """Data matrix is unusable: zero-variance column or ill-conditioned covariance."""


class ConstraintViolation(StableSearchError):
    """A graph operation would produce an arc the constraint mask forbids."""


class ExtensionCapExceeded(StableSearchError):
    """An enumerated pattern or sub-pattern grew past graphs.EXTENSION_CAP members."""


class NoExtension(StableSearchError):
    """A partially directed graph admits no consistent acyclic extension."""


class SearchFailed(StableSearchError):
    """Too many subset searches failed for stability aggregation to proceed."""


class InvalidPrior(StableSearchError):
    """Prior-knowledge input references unknown variables or is malformed."""


class EmptyMultiset(StableSearchError):
    """No causal-effect values could be collected for a requested pair."""
