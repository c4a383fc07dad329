"""Finite typed domains for program variables.

The programming model of the paper (§2) uses typed variables.  Because the
semantic engine enumerates state spaces, every domain here is finite and
comes with a dense value ↔ index codec:

- :class:`BoolDomain` — ``False``/``True`` encoded as ``0``/``1``;
- :class:`IntRange` — inclusive integer interval ``[lo, hi]``;
- :class:`EnumDomain` — a fixed tuple of distinct hashable labels.

Index codecs are the basis of the mixed-radix state encoding in
:mod:`repro.core.state`; the vectorized ``decode_array`` methods turn arrays
of indices into arrays of values and back without Python-level loops.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any

import numpy as np

from repro.errors import DomainError

__all__ = ["FiniteDomain", "BoolDomain", "IntRange", "EnumDomain"]


class FiniteDomain:
    """Abstract base class of finite domains.

    Subclasses must provide :attr:`size`, :meth:`value_at`,
    :meth:`index_of` and :meth:`decode_array`.  The default implementations
    of the remaining methods are expressed in terms of those four.
    """

    #: Number of values in the domain (set by subclasses).
    size: int

    # -- codec ------------------------------------------------------------

    def value_at(self, index: int) -> Any:
        """Return the value with dense index ``index`` (``0 ≤ index < size``)."""
        raise NotImplementedError

    def index_of(self, value: Any) -> int:
        """Return the dense index of ``value``; raise :class:`DomainError` if absent."""
        raise NotImplementedError

    def decode_array(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_at`: map an index array to a value array."""
        raise NotImplementedError

    def encode_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of`; default loops, subclasses vectorize."""
        return np.array([self.index_of(v) for v in values], dtype=np.int64)

    # -- membership / iteration -------------------------------------------

    def contains(self, value: Any) -> bool:
        """True iff ``value`` is a member of the domain."""
        try:
            self.index_of(value)
        except DomainError:
            return False
        return True

    def values(self) -> Iterator[Any]:
        """Iterate over all values in index order."""
        return (self.value_at(i) for i in range(self.size))

    def check(self, value: Any, context: str = "") -> Any:
        """Return ``value`` if it is in the domain, else raise with context."""
        if not self.contains(value):
            where = f" in {context}" if context else ""
            raise DomainError(f"value {value!r} is not in domain {self}{where}")
        return value

    # -- dunder -----------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return self.values()

    def __len__(self) -> int:
        return self.size

    def __contains__(self, value: Any) -> bool:
        return self.contains(value)


class BoolDomain(FiniteDomain):
    """The two-valued boolean domain; ``False ↦ 0``, ``True ↦ 1``.

    All instances are interchangeable; equality is by type.
    """

    size = 2

    def value_at(self, index: int) -> bool:
        if index == 0:
            return False
        if index == 1:
            return True
        raise DomainError(f"index {index} out of range for {self}")

    def index_of(self, value: Any) -> int:
        # Accept numpy bools transparently; reject ints (0/1 are *not*
        # booleans in this model — typing is deliberately strict so that
        # DSL elaboration catches category errors early).
        if isinstance(value, (bool, np.bool_)):
            return int(bool(value))
        raise DomainError(f"value {value!r} is not a boolean")

    def decode_array(self, indices: np.ndarray) -> np.ndarray:
        return indices.astype(bool)

    def encode_array(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=bool).astype(np.int64)

    def __repr__(self) -> str:
        return "bool"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolDomain)

    def __hash__(self) -> int:
        return hash(BoolDomain)


class IntRange(FiniteDomain):
    """Inclusive integer interval ``[lo, hi]``.

    >>> d = IntRange(2, 5)
    >>> list(d)
    [2, 3, 4, 5]
    >>> d.index_of(4)
    2
    """

    __slots__ = ("lo", "hi", "size")

    def __init__(self, lo: int, hi: int) -> None:
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise DomainError(f"IntRange bounds must be ints, got {lo!r}, {hi!r}")
        if hi < lo:
            raise DomainError(f"empty IntRange [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.size = hi - lo + 1

    def value_at(self, index: int) -> int:
        if 0 <= index < self.size:
            return self.lo + index
        raise DomainError(f"index {index} out of range for {self}")

    def index_of(self, value: Any) -> int:
        if isinstance(value, (bool, np.bool_)):
            raise DomainError(f"value {value!r} is not an integer")
        if isinstance(value, (int, np.integer)):
            v = int(value)
            if self.lo <= v <= self.hi:
                return v - self.lo
        raise DomainError(f"value {value!r} is not in {self}")

    def decode_array(self, indices: np.ndarray) -> np.ndarray:
        return indices.astype(np.int64) + self.lo

    def encode_array(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.int64)
        if ((arr < self.lo) | (arr > self.hi)).any():
            bad = arr[(arr < self.lo) | (arr > self.hi)][0]
            raise DomainError(f"value {bad} is not in {self}")
        return arr - self.lo

    def __repr__(self) -> str:
        return f"int[{self.lo}..{self.hi}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntRange)
            and other.lo == self.lo
            and other.hi == self.hi
        )

    def __hash__(self) -> int:
        return hash((IntRange, self.lo, self.hi))


class EnumDomain(FiniteDomain):
    """A finite set of distinct hashable labels, in a fixed order.

    >>> d = EnumDomain("phase", ("idle", "want", "hold"))
    >>> d.index_of("want")
    1
    """

    __slots__ = ("name", "labels", "size", "_index")

    def __init__(self, name: str, labels: Sequence[Any]) -> None:
        labels = tuple(labels)
        if not labels:
            raise DomainError(f"enum {name!r} must have at least one label")
        self.name = name
        self.labels = labels
        self.size = len(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}
        if len(self._index) != len(labels):
            raise DomainError(f"enum {name!r} has duplicate labels: {labels!r}")

    def value_at(self, index: int) -> Any:
        if 0 <= index < self.size:
            return self.labels[index]
        raise DomainError(f"index {index} out of range for {self}")

    def index_of(self, value: Any) -> int:
        try:
            return self._index[value]
        except (KeyError, TypeError):
            raise DomainError(f"value {value!r} is not a label of {self}") from None

    def decode_array(self, indices: np.ndarray) -> np.ndarray:
        table = np.array(self.labels, dtype=object)
        return table[indices]

    def encode_array(self, values: np.ndarray) -> np.ndarray:
        # One C-level pass over the label table; a miss re-runs the bad
        # element through index_of for its error.
        values = np.asarray(values, dtype=object).ravel()
        try:
            return np.fromiter(
                map(self._index.__getitem__, values),
                dtype=np.int64,
                count=values.shape[0],
            )
        except (KeyError, TypeError):
            for v in values:
                self.index_of(v)
            raise  # pragma: no cover - index_of raised above

    def __repr__(self) -> str:
        return f"enum:{self.name}{{{','.join(map(str, self.labels))}}}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EnumDomain)
            and other.name == self.name
            and other.labels == self.labels
        )

    def __hash__(self) -> int:
        return hash((EnumDomain, self.name, self.labels))
