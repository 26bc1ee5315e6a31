"""Markings: token-count vectors over the places of a net.

A marking is stored as a NumPy ``int64`` vector indexed by place index.
:class:`Marking` is a thin wrapper adding name-based access, hashability
(for reachability-set membership) and the arithmetic the token game needs.
The simulator and the reachability explorer work on plain lists of ints
for speed and only materialise :class:`Marking` objects at API boundaries
(the explorer all at once, with :meth:`Marking.from_rows`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["Marking"]


class Marking:
    """An immutable snapshot of token counts.

    Parameters
    ----------
    counts:
        Token count per place index.
    place_names:
        Names aligned with *counts* (shared, not copied).
    """

    __slots__ = ("_counts", "_names", "_index", "_hash")

    def __init__(
        self,
        counts: Sequence[int],
        place_names: Sequence[str],
        _index: Dict[str, int] | None = None,
    ) -> None:
        arr = np.asarray(counts, dtype=np.int64).copy()
        if arr.ndim != 1:
            raise ValueError("marking must be a 1-D vector")
        if len(place_names) != arr.size:
            raise ValueError(
                f"{len(place_names)} names for {arr.size} counts"
            )
        if np.any(arr < 0):
            raise ValueError("token counts must be >= 0")
        arr.setflags(write=False)
        self._counts = arr
        self._names = tuple(place_names)
        self._index = _index if _index is not None else {
            name: i for i, name in enumerate(self._names)
        }
        self._hash = hash((self._names, arr.tobytes()))

    # ------------------------------------------------------------------ #
    @property
    def counts(self) -> np.ndarray:
        """Read-only token vector."""
        return self._counts

    @property
    def place_names(self) -> Tuple[str, ...]:
        return self._names

    def __getitem__(self, place: str | int) -> int:
        if isinstance(place, str):
            return int(self._counts[self._index[place]])
        return int(self._counts[place])

    def get(self, place: str, default: int = 0) -> int:
        i = self._index.get(place)
        return default if i is None else int(self._counts[i])

    def total_tokens(self) -> int:
        return int(self._counts.sum())

    def as_dict(self, skip_zero: bool = False) -> Dict[str, int]:
        """Token counts keyed by place name."""
        return {
            name: int(c)
            for name, c in zip(self._names, self._counts)
            if not (skip_zero and c == 0)
        }

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.as_dict().items())

    def __len__(self) -> int:
        return self._counts.size

    # ------------------------------------------------------------------ #
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._names == other._names and bool(
            np.array_equal(self._counts, other._counts)
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={int(c)}"
            for name, c in zip(self._names, self._counts)
            if c != 0
        )
        return f"Marking({inner or 'empty'})"

    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls, counts: np.ndarray, place_names: Sequence[str]
    ) -> List["Marking"]:
        """One marking per row of a 2-D ``int64`` count array.

        The array is validated once and made read-only; each marking is a
        view of its row, and all of them share one name index.  Each
        marking equals, and hashes like, ``Marking(row, place_names)``.
        """
        if counts.ndim != 2 or counts.dtype != np.int64:
            raise ValueError("counts must be a 2-D int64 array")
        if counts.shape[1] != len(place_names):
            raise ValueError(
                f"{len(place_names)} names for {counts.shape[1]} counts"
            )
        if np.any(counts < 0):
            raise ValueError("token counts must be >= 0")
        counts.setflags(write=False)
        names = tuple(place_names)
        index = {name: i for i, name in enumerate(names)}
        markings: List[Marking] = []
        for row in counts:
            m = cls.__new__(cls)
            m._counts = row
            m._names = names
            m._index = index
            m._hash = hash((names, row.tobytes()))
            markings.append(m)
        return markings

    @classmethod
    def from_dict(
        cls, tokens: Mapping[str, int], place_names: Sequence[str]
    ) -> "Marking":
        """Build from a (possibly partial) ``{place: tokens}`` mapping."""
        index = {name: i for i, name in enumerate(place_names)}
        counts = np.zeros(len(place_names), dtype=np.int64)
        for name, c in tokens.items():
            if name not in index:
                raise KeyError(f"unknown place {name!r}")
            counts[index[name]] = c
        return cls(counts, place_names, _index=index)
