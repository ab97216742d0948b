"""Truth tables for small Boolean functions.

A :class:`TruthTable` is an immutable Boolean function of ``n`` ordered
inputs, stored as a bitmask over the ``2**n`` input rows.  Row index ``r``
encodes the input assignment in which input ``i`` has value ``(r >> i) & 1``
(input 0 is the least-significant index bit).  Bit ``r`` of :attr:`mask` is
the function output for that row.

This convention makes Shannon cofactoring, input permutation and polarity
manipulation cheap bit arithmetic, which the architecture-analysis code in
:mod:`repro.core` relies on heavily (it enumerates all 256 3-input
functions many times).

Small tables (``n_inputs <= 4``) are *interned*: the constructor returns
the one canonical instance per ``(n_inputs, mask)`` pair, so the
realization-table and NPN machinery — which construct the same few
hundred functions tens of millions of times — pay a dict lookup instead
of an allocation, and equality on the hot paths short-circuits on
identity.  Interning is purely an optimization; value semantics
(``__eq__``/``__hash__``/pickling) are unchanged.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Sequence, Tuple


def _row_count(n_inputs: int) -> int:
    return 1 << n_inputs


def _full_mask(n_inputs: int) -> int:
    return (1 << _row_count(n_inputs)) - 1


#: Tables with at most this many inputs are interned (n=4 tops out at
#: 65536 distinct functions; beyond that masks are huge and rare).
_INTERN_MAX_INPUTS = 4

_interned: Dict[Tuple[int, int], "TruthTable"] = {}

_var_masks: Dict[Tuple[int, int], int] = {}


def _var_mask(n_inputs: int, index: int) -> int:
    """Bitmask of rows where input ``index`` is 1 (cached projection)."""
    key = (n_inputs, index)
    mask = _var_masks.get(key)
    if mask is None:
        mask = 0
        for row in range(_row_count(n_inputs)):
            if (row >> index) & 1:
                mask |= 1 << row
        _var_masks[key] = mask
    return mask


class TruthTable:
    """An immutable Boolean function of ``n_inputs`` variables.

    Parameters
    ----------
    n_inputs:
        Number of inputs (0 to 16; functions here are tiny by design).
    mask:
        Output bitmask over the ``2**n_inputs`` rows.

    Examples
    --------
    >>> a, b = TruthTable.inputs(2)
    >>> (a & b).mask
    8
    >>> (a ^ b) == TruthTable(2, 0b0110)
    True
    """

    __slots__ = ("n_inputs", "mask")

    MAX_INPUTS = 16

    def __new__(cls, n_inputs: int, mask: int):
        # Interned fast path: only validated instances enter the cache, so
        # a hit needs no re-validation.  Subclasses bypass the cache.
        if cls is TruthTable:
            cached = _interned.get((n_inputs, mask))
            if cached is not None:
                return cached
        if not 0 <= n_inputs <= cls.MAX_INPUTS:
            raise ValueError(f"n_inputs must be in [0, {cls.MAX_INPUTS}], got {n_inputs}")
        full = _full_mask(n_inputs)
        if not 0 <= mask <= full:
            raise ValueError(f"mask {mask:#x} out of range for {n_inputs} inputs")
        self = object.__new__(cls)
        object.__setattr__(self, "n_inputs", n_inputs)
        object.__setattr__(self, "mask", mask)
        if cls is TruthTable and n_inputs <= _INTERN_MAX_INPUTS:
            _interned[(n_inputs, mask)] = self
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruthTable is immutable")

    def __reduce__(self):
        # Slots + the immutability guard break default pickling; rebuild
        # through __init__ so cached/parallel flow results stay portable.
        return (TruthTable, (self.n_inputs, self.mask))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, n_inputs: int, value: bool) -> "TruthTable":
        """The constant-``value`` function of ``n_inputs`` variables."""
        return cls(n_inputs, _full_mask(n_inputs) if value else 0)

    @classmethod
    def input_var(cls, n_inputs: int, index: int) -> "TruthTable":
        """The projection function returning input ``index``."""
        if not 0 <= index < n_inputs:
            raise ValueError(f"input index {index} out of range for {n_inputs} inputs")
        return cls(n_inputs, _var_mask(n_inputs, index))

    @classmethod
    def inputs(cls, n_inputs: int) -> Tuple["TruthTable", ...]:
        """All projection functions, in input order."""
        return tuple(cls.input_var(n_inputs, i) for i in range(n_inputs))

    @classmethod
    def from_function(cls, n_inputs: int, fn: Callable[..., bool]) -> "TruthTable":
        """Build a table by evaluating ``fn`` on every input row.

        ``fn`` receives ``n_inputs`` ints (0/1), input 0 first.
        """
        mask = 0
        for row in range(_row_count(n_inputs)):
            bits = tuple((row >> i) & 1 for i in range(n_inputs))
            if fn(*bits):
                mask |= 1 << row
        return cls(n_inputs, mask)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "TruthTable":
        """Build a table from an explicit output-per-row sequence.

        ``len(rows)`` must be a power of two; ``rows[r]`` is the output for
        row ``r``.
        """
        n_rows = len(rows)
        if n_rows == 0 or n_rows & (n_rows - 1):
            raise ValueError("row count must be a nonzero power of two")
        n_inputs = n_rows.bit_length() - 1
        mask = 0
        for row, value in enumerate(rows):
            if value not in (0, 1, True, False):
                raise ValueError(f"row {row} value must be 0/1, got {value!r}")
            if value:
                mask |= 1 << row
        return cls(n_inputs, mask)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if self is other:  # interned tables compare by identity first
            return True
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n_inputs == other.n_inputs and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n_inputs, self.mask))

    def __repr__(self) -> str:
        width = _row_count(self.n_inputs)
        return f"TruthTable({self.n_inputs}, 0b{self.mask:0{width}b})"

    def __call__(self, *bits: int) -> int:
        """Evaluate the function on one input assignment."""
        if len(bits) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs, got {len(bits)}")
        row = 0
        for i, bit in enumerate(bits):
            if bit not in (0, 1, True, False):
                raise ValueError(f"input {i} must be 0/1, got {bit!r}")
            if bit:
                row |= 1 << i
        return (self.mask >> row) & 1

    def rows(self) -> Tuple[int, ...]:
        """Output value per row, row 0 first."""
        return tuple((self.mask >> r) & 1 for r in range(_row_count(self.n_inputs)))

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------
    def _check_compat(self, other: "TruthTable") -> None:
        if self.n_inputs != other.n_inputs:
            raise ValueError(
                f"input-count mismatch: {self.n_inputs} vs {other.n_inputs}"
            )

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compat(other)
        return TruthTable(self.n_inputs, self.mask & other.mask)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compat(other)
        return TruthTable(self.n_inputs, self.mask | other.mask)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compat(other)
        return TruthTable(self.n_inputs, self.mask ^ other.mask)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n_inputs, self.mask ^ _full_mask(self.n_inputs))

    @staticmethod
    def mux(select: "TruthTable", d0: "TruthTable", d1: "TruthTable") -> "TruthTable":
        """2:1 multiplexer: ``select ? d1 : d0``."""
        select._check_compat(d0)
        select._check_compat(d1)
        return (~select & d0) | (select & d1)

    # ------------------------------------------------------------------
    # Shannon decomposition and input surgery
    # ------------------------------------------------------------------
    def cofactor(self, index: int, value: int) -> "TruthTable":
        """Shannon cofactor with input ``index`` fixed to ``value``.

        The result has ``n_inputs - 1`` inputs; remaining inputs keep their
        relative order.
        """
        if not 0 <= index < self.n_inputs:
            raise ValueError(f"input index {index} out of range")
        if value not in (0, 1):
            raise ValueError("cofactor value must be 0 or 1")
        new_n = self.n_inputs - 1
        mask = 0
        for new_row in range(_row_count(new_n)):
            low = new_row & ((1 << index) - 1)
            high = new_row >> index
            old_row = low | (value << index) | (high << (index + 1))
            if (self.mask >> old_row) & 1:
                mask |= 1 << new_row
        return TruthTable(new_n, mask)

    def depends_on(self, index: int) -> bool:
        """True when the output actually depends on input ``index``.

        Equivalent to comparing the two Shannon cofactors, computed as
        pure bit arithmetic: within every aligned block of ``2**(i+1)``
        rows the upper half (input ``i`` = 1), shifted down onto the
        lower half, must match it exactly for the input to be unused.
        """
        if not 0 <= index < self.n_inputs:
            raise ValueError(f"input index {index} out of range")
        low_rows = _full_mask(self.n_inputs) & ~_var_mask(self.n_inputs, index)
        return ((self.mask >> (1 << index)) & low_rows) != (self.mask & low_rows)

    def support(self) -> Tuple[int, ...]:
        """Indices of inputs the function truly depends on."""
        mask, n = self.mask, self.n_inputs
        full = _full_mask(n)
        out = []
        for i in range(n):
            low_rows = full & ~_var_mask(n, i)
            if ((mask >> (1 << i)) & low_rows) != (mask & low_rows):
                out.append(i)
        return tuple(out)

    def flip_input(self, index: int) -> "TruthTable":
        """Complement input ``index`` (i.e. ``f(..., x_i', ...)``)."""
        if not 0 <= index < self.n_inputs:
            raise ValueError(f"input index {index} out of range")
        mask = 0
        for row in range(_row_count(self.n_inputs)):
            if (self.mask >> (row ^ (1 << index))) & 1:
                mask |= 1 << row
        return TruthTable(self.n_inputs, mask)

    def permute(self, order: Sequence[int]) -> "TruthTable":
        """Re-order inputs: new input ``i`` is old input ``order[i]``."""
        if sorted(order) != list(range(self.n_inputs)):
            raise ValueError(f"order must be a permutation of 0..{self.n_inputs - 1}")
        mask = 0
        for new_row in range(_row_count(self.n_inputs)):
            old_row = 0
            for new_i, old_i in enumerate(order):
                if (new_row >> new_i) & 1:
                    old_row |= 1 << old_i
            if (self.mask >> old_row) & 1:
                mask |= 1 << new_row
        return TruthTable(self.n_inputs, mask)

    def extend(self, n_inputs: int) -> "TruthTable":
        """Pad with unused high-index inputs up to ``n_inputs`` total."""
        if n_inputs < self.n_inputs:
            raise ValueError("extend cannot shrink a table")
        table = self
        while table.n_inputs < n_inputs:
            table = TruthTable(
                table.n_inputs + 1,
                table.mask | (table.mask << _row_count(table.n_inputs)),
            )
        return table

    def shrink_to_support(self) -> Tuple["TruthTable", Tuple[int, ...]]:
        """Drop unused inputs; returns (table, kept original indices)."""
        kept = self.support()
        table = self
        # Remove from highest index down so lower indices stay valid.
        for index in range(self.n_inputs - 1, -1, -1):
            if index not in kept:
                table = table.cofactor(index, 0)
        return table, kept

    def compose(self, subs: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute each input with a function over a common input set.

        ``subs[i]`` replaces input ``i``; all substitutions must share the
        same input count, which becomes the result's input count.
        """
        if len(subs) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} substitutions, got {len(subs)}")
        if self.n_inputs == 0:
            raise ValueError("cannot compose a constant; use extend() instead")
        outer_n = subs[0].n_inputs
        for sub in subs:
            if sub.n_inputs != outer_n:
                raise ValueError("all substitutions must have the same input count")
        mask = 0
        for row in range(_row_count(outer_n)):
            inner_row = 0
            for i, sub in enumerate(subs):
                if (sub.mask >> row) & 1:
                    inner_row |= 1 << i
            if (self.mask >> inner_row) & 1:
                mask |= 1 << row
        return TruthTable(outer_n, mask)

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    def is_constant(self) -> bool:
        return self.mask in (0, _full_mask(self.n_inputs))

    def is_parity(self) -> bool:
        """True for XOR/XNOR of the full input set (n >= 2)."""
        if self.n_inputs < 2:
            return False
        parity = TruthTable.input_var(self.n_inputs, 0)
        for i in range(1, self.n_inputs):
            parity = parity ^ TruthTable.input_var(self.n_inputs, i)
        return self in (parity, ~parity)

    def minterm_count(self) -> int:
        return bin(self.mask).count("1")


def mux_mask(select: int, d0: int, d1: int, full: int) -> int:
    """:meth:`TruthTable.mux` on raw masks; ``full`` is the all-rows mask."""
    return ((select ^ full) & d0) | (select & d1)


def all_functions(n_inputs: int) -> Iterable[TruthTable]:
    """Iterate over every Boolean function of ``n_inputs`` variables."""
    if n_inputs > 4:
        raise ValueError("enumerating more than 4-input functions is intractable here")
    for mask in range(_full_mask(n_inputs) + 1):
        yield TruthTable(n_inputs, mask)


def all_permutations(n_inputs: int) -> Tuple[Tuple[int, ...], ...]:
    """All input orderings for ``n_inputs`` inputs."""
    return tuple(itertools.permutations(range(n_inputs)))
