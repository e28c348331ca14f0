"""Record a plant map's arithmetic from one run and splice it into the generated RK4 loop.

:mod:`nosreg.sim` imports this module on its first run, not on import.
:func:`trace` runs a map once on tuples of recording numbers, which log the
arithmetic done on them (the operator-overloading tape of automatic
differentiation); :func:`splice` writes that log as loop source over the
loop's own names.  A map that does anything else with a recording number is
called by the loop instead.
"""

from __future__ import annotations

from collections import Counter
from math import isfinite

from .errors import DimensionMismatch

# an expression nested deeper than this is bound to a name, so the emitted
# source stays inside the parser's limit of 200 nested parentheses
_MAX_DEPTH = 64


def _refuse(*_):
    raise TypeError("a traced plant map may only add, subtract, multiply, divide, "
                    "raise to a power and negate its arguments")


def _operand(tape, value):
    """How the log refers to ``value``: a node of ``tape``, or a finite constant's literal."""
    if type(value) is _Recording and value.tape is tape:
        return value.at
    if type(value) is int or (type(value) is float and isfinite(value)):
        return repr(value)
    _refuse()


def _binary(symbol: str):
    """Operator ``symbol`` and its reflection, each logging it; a three-argument ``pow`` raises."""
    def forward(self, other):
        return self.log(symbol, self.at, _operand(self.tape, other))

    def reflected(self, other):
        return self.log(symbol, _operand(self.tape, other), self.at)

    return forward, reflected


class _Recording:
    """A number that logs each operation done on it to the tape of its run.

    ``at`` is the log's reference to it: ``(i, j)`` for item ``j`` of
    argument ``i``, else the index of the tape entry that made it.  Each
    entry is ``(symbol, *operands)``.  Any other arithmetic, a comparison, a
    truth test or a conversion raises.
    """

    __slots__ = ("tape", "at")
    # numpy defers to the reflected operators, and refuses to hold it in an array
    __array_ufunc__ = None
    __array__ = __bool__ = __eq__ = _refuse
    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")
    __pow__, __rpow__ = _binary("**")

    def __init__(self, tape, at):
        self.tape, self.at = tape, at

    def log(self, *entry):
        self.tape.append(entry)
        return _Recording(self.tape, len(self.tape) - 1)

    def __neg__(self):
        return self.log("-", self.at)


def trace(fn, name: str, arities: tuple[int, ...], length: int):
    """The arithmetic plant map ``fn`` does, recorded from one run, or None: the loop calls it.

    ``fn`` runs on one tuple of recording numbers per argument, of the
    lengths in ``arities``.  It is recorded when it returns items that are
    each a recording number or a finite ``int`` or ``float``, having done
    nothing to a recording number but ``+ - * / **`` and unary minus.  The
    record is ``(tape, items)``: the tape's entries, and each returned item
    as the log refers to it.  A record of other than ``length`` items raises
    :class:`DimensionMismatch` naming the map ``name``.
    """
    tape = []
    args = [tuple(_Recording(tape, (i, j)) for j in range(k)) for i, k in enumerate(arities)]
    try:
        items = tuple(_operand(tape, item) for item in fn(*args))
    except Exception:
        # anything but the logged arithmetic: a comparison, a conversion,
        # math or numpy, or the map's own error
        return None
    if len(items) != length:
        raise DimensionMismatch(
            f"plant map {name} returned {len(items)} items, expected {length}")
    return tuple(tape), items


def splice(record, args, results, prefix: str) -> list[str]:
    """Source lines that do a :func:`trace` record's arithmetic on ``args`` into ``results``.

    ``args`` holds each argument's items as source expressions, and the
    record's items are assigned to the ``results`` names in order.  The
    lines do the recorded operations in their recorded order: an entry used
    once is written into the expression that uses it where that keeps the
    order, and any other is bound to the local ``prefix + index``.  So the
    lines compute the map's bits, and raise the map's first error.
    """
    tape, items = record
    uses = Counter(a for entry in tape for a in entry[1:] if type(a) is int)
    uses.update(a for a in items if type(a) is int)
    expr, depth, pending, lines = {}, {}, [], []

    def source(a):
        if type(a) is int:
            return expr[a]
        if type(a) is tuple:
            return args[a[0]][a[1]]
        return f"({a})" if a.startswith("-") else a

    def bind():
        # write the pending entries, in their order
        for k in pending:
            lines.append(f"{prefix}{k} = {expr[k]}")
            expr[k], depth[k] = f"{prefix}{k}", 0
        pending.clear()

    def take(operands):
        # a use folds in the pending entries it reads when they are the last
        # ones pending, in its operand order; else every pending entry is bound
        folded = [a for a in operands if a in pending]
        if folded == pending[len(pending) - len(folded):]:
            del pending[len(pending) - len(folded):]
        else:
            bind()

    for k, (symbol, *operands) in enumerate(tape):
        take(operands)
        expr[k] = (f"(-{source(operands[0])})" if len(operands) == 1
                   else f"({source(operands[0])} {symbol} {source(operands[1])})")
        depth[k] = 1 + max((depth[a] for a in operands if type(a) is int), default=0)
        pending.append(k)
        if uses[k] != 1 or depth[k] >= _MAX_DEPTH:
            bind()
    take(items)
    return lines + [f"{r} = {source(a)}" for r, a in zip(results, items)]
