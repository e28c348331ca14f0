"""Record a plant map's arithmetic from one run and write the RK4 loop with it spliced in.

:mod:`nosreg.sim` imports this module on its first run, not on import.
:func:`trace` runs a map once on tuples of recording numbers, which log the
arithmetic done on them (the operator-overloading tape of automatic
differentiation); :func:`splice` writes that log as source over the loop's
own names, and :func:`loop` writes the straight-line RK4 block around the
maps.  :func:`step_factory` prints that block as the Python loop, and
:mod:`nosreg._native` prints the same block as C.  A map that does anything
else with a recording number is called by the Python loop instead.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import isfinite

from .errors import DimensionMismatch

# an expression nested deeper than this is bound to a name, so the emitted
# source stays inside the parser's limit of 200 nested parentheses
_MAX_DEPTH = 64

# the plant maps in the order the generated loop takes them, by their names there
MAPS = ("normal_map", "linearizing_feedback", "dynamics", "output")


def map_shapes(n: int, gamma: int, p: int):
    """Each map's argument lengths and result length, in ``MAPS`` order."""
    return (((n,), gamma), ((n, p), p), ((n, p), n), ((n,), p))


def _refuse(*_):
    raise TypeError("a traced plant map may only add, subtract, multiply, divide, "
                    "raise to a power and negate its arguments")


class _Tape(list):
    """The log of one run, and the constants its entries use, one slot per use."""

    __slots__ = ("constants",)


def _operand(tape, value):
    """How the log refers to ``value``: a node of ``tape``, or a new constant slot.

    A constant is item ``j`` of the pseudo-argument ``-1``, the tape's
    constants, so its value is a parameter of the loop, never source text.
    """
    if type(value) is _Recording and value.tape is tape:
        return value.at
    if type(value) is int or (type(value) is float and isfinite(value)):
        tape.constants.append(value)
        return (-1, len(tape.constants) - 1)
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
    """The arithmetic plant map ``fn`` does, recorded from one run, and its constants.

    ``fn`` runs on one tuple of recording numbers per argument, of the
    lengths in ``arities``.  It is recorded when it returns items that are
    each a recording number or a finite ``int`` or ``float``, having done
    nothing to a recording number but ``+ - * / **`` and unary minus.  The
    record is ``(tape, items, count)``: the tape's entries, each returned
    item as the log refers to it, and the number of constant slots; the
    constants are returned beside it, one per use.  Else the record is None
    and the loop calls ``fn``.  A record of other than ``length`` items
    raises :class:`DimensionMismatch` naming the map ``name``.
    """
    tape = _Tape()
    tape.constants = []
    args = [tuple(_Recording(tape, (i, j)) for j in range(k)) for i, k in enumerate(arities)]
    try:
        items = tuple(_operand(tape, item) for item in fn(*args))
    except Exception:
        # anything but the logged arithmetic: a comparison, a conversion,
        # math or numpy, or the map's own error
        return None, ()
    if len(items) != length:
        raise DimensionMismatch(
            f"plant map {name} returned {len(items)} items, expected {length}")
    return (tuple(tape), items, len(tape.constants)), tuple(tape.constants)


def splice(record, args, results, prefix: str, power: str = "({} ** {})") -> list[str]:
    """``name = expr`` lines that do a :func:`trace` record's arithmetic on ``args`` into ``results``.

    ``args`` holds each argument's items as source expressions, then the
    names of the record's constants, and the record's items are assigned to
    the ``results`` names in order.  A power is written with the ``power``
    format, every other operation as ``(a op b)`` or ``(-a)``, which Python
    and C read alike.  The lines do the recorded operations in their
    recorded order: an entry used once is written into the expression that
    uses it where that keeps the order, and any other is bound to the local
    ``prefix + index``.  So the lines compute the map's bits, and raise the
    map's first error.
    """
    tape, items, _ = record
    uses = Counter(a for entry in tape for a in entry[1:] if type(a) is int)
    uses.update(a for a in items if type(a) is int)
    expr, depth, pending, lines = {}, {}, [], []

    def source(a):
        return expr[a] if type(a) is int else args[a[0]][a[1]]

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
        sources = [source(a) for a in operands]
        expr[k] = (f"(-{sources[0]})" if len(operands) == 1
                   else power.format(*sources) if symbol == "**"
                   else f"({sources[0]} {symbol} {sources[1]})")
        depth[k] = 1 + max((depth[a] for a in operands if type(a) is int), default=0)
        pending.append(k)
        if uses[k] != 1 or depth[k] >= _MAX_DEPTH:
            bind()
    take(items)
    return lines + [f"{r} = {source(a)}" for r, a in zip(results, items)]


def _tup(items) -> str:
    """Python source of a tuple display of ``items``."""
    return "(" + "".join(f"{s}, " for s in items) + ")"


def loop(n: int, m: int, gamma: int, p: int, records, power: str = "({} ** {})"):
    """The straight-line parts of the closed-loop RK4 block, as ``name = expr`` lines.

    ``records`` holds, in ``MAPS`` order, each plant map's :func:`trace`
    record, spliced in with the ``power`` format, or None: that map is
    called, and its result unpacked.  Returns ``(params, state, head,
    observe, sample, first, step)``: the names of the parameters (the rows
    of ``[F G]``, ``S`` and ``H``, the step, its half and its sixth, and each
    spliced map's constants), of the state ``z``, the lines of the state's
    head (its chain coordinates, ``v`` and ``u``), the lines of its outputs
    and references, the sample's ``y + r + e + u + v`` expressions, and the
    lines of a block's first step, which reads the head, and of any other
    step.  Each step is ``tests/reference.py``'s ``rk4_step`` arithmetic over
    the derivative ``(dynamics(x, feedback(x, v)), S w)`` with
    ``v = [F G] (T(x), w)``.
    """
    records = dict(zip(MAPS, records))
    K = [[f"K{i}_{j}" for j in range(gamma + m)] for i in range(p)]
    S = [[f"S{i}_{j}" for j in range(m)] for i in range(m)]
    H = [[f"H{i}_{j}" for j in range(m)] for i in range(p)]
    consts = {name: [f"{name}_c{j}" for j in range(records[name][2] if records[name] else 0)]
              for name in MAPS}
    xi = [f"xi{j}" for j in range(gamma)]
    z = [f"z{j}" for j in range(n + m)]
    y = [f"y{j}" for j in range(n + m)]
    vs, us, outs, refs = ([f"{c}{i}" for i in range(p)] for c in "vuor")

    def fold(row, vec):
        # a left fold from 0.0: sum() folds floats this way only up to
        # Python 3.11, and the leading 0.0 makes an all -0.0 product +0.0
        return " + ".join(["0.0"] + [f"{a} * {b}" for a, b in zip(row, vec)])

    def bind(name, args, results):
        # args and results are lists of item names
        if records[name]:
            return splice(records[name], [*args, consts[name]], results, f"{name}_", power)
        return [f"{_tup(results)} = {name}({', '.join(map(_tup, args))})"]

    def head(at):
        v = [fold(row, xi + at[n:]) for row in K]
        return [*bind("normal_map", [at[:n]], xi), *(f"{a} = {b}" for a, b in zip(vs, v)),
                *bind("linearizing_feedback", [at[:n], vs], us)]

    def deriv(k, at, first=False):
        # the first derivative of a block reads the start state's head
        return [*([] if first else head(at)),
                *bind("dynamics", [at[:n], us], [f"k{k}_{j}" for j in range(n)]),
                *(f"k{k}_{n + i} = {fold(row, at[n:])}" for i, row in enumerate(S))]

    def point(k, scale):
        return [f"{yj} = {zj} + {scale} * k{k}_{j}" for j, (yj, zj) in enumerate(zip(y, z))]

    def step(first=False):
        return [*deriv(1, z, first), *point(1, "h2"), *deriv(2, y), *point(2, "h2"),
                *deriv(3, y), *point(3, "h"), *deriv(4, y),
                *(f"{zj} = {zj} + h6 * (k1_{j} + 2.0 * (k2_{j} + k3_{j}) + k4_{j})"
                  for j, zj in enumerate(z))]

    params = [*(a for row in K + S + H for a in row), "h", "h2", "h6",
              *(c for name in MAPS for c in consts[name])]
    observe = [*bind("output", [z[:n]], outs),
               *(f"{r} = {fold(row, z[n:])}" for r, row in zip(refs, H))]
    sample = [*outs, *refs, *(f"{r} - {o}" for r, o in zip(refs, outs)), *us, *vs]
    return params, z, head(z), observe, sample, step(first=True), step()


def parameters(K_rows, S_rows, H_rows, h: float, constants) -> tuple:
    """The loop's flat parameters, in the order of :func:`loop`'s names.

    ``constants`` holds each map's constants as :func:`trace` returned them.
    """
    return (*(a for row in K_rows + S_rows + H_rows for a in row), h, 0.5 * h, h / 6.0,
            *(c for cs in constants for c in cs))


@cache
def step_factory(n: int, m: int, gamma: int, p: int, records=(None,) * 4):
    """Compile the straight-line closed-loop RK4 loop for one shape and its spliced maps.

    The source is built by :func:`loop` from the sizes and the records, and
    names every value it uses, so plants that differ only in their
    constants share it.  The returned ``factory(P, normal_map,
    linearizing_feedback, dynamics, output)`` takes the flat parameters, in
    the order of :func:`loop`'s names, and the plant maps, and returns
    ``advance(count, observe, z0, ..., z{n+m-1})`` with those it uses as
    closure cells.  ``advance`` takes ``count >= 0`` steps and returns the
    new state with, if ``observe``, the start state's sample ``y + r + e +
    u + v`` (else ``None``), whose ``v`` and ``u`` are the first
    derivative's.
    """
    params, z, head, observe, sample, first, step = loop(n, m, gamma, p, records)
    # the start state's head serves both its sample and its first step,
    # which is written out so that only it skips the head
    body = [*head, "sample = None", "if observe:", *(f"    {line}" for line in observe),
            f"    sample = {_tup(sample)}",
            "if count:", *(f"    {line}" for line in first),
            "    for _ in range(count - 1):", *(f"        {line}" for line in step),
            f"return {_tup(z)}, sample"]
    src = "\n".join([
        "def factory(P, normal_map, linearizing_feedback, dynamics, output):",
        f"    {_tup(params)} = P",
        f"    def advance(count, observe, {', '.join(z)}):",
        *(f"        {line}" for line in body),
        "    return advance"])
    namespace = {}
    exec(compile(src, f"<rk4 loop n={n} m={m} gamma={gamma} p={p}>", "exec"), namespace)
    return namespace["factory"]
