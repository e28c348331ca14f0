"""Splice a plant map's straight-line body into the generated RK4 loop.

:mod:`nosreg.sim` imports this module on its first run, not on import, so
the source reading and parsing here add nothing to ``import nosreg``.  A map
qualifies (:func:`splices`) when its body is arithmetic over its arguments
whose source is the code that runs; :func:`splice` writes that body as loop
source over the loop's own names.  Every other map is called.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from functools import cache
from tokenize import TokenError
from types import CodeType, FunctionType


@cache
def straight_line(code, arities: tuple[int, ...], length: int):
    """The ``def`` node of a plant map's code that the loop can splice in, or None.

    The code qualifies when its source recompiles to its own bytecode and
    constants, it reads no global or free name, it is a plain ``def``
    without defaults or decorators, and its body is assignments ending in
    ``return (...)`` of ``length`` items.  Each assignment binds a local to
    arithmetic over constants, bound locals and arguments subscripted by a
    constant index below their length in ``arities``, or unpacks a whole
    argument of that length.  Spliced in, such a body does the arithmetic it
    does when called, in the same order.  The node is returned without its
    docstring, if any.
    """
    if code.co_names or code.co_freevars:
        return None
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(code)))
        own = next((c for c in compile(tree, code.co_filename, "exec").co_consts
                    if isinstance(c, CodeType)), None)
    except (OSError, SyntaxError, TokenError, ValueError):
        # no source, or not the source of this code
        return None
    node = tree.body[0] if len(tree.body) == 1 else None
    if not (isinstance(node, ast.FunctionDef) and not node.decorator_list
            and own.co_code == code.co_code and repr(own.co_consts) == repr(code.co_consts)):
        return None
    args = node.args
    if (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg or args.defaults
            or len(args.args) != len(arities)):
        return None
    arity = {a.arg: k for a, k in zip(args.args, arities)}
    body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
    bound = set()

    def arithmetic(e):
        if isinstance(e, ast.BinOp):
            return arithmetic(e.left) and arithmetic(e.right)
        if isinstance(e, ast.UnaryOp):
            return arithmetic(e.operand)
        if isinstance(e, ast.Name):
            return e.id in bound
        if isinstance(e, ast.Subscript):
            i = e.slice.value if isinstance(e.slice, ast.Constant) else None
            return (isinstance(e.value, ast.Name) and e.value.id in arity
                    and type(i) is int and 0 <= i < arity[e.value.id])
        return isinstance(e, ast.Constant) and type(e.value) in (int, float)

    for stmt in body[:-1]:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return None
        target = stmt.targets[0]
        if isinstance(target, ast.Name) and arithmetic(stmt.value):
            names = [target]
        elif (isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Name)
              and len(target.elts) == arity.get(stmt.value.id)):
            names = target.elts
        else:
            return None
        if not all(isinstance(t, ast.Name) and t.id not in arity for t in names):
            return None
        bound.update(t.id for t in names)
    ret = body[-1] if body else None
    if not (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
            and len(ret.value.elts) == length and all(map(arithmetic, ret.value.elts))):
        return None
    node.body = body
    return node


def splices(fn, shape) -> bool:
    """Whether the loop splices plant map ``fn`` of ``shape`` in, rather than calling it.

    ``shape`` is ``(arities, length)``: the map's argument lengths and its
    result length.
    """
    return (isinstance(fn, FunctionType) and fn.__defaults__ is None
            and fn.__kwdefaults__ is None and straight_line(fn.__code__, *shape) is not None)


def splice(node, args, results, prefix: str) -> list[str]:
    """Source lines that run a :func:`straight_line` body on ``args`` into ``results``.

    Each argument is ``(tuple, scalars)``: the source of the tuple a call
    would pass, and the names of its items, or None where the loop holds
    only that tuple, by name.  Each local of the map is renamed
    ``prefix + name``, and a constant subscript or whole unpack of an
    argument reads its items' names, else its tuple.  The returned items are
    assigned to the ``results`` names in order.
    """
    params = {a.arg: arg for a, arg in zip(node.args.args, args)}
    names, lines = {}, []

    def sub(e):
        if isinstance(e, ast.BinOp):
            return ast.BinOp(sub(e.left), e.op, sub(e.right))
        if isinstance(e, ast.UnaryOp):
            return ast.UnaryOp(e.op, sub(e.operand))
        if isinstance(e, ast.Name):
            return ast.Name(names[e.id])
        if isinstance(e, ast.Subscript):
            tuple_, scalars = params[e.value.id]
            return (ast.Name(scalars[e.slice.value]) if scalars
                    else ast.Subscript(ast.Name(tuple_), e.slice))
        return e

    for stmt in node.body[:-1]:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            lines.append(f"{prefix}{target.id} = {ast.unparse(sub(stmt.value))}")
            names[target.id] = prefix + target.id
            continue
        tuple_, scalars = params[stmt.value.id]
        local = [t.id for t in target.elts]
        if scalars is None:
            scalars = [prefix + t for t in local]
            lines.append(f"({''.join(f'{s}, ' for s in scalars)}) = {tuple_}")
        names.update(zip(local, scalars))
    return lines + [f"{r} = {ast.unparse(sub(e))}"
                    for r, e in zip(results, node.body[-1].value.elts)]
