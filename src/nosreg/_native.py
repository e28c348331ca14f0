"""The closed-loop RK4 loop in C: every block of a run in one call, with the Python loop's bits.

:mod:`nosreg.sim` imports this module on its first run, not on import.
:func:`kernel` prints the block :func:`nosreg._inline.loop` writes for the
Python loop as a C function over the same names, in the same operation
order, with ``**`` as libm's ``pow``, the function CPython's float power
calls.  The parameters, the plant constants among them, arrive in one array,
so the source depends on the shape and the records only.  The system C
compiler builds it without fused multiply-adds or fast-math, so every
operation rounds as in Python.

On finite operands a Python float operation raises, or goes complex, only
where IEEE division by zero, overflow or invalid is raised, so the kernel
stops at the first block that raised one of them or ended non-finite, and
the Python loop runs that block again, and the rest of the run: every error
and its time are the Python loop's.  There is no kernel, and the Python loop
runs the whole run, when a map is called, when a parameter is not finite,
when a division or power whose value is never read could be dropped by the
compiler, or when no compiler builds the source.
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import subprocess
import tempfile
from functools import cache

import numpy as np

from ._inline import loop

# -fno-builtin keeps each pow a call to libm's, and -ffp-contract=off keeps
# a * b + c two roundings; -ffast-math or -Ofast would also reorder, and
# flush subnormals to zero in the whole process
_CFLAGS = ("-O1", "-fno-builtin", "-ffp-contract=off", "-shared", "-fPIC")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _drops_a_fault(lines, live) -> bool:
    """Whether a division or power in ``lines`` has a value that is never read.

    ``lines`` are ``name = expr`` lines run in order, and ``live`` the names
    read after them; a target that is not a name is a store, always live.
    The compiler may drop an unread value's operation, and with it the
    error Python raises there.
    """
    for line in reversed(lines):
        target, expr = line.split(" = ", 1)
        if target in live or not target.isidentifier():
            live.discard(target)
            live.update(_NAME.findall(expr))
        elif "/" in expr or "pow(" in expr:
            return True
    return False


@cache
def _source(n: int, m: int, gamma: int, p: int, records) -> str | None:
    """The C source of ``run`` for one shape and its records, or None: it could lose a fault.

    ``long run(const double *P, double *Z, long steps, long stride, long
    blocks, double *X, double *Y)`` runs ``blocks`` blocks from state ``Z``,
    as :func:`nosreg.sim.simulate_nonlinear` does, writing each block's
    start state to a row of ``X`` and its sample to a row of ``Y``.  It
    returns the number of blocks that ran clean; if that is short of
    ``blocks``, ``Z`` holds the start state of the block that faulted.
    """
    params, z, head, observe, sample, first, step = loop(n, m, gamma, p, records,
                                                         power="pow({}, {})")
    stores = [f"Y_[{i}] = {e}" for i, e in enumerate(sample)]
    if _drops_a_fault([*head, *observe, *stores, *first, *step], set(z)):
        return None
    local = sorted({line.split(" = ")[0] for line in head + observe + first + step} - set(z))

    def block(lines, indent):
        return [f"{' ' * indent}{line};" for line in lines]

    finite = " && ".join(f"isfinite({zj})" for zj in z)
    return "\n".join([
        "#include <fenv.h>",
        "#include <math.h>",
        "long run(const double *P_, double *Z_, long steps_, long stride_, long blocks_,",
        "         double *X_, double *Y_)",
        "{",
        # clear the flags before any load, so no operation can run before it
        "    feclearexcept(FE_ALL_EXCEPT);",
        *(f"    const double {name} = P_[{i}];" for i, name in enumerate(params)),
        *(f"    double {zj} = Z_[{j}];" for j, zj in enumerate(z)),
        f"    double {', '.join(local)};",
        "    long b_, i_, count_, k_ = 0;",
        f"    for (b_ = 0; b_ < blocks_; b_++, X_ += {len(z)}, Y_ += {len(sample)}) {{",
        "        count_ = steps_ - k_ < stride_ ? steps_ - k_ : stride_;",
        *(f"        X_[{j}] = {zj};" for j, zj in enumerate(z)),
        *block(head + observe + stores, 8),
        "        if (count_ > 0) {",
        *block(first, 12),
        "            for (i_ = 1; i_ < count_; i_++) {",
        *block(step, 16),
        "            }",
        "        }",
        # the flags are read only once the state is known finite, so after
        # every operation of the block
        f"        if (!({finite}) || fetestexcept(FE_DIVBYZERO | FE_OVERFLOW | FE_INVALID)) {{",
        *(f"            Z_[{j}] = X_[{j}];" for j in range(len(z))),
        "            break;",
        "        }",
        "        k_ += count_;",
        "    }",
        "    feclearexcept(FE_ALL_EXCEPT);",
        "    return b_;",
        "}",
        ""])


@cache
def _build(source: str):
    """``run`` compiled from ``source`` and loaded, or None: no compiler, or it failed.

    The build directory, which also takes the compiler's own temporary
    files, is deleted once the library is loaded.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    folder = tempfile.mkdtemp(prefix="nosreg-")
    try:
        path = os.path.join(folder, "loop")
        with open(path + ".c", "w") as fh:
            fh.write(source)
        subprocess.run([cc, *_CFLAGS, "-o", path + ".so", path + ".c", "-lm"],
                       env={**os.environ, "TMPDIR": folder}, capture_output=True,
                       check=True, timeout=120)
        run = ctypes.CDLL(path + ".so").run
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    run.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
                    ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p)
    run.restype = ctypes.c_long
    return run


def kernel(n: int, m: int, gamma: int, p: int, records, params):
    """``run(z, steps, stride)`` of the closed loop in C, or None: the Python loop runs it all.

    ``params`` are the loop's flat parameters, in the order of
    :func:`nosreg._inline.loop`'s names; an ``int`` constant converts with
    ``float()``, as Python's float operations convert it.  ``run`` returns
    the start states and samples of the blocks before the first that
    faulted or ended non-finite, each in a float64 array of rows, and that
    block's start state (``z`` if every block ran clean).
    """
    if None in records:
        return None
    try:
        P = np.array([float(a) for a in params])
    except OverflowError:
        return None
    source = _source(n, m, gamma, p, records) if np.isfinite(P).all() else None
    fn = source and _build(source)
    if not fn:
        return None

    def run(z, steps: int, stride: int):
        blocks = len(range(0, steps, stride)) + 1
        Z = np.array(z, dtype=float).reshape(n + m)      # the C loop reads n + m
        X, Y = np.empty((blocks, n + m)), np.empty((blocks, 5 * p))
        done = fn(P.ctypes.data, Z.ctypes.data, steps, min(stride, steps), blocks,
                  X.ctypes.data, Y.ctypes.data)
        return (X[:done], Y[:done]), tuple(Z.tolist())

    return run
