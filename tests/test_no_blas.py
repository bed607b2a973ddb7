"""No module under src/capax calls BLAS: a BLAS product's last bits
depend on the CPU kernel it dispatches to, so every sum is written as a
fixed-order ``cumsum`` or ``bincount`` instead."""

import ast
from pathlib import Path

import pytest

import capax

MODULES = sorted(Path(capax.__file__).parent.glob("*.py"))
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(source: str) -> list[tuple[int, str]]:
    """The ``@``/``@=`` operators and the calls of a BLAS-backed numpy
    product (as a function or a method), as (line, name) in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in BLAS_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


def test_detector_flags_every_blas_product():
    source = ("import numpy as np\nfrom numpy import einsum\n"
              "a = x @ y\nb @= y\nc = np.dot(x, y)\nd = x.dot(y)\ne = np.vdot(x, y)\n"
              "f = np.inner(x, y)\ng = np.matmul(x, y)\nh = np.tensordot(x, y, 1)\n"
              "i = einsum('i,i', x, y)\nj = np.cumsum(x * y)\n")
    assert blas_uses(source) == [(3, "@"), (4, "@"), (5, "dot"), (6, "dot"), (7, "vdot"),
                                 (8, "inner"), (9, "matmul"), (10, "tensordot"),
                                 (11, "einsum")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_makes_no_blas_call(path):
    assert blas_uses(path.read_text(encoding="utf-8")) == []
