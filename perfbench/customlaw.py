"""The dim-2 custom material law of the ``custom-certify`` workload.

The CLI loads a custom law from ``custom.import = "module:callable"`` and
calls the factory without arguments, so the generator writes a small module
holding the drawn matrices (see ``workloads.write_custom_module``) whose
factory calls :func:`counted_dae_law` here.  The law is ``M(z) = M0 + z M1``
evaluated point by point in Python, and every call of its symbol is counted
in a :class:`SymbolTally` that the benchmark reads as ``material.symbol_evals``.
"""
from __future__ import annotations

import numpy as np

from evostab.material import CustomLaw


class SymbolTally:
    """Number of symbol evaluations (``eval_fn`` plus ``shifted_fn`` calls)."""

    def __init__(self):
        self.count = 0


def counted_dae_law(m0, m1, tally: SymbolTally | None = None) -> CustomLaw:
    m0 = np.asarray(m0, dtype=complex)
    m1 = np.asarray(m1, dtype=complex)
    tally = tally if tally is not None else SymbolTally()

    def eval_fn(z):
        tally.count += 1
        return m0 + z * m1

    def shifted_fn(nu, z):
        tally.count += 1
        return (1.0 - nu * z) * m0 + z * m1

    return CustomLaw(m0.shape[0], eval_fn, (), shifted_fn)
