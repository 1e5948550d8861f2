"""monolab: exact computational Lie theory toolkit.

Engines: root systems from Cartan matrices, integral Chevalley bases with
exact bracket arithmetic, the principal sl2 and its centralizer
decomposition, the obstruction-prime scan over the negative simple root
spaces, H^0/H^1 of finite matrix groups, and Selmer-style dimension
bookkeeping.  Floating point is used only by `exact.matmul_mod`, for mod-ell
products of integers whose every partial sum stays below 2**53, where
float64 is exact.
"""

__version__ = "0.1.0"
