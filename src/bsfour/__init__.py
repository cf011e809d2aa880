"""Exact invariants of 4-manifolds with solvable Baumslag-Solitar
fundamental groups B(k) = <a, b | a b a^-1 = b^k>.

Everything is integer or rational arithmetic; no floating point
anywhere.  See the cli module for the command-line surface.
"""

__version__ = "0.1.0"
