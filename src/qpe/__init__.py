"""Quantum probability estimation: certified entropy accumulation for Bell trials.

Subpackage map:

- ``quantum_core``: Hermitian/positive operator substrate, Renyi powers,
  classical-quantum block distributions, conditional entropy.
- ``models``: (k,2,2) Bell-trial configurations, one station vector table
  behind their projectors, canonical states, reference trial distributions
  (detector loss as binning), CHSH correlators.
- ``qef_engine``: trial functions, the defining inequality, the running
  log2-factor sums over a record stream, inner maximization over states and
  certified suprema over configurations.
- ``estimators``: entropy estimators, probability estimation factors built
  from them, spot-check and binary-model constructions.
- ``accounting``: smooth min-entropy accounting and its error offset,
  trial-count planning and comparison curves against entropy accumulation.
- ``pef_opt``: classical probability estimation factor optimization over
  polytope models, given as arrays of vertex tables ``t[c, z]`` (by default
  the 16 local deterministic tables and the 64 Tsirelson cuts).
- ``protocols``: executable randomness generation protocols with seeded
  extraction.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = [
    "quantum_core",
    "models",
    "qef_engine",
    "estimators",
    "accounting",
    "pef_opt",
    "protocols",
]
