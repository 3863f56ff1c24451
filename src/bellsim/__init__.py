"""Event-ready CHSH Bell test simulator and certification toolkit.

Simulates heralded entanglement generation between two remote spins (photon
interference at a midpoint station), noisy single-shot readout, imperfect
basis-choice randomness, and space-time locality auditing, then certifies
the outcome with both a conventional Gaussian test and a memory-robust exact
binomial bound.
"""

__version__ = "0.1.0"
