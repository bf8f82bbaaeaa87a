"""Minimal-noise subsystem search for noisy qubit registers.

Given a Markovian noise model, the package optimizes a global change of
basis so that a chosen logical factor of the register absorbs as little
noise as possible, verifies decoherence-free encodings exactly, and scores
encodings by their worst-case state fidelity under continuous evolution.
"""

__version__ = "0.1.0"
