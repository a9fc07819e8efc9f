"""Stochastic passivity toolkit for lossy networked control loops.

A discrete-time plant talks to a static state-feedback controller over a
slotted, lossy channel; the arrival-bit pair makes the closed loop a
four-mode jump-linear system. This package certifies second-moment
stability and strict passivity of that system via coupled LMIs,
synthesizes passivating gains, and cross-checks every certificate
against a spectral-radius oracle and Monte Carlo simulation.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
