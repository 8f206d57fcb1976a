"""Cache-aided content delivery over quasi-static Rayleigh fading:
scheduling simulation, Monte Carlo rate estimation, and closed-form
analysis of the TDM, XOR-multicast (MN) and aggregated (ACC) schemes.

Every name is imported from its module, e.g.
``from cachecast.analysis import psi``."""

__version__ = "0.1.0"
