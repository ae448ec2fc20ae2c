"""Deterministic phase-space numerics for lattice phonons, free
electromagnetic fields, and thermal photon kinetics.

Importing the package loads none of its submodules; each loads when it is
imported:

    lattice      chain dynamics, mode transforms, action waves
    wigner       1-D and 3-D phase-space densities
    em           Riemann-Silberstein fields and photon modes
    helicity     complex-potential helicity eigenfields
    kinetics     relaxation to the thermal law
    units        unit-system presets
    gridio       deterministic artifact formats
    experiments  config-driven runners
    cli          command-line harness
"""

__version__ = "0.1.0"
