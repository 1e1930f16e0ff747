"""Survival analysis of novelty detection in network-flow classifiers.

Train a regression classifier on benign plus one known attack, stream
sequences of a different attack through it, treat in-band scores as
events, and analyze which flow features drive detection with
Kaplan-Meier curves and Cox proportional hazards models.

Each name is imported from the module that defines it (``flowdata``,
``csvio``, ``models``, ``forest``, ``experiment``, ``survival``,
``svgplot``, ``errors``); the package root re-exports nothing.
"""

__version__ = "0.1.0"
