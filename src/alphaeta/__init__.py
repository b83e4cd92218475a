"""alphaeta: desk-scale simulator for the alpha-eta (Y-00) quantum-noise stream cipher."""

__version__ = "0.1.0"
