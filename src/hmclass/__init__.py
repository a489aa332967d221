"""Exact-arithmetic characteristic classes of projective hyperplane
arrangements: Hirzebruch classes, virtual classes, spectrum bookkeeping,
and the Milnor-class correction supported on the singular locus, with
independent computation paths cross-validating each other."""

__version__ = "0.1.0"
