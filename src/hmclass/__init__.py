"""Exact-arithmetic characteristic classes of projective hyperplane
arrangements: Hirzebruch classes, virtual classes, spectrum bookkeeping,
and the Milnor-class correction supported on the singular locus, with
independent computation paths cross-validating each other."""

from .coeffs import RatFuncY, rat
from .rings import BlownPlaneRing, ProjRing, RingElement
from .genera import hirzebruch_series, verify_identity_qr
from .arrangement import (Arrangement, ArrangementError, Edge, Stratum,
                          build, chi_y, chi_y_pn, chi_y_stratum, edges,
                          is_dense, localize, milnor_fiber_chi, sigma_strata)
from .spectra import (Spectrum, SpectrumError, SpectrumValidationError,
                      sp_monomial, sp_ordinary, sp_shift, sp_user_load,
                      sp_validate)
from .ambient import virtual_genus, virtual_pushed
from .strata import (LabelSchema, SigmaChowVector, StratumModel,
                     build_labels, chow_dims, compactify,
                     homology_weight_dims, push_to_sigma)
from .milnor import (ConventionSet, DEFAULT_CONVENTIONS, MilnorReport,
                     assemble, calibrate, chern_milnor, degree0_check)

__version__ = "0.1.0"
