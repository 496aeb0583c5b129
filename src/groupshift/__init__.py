"""Group shifts over finite abelian alphabets: representation, window-scale
controllability analysis, canonical generating sets, and homomorphic encoder
synthesis with conjugacy certificates."""

from .groups import FiniteAbelianGroup, primary_component
from .words import Word
from .shifts import (GroupShift, WindowModule, enumerate_window_code,
                     finite_type_memory, member)
from .control import (ControllabilityReport, analyze_controllability,
                      controllability_index, order_controllability_index,
                      weak_controllability_check)
from .encoders import (CanonicalGeneratorSet, ConjugacyCertificate, Encoder,
                       Horizons, build_encoder, canonical_generators,
                       check_injectivity, check_noncatastrophic,
                       conjugacy_certificate, encode, lift_height,
                       multiple_shift, socle_shift)
from .residues import HowellForm, howell_form
from .specfmt import ShiftSpec, SpecParseError, parse_message, parse_spec

__all__ = [
    "FiniteAbelianGroup", "primary_component", "Word", "GroupShift",
    "WindowModule", "enumerate_window_code", "finite_type_memory", "member",
    "ControllabilityReport", "analyze_controllability",
    "controllability_index", "order_controllability_index",
    "weak_controllability_check", "CanonicalGeneratorSet",
    "ConjugacyCertificate", "Encoder", "Horizons",
    "build_encoder", "canonical_generators", "check_injectivity",
    "check_noncatastrophic", "conjugacy_certificate", "encode",
    "lift_height", "multiple_shift", "socle_shift",
    "HowellForm", "howell_form", "ShiftSpec",
    "SpecParseError", "parse_message", "parse_spec",
]

__version__ = "0.1.0"
