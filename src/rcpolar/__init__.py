"""Rate-compatible polar codes: construction, puncturing design, rate matching,
successive-cancellation decoding, and HARQ link-level simulation."""

from .channel import BPSK, QAM16, QAM64, ChannelSpec, ModulationSpec
from .construction import (
    ReliabilityProfile,
    bhattacharyya_bec,
    bit_error_prob,
    design_code,
    design_mean_llr,
    ga_evolve,
    genie_monte_carlo,
    phi,
    phi_inverse,
    select_information_set,
)
from .decoder import genie_sc_decode, sc_decode
from .harq import SimResult, SweepConfig, sweep, throughput
from .polar import PolarCodeSpec, bit_reversal, encode, encode_two_stage
from .puncturing import (
    ErasureDesign,
    GaussianDesign,
    PuncturingSequence,
    base_code,
    exhaustive_search,
    expand_regular,
    ppa,
    reference_base32_sequence,
    sum_capacity_check,
)
from .rate_matching import RateMatcher, TxPlan, de_rate_match

__version__ = "0.1.0"
