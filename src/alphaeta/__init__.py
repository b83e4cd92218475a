"""alphaeta: desk-scale simulator for the alpha-eta (Y-00) quantum-noise stream cipher."""

from .cipher import Constellation, KeystreamGen, decode, decode_lenient, dsr_offset, encode
from .fock import (
    CoherentVec,
    DensityMatrix,
    PhaseDistribution,
    TruncationError,
    coherent_amplitudes,
    default_truncation,
    hermitian_eigenvalues,
    mix,
    overlap,
    phase_distribution,
    pure_density,
    wrap_angle,
)
from .keyrate import KeyRateReport, binary_entropy, key_rate, key_rate_vs_s
from .montecarlo import (
    BerEstimate,
    PhaseSampler,
    SimConfig,
    TrialReport,
    run_simulation,
    sample_heterodyne,
    sample_homodyne,
    wilson_interval,
)
from .receivers import (
    BER_LAWS,
    EVE_STRATEGIES,
    BerLaw,
    ReceiverModel,
    canonical_phase_antipodal,
    eve_nokey_helstrom,
    exponent_fit,
    helstrom_pure_antipodal,
    heterodyne_antipodal,
    homodyne_antipodal,
)

__version__ = "0.1.0"
