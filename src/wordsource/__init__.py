"""Word-valued sources: exact source and output laws, codes, shifts, entropy.

A word-valued source encodes a random symbol stream through a codebook and
concatenates the codewords. This package provides exact cylinder
probabilities for the input and output processes, prefix-free encoding and
decoding, variable-length shift orbits, and desk-scale numerical checks of
the associated ergodic theorem, AEP, and entropy-conservation law.
"""

from .errors import (
    ConfigError,
    DecodeError,
    DomainError,
    NotPrefixFreeError,
    RangeError,
    ResourceError,
    UnsupportedModelError,
)
from .sources import (
    IIDSource,
    MarkovSource,
    MixtureSource,
    PathSample,
    SourceModel,
    model_from_config,
    stationary_distribution,
)
from .wordcode import (
    EncodeResult,
    PrefixCheck,
    WordFunction,
    decode_prefix_free,
    encode_stream,
    expected_codeword_length,
    is_prefix_free,
    kraft_sum,
    word_function_from_config,
)
from .shifts import (
    BellowPartials,
    TimeSubsequence,
    VariableLengthShiftSpec,
    bellow_check,
    encoded_shift_commutes,
    finite_state_orbit_coder,
    variable_length_orbit,
    weight_sequence,
)
from .entropy import (
    AepReport,
    ComponentBound,
    ConservationReport,
    EntropyTrace,
    InducedMeasure,
    aep_experiment,
    block_log_probability_table,
    block_log_probability_tables,
    component_bounds,
    conservation_report,
    joint_entropy_exact,
    sample_entropy_trace,
)
from .ergodic import (
    ConvergenceVerdict,
    CylinderFunction,
    SpreadResult,
    ams_diagnostic,
    default_checkpoints,
    ergodicity_spread,
    time_average,
)

__version__ = "0.1.0"

from .harness import (  # noqa: E402  (harness imports experiments, which needs the above)
    ExperimentConfig,
    RunManifest,
    resolve_config,
    run_experiment,
    validate_config,
)

from . import oracles  # noqa: E402

# bench/spans.py traces encode_stream under every module that once imported
# it by name, oracles included; the oracle itself never encodes, so the name
# is only set here, outside oracles.py.
oracles.encode_stream = encode_stream
