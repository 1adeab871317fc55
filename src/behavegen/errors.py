"""Exception types raised across the package.

Every failure mode that callers are expected to handle gets its own class so
tests and the CLI can match on type rather than message text.
"""


class BehavegenError(Exception):
    """Base class for all package-specific errors."""


class InputError(BehavegenError):
    """Bad configuration, argument or file: exit code 2; any other BehavegenError exits 3."""


class ShapeMismatch(InputError):
    """Array arguments disagree on a required shape."""


class DimensionMismatch(InputError):
    """A vector or matrix has the wrong dimensionality for the operation."""


class NonFiniteInput(BehavegenError):
    """An input array contains NaN or infinity."""


class ZeroNormInput(BehavegenError):
    """A vector whose norm falls below the floor cannot be projected."""


class NonFiniteState(BehavegenError):
    """A rollout produced non-finite states."""


class UnstableWorld(BehavegenError):
    """World construction could not reach the requested contraction factor."""


class InvalidSpec(InputError):
    """A dataset or generation spec fails validation."""


class UnknownToken(InputError):
    """A prompt word is not present in the vocabulary."""


class NonUnitInput(BehavegenError):
    """An embedding expected to be unit-norm deviates beyond tolerance."""


class DegenerateBatch(InputError):
    """A batch is too small or otherwise unusable for a contrastive objective."""


class RangeError(InputError):
    """A scalar argument lies outside its admissible interval."""


# Upper limits of config sizes: a larger one would only fail later, deep in NumPy.
MAX_DIM = 1024        # feature dimensions, widths and layer counts
MAX_LEVELS = 10       # compression levels: 2^10 = MAX_DIM
MAX_COUNT = 100_000   # sample counts, stage durations, program lengths, sampler steps
# Initial-state scales: states start at scale * N(0, I), and extraction and the
# bounds square state norms, which overflows float64 past about 1e154; the
# unit-sphere latents hold the steady state near 1, so 1e6 leaves ample room.
MAX_SCALE = 1e6


def check_sizes(obj, *names, limit: float = MAX_DIM, low: float = 1) -> None:
    """RangeError naming the first of the fields ``names`` of ``obj`` outside
    [low, limit]; NaN lies outside every range."""
    for name in names:
        if not low <= getattr(obj, name) <= limit:
            raise RangeError(f"{name} = {getattr(obj, name)} outside [{low}, {limit}]")


def check_seed(seed: int) -> int:
    """``seed``, or RangeError if it is negative: NumPy seeds only from n >= 0."""
    if seed < 0:
        raise RangeError(f"seed {seed} must be >= 0")
    return seed


class DivergenceDetected(BehavegenError):
    """Training or sampling produced non-finite numbers."""


class EmptyClause(InputError):
    """Prompt splitting produced a clause with no tokens."""


class OverlapTooLarge(InputError):
    """Blend overlap does not fit inside the shortest neighbouring stage."""


class CountMismatch(InputError):
    """Two paired collections differ in length."""


class BoundaryOutOfRange(InputError):
    """A stage boundary index falls outside the valid interior of a trajectory."""


class TooFewSamples(InputError):
    """A statistic needs more samples than were provided."""


class DegenerateRho(BehavegenError):
    """A pre-projection latent norm is too close to zero for the smoothing bound."""


class PreconditionViolated(BehavegenError):
    """An analytic precondition of a verified bound fails on the given input."""


class ConfigInvalid(InputError):
    """A run configuration fails schema validation."""


class MissingArtifact(InputError):
    """A required input file (dataset, checkpoint) is absent or malformed."""
