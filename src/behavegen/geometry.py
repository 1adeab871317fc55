"""Geometry of latent command trajectories.

A latent trajectory is a [T x d_z] array, one command vector per step.
Commands produced by extraction live on the sphere of radius sqrt(d_z); the
operations here never assume that silently, they either project or check.

The piecewise-constant compressor realises the budgeted approximation used by
the rollout-error bound: with a budget of m segments and total variation V it
guarantees a per-frame deviation of at most V / (m - 1).
"""

import numpy as np

from .errors import NonFiniteInput, RangeError, ShapeMismatch, ZeroNormInput

DEFAULT_NORM_FLOOR = 1e-8


def _as_traj(z) -> np.ndarray:
    """Coerce an array-like to a validated [T x d] float array."""
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"expected a 2-D [T x d] trajectory, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("trajectory contains non-finite entries")
    return arr


def project_to_sphere(u, norm_floor: float = DEFAULT_NORM_FLOOR) -> np.ndarray:
    """Radially project a vector onto the sphere of radius sqrt(len(u)).

    Raises ZeroNormInput when ``||u|| < norm_floor``; near-zero vectors have no
    meaningful direction and silently normalising them would hide upstream bugs.
    """
    vec = np.asarray(u, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ShapeMismatch(f"expected a 1-D vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteInput("cannot project a non-finite vector")
    norm = float(np.linalg.norm(vec))
    if norm < norm_floor:
        raise ZeroNormInput(f"norm {norm:.3e} below floor {norm_floor:.3e}")
    return np.sqrt(vec.size) * vec / norm


def project_rows(z, norm_floor: float = DEFAULT_NORM_FLOOR) -> np.ndarray:
    """Row-wise sphere projection of a [T x d] array."""
    arr = _as_traj(z)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms < norm_floor):
        bad = int(np.argmin(norms))
        raise ZeroNormInput(f"row {bad} has norm {norms[bad]:.3e} below floor")
    return np.sqrt(arr.shape[1]) * arr / norms[:, None]


def row_dots(x, y) -> np.ndarray:
    """Dot product of each row of ``x`` with the matching row of ``y``; a
    single vector broadcasts.  The stacked [k, 1, d] @ [k, d, 1] product runs
    one BLAS dot per row, so row i has the bits of ``x[i] @ y[i]``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def row_norms(x) -> np.ndarray:
    """Euclidean norm of each row, with the bits of ``np.linalg.norm(row)``,
    which is the square root of the same BLAS dot.  ``np.linalg.norm(x,
    axis=1)`` sums in another order, so it differs in the last bits."""
    return np.sqrt(row_dots(x, x))


def total_variation(z) -> float:
    """Sum of Euclidean step lengths along the trajectory. Zero for T = 1."""
    arr = _as_traj(z)
    if arr.shape[0] == 1:
        return 0.0
    return float(np.linalg.norm(np.diff(arr, axis=0), axis=1).sum())


def max_deviation(a, b) -> float:
    """Largest per-frame Euclidean distance between two equal-shape trajectories."""
    x = _as_traj(a)
    y = _as_traj(b)
    if x.shape != y.shape:
        raise ShapeMismatch(f"shape {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y, axis=1).max())


def piecewise_constant_approx(z, m: int):
    """Greedy m-segment piecewise-constant approximation of a trajectory.

    Walks the trajectory accumulating intra-segment variation and opens a new
    segment as soon as adding the next step would exceed the budget
    delta = TV(z) / (m - 1); a step landing exactly on the budget stays in the
    current segment.  Each segment is represented by its first frame, so the
    per-frame error is bounded by the accumulated intra-segment variation,
    hence by delta.  When m >= T every step can afford its own segment and the
    trajectory is reproduced exactly.

    Returns (approximation [T x d], the tuple of segment start indices).
    """
    arr = _as_traj(z)
    n_steps = arr.shape[0]
    if int(m) != m or m < 2:
        raise RangeError(f"segment budget must be an integer >= 2, got {m}")
    m = int(m)

    if m >= n_steps:
        return arr.copy(), tuple(range(n_steps))

    delta = total_variation(arr) / (m - 1)
    starts = [0]
    acc = 0.0
    for t, step in enumerate(np.linalg.norm(np.diff(arr, axis=0), axis=1).tolist(), 1):
        if acc + step > delta:
            starts.append(t)
            acc = 0.0
        else:
            acc += step

    if len(starts) > m:
        raise RangeError(f"greedy pass used {len(starts)} segments for budget {m}")
    return np.repeat(arr[starts], np.diff([*starts, n_steps]), axis=0), tuple(starts)


def blend_overlap(tail, head) -> np.ndarray:
    """Linear crossfade between the tail of one stage and the head of the next.

    Both inputs are [O x d]; blended frame o (1-based) weighs the head by
    rho_o = o / (O + 1), so the fade never fully reaches either endpoint and
    the surrounding unblended frames provide the endpoints themselves.
    """
    a = _as_traj(tail)
    b = _as_traj(head)
    if a.shape != b.shape:
        raise ShapeMismatch(f"tail {a.shape} vs head {b.shape}")
    overlap = a.shape[0]
    rho = (np.arange(1, overlap + 1) / (overlap + 1))[:, None]
    return (1.0 - rho) * a + rho * b
