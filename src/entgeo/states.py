"""Pure few-qubit states, local unitaries, partial traces and sampling.

Bit ordering is fixed throughout the package: amplitude index ``i`` is read
as an n-bit string with qubit A (qubit 0) as the most significant bit.  For
three qubits, index 3 is |011>, i.e. A=0, B=1, C=1.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _als

NORM_ATOL = 1e-12
MAX_QUBITS = 8
_CUT_SLACK = 1e-14  # rounding slack of the computed cut bound (``_cut_bound``)


class StateFormatError(ValueError):
    """Raised for malformed state documents; ``field`` names the offender."""

    def __init__(self, message: str, field: str):
        super().__init__(f"{message} (field: {field})")
        self.field = field


class CanonicalizationError(RuntimeError):
    """Canonical-form search did not reach the residual tolerance."""


def _require_int(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer in
    ``minimum..maximum`` (bool rejected, numpy integers accepted)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not minimum <= value <= maximum):
        span = f">= {minimum}" if maximum == math.inf else f"in {minimum}..{maximum}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _require_positive(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real number > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits.

    ``norm_factor`` records the norm of the raw input the state was built
    from (1.0 when the input was already normalized).
    """

    n_qubits: int
    amplitudes: np.ndarray
    norm_factor: float = 1.0

    def __post_init__(self):
        _require_int("n_qubits", self.n_qubits, 1, MAX_QUBITS)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**self.n_qubits:
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} qubits, got {amps.size}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(
                f"amplitudes are not normalized: |sum of squared magnitudes - 1| = {abs(norm_sq - 1.0):.3e}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def tensor(self) -> np.ndarray:
        """The amplitudes reshaped to one axis per qubit, qubit A first."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|^2."""
        return abs(self.inner(other)) ** 2


def _normalize(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """(amps / |amps|, |amps|) for a finite vector, (amps, 0.0) for a zero one.

    Dividing by the largest magnitude first keeps huge entries from
    overflowing the norm.  The real and imaginary parts are divided as reals:
    numpy's complex division overflows when that magnitude is subnormal.
    """
    scale = float(np.abs(amps).max())
    if scale == 0.0:
        return amps, 0.0
    scaled = amps.real / scale
    if np.iscomplexobj(amps):
        scaled = scaled + 1j * (amps.imag / scale)
    length = float(np.linalg.norm(scaled))
    return scaled / length, scale * length


def make_state(n: int, amplitudes) -> PureState:
    """Build a normalized ``PureState`` from raw amplitudes.

    The input is normalized and the applied factor recorded on the result.
    Raises on a length mismatch, a non-finite entry or an all-zero amplitude
    vector.
    """
    _require_int("n_qubits", n, 1, MAX_QUBITS)
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != 2**n:
        raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.size}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    unit, norm = _normalize(amps)
    if norm == 0.0:
        raise ValueError("all-zero amplitude vector")
    return PureState(n, unit, norm_factor=norm)


def basis_state(n: int, index: int) -> PureState:
    """Computational basis state |index> in the fixed bit ordering."""
    _require_int("n", n, 1, MAX_QUBITS)
    _require_int("index", index, 0, 2**n - 1)
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps)


def ghz_state(n: int = 3) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    _require_int("n", n, 1, MAX_QUBITS)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amps)


def w_state(n: int = 3) -> PureState:
    """Equal superposition of the n single-excitation basis strings."""
    _require_int("n", n, 1, MAX_QUBITS)
    amps = np.zeros(2**n, dtype=complex)
    amps[1 << (n - 1 - np.arange(n))] = 1.0 / math.sqrt(n)
    return PureState(n, amps)


# --------------------------------------------------------------------------
# canonical form


@dataclass(frozen=True)
class CanonicalParams:
    """The five nonnegative amplitudes and gauge phase of the three-qubit
    canonical form a|011> + b|101> + c|110> + d|000> + h e^{i gamma}|111>.
    """

    a: float
    b: float
    c: float
    d: float
    h: float
    gamma: float = 0.0

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d, self.h)
        for name, v in zip(("a", "b", "c", "d", "h", "gamma"), vals + (self.gamma,)):
            if not math.isfinite(v):
                raise ValueError(f"canonical parameter {name} must be finite, got {v}")
        for name, v in zip("abcdh", vals):
            if v < -NORM_ATOL:
                raise ValueError(f"canonical amplitude {name} must be nonnegative, got {v}")
        norm_sq = sum(v * v for v in vals)
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValueError(f"canonical amplitudes not normalized: |a^2+...+h^2 - 1| = {abs(norm_sq - 1.0):.3e}")
        if not (-math.pi / 2 - 1e-12 < self.gamma <= math.pi / 2 + 1e-12):
            raise ValueError(f"gamma must lie in (-pi/2, pi/2], got {self.gamma}")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.h, self.gamma)


def _canonical_tensors(params: np.ndarray) -> np.ndarray:
    """(S, 2, 2, 2) canonical-form states of (S, 6) rows (a, b, c, d, h, gamma),
    unvalidated: amplitudes at indices 3, 5, 6, 0 and h e^{i gamma} at 7."""
    a, b, c, d, h, gamma = params.T
    amps = np.zeros((len(params), 8), dtype=complex)
    amps[:, 3] = a
    amps[:, 5] = b
    amps[:, 6] = c
    amps[:, 0] = d
    amps[:, 7] = h * np.exp(1j * gamma)
    return amps.reshape(-1, 2, 2, 2)


def canonical_to_state(p: CanonicalParams) -> PureState:
    """Amplitude vector of the canonical form (indices 3, 5, 6, 0, 7)."""
    return PureState(3, _canonical_tensors(np.array([p.as_tuple()]))[0])


# --------------------------------------------------------------------------
# local unitaries


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """One 2x2 unitary per qubit, acting as their tensor product."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(_readonly(np.asarray(m, dtype=complex)) for m in self.matrices)
        if not 1 <= len(mats) <= MAX_QUBITS:
            raise ValueError(f"matrices must hold 1..{MAX_QUBITS} factors, got {len(mats)}")
        for i, m in enumerate(mats):
            if m.shape != (2, 2):
                raise ValueError("each local unitary must be a 2x2 matrix")
            if not np.isfinite(m).all():
                raise ValueError(f"matrices[{i}] is not finite")
            if np.abs(m @ m.conj().T - np.eye(2)).max() > NORM_ATOL:
                raise ValueError("matrix is not unitary within 1e-12")
        object.__setattr__(self, "matrices", mats)

    @property
    def n_qubits(self) -> int:
        return len(self.matrices)

    @classmethod
    def identity(cls, n: int) -> "LocalUnitary":
        _require_int("n", n, 1, MAX_QUBITS)
        return cls(tuple(np.eye(2, dtype=complex) for _ in range(n)))

    @classmethod
    def random(cls, n: int, seed=None) -> "LocalUnitary":
        """Independent Haar-random 2x2 unitaries on each qubit."""
        _require_int("n", n, 1, MAX_QUBITS)
        rng = np.random.default_rng(seed)
        return cls(tuple(haar_unitary(rng) for _ in range(n)))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local_unitary(s: PureState, u: LocalUnitary) -> PureState:
    """Transform the state by the tensor product of per-qubit unitaries."""
    if u.n_qubits != s.n_qubits:
        raise ValueError(f"state has {s.n_qubits} qubits but {u.n_qubits} unitaries were given")
    t = s.tensor
    for q, m in enumerate(u.matrices):  # finite and unitary, checked by LocalUnitary
        t = np.moveaxis(np.tensordot(m, np.moveaxis(t, q, 0), axes=(1, 0)), 0, q)
    amps = t.reshape(-1)
    amps = amps / np.linalg.norm(amps)  # scrub rounding drift, the map is norm-preserving
    return PureState(s.n_qubits, amps)


def permute_qubits(s: PureState, perm) -> PureState:
    """Relabel qubits: new qubit k is old qubit ``perm[k]``."""
    perm = tuple(perm)
    for i, k in enumerate(perm):
        _require_int(f"perm[{i}]", k, 0, s.n_qubits - 1)
    if sorted(perm) != list(range(s.n_qubits)):
        raise ValueError(f"perm must be a permutation of 0..{s.n_qubits - 1}")
    return PureState(s.n_qubits, np.transpose(s.tensor, perm).reshape(-1))


# --------------------------------------------------------------------------
# density matrices and partial traces


def _rho(tensors: np.ndarray, qubits) -> np.ndarray:
    """(S, 2**k, 2**k) reduced density matrices of the k listed qubits of an
    (S, 2, ..., 2) batch; the first listed qubit is the most significant."""
    k = len(qubits)
    m = np.moveaxis(tensors, [1 + q for q in qubits], range(1, k + 1))
    m = m.reshape(len(tensors), 2**k, -1)
    return m @ m.conj().transpose(0, 2, 1)


def _cut_bound(tensors: np.ndarray) -> np.ndarray:
    """(S,) one-qubit cut bounds min_q lambda_max(rho_q) of an (S, 2, ..., 2) batch.

    Every product overlap obeys g^2 <= lambda_max(rho_q) for each qubit q
    (Wei and Goldbart, PRA 68, 042307, 2003); for a normalized state the
    bound is (1 + min_q |b_q|)/2, exactly 1/2 when a qubit is completely
    mixed.  lambda_max of each 2x2 marginal is taken in closed form.  Rounding
    slack: on states that attain the bound (LU-rotated product, GHZ and
    generalized GHZ states of 2 to 8 qubits) the polished g^2 exceeds the
    computed bound by at most 2.2e-15, so compare with ``_CUT_SLACK``.
    """
    rho = np.stack([_rho(tensors, [q]) for q in range(tensors.ndim - 1)], axis=1)
    a, d = rho[..., 0, 0].real, rho[..., 1, 1].real
    return (0.5 * (a + d + np.hypot(a - d, 2.0 * np.abs(rho[..., 0, 1])))).min(axis=1)


def partial_trace_single(s: PureState, q: int) -> np.ndarray:
    """2x2 reduced density matrix of qubit ``q``."""
    _require_int("q", q, 0, s.n_qubits - 1)
    return _rho(s.tensor[None], [q])[0]


def partial_trace_pair(s: PureState, q1: int, q2: int) -> np.ndarray:
    """4x4 two-qubit reduced density matrix; ``q1`` is the more significant qubit."""
    _require_int("q1", q1, 0, s.n_qubits - 1)
    _require_int("q2", q2, 0, s.n_qubits - 1)
    if q1 == q2:
        raise ValueError("q1 and q2 must differ")
    return _rho(s.tensor[None], [q1, q2])[0]


# --------------------------------------------------------------------------
# sampling


def haar_random_state(n: int, seed=None) -> PureState:
    """Haar-random pure state: normalized standard complex Gaussian amplitudes."""
    _require_int("n", n, 1, MAX_QUBITS)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, z / np.linalg.norm(z))


class ZeroBlochFamily(str, enum.Enum):
    """The two canonical-form families on which qubit C is completely mixed."""

    QUADRILATERAL = "quadrilateral"  # h = 0 with c^2 + d^2 = a^2 + b^2
    H_NONZERO = "h-nonzero"          # c = 0 with d^2 = a^2 + b^2 + h^2


# keep every sampled amplitude at least this large; exact-zero corners are
# degenerate representatives and ill-conditioned for the closed forms
_SAMPLE_FLOOR = 0.05


def _sample_zero_bloch_rows(
    family: ZeroBlochFamily, rng: np.random.Generator, n: int
) -> np.ndarray:
    """(n, 6) unvalidated rows (a, b, c, d, h, gamma) of one zero-Bloch family.

    Consumes the same draws as n one-sample calls: the quadrilateral family
    takes two uniform angles per sample, and each h-nonzero rejection round
    draws exactly the normal triples still missing, keeping those whose
    scaled amplitudes all clear ``_SAMPLE_FLOOR``.
    """
    half = math.sqrt(0.5)
    rows = np.zeros((n, 6))
    if family is ZeroBlochFamily.QUADRILATERAL:
        lo = math.asin(_SAMPLE_FLOOR / half)
        u, v = rng.uniform(lo, math.pi / 2 - lo, size=(n, 2)).T
        rows[:, :4] = half * np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)], axis=1)
        return rows
    abh = np.empty((0, 3))
    while len(abh) < n:
        v = np.abs(rng.normal(size=(n - len(abh), 3)))
        v *= half / np.sqrt(v[:, None] @ v[..., None])[:, 0]  # a dot per row, as np.linalg.norm
        abh = np.concatenate([abh, v[v.min(axis=1) >= _SAMPLE_FLOOR]])
    rows[:, [0, 1, 4]] = abh
    rows[:, 3] = half
    return rows


def _sample_zero_bloch(family: ZeroBlochFamily, rng: np.random.Generator) -> CanonicalParams:
    return CanonicalParams(*_sample_zero_bloch_rows(family, rng, 1)[0].tolist())


def sample_zero_bloch_manifold(family, seed=None) -> CanonicalParams:
    """Draw canonical parameters from one of the two zero-Bloch families.

    Both families give b_C = 0 for the resulting state.  Each amplitude is
    kept above a small floor so the sampled states stay away from degenerate
    corners of the family.
    """
    return _sample_zero_bloch(ZeroBlochFamily(family), np.random.default_rng(seed))


# --------------------------------------------------------------------------
# product states and overlaps


@dataclass(frozen=True, eq=False)
class ProductState:
    """One normalized 2-spinor per qubit."""

    spinors: tuple

    def __post_init__(self):
        sps = tuple(_readonly(np.asarray(s, dtype=complex).reshape(-1)) for s in self.spinors)
        if not 1 <= len(sps) <= MAX_QUBITS:
            raise ValueError(f"spinors must hold 1..{MAX_QUBITS} factors, got {len(sps)}")
        for i, sp in enumerate(sps):
            if sp.size != 2:
                raise ValueError("each spinor must have 2 components")
            if not np.isfinite(sp).all():
                raise ValueError(f"spinors[{i}] is not finite")
            if abs(np.linalg.norm(sp) - 1.0) > NORM_ATOL:
                raise ValueError("spinor is not normalized within 1e-12")
        object.__setattr__(self, "spinors", sps)

    @property
    def n_qubits(self) -> int:
        return len(self.spinors)

    def amplitudes(self) -> np.ndarray:
        out = np.array([1.0 + 0j])
        for sp in self.spinors:
            out = np.kron(out, sp)
        return out


def overlap_with_product(s: PureState, q: ProductState) -> float:
    """|<s | q_0 q_1 ... q_{n-1}>|."""
    if q.n_qubits != s.n_qubits:
        raise ValueError("qubit count mismatch between state and product ansatz")
    overlap = _als._frame_amplitudes(s.tensor.conj()[None], [sp[None] for sp in q.spinors])[0, 0]
    return float(abs(overlap))


# --------------------------------------------------------------------------
# state documents (JSON)


def state_to_dict(s: PureState) -> dict:
    return {
        "n_qubits": s.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in s.amplitudes],
    }


def state_from_dict(doc: dict, allow_unnormalized: bool = False) -> PureState:
    """Parse the state document schema, rejecting malformed fields.

    Inputs within 1e-6 of unit norm are normalized silently, within 1e-3
    with a warning; anything farther is rejected unless
    ``allow_unnormalized`` is set (it is then normalized, with a warning).
    """
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be an object", field="document")
    try:
        n = doc["n_qubits"]
    except KeyError:
        raise StateFormatError("missing key", field="n_qubits") from None
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_QUBITS:
        raise StateFormatError(f"n_qubits must be an integer in 1..{MAX_QUBITS}", field="n_qubits")
    try:
        raw = doc["amplitudes"]
    except KeyError:
        raise StateFormatError("missing key", field="amplitudes") from None
    if not isinstance(raw, (list, tuple)) or len(raw) != 2**n:
        raise StateFormatError(
            f"amplitudes must be an array of length {2**n}", field="amplitudes"
        )
    amps = np.empty(2**n, dtype=complex)
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise StateFormatError(
                f"amplitudes[{i}] must be a [re, im] pair of numbers", field="amplitudes"
            )
        try:
            amps[i] = complex(*pair)
        except OverflowError:  # an integer beyond the float range
            amps[i] = np.inf
    bad = np.flatnonzero(~np.isfinite(amps))
    if bad.size:
        raise StateFormatError(f"amplitudes[{bad[0]}] is not finite", field="amplitudes")
    unit, norm = _normalize(amps)
    if norm == 0.0:
        raise StateFormatError("amplitudes are all zero", field="amplitudes")
    dev = abs(norm - 1.0)
    if dev > 1e-3 and not allow_unnormalized:
        raise StateFormatError(
            f"amplitudes have norm {norm:.6g}; pass allow_unnormalized to accept",
            field="amplitudes",
        )
    if dev > 1e-6:
        warnings.warn(f"state norm {norm:.6g} deviates from 1; normalizing", stacklevel=2)
    return PureState(n, unit, norm_factor=norm)


def save_state(s: PureState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(s), fh, indent=1)
        fh.write("\n")


def load_state(path, allow_unnormalized: bool = False) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateFormatError(f"not valid JSON: {exc}", field="document") from None
    return state_from_dict(doc, allow_unnormalized=allow_unnormalized)


# --------------------------------------------------------------------------
# canonicalization

# diagonal-phase gauge: amplitude (i, j, k) picks up i*thA + j*thB + k*thC + phi,
# row (i, j, k, 1) of amplitude index 4i + 2j + k
_GAUGE_BITS = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1, 1] for i in range(8)], dtype=float)
_ZERO_AMP = 1e-10
_CANON_RESIDUAL_TOL = 1e-9
_CANON_RESTARTS = 32


def _gauge_fix(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical rows (a, b, c, d, h, gamma), gauge phases (thA, thB, thC, phi)
    and residuals of a (B, 8) batch of amplitudes of states in their frames.

    The phases make the non-vanishing amplitudes among 0, 3, 5 and 6 real
    and nonnegative; gauge freedom left over by vanishing ones is spent on
    zeroing the phase of amplitude 7.  They are the minimum-norm solution of
    each branch's masked phase rows, one stacked pinv for the batch.  The
    gauge only moves phases, so magnitudes are read from |amps| and phases
    added as reals: a complex multiply rounds differently by batch position.
    """
    mag, ang = np.abs(amps), np.angle(amps)
    live = mag > _ZERO_AMP
    used = live[:, [0, 3, 5, 6, 7]]
    used[:, 4] &= ~used[:, :4].all(axis=1)
    system = _GAUGE_BITS[[0, 3, 5, 6, 7]] * used[..., None]
    target = -ang[:, [0, 3, 5, 6, 7]] * used
    theta = (np.linalg.pinv(system) @ target[..., None])[..., 0]
    phase = ang + (theta[:, None, :] * _GAUGE_BITS).sum(axis=2)
    # the phase of amplitude 7, reduced to (-pi, pi]
    gamma = np.where(live[:, 7], math.pi - np.remainder(math.pi - phase[:, 7], 2 * math.pi), 0.0)
    # adding pi to every qubit phase shifts gamma by pi and amplitudes 0, 3, 5
    # and 6 by multiples of 2 pi; gamma within 1e-12 of -pi/2 goes to pi/2
    fold = (gamma > math.pi / 2 + 1e-12) | (gamma <= 1e-12 - math.pi / 2)
    theta[:, :3] += math.pi * fold[:, None]
    gamma -= math.pi * np.sign(gamma) * fold
    gamma[np.abs(gamma) < 1e-12] = 0.0
    real = mag[:, [0, 3, 5, 6]] * np.cos(phase[:, [0, 3, 5, 6]])
    imag = mag[:, [0, 3, 5, 6]] * np.sin(phase[:, [0, 3, 5, 6]])
    deviation = np.column_stack([mag[:, [1, 2, 4]], imag, np.minimum(real, 0.0)])
    residual = np.sum(deviation**2, axis=1)
    vals = mag[:, [3, 5, 6, 0, 7]]
    rows = np.column_stack([vals / np.linalg.norm(vals, axis=1, keepdims=True), gamma])
    return rows, theta, residual


def canonicalize(
    s: PureState, restarts: int = _CANON_RESTARTS, seed=0
) -> tuple[CanonicalParams, LocalUnitary]:
    """Find local unitaries taking a three-qubit state to its canonical form.

    The representative is the state read in the basis (e, perp(e)) of each
    spinor e of its nearest product state, so its |000> amplitude d is the
    maximal product overlap (Acín et al., PRL 85, 1560, 2000).  That product
    state is the answer of one overlap solve under ``SolverConfig(restarts,
    seed)`` (``overlap._solve_overlaps``: its gate, its branch policy and its
    re-solve rule), so ``restarts`` must be an integer >= 1 and ``seed`` one
    >= 0.  The phases are then fixed so that amplitudes 0, 3, 5 and 6 are real
    and nonnegative; a representative whose amplitudes 1, 2 and 4 do not
    vanish to a residual of 1e-9 raises ``CanonicalizationError``.  On states
    whose maximisers form a continuum (W-like states) the params depend on
    which polished point the runs sampled, so they can move by about 1e-11
    with the seed.  gamma lies in (-pi/2, pi/2] to within 1e-12, on the pi/2
    side: a value within 1e-12 of -pi/2 is returned as pi/2, since adding pi
    to every qubit phase maps one onto the other.

    The returned unitaries map ``s`` onto ``canonical_to_state(params)``
    exactly (global phase included).  The solve's answer does not depend on
    its batch, so neither does the canonical form (``_canonicalize``).
    """
    from .overlap import SolverConfig  # overlap imports this module

    if s.n_qubits != 3:
        raise ValueError("canonicalization is defined for three-qubit states")
    return _canonicalize(s.tensor[None], SolverConfig(restarts, seed))[0]


def _canonicalize(tensors: np.ndarray, cfg) -> list:
    """``canonicalize`` of every state of an (S, 2, 2, 2) batch under the
    ``SolverConfig`` ``cfg``, unvalidated, as a list of (params, unitaries):
    one overlap solve and one gauge fix of every state's answer."""
    from .overlap import _solve_overlaps  # overlap imports this module

    spinors = _solve_overlaps(tensors, cfg)[1]
    rows, theta, residual = _gauge_fix(_als._frame_amplitudes(tensors.conj(), spinors).conj())
    out = []
    for k in range(len(tensors)):
        if not residual[k] <= _CANON_RESIDUAL_TOL:
            raise CanonicalizationError(
                f"no canonical representative reached residual {_CANON_RESIDUAL_TOL:g} "
                f"after {cfg.restarts} restarts"
            )
        # frame rows (e^dagger, perp(e)^dagger), the gauge phase on each |1> row
        # and the global phase on qubit A
        mats = [np.diag([1.0, np.exp(1j * th)]) @ np.stack([e[k], _als._perp(e[k])]).conj()
                for th, e in zip(theta[k, :3], spinors)]
        mats[0] = np.exp(1j * theta[k, 3]) * mats[0]
        out.append((CanonicalParams(*rows[k].tolist()), LocalUnitary(tuple(mats))))
    return out
