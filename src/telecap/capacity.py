"""Channel analysis: entanglement entropy, faithful-teleportation capacity,
and synthesis of the canonicalizing local unitaries.

The receiving side's reduced density matrix decides everything.  A channel
teleports d qubits faithfully exactly when some local unitary on that side
factors the reduced density into (residual density) (x) I/2**d, which the
spectrum permits iff every eigenvalue multiplicity is divisible by 2**d.
analyze decomposes that density once: the clusters are read off its
eigenvalues and the factoring unitary is V†, V its eigenvectors.  The
sending side's unitary then follows from the freedom of purification: two
pure states with the same reduced density on one side differ only by a
unitary on the other side.  The report keeps that purifier as analyze
built and checked it, dense or as low-rank factors, and canonicalizes a
channel itself (AnalysisReport._canonicalize), so the teleport module
never handles the two forms apart.  It keeps the canonical form of the
last channel object it canonicalized, so repeated teleports over one
analysis apply the local unitaries once.

Conventions fixed here and relied on by the teleport module:

* The structural (factoring) unitary acts on the smaller party; when the
  sender holds fewer qubits the roles are swapped internally and the report
  says so.
* After canonicalization, Bob's halves of the d Bell pairs sit on the last d
  qubits of his list, so his reduced density is eta (x) I/2**d with eta on
  the leading qubits.  Alice's halves sit on her first d qubits (last d when
  swapped).  Pair i uses the singlet (|01> - |10>)/sqrt(2).
* The residual factor is the canonical purification of eta: spectral values
  descending, purifying labels running through the leftover ancilla qubits
  of the purifying side in computational order.  When the residual after
  u_b is diagonal to within ABSENT_WEIGHT, as after analyze's u_b, its
  eigenbasis is the computational basis, equal values kept in
  computational order.  A u_b that mixes the residual is first rotated
  into its eigenbasis, from one eigendecomposition, and then takes the
  same signed-permutation or factored construction of the sender unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import (
    ABSENT_WEIGHT,
    DEFAULT_EPS,
    EigenvalueCluster,
    _check_eps,
    cluster_spectrum,
    hermitian_eig,
)
from .states import ChannelState, PureState, _check_unit, _grouped, _read_only, _ungrouped

__all__ = [
    "DENSE_BUDGET_BYTES",
    "AnalysisReport",
    "bipartition_matrix",
    "reduced_density",
    "max_capacity",
    "synthesize_u_b",
    "verify_condition",
    "synthesize_u_a",
    "analyze",
    "certify",
    "canonical_state",
]

# Gram-Schmidt residual norm at or below which columns are dependent: a kept
# column weighs more than ABSENT_WEIGHT, so its norm is above 1e-6.  1e-7.
_GS_ACCEPT = np.sqrt(ABSENT_WEIGHT) / 10
# Spectral-norm defect allowed in u_a's small factors: synthesize_u_a's bound
# on the dense defect, 5.1 times this, must stay below UNITARY_TOL.  1e-10.
_FACTOR_TOL = linalg.UNITARY_TOL / 10

# Bytes one request may claim, for a dense purifier of O(4**max(m, n)) entries
# or a run of sampled trials; above it ValueError is raised before any
# allocation.  A 13-qubit purifier (1 GiB) fits; a 14-qubit one (4 GiB) not.
DENSE_BUDGET_BYTES = 3 << 30


def _check_budget(nbytes: int, what: str) -> None:
    """Refuse a request of nbytes above DENSE_BUDGET_BYTES, naming both
    exactly in bytes."""
    if nbytes > DENSE_BUDGET_BYTES:
        raise ValueError(f"{what} needs {nbytes:,} bytes, above the "
                         f"{DENSE_BUDGET_BYTES:,}-byte budget")


class _Unitary:
    """Data descriptor for a report's u_a and u_b fields: the stored
    matrix, except that the purifying side of a report whose purifier is
    kept as factors stores None and is assembled on first read, then
    cached."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        m = report.__dict__[self.name]
        if m is None and report._purifier is not None:
            m = report.__dict__[self.name] = _read_only(report._purifier.dense())
        return m

    def __set__(self, report, value):
        report.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class _LowRank:
    """The purifier I + W D W† kept as its factors W and D = C - I, both
    read-only: it multiplies a matrix of 2**n columns in O(2**m r 2**n),
    2**m its dimension, instead of the dense O(4**m 2**n)."""

    w: np.ndarray
    dc: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape[0], self.w.shape[0]

    def __matmul__(self, mat: np.ndarray) -> np.ndarray:
        return mat + self.w @ (self.dc @ (self.w.conj().T @ mat))

    def dense(self) -> np.ndarray:
        """The dense 2**m x 2**m matrix, refused above DENSE_BUDGET_BYTES."""
        dim = self.w.shape[0]
        _check_budget(dim * dim * np.dtype(np.complex128).itemsize, "the dense purifier")
        u = self.w @ self.dc @ self.w.conj().T
        u[np.diag_indices(dim)] += 1.0
        return u


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the analyzer decides about one channel.

    u_a acts on the sender's local space (big-endian over the alice list),
    u_b on the receiver's.  eta is the residual density on the structural
    side's leading qubits: Bob's unless swapped, in which case the structural
    side is Alice and eta lives on her leading m-d qubits.  bob_relabeling
    lists, role by role (Bell halves first, then residual), which slot of
    Bob's list plays that role after canonicalization.  pairs gives the
    global qubit labels (alice_qubit, bob_qubit) of the d Bell pairs, and
    clusters the structural side's eigenvalue clusters, largest first.
    Reports compare by identity.

    The report holds read-only matrices, so writing to the caller's arrays
    afterwards does not change it: a complex128 array that is already
    read-only and owns its data is adopted as it is, anything else is
    copied.  analyze keeps the purifying unitary (u_a, or u_b when
    swapped) that it built and checked as _purifier: the dense matrix, or
    the factors of I + W (C - I) W† (purifier_factors).  _canonicalize
    applies the purifier through it, and reading the u_a (or u_b) field of
    a factored report assembles the dense 2**m x 2**m matrix once, within
    DENSE_BUDGET_BYTES, and caches it.  _purifier is not an init field,
    so dataclasses.replace (which reads the dense field) and hand-built
    reports start without it, and their purifier is checked densely.

    _canonicalize keeps the last channel object it canonicalized and that
    channel's canonical matrix u_a M u_bᵀ, read-only, as _kept; a call on
    the same object reuses the matrix after _oriented's checks.  The key is
    the object's identity, which is sound for the reason the unitary flag
    is: a channel is frozen and its state owns read-only amplitudes.  So a
    report holds at most one channel and one matrix of its size beyond its
    own fields.  _kept is not an init field either, so replaced and
    hand-built reports start empty, and canonical_state leaves it alone.
    """

    entropy_bits: float
    capacity: int
    u_a: np.ndarray = _Unitary()
    u_b: np.ndarray = _Unitary()
    eta: np.ndarray | None
    clusters: tuple[EigenvalueCluster, ...]
    bob_relabeling: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    swapped: bool
    _purifier: np.ndarray | _LowRank | None = field(default=None, init=False, repr=False)
    _kept: tuple[ChannelState, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("u_a", "u_b", "eta"):
            m = getattr(self, name)
            if m is not None and not _adoptable(m):
                object.__setattr__(self, name, _read_only(np.array(m, dtype=np.complex128)))
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))
        object.__setattr__(self, "bob_relabeling", tuple(int(q) for q in self.bob_relabeling))

    @property
    def purifier_factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(W, C - I), read-only, when analyze kept the purifier (u_a, or
        u_b when swapped) as I + W (C - I) W†; None otherwise."""
        p = self._purifier
        return (p.w, p.dc) if isinstance(p, _LowRank) else None

    @cached_property
    def unitary(self) -> bool:
        """Whether u_a and u_b are unitary within 1e-9.

        Checked on first use and cached, which is sound because the report
        owns its read-only matrices.  The dense check runs on the structural
        side (the smaller party), and on the purifying side only when
        analyze has not already checked it, so a report from analyze never
        assembles its purifier here.
        """
        structural, purifying = ("u_a", "u_b") if self.swapped else ("u_b", "u_a")
        return linalg.is_unitary(getattr(self, structural)) and (
            self._purifier is not None or linalg.is_unitary(getattr(self, purifying)))

    def _oriented(self, channel: ChannelState):
        """(purifier, structural unitary), the purifier as analyze kept it,
        for the channel.  Raises ValueError unless both pass the unitary
        check and match the channel's (sender, receiver) dimensions, the
        purifying (larger) party first."""
        if not self.unitary:
            raise ValueError("report's u_a or u_b is not unitary within 1e-9")
        dims = (1 << len(channel.alice), 1 << len(channel.bob))
        structural, purifying = ("u_a", "u_b") if self.swapped else ("u_b", "u_a")
        purifier = getattr(self, purifying) if self._purifier is None else self._purifier
        u_struct = getattr(self, structural)
        if (purifier.shape[0], u_struct.shape[0]) != (dims[::-1] if self.swapped else dims):
            raise ValueError("report's unitaries do not match the channel's parties")
        return purifier, u_struct

    def _canonicalize(self, channel: ChannelState) -> np.ndarray:
        """u_a M u_bᵀ, read-only, for the channel's (sender x receiver)
        amplitude matrix M, checked by _oriented: the channel after both
        local unitaries.  M is oriented with the purifying (larger) party's
        rows; the structural unitary acts on its columns first, then the
        purifier on its rows.  The product is checked once, as PureState
        checks amplitudes, and kept for the last channel object, so a
        repeated call on that object runs only _oriented's checks.
        """
        purifier, u_struct = self._oriented(channel)
        kept = self._kept
        if kept is not None and kept[0] is channel:
            return kept[1]
        mat = bipartition_matrix(channel)
        if self.swapped:
            mat = mat.T
        mat = _read_only(purifier @ (mat @ u_struct.T))
        _check_unit(mat)
        kept = (channel, mat.T if self.swapped else mat)
        object.__setattr__(self, "_kept", kept)
        return kept[1]


def _adoptable(m) -> bool:
    """Whether a report may keep m without copying: a plain complex128
    array that nobody can write through."""
    return (type(m) is np.ndarray and m.dtype == np.complex128
            and not m.flags.writeable and m.flags.owndata)


def bipartition_matrix(channel: ChannelState) -> np.ndarray:
    """Amplitudes reshaped to a (sender x receiver) matrix in list order."""
    psi = _grouped(channel.state.amplitudes, channel.alice + channel.bob)
    return psi.reshape(1 << len(channel.alice), 1 << len(channel.bob))


def reduced_density(channel: ChannelState, side: str = "bob") -> np.ndarray:
    """Reduced density matrix of one party, basis ordered by its qubit list."""
    m = bipartition_matrix(channel)
    if side == "bob":
        return m.T @ m.conj()
    if side == "alice":
        return m @ m.conj().T
    raise ValueError("side must be 'alice' or 'bob'")


def _spectrum_entropy(p: np.ndarray) -> float:
    p = p[p > ABSENT_WEIGHT]
    return float(-(p @ np.log2(p)) + 0.0)  # + 0.0 turns a product state's -0.0 into 0.0


def _two_adic(k: int) -> int:
    return (k & -k).bit_length() - 1


def max_capacity(clusters: tuple[EigenvalueCluster, ...], m: int, n: int) -> int:
    """Largest d such that every eigenvalue multiplicity is divisible by
    2**d, capped by the smaller party size."""
    d = min(_two_adic(c.multiplicity) for c in clusters)
    return min(d, m, n)


def synthesize_u_b(channel: ChannelState, clusters: tuple[EigenvalueCluster, ...],
                   eigenvectors, d: int):
    """Receiver-side unitary factoring the reduced density at capacity d.

    u_b = V†, V the eigenvector matrix (columns, eigenvalues descending)
    of the one decomposition of the receiver's density that clusters was
    read from: it maps the eigenvectors onto the computational basis in
    order, which lays each cluster out as consecutive residual labels times
    a full uniform block on the trailing d qubits.  Returns (u_b, eta); eta
    is the diagonal residual density (cluster values scaled by 2**d),
    absent when d equals the receiver's qubit count.

    When the receiver's density is already the maximally mixed state and
    d is maximal, the identity is returned.
    """
    m, n = len(channel.alice), len(channel.bob)
    if not 0 <= d <= max_capacity(clusters, m, n):
        raise ValueError("d is not admissible for this spectrum")
    v = np.asarray(eigenvectors, dtype=np.complex128)
    if v.shape != (1 << n, 1 << n):
        raise ValueError("eigenvectors must be a 2**n x 2**n matrix, n the receiver's qubits")
    if d == n:
        # single flat cluster: the density already factors as I/2**n
        return np.eye(1 << n, dtype=complex), None
    block = 1 << d
    diag = np.concatenate(
        [np.full(c.multiplicity // block, c.value * block) for c in clusters]
    )
    return v.conj().T, np.diag(diag.astype(complex))


def _transformed(rho_b: np.ndarray, u_b: np.ndarray, d: int):
    """u_b rho_b u_b† and its partial trace over the trailing d qubits."""
    rho = u_b @ rho_b @ u_b.conj().T
    dr, du = rho.shape[0] >> d, 1 << d
    return rho, np.einsum("aibi->ab", rho.reshape(dr, du, dr, du))


def _factors(rho: np.ndarray, eta_hat: np.ndarray, d: int, eps: float) -> bool:
    """Max-norm test of rho = eta_hat (x) I/2**d."""
    du = 1 << d
    return bool(np.max(np.abs(rho - np.kron(eta_hat, np.eye(du) / du))) <= eps)


def verify_condition(channel: ChannelState, u_b, d: int, eps: float = DEFAULT_EPS) -> bool:
    """Check the factorization certificate at capacity d.

    After u_b, the receiver's density must equal (residual density) (x)
    I/2**d with the uniform block on the trailing d qubits, within eps in
    max norm.  The residual is read off the transformed density itself by
    tracing out the uniform qubits, so the test has no free parameters.
    d = 0 always passes; a d outside 0..min(m, n) raises ValueError.
    """
    return _certificate(channel, u_b, d, eps)[2]


def _certificate(channel: ChannelState, u_b, d: int, eps: float):
    """verify_condition's checks, then (u_b as an array, eta_hat, verdict)."""
    _check_eps(eps)
    m, n = len(channel.alice), len(channel.bob)
    if not 0 <= d <= min(m, n):
        raise ValueError(f"d = {d} outside 0..min(m, n) = 0..min({m}, {n})")
    u_b = np.asarray(u_b, dtype=np.complex128)
    if u_b.shape != (1 << n, 1 << n) or not linalg.is_unitary(u_b):
        raise ValueError("u_b is not a receiver-side unitary")
    rho, eta_hat = _transformed(reduced_density(channel, "bob"), u_b, d)
    return u_b, eta_hat, _factors(rho, eta_hat, d, eps)


def _targets(eta_hat: np.ndarray, u_b: np.ndarray, m: int, n: int, d: int, bell_high: bool):
    """The canonical state's sender vector for each receiver basis index
    (residual bits high, Bell bits low), as the row and the value of its
    one nonzero entry (row -1 for a zero vector).

    With mu, e_j the descending eigensystem of the post-u_b residual
    density eta_hat, column (j', i) of the canonical state prod_t singlet_t
    (x) purification is sign(i)/sqrt(2**d) sum_j sqrt(mu_j) <j'|e_j>
    |a(i, j)>, where the sender index a(i, j) packs the complemented Bell
    bits next to the purifying label j: Bell bits high when the sender
    keeps her Bell halves on her leading qubits (bell_high), low otherwise;
    sign(i) is - when d minus the popcount of i is odd.  j is a label only
    when its columns' mean weight mu_j / 2**d is above ABSENT_WEIGHT, the
    unit _sender_unitary keeps each column by.

    When no off-diagonal entry of eta_hat exceeds ABSENT_WEIGHT, as after
    analyze's u_b (the eigenbasis of the receiver's density), mu is
    eta_hat's diagonal in stable descending order and e_j the matching
    computational basis vector, so no second eigendecomposition runs.
    Otherwise B, the eigenvectors of one hermitian_eig, rotates u_b into
    (B† (x) I) u_b, whose residual is diag(mu): with X = B (x) I, the
    source and target columns are S = S'' Xᵀ and T = T'' Xᵀ, so the pair
    keeps its support and canonical state.  Returns (u_b, rows, values, B),
    u_b as rotated and B None when it was not.
    """
    off = np.abs(eta_hat)
    np.fill_diagonal(off, 0.0)
    mu, basis = np.diagonal(eta_hat).real, None
    if np.max(off) > ABSENT_WEIGHT:
        mu, basis = hermitian_eig((eta_hat + eta_hat.conj().T) / 2)
        u_b = np.kron(basis.conj().T, np.eye(1 << d)) @ u_b
    order = np.argsort(-mu, kind="stable")
    mu = mu[order]
    labels = np.flatnonzero(np.clip(mu, 0.0, None) * 2.0 ** -d > ABSENT_WEIGHT)
    da_res = 1 << (m - d)
    if labels.size and labels[-1] >= da_res:
        raise ArithmeticError("residual rank exceeds the sender's ancilla space")
    du, dr = 1 << d, 1 << (n - d)
    bits = np.arange(du)
    signs = np.array([(-1.0) ** (d - bin(i).count("1")) for i in range(du)])
    a_bell = ~bits & (du - 1)
    lab = labels[:, None]
    rows, values = np.full((dr, du), -1), np.zeros((dr, du), dtype=complex)
    at = order[lab]  # the receiver's residual index of label j, e_j being e_{order[j]}
    rows[at, bits] = a_bell * da_res + lab if bell_high else (lab << d) + a_bell  # a(i, j)
    values[at, bits] = signs * (np.sqrt(mu[labels]) * 2.0 ** (-d / 2.0))[:, None]
    return u_b, rows.reshape(-1), values.reshape(-1), basis


def _completed_frame(cols: np.ndarray) -> np.ndarray:
    """Unitary whose leading columns are the ordered Gram-Schmidt frame of
    cols, completed by a Householder QR.

    |R_jj| is the norm of column j after projecting out the columns before
    it, i.e. Gram-Schmidt's residual; at or below the acceptance threshold
    the columns are rank deficient.  Rotating each leading column by the
    phase of R_jj makes the diagonal positive, which pins the frame to the
    one Gram-Schmidt builds.
    """
    q, r = np.linalg.qr(cols, mode="complete")
    diag = np.diagonal(r)
    if diag.size < cols.shape[1] or np.any(np.abs(diag) <= _GS_ACCEPT):
        raise ArithmeticError("relative-vector frame is rank deficient")
    q[:, :diag.size] *= diag / np.abs(diag)
    return q


def synthesize_u_a(channel: ChannelState, u_b, d: int, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Sender-side unitary finishing the canonicalization.

    Writing the post-u_b state as sum_k |a_k>_A (x) |k>_B over the
    receiver's computational basis, the vectors a_k are orthogonal with
    norms given by the (factorized) receiver spectrum; the canonical state
    expands the same way with target vectors t_k.  Over the r
    nonzero-weight indices both sides have the same Gram matrix, so their
    QR frames with positive diagonals share one R, and the unitary mapping
    the source frame onto the target frame carries each a_k to t_k.
    Zero-weight indices never occur in the state.

    A u_b that mixes the residual is first rotated into the residual's
    eigenbasis, which keeps the support and the canonical state (see
    _targets) and changes u_a only off the support; so each target column
    has one nonzero entry.  When 2r is at least the sender's dimension
    2**m, Q_s comes from a complete QR of the kept columns S, Q_t is a
    phased permutation, and u_a = Q_t Q_s† is Q_s† with its rows moved and
    rephased, checked densely to 1e-9.  Otherwise W, the reduced
    Householder QR factor of [S | T], spans both sets of columns with 2r
    orthonormal columns, and the same frames are built for the
    projections W†S and W†T, giving a 2r x 2r unitary C.
    Then u_a = I + W (C - I) W†, the identity on the complement of
    span[S, T], at O(4**m r) cost.  Only the small factors are checked:
    with E = W†W - I, F = C†C - I and D = C - I,
    u_a†u_a - I = W (F + D†ED) W†, so if E and F are within _FACTOR_TOL / 2r
    in max norm (hence within tau = _FACTOR_TOL in spectral norm), every
    entry of the dense defect is at most
    (1 + tau) (tau + (1 + sqrt(1 + tau))**2 tau) < 5.1 tau = 5.1e-10 < 1e-9,
    up to the rounding of the length-2r sums that assemble u_a.

    The certificate is checked here, and the sender's Bell halves go on her
    leading qubits.  The dense low-rank form is assembled as analyze's
    report assembles it, so it is refused above DENSE_BUDGET_BYTES.
    """
    u_b, eta_hat, holds = _certificate(channel, u_b, d, eps)
    if not holds:
        raise ValueError("factorization condition fails at this d")
    u_b, rows, values, _ = _targets(eta_hat, u_b, len(channel.alice), len(channel.bob), d,
                                    bell_high=True)
    u_a = _sender_unitary(channel, u_b, rows, values)
    return u_a.dense() if isinstance(u_a, _LowRank) else u_a


def _permuted_frame(q_s: np.ndarray, rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Q_t Q_s† for kept target columns whose one nonzero entry each is
    given by its row and value, without forming Q_t.

    Such columns are orthogonal, so their ordered Gram-Schmidt frame is
    their own unit vectors times the entries' phases; completing it by the
    unused unit vectors in computational order makes Q_t a phased
    permutation, and Q_t Q_s† is Q_s† with its rows moved and rephased.
    A row of -1 (a zero column) or an entry at or below _GS_ACCEPT is a
    rank deficiency, as for _completed_frame.  q_s is rephased in place.
    """
    if np.any(rows < 0) or np.any(np.abs(entries) <= _GS_ACCEPT):
        raise ArithmeticError("relative-vector frame is rank deficient")
    unused = np.ones(q_s.shape[0], dtype=bool)
    unused[rows] = False
    q_s[:, :rows.size] *= (entries / np.abs(entries)).conj()
    # Q_t's column l is the unit vector at order[l], so u_a's row order[l]
    # is Q_s†'s row l; argsort(order) inverts the permutation
    order = np.concatenate([rows, np.flatnonzero(unused)])
    u_a = q_s.T[np.argsort(order)]
    return np.conjugate(u_a, out=u_a)


def _sender_unitary(channel: ChannelState, u_b: np.ndarray, rows: np.ndarray,
                    values: np.ndarray):
    """synthesize_u_a's construction for the target columns _targets gives,
    checked: the dense u_a, or _LowRank(W, C - I) when u_a = I + W (C - I) W†.
    """
    source = bipartition_matrix(channel) @ u_b.T
    weights = np.einsum("ak,ak->k", source.conj(), source).real
    # a column is kept when it weighs more than ABSENT_WEIGHT and its label
    # does on average; one that passes only the first has no target
    keep = np.flatnonzero((weights > ABSENT_WEIGHT) & (rows >= 0))
    s, rows, values = source[:, keep], rows[keep], values[keep]
    if 2 * keep.size >= s.shape[0]:
        u_a = _permuted_frame(_completed_frame(s), rows, values)
        if not linalg.is_unitary(u_a):
            raise ArithmeticError("synthesized sender unitary failed the unitarity check")
        return u_a
    t = np.zeros_like(s)
    t[rows, np.arange(keep.size)] = values
    w, _ = np.linalg.qr(np.concatenate([s, t], axis=1))
    wh = w.conj().T
    c = _completed_frame(wh @ t) @ _completed_frame(wh @ s).conj().T
    k = c.shape[0]
    tol = _FACTOR_TOL / k
    if not all(linalg._unitarity_defect(f) <= tol for f in (c, w)):  # a NaN defect fails
        raise ArithmeticError("synthesized sender unitary failed the unitarity check")
    c[np.diag_indices(k)] -= 1.0
    return _LowRank(_read_only(w), _read_only(c))


def _structural(oriented: ChannelState, eps: float, d: int | None = None):
    """The steps that decide capacity, on the smaller party as oriented
    receiver: its reduced density, one eigh, the clusters, then u_b and
    the factorization certificate at d (default: the largest admissible).
    Returns (w, clusters, d, cert), w the descending eigenvalues; cert is
    None when the spectrum does not admit d, else (u_b, eta, eta_hat,
    holds), holds the certificate's verdict."""
    rho = reduced_density(oriented, "bob")
    w, v = hermitian_eig(rho)
    clusters = cluster_spectrum(w, eps)
    top = max_capacity(clusters, len(oriented.alice), len(oriented.bob))
    if d is None:
        d = top
    elif not 0 <= d <= top:
        return w, clusters, d, None
    u_b, eta = synthesize_u_b(oriented, clusters, v, d)
    rho_t, eta_hat = _transformed(rho, u_b, d)
    return w, clusters, d, (u_b, eta, eta_hat, _factors(rho_t, eta_hat, d, eps))


def analyze(channel: ChannelState, eps: float = DEFAULT_EPS) -> AnalysisReport:
    """Full pipeline: reduced density, spectrum clustering, capacity, and
    both canonicalizing unitaries.

    The structural unitary always acts on the smaller party, so when the
    sender holds fewer qubits the roles are swapped internally and the
    report's swapped flag is set; u_a and u_b still act on the sender and
    receiver respectively.
    """
    _check_eps(eps)
    m_out, n_out = len(channel.alice), len(channel.bob)
    swapped = m_out < n_out
    oriented = channel.swapped() if swapped else channel
    m, n = len(oriented.alice), len(oriented.bob)

    w, clusters, d, (u_struct, eta, eta_hat, holds) = _structural(oriented, eps)
    if not holds:
        raise ArithmeticError("factorization condition failed after synthesis")
    u_struct, rows, values, _ = _targets(eta_hat, u_struct, m, n, d, bell_high=not swapped)
    purifier = _sender_unitary(oriented, u_struct, rows, values)
    # a dense purifier is made read-only, so the report adopts it instead of copying it
    u_purif = None if isinstance(purifier, _LowRank) else _read_only(purifier)

    # the receiver's trailing d slots hold the Bell halves, the leading n - d the residual
    relabeling = tuple(range(n_out - d, n_out)) + tuple(range(n_out - d))
    a_slots = range(d) if not swapped else range(m_out - d, m_out)
    pairs = tuple((channel.alice[a], channel.bob[b]) for a, b in zip(a_slots, relabeling[:d]))
    u_a, u_b = (u_struct, u_purif) if swapped else (u_purif, u_struct)
    report = AnalysisReport(
        entropy_bits=_spectrum_entropy(np.clip(w, 0.0, None)), capacity=d, u_a=u_a, u_b=u_b,
        eta=eta, clusters=clusters, bob_relabeling=relabeling, pairs=pairs, swapped=swapped)
    # _sender_unitary has checked the purifier, so no dense check is
    # repeated; a purifier left as factors is assembled only when read
    object.__setattr__(report, "_purifier", purifier)
    return report


def certify(channel: ChannelState, d: int, eps: float = DEFAULT_EPS):
    """(clusters, holds): the receiver's eigenvalue clusters as the tuple
    cluster_spectrum returns, and whether the factorization certificate
    holds at a claimed capacity d (None when the spectrum does not admit
    d), decided on the smaller party as analyze decides.

    A receiver with more qubits (n > m) has the sender's spectrum plus
    2**n - 2**m exact zeros.  Greedy clustering puts them all into the
    cluster the first one joins, so one zero is clustered and its cluster
    grown by the rest.  The decision is the same on either party: the
    nonzero spectra agree, and 2**n - 2**m is a multiple of 2**d for every
    d <= m, so no multiplicity changes its residue mod 2**d.
    """
    _check_eps(eps)
    swapped = len(channel.alice) < len(channel.bob)
    w, clusters, _, cert = _structural(channel.swapped() if swapped else channel, eps, d)
    if swapped:
        *head, last = cluster_spectrum(np.append(w, 0.0), eps)
        pad = (1 << len(channel.bob)) - w.size - 1
        clusters = (*head, replace(last, multiplicity=last.multiplicity + pad))
    return clusters, None if cert is None else cert[-1]


def canonical_state(channel: ChannelState, report: AnalysisReport) -> PureState:
    """The Bell canonical state that (u_a (x) u_b) applied to the channel
    reaches: d singlets on report.pairs times the canonical purification of
    the residual density.  Raises ValueError, as a teleport does, unless
    the report's unitaries pass the unitary check and fit the channel."""
    _, u_struct = report._oriented(channel)
    oriented = channel.swapped() if report.swapped else channel
    d = report.capacity
    m, n = len(oriented.alice), len(oriented.bob)
    _, eta_hat = _transformed(reduced_density(oriented, "bob"), u_struct, d)
    _, rows, values, basis = _targets(eta_hat, u_struct, m, n, d, bell_high=not report.swapped)
    cols = np.zeros((1 << m, 1 << n), dtype=complex)
    nonzero = np.flatnonzero(rows >= 0)
    cols[rows[nonzero], nonzero] = values[nonzero]
    if basis is not None:  # back from the residual's eigenbasis: T = T'' (B (x) I)ᵀ
        cols = cols @ np.kron(basis, np.eye(1 << d)).T
    return _ungrouped(cols / np.linalg.norm(cols), oriented.alice + oriented.bob)
