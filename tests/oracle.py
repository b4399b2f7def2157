"""Independent slow-path oracles the tests compare the library against.

Everything here is written the dumb way on purpose: explicit index loops
and textbook formulas, no shared code with the package beyond the data
types at the call boundary.
"""

import json

import numpy as np

from telecap.states import MAX_QUBITS, ChannelState, PureState


def partial_trace_loops(rho: np.ndarray, qubit_count: int, traced_out) -> np.ndarray:
    """Triple-loop partial trace, kept qubits in ascending order."""
    traced = sorted(set(traced_out))
    kept = [q for q in range(qubit_count) if q not in traced]
    dk, dt = 1 << len(kept), 1 << len(traced)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(kept_bits, traced_bits):
        idx = 0
        for pos, q in enumerate(kept):
            if kept_bits >> (len(kept) - 1 - pos) & 1:
                idx |= 1 << (qubit_count - 1 - q)
        for pos, q in enumerate(traced):
            if traced_bits >> (len(traced) - 1 - pos) & 1:
                idx |= 1 << (qubit_count - 1 - q)
        return idx

    for a in range(dk):
        for b in range(dk):
            for t in range(dt):
                out[a, b] += rho[full_index(a, t), full_index(b, t)]
    return out


def embed_operator(u: np.ndarray, targets, n: int) -> np.ndarray:
    """Full 2**n matrix acting as u on the listed qubits, identity elsewhere.

    Built entry by entry from the basis action, so it shares nothing with
    the reshape path under test.
    """
    k = len(targets)
    dim = 1 << n
    big = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in set(targets)]
    for col in range(dim):
        sub_in = 0
        for pos, q in enumerate(targets):
            sub_in = (sub_in << 1) | (col >> (n - 1 - q) & 1)
        base = 0
        for q in rest:
            base |= (col >> (n - 1 - q) & 1) << (n - 1 - q)
        for sub_out in range(1 << k):
            row = base
            for pos, q in enumerate(targets):
                row |= (sub_out >> (k - 1 - pos) & 1) << (n - 1 - q)
            big[row, col] += u[sub_out, sub_in]
    return big


def controlled_not(num_qubits: int, control: int, target: int) -> np.ndarray:
    """Full-register CNOT as a permutation matrix, big-endian bit positions."""
    if not 0 <= control < num_qubits or not 0 <= target < num_qubits:
        raise ValueError("control/target outside the register")
    if control == target:
        raise ValueError("control and target must differ")
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"register capped at {MAX_QUBITS} qubits")
    dim = 1 << num_qubits
    cbit = 1 << (num_qubits - 1 - control)
    tbit = 1 << (num_qubits - 1 - target)
    u = np.zeros((dim, dim), dtype=complex)
    src = np.arange(dim)
    dst = np.where(src & cbit, src ^ tbit, src)
    u[dst, src] = 1.0
    return u


def ghz_cnot_chain_dense(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m|n-m GHZ split's two local CNOT chains as dense products: the
    sender fans out of its first qubit, the receiver out of its last."""
    u_a = np.eye(1 << m, dtype=complex)
    for t in range(1, m):
        u_a = controlled_not(m, 0, t) @ u_a
    nb = n - m
    u_b = np.eye(1 << nb, dtype=complex)
    for t in range(nb - 1):
        u_b = controlled_not(nb, nb - 1, t) @ u_b
    return u_a, u_b


def basis_state(bits) -> PureState:
    """Computational basis state for a big-endian 0/1 sequence."""
    v = np.zeros(1 << len(bits), dtype=complex)
    v[int("".join(map(str, bits)), 2)] = 1.0
    return PureState(v)


def permute_qubits(state: PureState, new_from_old) -> PureState:
    """Qubit j of the result holds old qubit new_from_old[j]: each basis
    index's bits moved one position at a time."""
    n = state.n_qubits
    new = np.arange(1 << n)
    old = np.zeros_like(new)
    for j, q in enumerate(new_from_old):
        old |= ((new >> (n - 1 - j)) & 1) << (n - 1 - q)
    return PureState(state.amplitudes[old])


def state_file_json(state: PureState, alice=None, bob=None) -> str:
    """A state file's text as the json module writes the document."""
    doc = {
        "format": "telecap-state",
        "qubits": state.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    if alice is not None or bob is not None:
        doc["alice"] = [int(q) for q in alice]
        doc["bob"] = [int(q) for q in bob]
    return json.dumps(doc, indent=2) + "\n"


def pairs_matrix(pairs) -> np.ndarray:
    """A complex array from the nested [re, im] lists of a document."""
    return np.array(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def report_purifier(doc: dict) -> np.ndarray:
    """The dense purifying unitary of an analyze --report document: u_b
    when the document says swapped, else u_a.  A field written as
    {"w": W, "c_minus_i": C - I} is I + W (C - I) W†."""
    field = doc["u_b" if doc["swapped"] else "u_a"]
    if isinstance(field, list):
        return pairs_matrix(field)
    w = pairs_matrix(field["w"])
    return np.eye(w.shape[0]) + w @ pairs_matrix(field["c_minus_i"]) @ w.conj().T


def haar_unitary_square_qr(dim: int, seed) -> np.ndarray:
    """Haar unitary straight from QR of a square complex Gaussian, R's
    diagonal phases absorbed into Q."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def phase_fixed_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's eigh with eigenvalues descending, each eigenvector column
    then scanned entry by entry and rotated so its first component above
    1e-12 in magnitude is real positive."""
    w, v = np.linalg.eigh(h)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for k in range(v.shape[1]):
        for j in range(v.shape[0]):
            if abs(v[j, k]) > 1e-12:
                ph = v[j, k]
                v[:, k] *= ph.conjugate() / abs(ph)
                break
    return w, v


def two_adic_division(k: int) -> int:
    """Largest j with 2**j dividing k, by repeated division."""
    j = 0
    while k % 2 == 0:
        k //= 2
        j += 1
    return j


def spectral_capacity(channel: ChannelState, eps: float = 1e-9) -> int:
    """Capacity from the smaller side's spectrum alone.

    Singular values of the sender x receiver amplitude matrix, oriented so
    the spectrum lives on the smaller side, squared, greedily clustered,
    then the worst two-adic valuation of the multiplicities capped by the
    smaller party.
    """
    st = channel.state
    m, n = len(channel.alice), len(channel.bob)
    psi = st.amplitudes.reshape((2,) * st.n_qubits)
    psi = np.transpose(psi, channel.alice + channel.bob).reshape(1 << m, 1 << n)
    if m < n:
        psi = psi.T
    p = np.sort(np.linalg.svd(psi, compute_uv=False) ** 2)[::-1]
    groups = []
    start = 0
    while start < p.size:
        stop = start + 1
        while stop < p.size and p[start] - p[stop] <= eps:
            stop += 1
        groups.append(stop - start)
        start = stop
    return min(min(two_adic_division(g) for g in groups), m, n)


def receiver_clusters(channel: ChannelState, eps: float) -> list[tuple[float, int]]:
    """(value, multiplicity) of each eigenvalue cluster of the receiver's
    own density, over the receiver's full space even when it is the larger
    party: eigh of that density, then greedy anchor clustering, with each
    anchor clamped into [0, 1] as the value."""
    st = channel.state
    psi = st.amplitudes.reshape((2,) * st.n_qubits)
    psi = np.transpose(psi, channel.alice + channel.bob).reshape(1 << len(channel.alice), -1)
    w = np.linalg.eigvalsh(psi.T @ psi.conj())[::-1]
    clusters = []
    for x in w:
        if clusters and clusters[-1][0] - x <= eps:
            clusters[-1][1] += 1
        else:
            clusters.append([x, 1])
    return [(min(max(float(v), 0.0), 1.0), k) for v, k in clusters]


def entropy_bits_direct(p) -> float:
    """Shannon entropy of a probability vector, dropping true zeros."""
    total = 0.0
    for w in np.asarray(p, dtype=float).ravel():
        if w > 1e-18:
            total -= w * np.log2(w)
    return total


def gram_schmidt_unitary(source: np.ndarray, targets: np.ndarray,
                         zero: float = 1e-12, accept: float = 1e-7) -> np.ndarray:
    """Unitary carrying each nonzero-weight source column onto the matching
    target column, by ordered Gram-Schmidt.

    Both frames orthogonalize their kept columns one at a time, twice per
    column, and are then completed against the computational basis in
    order; the unitary maps the source frame onto the target frame.  A kept
    column with residual norm at or below accept is rank deficient.
    """
    dim = source.shape[0]
    keep = [k for k in range(source.shape[1])
            if np.vdot(source[:, k], source[:, k]).real > zero]
    eye = np.eye(dim, dtype=complex)

    def frame(cols: np.ndarray) -> np.ndarray:
        q = np.zeros((dim, dim), dtype=complex)
        filled = 0
        candidates = [(cols[:, k], True) for k in keep] + [(eye[:, j], False) for j in range(dim)]
        for v, strict in candidates:
            if filled == dim:
                break
            w = np.array(v, dtype=complex)
            for _ in range(2):
                w -= q[:, :filled] @ (q[:, :filled].conj().T @ w)
            nw = np.linalg.norm(w)
            if nw <= accept:
                if strict:
                    raise ArithmeticError("kept columns are rank deficient")
                continue
            q[:, filled] = w / nw
            filled += 1
        return q

    return frame(targets) @ frame(source).conj().T


def canonical_target_columns(eta: np.ndarray, m: int, n: int, d: int) -> np.ndarray:
    """Sender vector of each receiver basis index in the canonical state
    with the sender's Bell halves on her leading d qubits and the
    receiver's on his trailing d: d singlets (|01> - |10>)/sqrt2 times the
    purification sum_j sqrt(mu_j) |j> (x) |e_j> of eta, where mu, e_j is
    eta's descending eigensystem from phase_fixed_eigh and the purifying
    label j runs through the sender's remaining qubits."""
    mu, basis = phase_fixed_eigh((eta + eta.conj().T) / 2)
    cols = np.zeros((1 << m, 1 << n), dtype=complex)
    for j in range(mu.size):
        if mu[j] <= 1e-12:
            continue
        for bob_bits in range(1 << d):
            amp = np.sqrt(mu[j]) / np.sqrt(2.0 ** d)
            alice_bits = 0
            for t in range(d):  # pair t: sender qubit t, receiver slot n - d + t
                bob_bit = bob_bits >> (d - 1 - t) & 1
                alice_bits |= (1 - bob_bit) << (d - 1 - t)
                amp = amp if bob_bit else -amp
            a = (alice_bits << (m - d)) | j
            for r in range(1 << (n - d)):
                cols[a, (r << d) | bob_bits] += amp * basis[r, j]
    return cols


_SQRT_HALF = 1.0 / np.sqrt(2.0)
# Bell states 1..4: singlet, (|01> + |10>), (|00> - |11>), (|00> + |11>)
_BELL_VECTORS = tuple(np.array(v, dtype=complex) * _SQRT_HALF for v in
                      ([0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, -1], [1, 0, 0, 1]))
# corrections 1..4: identity, sigma_z, -sigma_x, i sigma_y
_FIXES = tuple(np.array(m, dtype=complex) for m in
               ([[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, -1], [-1, 0]], [[0, 1], [-1, 0]]))
# CNOT (control = second qubit, target = first), then H on the second qubit
_MEASUREMENT_CIRCUIT = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                                 [0, 1, 1, 0], [0, -1, 1, 0]], dtype=complex) * _SQRT_HALF


def _act(psi: np.ndarray, op: np.ndarray, targets, n: int) -> np.ndarray:
    """op on the listed qubits of a 2**n vector, by an explicit axis shuffle."""
    targets = list(targets)
    order = targets + [q for q in range(n) if q not in targets]
    t = psi.reshape((2,) * n).transpose(order).reshape(1 << len(targets), -1)
    t = (op @ t).reshape((2,) * n)
    return t.transpose(np.argsort(order)).reshape(-1)


def dominant_factor(state: PureState, qubits) -> tuple[PureState, float]:
    """Leading Schmidt vector on the listed qubits and its weight, from an
    SVD of the (listed x rest) amplitude matrix; the weight is 1 exactly
    when those qubits are unentangled with the rest."""
    n = state.n_qubits
    qubits = list(qubits)
    order = qubits + [q for q in range(n) if q not in qubits]
    mat = state.amplitudes.reshape((2,) * n).transpose(order).reshape(1 << len(qubits), -1)
    u, s, _ = np.linalg.svd(mat)
    return PureState(u[:, 0] / np.linalg.norm(u[:, 0])), float(s[0] ** 2)


def expansion_identity_defect(psi: PureState) -> float:
    """Max-norm defect of the singlet expansion identity.

    With qubit 0 of psi as the message leg and a fresh singlet on (a, b),
    the product psi (x) singlet_ab must equal
    -1/2 sum_i bell_i on (message, a) (x) correction_i applied to the
    message leg now living on b.  Returns the largest amplitude deviation;
    exact arithmetic gives 0.
    """
    n = psi.n_qubits
    lhs = np.kron(psi.amplitudes, _BELL_VECTORS[0])
    acc = np.zeros_like(lhs)
    order = (0, *range(3, n + 2), 1, 2)
    for bell, fix in zip(_BELL_VECTORS, _FIXES):
        chi = _act(psi.amplitudes, fix, [0], n)
        acc = acc + np.kron(bell, chi).reshape((2,) * (n + 2)).transpose(order).reshape(-1)
    return float(np.max(np.abs(lhs + 0.5 * acc)))


def grouped_joint_state(channel: ChannelState, payload: np.ndarray, report) -> np.ndarray:
    """The canonicalized joint state payload (x) channel, laid out for the
    branch walk: rows run over (payload qubit t, sender half, receiver
    half) of pair t = 0 .. k-1, pair 0 most significant; columns over the
    other joint qubits in ascending label order.

    The channel's amplitudes are moved to (sender list, receiver list)
    order index by index, multiplied by the dense u_a (x) u_b, and moved
    back; the payload goes in front, and each joint index is split into
    its row and column bit by bit.
    """
    k = int(np.log2(payload.size))
    n = channel.state.n_qubits
    total = k + n
    nb = len(channel.bob)

    def bits_of(index, qubits, width):
        value = 0
        for q in qubits:
            value = (value << 1) | (index >> (width - 1 - q) & 1)
        return value

    local = [(bits_of(i, channel.alice, n) << nb) | bits_of(i, channel.bob, n)
             for i in range(1 << n)]
    listed = np.zeros(1 << n, dtype=complex)
    for i in range(1 << n):
        listed[local[i]] = channel.state.amplitudes[i]
    listed = np.kron(report.u_a, report.u_b) @ listed
    first = [q for t, (a, b) in enumerate(report.pairs[:k]) for q in (t, a + k, b + k)]
    rest = [q for q in range(total) if q not in first]
    out = np.zeros((1 << len(first), 1 << len(rest)), dtype=complex)
    for p in range(1 << k):
        for i in range(1 << n):
            joint = (p << n) | i
            out[bits_of(joint, first, total), bits_of(joint, rest, total)] = (
                payload[p] * listed[local[i]])
    return out


def sequential_teleport(channel: ChannelState, payload: np.ndarray, report, method: str,
                        zero: float = 1e-12):
    """Every branch of a protocol run, replayed one round at a time.

    The joint state payload (x) channel (payload qubits first) is turned
    canonical with the report's u_a and u_b.  Round t then measures
    (payload qubit t, sender half of pair t) and corrects the receiver half
    with the 8x8 matrix embed_operator(fix) @ embed_operator(projector) on
    those three qubits, renormalizes, and multiplies the branch probability.
    Bell rounds project onto Bell state r+1 and correct with r+1; circuit
    rounds project onto the state the measurement circuit carries to |r>
    and correct with 4-r.  A round with probability at or below zero ends
    its branch.  Returns (outcomes, corrections, probability, fidelity) per
    surviving branch, outcomes in lexicographic order.
    """
    k = int(np.log2(payload.size))
    n = k + channel.state.n_qubits
    psi = np.kron(payload, channel.state.amplitudes)
    psi = _act(psi, report.u_a, [q + k for q in channel.alice], n)
    psi = _act(psi, report.u_b, [q + k for q in channel.bob], n)
    if method == "bell":
        vectors, fixes = _BELL_VECTORS, (1, 2, 3, 4)
    else:
        vectors, fixes = tuple(_MEASUREMENT_CIRCUIT[r].conj() for r in range(4)), (4, 3, 2, 1)
    rounds = [embed_operator(_FIXES[fixes[r] - 1], [2], 3)
              @ embed_operator(np.outer(vectors[r], vectors[r].conj()), [0, 1], 3)
              for r in range(4)]
    receivers = [b + k for _, b in report.pairs[:k]]
    branches = []

    def walk(state, outcomes, probability):
        t = len(outcomes)
        if t == k:
            if probability > zero:
                order = receivers + [q for q in range(n) if q not in receivers]
                mat = state.reshape((2,) * n).transpose(order).reshape(1 << k, -1)
                overlap = payload.conj() @ mat
                branches.append((outcomes, tuple(fixes[r] for r in outcomes), probability,
                                 float(np.vdot(overlap, overlap).real)))
            return
        a, b = report.pairs[t]
        for r in range(4):
            after = _act(state, rounds[r], [t, a + k, b + k], n)
            p = float(np.vdot(after, after).real)
            if p > zero:
                walk(after / np.sqrt(p), outcomes + (r,), probability * p)

    walk(psi, (), 1.0)
    return branches


def spawned_uniforms(seed: np.random.SeedSequence, trials: int, k: int) -> np.ndarray:
    """(trials, k): random(k) from a fresh default_rng on each of the next
    `trials` children of seed, one generator per child.  Advances seed."""
    return np.array([np.random.default_rng(child).random(k) for child in seed.spawn(trials)])
