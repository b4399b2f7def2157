"""Independent slow-path oracles the tests compare the library against.

Everything here is written the dumb way on purpose: explicit index loops
and textbook formulas, no shared code with the package beyond the data
types at the call boundary.
"""

import numpy as np

from telecap.states import ChannelState


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
