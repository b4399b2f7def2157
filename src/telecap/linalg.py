"""Dense complex linear algebra for desk-scale multi-qubit systems.

Everything works on plain numpy arrays of complex128.  Matrices are dense;
the hard ceiling is 16 qubits (dimension 65536), which keeps every routine
runnable on a laptop without sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_EPS",
    "EigenvalueCluster",
    "hermitian_eig",
    "cluster_spectrum",
    "is_unitary",
    "UNITARY_TOL",
    "NORM_TOL",
    "ABSENT_WEIGHT",
]

DEFAULT_EPS = 1e-9          # absolute, on trace-one spectra

# Tolerances that more than one module applies, one name per meaning.
UNITARY_TOL = 1e-9          # max-norm defect of U†U - I, or of a Gram matrix - I
NORM_TOL = 1e-9             # allowed | ||v|| - 1 | of a state vector
ABSENT_WEIGHT = 1e-12       # a branch probability or eigenvalue this small is absent

_HERMITIAN_TOL = 1e-9
_PHASE_TOL = 1e-12


def _check_eps(eps: float) -> None:
    """eps is an absolute tolerance on a trace-one spectrum: one of 1 or
    more admits every density, and nan compares false everywhere."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be a finite number in (0, 1)")


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _unitarity_defect(m: np.ndarray) -> float:
    """max|M†M - I| for a square matrix or a set of columns: how far M is
    from unitary, or its columns from orthonormal, in max norm."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))


def is_unitary(u) -> bool:
    """Max-norm test of U†U = I within UNITARY_TOL."""
    u = _as_matrix(u, "u")
    if u.shape[0] != u.shape[1]:
        raise ValueError("u must be square")
    return _unitarity_defect(u) <= UNITARY_TOL


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Column phases are fixed so the first component above 1e-12 in magnitude
    is real positive; repeated runs on identical input are bit-identical.
    Returns (eigenvalues, eigenvector matrix with eigenvectors as columns).
    """
    h = _as_matrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise ValueError("h must be square")
    if np.max(np.abs(h - h.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("h is not Hermitian within 1e-9")
    w, v = np.linalg.eigh(h)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # eigh's columns are unit vectors, so each has a component above 1e-12
    first = np.argmax(np.abs(v) > _PHASE_TOL, axis=0)
    ph = v[first, np.arange(v.shape[1])]
    # hypot, as abs() of a scalar computes it; np.abs of a complex array
    # may differ from it in the last bit
    v *= ph.conj() / np.hypot(ph.real, ph.imag)
    return w, v


@dataclass(frozen=True)
class EigenvalueCluster:
    """One (near-)degenerate group of a descending spectrum.

    value is the cluster anchor (its largest member, clamped into [0, 1]).
    """

    value: float
    multiplicity: int


def cluster_spectrum(eigenvalues, eps: float = DEFAULT_EPS) -> tuple[EigenvalueCluster, ...]:
    """Greedy degeneracy clustering of a descending spectrum, as a tuple.

    Walking from the largest value, a value joins the current cluster when it
    lies within eps of the cluster's first (anchor) value; otherwise it opens
    a new cluster.  Anchors of consecutive clusters therefore differ by more
    than eps.  The values must be finite.
    """
    w = np.asarray(eigenvalues, dtype=float).ravel()
    _check_eps(eps)
    if w.size == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(w).all():
        raise ValueError("eigenvalues contain non-finite entries")
    if np.any(np.diff(w) > 1e-12):
        raise ValueError("eigenvalues must be sorted descending")
    clusters = []
    start = 0
    while start < w.size:
        anchor = w[start]
        stop = start + 1
        while stop < w.size and anchor - w[stop] <= eps:
            stop += 1
        value = float(min(max(anchor, 0.0), 1.0))
        clusters.append(EigenvalueCluster(value, stop - start))
        start = stop
    return tuple(clusters)

