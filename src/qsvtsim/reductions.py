"""Reductions: phase estimation -> amplitude estimation -> eigenvalue estimation.

All constructions are explicit dense matrices on at most a couple of
qubits beyond the instance register.  Amplitude-oracle usage is counted
through instrumented accessors so the advertised cost multipliers can be
checked call by call rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockenc import (HERMITIAN_TOL, STATE_TOL, BlockEncoding, HermitianOp,
                       _check_hermitian, _check_unitary)
from .estimator import EEInstance, estimate_ee
from .sampler import ResourceLedger

# Cost multipliers attached by the reductions, in units of the source
# problem's oracle calls.  One A application consumes one state-prep
# unitary and one controlled-U (time and depth 2); one block-encoding
# query consumes two each of A, A-dagger, and the good-state oracle
# (time and depth 6).
PE_TO_AE_TIME_MULT = 2
PE_TO_AE_DEPTH_MULT = 2
AE_TO_EE_TIME_MULT = 6
AE_TO_EE_DEPTH_MULT = 6

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])


@dataclass(frozen=True, eq=False)
class PEInstance:
    """Unitary, the preparation of its eigenstate U_psi|0>, and hidden phase."""

    U: np.ndarray
    U_psi: np.ndarray
    true_phi: float

    def __post_init__(self):
        u = np.array(self.U, dtype=complex)
        prep = np.array(self.U_psi, dtype=complex)
        _check_unitary(u, "U")
        _check_unitary(prep, "U_psi")
        if not 0.0 <= self.true_phi < 2.0 * math.pi:
            raise ValueError("true_phi must lie in [0, 2*pi)")
        psi = prep[:, 0]
        if np.linalg.norm(u @ psi - np.exp(1j * self.true_phi) * psi) > STATE_TOL:
            raise ValueError("U_psi|0> is not an eigenstate of U with phase true_phi")
        for name, arr in (("U", u), ("U_psi", prep)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(eq=False)
class AEInstance:
    """State-prep unitary A, good-state projector, hidden amplitude.

    The oracle O_A = I - 2 * good_projector reflects about the good
    subspace.  The call_* accessors hand out the matrices while counting
    accesses, so constructions can be audited for their oracle budgets.
    """

    A: np.ndarray
    good_projector: np.ndarray
    true_amp: float
    oracle_OA: np.ndarray = field(init=False)
    calls: dict = field(init=False,
                        default_factory=lambda: {"A": 0, "A_dagger": 0, "O_A": 0})

    def __post_init__(self):
        a = np.array(self.A, dtype=complex)
        proj = np.array(self.good_projector, dtype=complex)
        _check_unitary(a, "A")
        _check_hermitian(proj, "good_projector")
        if np.max(np.abs(proj @ proj - proj)) > HERMITIAN_TOL:
            raise ValueError("good_projector is not an orthogonal projector")
        if not 0.0 <= self.true_amp <= 1.0:
            raise ValueError("true_amp must lie in [0, 1]")
        if abs(np.linalg.norm(proj @ a[:, 0]) - self.true_amp) > STATE_TOL:
            raise ValueError("true_amp does not match the prepared good amplitude")
        self.A, self.good_projector = a, proj
        self.oracle_OA = np.eye(proj.shape[0]) - 2.0 * proj

    def call_a(self):
        self.calls["A"] += 1
        return self.A

    def call_a_dagger(self):
        self.calls["A_dagger"] += 1
        return self.A.conj().T

    def call_oracle(self):
        self.calls["O_A"] += 1
        return self.oracle_OA


def pe_to_ae(inst):
    """Wrap a phase instance as an amplitude instance on one extra qubit.

    The ancilla is the trailing tensor factor.  A = (I ox H) ctrl-U (I ox H)
    (U_psi ox I) sends |0..0> to cos(phi/2)|psi>|0> - i sin(phi/2)|psi>|1>
    up to a global phase, so the good (ancilla-1) amplitude is |sin(phi/2)|.
    Returns the instance and the recovery map a_bar -> 2*arcsin(clamp(a_bar)).
    Costs in source units: each A call is one U_psi plus one ctrl-U, so the
    reduction carries time and depth multipliers of 2.
    """
    n = inst.U.shape[0]
    eye_n = np.eye(n)
    ctrl_u = np.kron(eye_n, _P0) + np.kron(inst.U, _P1)
    had = np.kron(eye_n, _HADAMARD)
    a_mat = had @ ctrl_u @ had @ np.kron(inst.U_psi, np.eye(2))
    good = np.kron(eye_n, _P1)
    amp = abs(math.sin(inst.true_phi / 2.0))

    def recover(a_bar):
        return 2.0 * math.asin(min(max(a_bar, 0.0), 1.0))

    return AEInstance(A=a_mat, good_projector=good, true_amp=amp), recover


def _reflection_about_e0(dim):
    r = -np.eye(dim)
    r[0, 0] = 1.0
    return r


def grover_operator(inst):
    """Q = A (2|0><0| - I) A^dagger O_A from one counted call each, checked unitary."""
    dim = inst.A.shape[0]
    refl = _reflection_about_e0(dim)
    q = inst.call_a() @ refl @ inst.call_a_dagger() @ inst.call_oracle()
    _check_unitary(q, "Q")
    return q


def ae_block_encoding(inst):
    """Encode (Q + Q^dagger)/2 with one ancilla qubit (leading factor).

    The circuit is ancilla-H, controlled-Q, anti-controlled-Q-dagger,
    ancilla-H.  Q and Q-dagger are each assembled from their own counted
    constituent calls, so one encoding query costs exactly two A, two
    A-dagger, and two O_A applications (time and depth multiplier 6).
    """
    dim = inst.A.shape[0]
    q = grover_operator(inst)
    refl = _reflection_about_e0(dim)
    # Q^dagger = O_A A (2|0><0| - I) A^dagger since both reflections are
    # Hermitian; built from fresh calls to keep the count honest.
    q_dag = inst.call_oracle() @ inst.call_a() @ refl @ inst.call_a_dagger()
    eye = np.eye(dim)
    ctrl_q = np.kron(_P0, eye) + np.kron(_P1, q)
    anti_ctrl_qdag = np.kron(_P0, q_dag) + np.kron(_P1, eye)
    had = np.kron(_HADAMARD, eye)
    u = had @ anti_ctrl_qdag @ ctrl_q @ had
    encoded = HermitianOp.from_matrix(0.5 * (q + q.conj().T))
    return BlockEncoding(unitary=u, encoded=encoded)


def ae_to_ee(inst):
    """Turn an amplitude instance into an eigenvalue instance.

    The prepared state A|0..0> is an eigenstate of (Q + Q^dagger)/2 with
    eigenvalue 1 - 2 a^2; the recovery map sends an eigenvalue estimate
    mu_bar to the probability estimate (1 - mu_bar)/2.  State preparation
    reads inst.A directly; only the encoding query consumes counted calls.
    """
    be = ae_block_encoding(inst)
    mu = 1.0 - 2.0 * inst.true_amp ** 2
    ee = EEInstance(H=be.encoded, gamma=1.0, psi=inst.A[:, 0], true_mu=mu)

    def recover(mu_bar):
        return 0.5 * (1.0 - mu_bar)

    return ee, recover


def scale_ledger(ledger, time_mult, depth_mult):
    """Ledger in converted oracle units; the shot count is unchanged."""
    return ResourceLedger(total_queries=ledger.total_queries * time_mult,
                          max_depth=ledger.max_depth * depth_mult,
                          shots=ledger.shots)


def composed_phase_tolerance(p_hat, eps):
    """Worst-case phase error when the probability estimate is off by eps/2.

    Uses the exact image width of [p_hat - eps/2, p_hat + eps/2] under
    p -> 2 arcsin(sqrt(p)), which stays finite at the spectrum edges where
    the arcsin derivative blows up.
    """
    lo = max(p_hat - 0.5 * eps, 0.0)
    hi = min(p_hat + 0.5 * eps, 1.0)

    def phase(p):
        return 2.0 * math.asin(math.sqrt(min(max(p, 0.0), 1.0)))

    centre = phase(p_hat)
    return max(phase(hi) - centre, centre - phase(lo))


def solve_ae_via_ee(inst, eps, alpha, rng, **kwargs):
    """Estimate the good-state probability through the eigenvalue reduction.

    Returns (p_hat, ledger) with the ledger in A/O_A-call units (6x).
    """
    ee, recover = ae_to_ee(inst)
    mu_hat, ledger = estimate_ee(ee, eps, alpha, rng, **kwargs)
    p_hat = min(max(recover(mu_hat), 0.0), 1.0)
    return p_hat, scale_ledger(ledger, AE_TO_EE_TIME_MULT, AE_TO_EE_DEPTH_MULT)


def solve_pe_via_ee(inst, eps, alpha, rng, **kwargs):
    """Estimate the eigenphase through both reductions chained.

    Returns (phi_hat, ledger).  The ledger carries the 6x conversion of
    encoding queries into A/O_A calls; the further 2x conversion of A
    calls into U_psi/ctrl-U pairs is exposed as PE_TO_AE_*_MULT and
    audited by the call counters rather than folded in.
    """
    ae, recover_phase = pe_to_ae(inst)
    p_hat, ledger = solve_ae_via_ee(ae, eps, alpha, rng, **kwargs)
    phi_hat = recover_phase(math.sqrt(p_hat))
    return phi_hat, ledger


# ---------------------------------------------------------------------------
# Instance factories used by tests and the CLI.


def pe_instance_from_phase(phi, dim=1, rng=None):
    """Instance with hidden phase phi; dim > 1 embeds it in a random basis."""
    phi = float(phi) % (2.0 * math.pi)
    if phi == 2.0 * math.pi:  # a tiny negative phi rounds up to 2 pi
        phi = 0.0
    if dim < 1:
        raise ValueError("dim must be positive")
    if dim == 1:
        u = np.array([[np.exp(1j * phi)]])
        return PEInstance(U=u, U_psi=np.eye(1, dtype=complex), true_phi=phi)
    gen = np.random.default_rng(0) if rng is None else rng.generator
    raw = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(raw)
    phases = np.concatenate([[phi], gen.uniform(0.0, 2.0 * math.pi, dim - 1)])
    u = basis @ np.diag(np.exp(1j * phases)) @ basis.conj().T
    return PEInstance(U=u, U_psi=basis, true_phi=phi)


def ae_instance_from_amplitude(a):
    """Single-qubit instance: A is the rotation with good amplitude a."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    theta = math.asin(a)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    return AEInstance(A=rot, good_projector=np.diag([0.0, 1.0]), true_amp=float(a))
