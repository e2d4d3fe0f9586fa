"""Anyonic teleportation protocols and their asymmetry diagnostics.

A qubit message (alpha, beta) is carried by the 2-anyon state
alpha |tau,e;tau> + beta |e,tau;tau>.  It is attached to a shared 4-anyon
resource on the sender's side, the 6-anyon state is regrouped so the
sender's four anyons (message + sender half of the resource) form one
subtree, the sender measures a superselection-respecting PVM on that
subtree, and the receiver applies an outcome-conditioned correction.

Internally the regrouped state is held in split form: a coefficient
matrix C[receiver tree, measured tree] within the fixed global fusion
channel, which is the regrouped bipartition's charge-block table at the
channel read through the amplitudes.  For a projector P on the measured
subsystem, D = C P^T gives outcome probability ||D||_F^2 and the
receiver's conditional operator D D^dagger, decohered across the
receiver's charge sectors (the anyonic partial trace keeps only matrix
elements with equal receiver root charges).  Dropping that decoherence
step and admitting sector-mixing projectors reproduces ordinary qudit
teleportation - the ``enforce_superselection=False`` mode, kept as an
executable counterfactual.

One scenario runs over many messages, so the work is split in two:

- The layout, cached per (model, resource basis, direction, channel):
  the message basis, the joined basis's table at the channel (the index
  of every (message tree, resource tree) pair, as :func:`compose` reads
  it), the regrouping map, the bipartition and its table at the channel
  (the index of every C entry), and the receiver and measured bases.
  :meth:`MessageQubit.target_vector` places both the message and its
  target, so scenarios that differ only in their encoding share one
  layout, and so do ``with_resource`` copies.
- The measurement, built once per (scenario, tol): the PVM as matrices
  with its no-click residual, validated by :func:`validate_pvm`, and
  every correction, checked block diagonal and unitary whether or not
  its outcome can fire.  Explicit ``pvm=`` / ``corrections=`` overrides
  are built the same way on every call.

A :class:`SplitState` then only multiplies the message into the resource,
regroups, gathers C and checks the state's superselection.

Sampled measurements (the reachability sweep and the verification
oracle) are block diagonal unitaries with one Haar block per charge
sector of the measured basis.  Sample s is drawn from the stream
``sample_rng(seed, *key, s)`` with one ``standard_normal`` call; the
samples are drawn in chunks of :data:`SAMPLE_CHUNK`, each sector's chunk
is one stacked QR, and W = C U-bar is one product per sector block for
every sample of the chunk and every message of the sweep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FusionError, SuperselectionError, fibonacci_only
from .model import AnyonModel, Charge
from .recouple import shape_change
from .states import (
    AnyonState,
    BlockOperator,
    bipartition,
    embed_local,
    ket,
    partial_trace,
    pure_density,
    rounded_product,
    superpose,
    validate_cssr,
)
from .trees import SectorBasis, enumerate_basis, grouped_shape, join_shapes

PROB_TOL = 1e-12

# Message grid used by the verification suites: basis points, balanced,
# real-skewed, and a complex-phase case.
MESSAGE_GRID = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (0.6, 0.8),
    (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)),
)

# The kets carrying a message's alpha and beta on two anyons.
MESSAGE_KETS = ("tau,e;tau", "e,tau;tau")


@dataclass(frozen=True)
class MessageQubit:
    """Qubit (alpha, beta) realized as alpha |tau,e;tau> + beta |e,tau;tau>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if not abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) <= 1e-10:  # NaN fails
            raise ValueError("message amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")

    def as_state(self, model: AnyonModel) -> AnyonState:
        basis = enumerate_basis(model, grouped_shape(1, 1))
        return AnyonState(basis, self.target_vector(basis, MESSAGE_KETS))

    def target_vector(self, basis: SectorBasis, encoding: tuple[str, str]) -> np.ndarray:
        """The message placed on a basis pair (ket0, ket1): alpha on ket0, beta on ket1."""
        vec = np.zeros(basis.dim, dtype=complex)
        vec[basis.index_of_label(encoding[0])] = self.alpha
        vec[basis.index_of_label(encoding[1])] = self.beta
        return vec


def compose(
    model: AnyonModel,
    message: AnyonState,
    resource: AnyonState,
    side: str,
    channel: Charge,
) -> AnyonState:
    """Attach the message next to the resource and fix the fusion channel.

    side "A": message leaves come first (grouping M(AB)); side "B": the
    resource comes first ((AB)M).  Amplitudes multiply term by term - in a
    multiplicity-free theory the joint labeling is determined by the two
    factors plus the chosen root channel.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    left, right = (message, resource) if side == "A" else (resource, message)
    # the joined basis splits at its root into the two factors, so its
    # bipartition table at `channel` gives the joined index of every pair
    basis = enumerate_basis(model, join_shapes(left.basis.shape, right.basis.shape))
    table = bipartition(basis, left.basis.shape.n_leaves).table(channel)
    return AnyonState(basis, _joined(table, basis.dim, left.amplitudes, right.amplitudes))


def _joined(table: np.ndarray, dim: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Joined amplitudes: left[i] * right[j] at table[i, j] over both supports."""
    l_nz, r_nz = np.flatnonzero(left), np.flatnonzero(right)
    index = table[np.ix_(l_nz, r_nz)]
    if not index.size:
        raise ValueError("cannot join a zero state")
    if np.any(index < 0):
        raise FusionError("the channel is not a fusion outcome of the two factors' charges")
    amplitudes = np.zeros(dim, dtype=complex)
    amplitudes[index] = rounded_product(left[l_nz, None], right[None, r_nz])
    return amplitudes


def validate_pvm(pvm, basis: SectorBasis, tol: float = 1e-10) -> list[str]:
    """Check PVM invariants; empty report means valid.

    Elements may be BlockOperator or raw matrices on `basis`.  Raw
    matrices with cross-sector support are flagged - projectors that
    superpose different global charges of the measured subsystem are
    unphysical, which is the headline violation here.
    """
    report = []
    mats = []
    for k, op in enumerate(pvm):
        mat = _as_full(op, basis)
        if mat.shape != (basis.dim, basis.dim):
            report.append(f"projector {k}: wrong shape {mat.shape}")
            continue
        if not validate_cssr(mat, basis, tol):
            report.append(f"projector {k}: cross-sector support (superselection violation)")
        if np.max(np.abs(mat - mat.conj().T)) > tol:
            report.append(f"projector {k}: not Hermitian")
        if np.max(np.abs(mat @ mat - mat)) > tol:
            report.append(f"projector {k}: not idempotent")
        mats.append(mat)
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if np.max(np.abs(mats[a] @ mats[b])) > tol:
                report.append(f"projectors {a},{b}: not mutually orthogonal")
    if mats:
        residual = np.eye(basis.dim) - sum(mats)
        if float(np.min(np.linalg.eigvalsh((residual + residual.conj().T) / 2))) < -tol:
            report.append("projector sum exceeds the identity")
    return report


def _as_full(op, basis: SectorBasis) -> np.ndarray:
    if isinstance(op, BlockOperator):
        return op.to_full()
    return np.asarray(op, dtype=complex)


class _Layout:
    """What every run of one scenario shares: all but the message and the
    resource amplitudes.  Build it through :func:`_cached_layout`."""

    def __init__(self, model: AnyonModel, resource_basis: SectorBasis, direction: str,
                 channel: Charge):
        self.message_basis = message_basis = enumerate_basis(model, grouped_shape(1, 1))
        self.message_first = direction == "ab"
        if self.message_first:
            left, right = message_basis.shape, resource_basis.shape
            measured_shape = join_shapes(grouped_shape(2, 2), grouped_shape(1, 1))
            n_a, self.receiver_side = 4, "B"
        else:
            left, right = resource_basis.shape, message_basis.shape
            measured_shape = join_shapes(grouped_shape(1, 1), grouped_shape(2, 2))
            n_a, self.receiver_side = 2, "A"
        joined = enumerate_basis(model, join_shapes(left, right))
        self.join = bipartition(joined, left.n_leaves).table(channel)
        self.change = shape_change(model, joined.shape, measured_shape)
        self.part = part = bipartition(self.change.target, n_a)
        # the regrouped state lives in the channel sector: C gathers it
        # through that sector's table, oriented receiver x measured
        self.gather = part.table(channel)
        if self.receiver_side == "A":
            self.receiver_basis, self.measured_basis = part.a_basis, part.b_basis
        else:
            self.receiver_basis, self.measured_basis = part.b_basis, part.a_basis
            self.gather = self.gather.T
        self.measured_slices = _sector_slices(self.measured_basis)


# keyed on (model, resource basis, direction, channel)
_cached_layout = functools.lru_cache(maxsize=64)(_Layout)


class _Measurement:
    """A PVM and its corrections as the matrices one run applies.

    With `validate`, the PVM must pass :func:`validate_pvm` and every
    correction must be block diagonal and unitary on the receiver, whether
    or not its outcome can fire.
    """

    def __init__(self, pvm, corrections, measured_basis: SectorBasis,
                 receiver_basis: SectorBasis, validate: bool, tol: float):
        if validate:
            problems = validate_pvm(pvm, measured_basis, tol)
            if problems:
                raise SuperselectionError("invalid PVM: " + "; ".join(problems))
        self.projectors = [_as_full(op, measured_basis) for op in pvm]
        if corrections is not None and len(corrections) != len(self.projectors):
            raise ValueError("one correction per projector is required (use identity to skip)")
        self.no_click = np.eye(measured_basis.dim, dtype=complex) - sum(self.projectors)
        self.corrections = None  # or one (U, U^dagger) per outcome
        if corrections is not None:
            self.corrections = []
            for k, op in enumerate(corrections):
                U = _as_full(op, receiver_basis)
                if validate:
                    if not validate_cssr(U, receiver_basis, tol):
                        raise SuperselectionError(f"correction {k} mixes receiver charge sectors")
                    if np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) > tol:
                        raise ValueError(f"correction {k} is not unitary")
                self.corrections.append((U, U.conj().T))


@dataclass(frozen=True)
class TeleportScenario:
    """Protocol configuration: resource, direction, PVM, corrections.

    direction "ab": the message enters on the A side and the first four
    anyons (message + A) are measured; the receiver is B.  direction
    "ba" is the mirror image.  `pvm` may be None for scenarios that are
    only used with sampled measurements (reachability sweeps).
    """

    name: str
    direction: str
    model: AnyonModel
    resource: AnyonState
    channel: Charge
    pvm: tuple | None
    corrections: tuple | None
    encoding: tuple[str, str]
    reachable: tuple[str, ...] | None = None
    # the scenario's own measurement per (validate, tol), built on first use
    _measurements: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def with_resource(self, resource: AnyonState) -> "TeleportScenario":
        copy = replace(self, resource=resource)
        # the measurement does not depend on the resource, so copies share it
        object.__setattr__(copy, "_measurements", self._measurements)
        return copy

    def _layout(self) -> _Layout:
        return _cached_layout(self.model, self.resource.basis, self.direction, self.channel)

    def _measurement(self, validate: bool, tol: float) -> _Measurement:
        key = (validate, tol)
        if key not in self._measurements:
            layout = self._layout()
            self._measurements[key] = _Measurement(
                self.pvm, self.corrections, layout.measured_basis, layout.receiver_basis,
                validate, tol,
            )
        return self._measurements[key]


@dataclass
class Branch:
    """One measurement outcome: probability, conditional receiver state, fidelity."""

    probability: float
    receiver_state: np.ndarray | None
    fidelity: float | None


@dataclass
class TeleportOutcome:
    branches: list[Branch]
    no_click: Branch
    average_fidelity: float
    receiver_basis: SectorBasis
    message: MessageQubit

    def probabilities(self) -> list[float]:
        return [b.probability for b in self.branches]

    def fidelities(self) -> list[float | None]:
        return [b.fidelity for b in self.branches]

    def total_probability(self) -> float:
        return sum(self.probabilities()) + self.no_click.probability


class SplitState:
    """Regrouped 6-anyon state as a receiver x measured coefficient matrix.

    The scenario's cached layout holds every table; construction only
    multiplies the message into the resource, regroups and gathers C.
    `target` is the message re-encoded on the scenario's encoding pair.
    """

    def __init__(self, scenario: TeleportScenario, message: MessageQubit):
        layout = scenario._layout()
        msg = message.target_vector(layout.message_basis, MESSAGE_KETS)
        resource = scenario.resource.amplitudes
        left, right = (msg, resource) if layout.message_first else (resource, msg)
        amplitudes = layout.change.apply(
            _joined(layout.join, layout.change.source.dim, left, right)
        )
        self.basis = layout.change.target
        self.part = layout.part
        self.receiver_side = layout.receiver_side
        self.receiver_basis = layout.receiver_basis
        self.measured_basis = layout.measured_basis
        # -1 in the table reads the appended zero
        self.coefficients = np.append(amplitudes, 0.0)[layout.gather]
        self.state = AnyonState(self.basis, amplitudes)
        self.receiver_mask = self.receiver_basis.sector_mask
        self.measured_slices = layout.measured_slices
        self.target = message.target_vector(self.receiver_basis, scenario.encoding)

    def average_fidelity(self, blocks: list[np.ndarray], target: np.ndarray) -> np.ndarray:
        """Uncorrected average fidelity sum_k <t|mask(w_k w_k^dagger)|t> over p_k > PROB_TOL,
        one per sampled measurement in `blocks`."""
        rho = 0.0
        for W, probs in conditionals(self.coefficients, blocks, self.measured_slices):
            kept = np.where(probs[:, None, :] > PROB_TOL, W, 0.0)
            rho = rho + kept @ kept.conj().swapaxes(1, 2)
        rho = np.where(self.receiver_mask, rho, 0.0)
        return np.einsum("i,sij,j->s", target.conj(), rho, target).real

    def branch(self, projector: np.ndarray, decohere: bool) -> tuple[float, np.ndarray | None]:
        """Probability and conditional receiver operator for one projector."""
        D = self.coefficients @ projector.T
        p = float(np.sum(np.abs(D) ** 2))
        if p <= PROB_TOL:
            return max(p, 0.0), None
        rho = D @ D.conj().T / p
        if decohere:
            rho = np.where(self.receiver_mask, rho, 0.0)
        return p, rho


def run_protocol(
    scenario: TeleportScenario,
    message: MessageQubit,
    pvm=None,
    corrections=None,
    enforce_superselection: bool = True,
    tol: float = 1e-10,
) -> TeleportOutcome:
    """Execute one teleportation round for every measurement outcome.

    `pvm` / `corrections` override the scenario's own (needed for sampled
    measurements and for the superselection-disabled counterfactual).
    With enforcement on, the PVM must validate and the receiver state is
    decohered across its charge sectors, as the anyonic partial trace
    demands; corrections are then required to be block diagonal and
    unitary.  The scenario's own measurement is validated once per
    (scenario, tol); overrides are validated on every call.
    """
    if pvm is None and scenario.pvm is None:
        raise ValueError(
            f"scenario {scenario.name}/{scenario.direction} has no PVM; pass one explicitly"
        )
    split = SplitState(scenario, message)
    if pvm is None and corrections is None:
        measurement = scenario._measurement(enforce_superselection, tol)
    else:
        measurement = _Measurement(
            scenario.pvm if pvm is None else pvm,
            scenario.corrections if corrections is None else corrections,
            split.measured_basis, split.receiver_basis, enforce_superselection, tol,
        )
    raw = [split.branch(mat, decohere=enforce_superselection) for mat in measurement.projectors]
    no_click = split.branch(measurement.no_click, decohere=enforce_superselection)
    return _assemble(raw, no_click, split.target, measurement.corrections,
                     split.receiver_basis, message)


def run_protocol_via_embedding(
    scenario: TeleportScenario, message: MessageQubit, tol: float = 1e-10
) -> TeleportOutcome:
    """Reference path: embed each projector globally and partial-trace.

    Algebraically identical to :func:`run_protocol` for valid PVMs; kept
    as an independent route for consistency testing.  It shares only the
    validated corrections and the final assembly.
    """
    if scenario.pvm is None:
        raise ValueError("scenario has no PVM")
    split = SplitState(scenario, message)
    meas_basis = split.measured_basis
    measured_side = "A" if split.receiver_side == "B" else "B"
    traced = measured_side
    psi = split.state

    def receiver_branch(op_block: BlockOperator):
        embedded = embed_local(op_block, split.part, side=measured_side)
        conditional = embedded.apply(psi)
        p = float(np.real(conditional.inner(conditional)))
        if p <= PROB_TOL:
            return max(p, 0.0), None
        normalized = AnyonState(psi.basis, conditional.amplitudes / math.sqrt(p))
        return p, partial_trace(pure_density(normalized), split.part, traced=traced).to_full()

    blocks = [op if isinstance(op, BlockOperator) else BlockOperator.from_full(op, meas_basis)
              for op in scenario.pvm]
    total = BlockOperator.identity(meas_basis)
    for block in blocks:
        total = total - block
    raw = [receiver_branch(block) for block in blocks]
    return _assemble(raw, receiver_branch(total), split.target,
                     scenario._measurement(True, tol).corrections, split.receiver_basis, message)


def _assemble(raw_branches, no_click, target, corrections, receiver_basis,
              message) -> TeleportOutcome:
    """Correct each branch, score it against `target` and sum the average fidelity.

    `raw_branches` and `no_click` are (probability, receiver matrix or None)
    pairs; `corrections` are a :class:`_Measurement`'s (U, U^dagger) pairs.
    The no-click branch is never corrected.
    """

    def scored(p, rho):
        if rho is None:
            return Branch(p, None, None)
        return Branch(p, rho, float(np.real(target.conj() @ rho @ target)))

    branches = []
    for k, (p, rho) in enumerate(raw_branches):
        if rho is not None and corrections is not None:
            U, U_dagger = corrections[k]
            rho = U @ rho @ U_dagger
        branches.append(scored(p, rho))
    no_click = scored(*no_click)
    avg = sum(b.probability * b.fidelity for b in branches if b.fidelity is not None)
    if no_click.fidelity is not None:
        avg += no_click.probability * no_click.fidelity
    return TeleportOutcome(branches, no_click, float(avg), receiver_basis, message)


# ---------------------------------------------------------------------------
# sampled measurements and reachability


def sample_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent seeded stream for one sample: ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# Samples are drawn in chunks.  On the 34-dim 4-anyon measured basis one
# sample's scratch is about 64 KiB: its Ginibre draw, the complex matrix,
# QR's copies, the unitary, and W with its moduli (4 KiB per message).  A
# chunk of 8 is a 0.5 MiB budget and keeps a sweep's peak near 0.5 MiB
# (0.8 MiB with ten messages); an unchunked stack of a few hundred samples
# leaves multi-MiB buffers that the allocator keeps after they are freed.
SAMPLE_CHUNK = 8


def _sector_slices(basis: SectorBasis) -> list[slice]:
    """The slices of the nonempty charge sectors of `basis`, in charge order."""
    slices = (basis.sector_slice(g) for g in basis.model.charges)
    return [sl for sl in slices if sl.stop > sl.start]


def _haar(draws: np.ndarray, n: int) -> np.ndarray:
    """Haar unitaries from (samples, 2 n^2) standard normals, one row per sample.

    A row is the real and then the imaginary part of an n x n complex
    Ginibre matrix, row-major.  QR, then each column of Q times the
    conjugate phase of R's diagonal entry (Mezzadri, Notices AMS 54, 592
    (2007)); each call is one stacked QR.
    """
    ginibre = draws[:, :n * n].reshape(-1, n, n).astype(complex)
    ginibre.imag = draws[:, n * n:].reshape(-1, n, n)
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return q * phases.conj()[:, None, :]


def sector_haar_blocks(basis: SectorBasis, rngs) -> list[np.ndarray]:
    """One Haar unitary per nonempty charge sector of `basis` and generator in `rngs`.

    Returns one (len(rngs), d, d) stack per sector, in charge order.  Each
    generator makes one ``standard_normal`` call of sum_g 2 d_g^2 values:
    per sector in charge order, the real and then the imaginary d_g x d_g
    part of its Ginibre matrix, row-major.
    """
    dims = [sl.stop - sl.start for sl in _sector_slices(basis)]
    draws = np.empty((len(rngs), sum(2 * d * d for d in dims)))
    for rng, row in zip(rngs, draws):
        rng.standard_normal(out=row)
    blocks, start = [], 0
    for d in dims:
        blocks.append(_haar(draws[:, start:start + 2 * d * d], d))
        start += 2 * d * d
    return blocks


def sector_haar_chunks(basis: SectorBasis, seed: int, samples: int, *key: int):
    """Yield :func:`sector_haar_blocks` for samples 0..samples-1, SAMPLE_CHUNK at a time.

    Sample s is drawn from ``sample_rng(seed, *key, s)``, so a sample does
    not depend on the chunking or on how many samples are drawn.
    """
    for start in range(0, samples, SAMPLE_CHUNK):
        stop = min(start + SAMPLE_CHUNK, samples)
        yield sector_haar_blocks(basis, [sample_rng(seed, *key, s) for s in range(start, stop)])


def sector_haar_columns(basis: SectorBasis, rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal unitary with one Haar block per nonempty charge sector.

    The dense form of :func:`sector_haar_blocks` for one generator.  Column
    k is the k-th vector of a complete rank-1 measurement that respects
    the sectors.
    """
    columns = np.zeros((basis.dim, basis.dim), dtype=complex)
    for sl, block in zip(_sector_slices(basis), sector_haar_blocks(basis, [rng])):
        columns[sl, sl] = block[0]
    return columns


def conditionals(coefficients: np.ndarray, blocks: list[np.ndarray], slices: list[slice]):
    """Yield, per measured sector block, W and the outcome probabilities ||w_k||^2.

    `coefficients` is C[..., receiver, measured] (one matrix or a stack
    over messages); `blocks` holds one (samples, d, d) stack of unitaries
    per entry of `slices`.  W[..., s, :, k] = C[..., :, block] conj(U_s)[:, k]
    is the unnormalised receiver vector of outcome k of sample s.
    """
    for sl, unitaries in zip(slices, blocks):
        W = coefficients[..., None, :, sl] @ unitaries.conj()
        yield W, np.sum(np.abs(W) ** 2, axis=-2)


def random_sector_pvm(basis: SectorBasis, rng: np.random.Generator) -> list[np.ndarray]:
    """Complete rank-1 PVM respecting the charge sectors of `basis`.

    One Haar unitary per sector; every column becomes a projector, so the
    sector choice is exhaustive and the elements sum to the identity.
    """
    return [np.outer(col, col.conj()) for col in sector_haar_columns(basis, rng).T]


@dataclass
class ReachabilityReport:
    """Support sweep over sampled PVMs: how far receiver states stray."""

    scenario: str
    direction: str
    samples: int
    messages: int
    conditionals: int
    max_off_support: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_off_support <= self.tol


def receiver_reachability_check(
    scenario: TeleportScenario,
    messages,
    pvm_samples: int,
    seed: int,
    tol: float = 1e-10,
) -> ReachabilityReport:
    """Sample sector-respecting PVMs and bound receiver support leakage.

    For every sampled measurement and message, each conditional receiver
    state is decomposed in the receiver's 2-anyon basis; the report
    records the largest matrix-element magnitude outside the scenario's
    reachable diagonal set.  Sample s is the measurement
    ``sector_haar_columns(measured basis, sample_rng(seed, s))``; the
    samples are drawn and reduced SAMPLE_CHUNK at a time, for all
    messages at once.
    """
    if scenario.reachable is None:
        raise ValueError(f"scenario {scenario.name}/{scenario.direction} declares no reachable set")
    if pvm_samples < 1:
        raise ValueError(f"pvm_samples must be at least 1, got {pvm_samples}")
    message_list = [m if isinstance(m, MessageQubit) else MessageQubit(*m) for m in messages]
    splits = [SplitState(scenario, m) for m in message_list]
    recv_basis = splits[0].receiver_basis
    allowed = [recv_basis.index_of_label(lbl) for lbl in scenario.reachable]
    off_mask = splits[0].receiver_mask.copy()
    off_mask[allowed, allowed] = False
    # each receiver row with its off-support partners in the decohered state
    partners = [(r, np.flatnonzero(row)) for r, row in enumerate(off_mask) if row.any()]
    coefficients = np.stack([split.coefficients for split in splits])

    # |rho_k[r, s]| = |w_r| |w_s| / p_k; rounding is monotone, so the largest
    # over s is |w_r| max_s |w_s| / p_k
    worst = 0.0
    count = 0
    for blocks in sector_haar_chunks(splits[0].measured_basis, seed, pvm_samples):
        for W, probs in conditionals(coefficients, blocks, splits[0].measured_slices):
            keep = probs > PROB_TOL
            mags = np.abs(W)
            peak = np.zeros(probs.shape)
            for r, cols in partners:
                np.maximum(peak, mags[..., r, :] * np.max(mags[..., cols, :], axis=-2), out=peak)
            worst = max(worst, float(np.max(peak[keep] / probs[keep], initial=0.0)))
            count += int(np.count_nonzero(keep))
    return ReachabilityReport(
        scenario=scenario.name,
        direction=scenario.direction,
        samples=pvm_samples,
        messages=len(message_list),
        conditionals=count,
        max_off_support=worst,
        tol=tol,
    )


def diagonal_mixture_fidelity_bound(
    target: np.ndarray, basis: SectorBasis, kets: tuple[str, ...]
) -> float:
    """Oracle: best fidelity any diagonal mixture of `kets` reaches.

    Fidelity is linear in the mixing weights, so the best mixture is the
    single ket with the largest overlap.  Used as the classical ceiling
    for one-way protocols whose receiver states are confined to a
    diagonal family.
    """
    return float(max(abs(target[basis.index_of_label(lbl)]) ** 2 for lbl in kets))


# ---------------------------------------------------------------------------
# built-in scenarios


def pauli_correction(basis: SectorBasis, ket0: str, ket1: str, kind: str) -> BlockOperator:
    """Encoded Pauli acting on the (ket0, ket1) pair, identity elsewhere."""
    i0 = basis.index_of_label(ket0)
    i1 = basis.index_of_label(ket1)
    mat = np.eye(basis.dim, dtype=complex)
    if kind == "I":
        pass
    elif kind == "X":
        mat[i0, i0] = mat[i1, i1] = 0.0
        mat[i0, i1] = mat[i1, i0] = 1.0
    elif kind == "Y":
        mat[i0, i0] = mat[i1, i1] = 0.0
        mat[i1, i0] = 1.0j
        mat[i0, i1] = -1.0j
    elif kind == "Z":
        mat[i1, i1] = -1.0
    else:
        raise ValueError(f"unknown Pauli kind {kind!r}")
    return BlockOperator.from_full(mat, basis)


def _projector_onto(basis: SectorBasis, terms) -> BlockOperator:
    state, _ = superpose([(w, ket(basis, lbl)) for w, lbl in terms])
    return BlockOperator.from_ket_bra(state)


@fibonacci_only("the scenario catalog")
def builtin_scenarios(model: AnyonModel | None = None) -> dict[str, dict[str, TeleportScenario]]:
    """The three catalog scenarios, each in both directions.

    ``main-text``: resource with identical marginal spectra; perfect A->B
    teleportation, B->A limited to a classical diagonal family.
    ``appendix-d1-symmetric``: resource whose halves each carry charge e;
    teleportation works identically in both directions.
    ``appendix-d2-asymmetric``: resource with unequal marginal spectra;
    B->A succeeds on half the runs (no-click otherwise), A->B is classical.
    Directions without a useful PVM carry ``pvm=None`` plus the reachable
    diagonal set for sampling sweeps.
    """
    from .model import fibonacci_model

    model = model or fibonacci_model()
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    s = 1.0 / math.sqrt(2.0)

    def res(terms):
        state, _ = superpose([(w, ket(g4, lbl)) for w, lbl in terms])
        return state

    def pvm_of(*vector_terms):
        return tuple(_projector_onto(g4, terms) for terms in vector_terms)

    def paulis(ket0, ket1):
        return tuple(pauli_correction(g2, ket0, ket1, kind) for kind in ("X", "Y", "I", "Z"))

    catalog: dict[str, dict[str, TeleportScenario]] = {}

    # --- main text: R = (|(e,e),(e,tau);e,tau;tau> + |(tau,e),(tau,e);tau,tau;tau>)/sqrt(2)
    resource_main = res([(1, "(e,e),(e,tau);e,tau;tau"), (1, "(tau,e),(tau,e);tau,tau;tau")])
    pvm_main_ab = pvm_of(
        [(s, "(tau,e),(e,e);tau,e;tau"), (s, "(e,tau),(tau,e);tau,tau;tau")],   # lambda+
        [(s, "(tau,e),(e,e);tau,e;tau"), (-s, "(e,tau),(tau,e);tau,tau;tau")],  # lambda-
        [(s, "(tau,e),(tau,e);tau,tau;tau"), (s, "(e,tau),(e,e);tau,e;tau")],   # eta+
        [(s, "(tau,e),(tau,e);tau,tau;tau"), (-s, "(e,tau),(e,e);tau,e;tau")],  # eta-
    )
    tau_pair = ("tau,e;tau", "e,tau;tau")
    catalog["main-text"] = {
        "ab": TeleportScenario(
            "main-text", "ab", model, resource_main, "e",
            pvm_main_ab, paulis(*tau_pair), tau_pair,
        ),
        "ba": TeleportScenario(
            "main-text", "ba", model, resource_main, "e",
            None, None, tau_pair, reachable=("e,e;e", "tau,e;tau"),
        ),
    }

    # --- appendix-d1-symmetric: R = (|(e,e),(e,e);e,e;e> + |(tau,tau),(tau,tau);e,e;e>)/sqrt(2)
    resource_d1 = res([(1, "(e,e),(e,e);e,e;e"), (1, "(tau,tau),(tau,tau);e,e;e")])
    e_pair = ("tau,tau;e", "e,e;e")
    pvm_d1_ab = pvm_of(
        [(s, "(tau,e),(e,e);tau,e;tau"), (s, "(e,tau),(tau,tau);tau,e;tau")],   # lambda+
        [(s, "(tau,e),(e,e);tau,e;tau"), (-s, "(e,tau),(tau,tau);tau,e;tau")],  # lambda-
        [(s, "(tau,e),(tau,tau);tau,e;tau"), (s, "(e,tau),(e,e);tau,e;tau")],   # theta+
        [(s, "(tau,e),(tau,tau);tau,e;tau"), (-s, "(e,tau),(e,e);tau,e;tau")],  # theta-
    )
    pvm_d1_ba = pvm_of(
        [(s, "(e,e),(tau,e);e,tau;tau"), (s, "(tau,tau),(e,tau);e,tau;tau")],
        [(s, "(e,e),(tau,e);e,tau;tau"), (-s, "(tau,tau),(e,tau);e,tau;tau")],
        [(s, "(tau,tau),(tau,e);e,tau;tau"), (s, "(e,e),(e,tau);e,tau;tau")],
        [(s, "(tau,tau),(tau,e);e,tau;tau"), (-s, "(e,e),(e,tau);e,tau;tau")],
    )
    catalog["appendix-d1-symmetric"] = {
        "ab": TeleportScenario(
            "appendix-d1-symmetric", "ab", model, resource_d1, "tau",
            pvm_d1_ab, paulis(*e_pair), e_pair,
        ),
        "ba": TeleportScenario(
            "appendix-d1-symmetric", "ba", model, resource_d1, "tau",
            pvm_d1_ba, paulis(*e_pair), e_pair,
        ),
    }

    # --- appendix-d2-asymmetric: R = (sqrt(2)|(e,e),(e,tau);e,tau;tau>
    #                        + |(e,tau),(e,e);tau,e;tau> + |(tau,e),(e,tau);tau,tau;tau>)/2
    resource_d2 = res([
        (math.sqrt(2.0), "(e,e),(e,tau);e,tau;tau"),
        (1, "(e,tau),(e,e);tau,e;tau"),
        (1, "(tau,e),(e,tau);tau,tau;tau"),
    ])
    pvm_d2_ba = pvm_of(
        [(s, "(e,e),(tau,e);e,tau;tau"), (s, "(e,tau),(e,tau);tau,tau;tau")],   # lambda+
        [(s, "(e,e),(tau,e);e,tau;tau"), (-s, "(e,tau),(e,tau);tau,tau;tau")],  # lambda-
        [(s, "(e,tau),(tau,e);tau,tau;tau"), (s, "(e,e),(e,tau);e,tau;tau")],   # eta+
        [(s, "(e,tau),(tau,e);tau,tau;tau"), (-s, "(e,e),(e,tau);e,tau;tau")],  # eta-
    )
    catalog["appendix-d2-asymmetric"] = {
        "ab": TeleportScenario(
            "appendix-d2-asymmetric", "ab", model, resource_d2, "e",
            None, None, tau_pair, reachable=("e,tau;tau", "e,e;e"),
        ),
        "ba": TeleportScenario(
            "appendix-d2-asymmetric", "ba", model, resource_d2, "e",
            pvm_d2_ba, paulis(*tau_pair), tau_pair,
        ),
    }
    return catalog


def d1_family_resource(model: AnyonModel, a: complex, b: complex) -> AnyonState:
    """Resource a|(e,e),(e,e);e,e;e> + b|(tau,tau),(tau,tau);e,e;e> (normalized)."""
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    state, _ = superpose([(a, ket(g4, "(e,e),(e,e);e,e;e")),
                          (b, ket(g4, "(tau,tau),(tau,tau);e,e;e"))])
    return state


def superselection_violating_protocol(model: AnyonModel | None = None):
    """Counterfactual B->A measurement that ignores the superselection rule.

    Bell-type projectors pair the two charge sectors of the measured
    subsystem, and the corrections rotate across the receiver's sectors.
    Run with ``enforce_superselection=False``, this achieves unit-fidelity
    teleportation from Bob to Alice on the main-text resource - exactly
    the move the superselection rule forbids.

    Returns (scenario, pvm, corrections).
    """
    from .model import fibonacci_model

    model = model or fibonacci_model()
    scenario = builtin_scenarios(model)["main-text"]["ba"]
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    s = 1.0 / math.sqrt(2.0)
    u1 = "(e,tau),(tau,e);tau,tau;e"
    u2 = "(e,tau),(e,tau);tau,tau;e"
    v1 = "(tau,e),(tau,e);tau,tau;tau"
    v2 = "(tau,e),(e,tau);tau,tau;tau"

    def raw_projector(terms):
        vec = np.zeros(g4.dim, dtype=complex)
        for w, lbl in terms:
            vec[g4.index_of_label(lbl)] = w
        return np.outer(vec, vec.conj())

    pvm = (
        raw_projector([(s, u1), (s, v2)]),
        raw_projector([(s, u1), (-s, v2)]),
        raw_projector([(s, u2), (s, v1)]),
        raw_projector([(s, u2), (-s, v1)]),
    )

    i_ee = g2.index_of_label("e,e;e")
    i_te = g2.index_of_label("tau,e;tau")
    i_et = g2.index_of_label("e,tau;tau")

    def correction(image_ee, image_te, sign_te=1.0):
        mat = np.eye(g2.dim, dtype=complex)
        for idx in (i_ee, i_te, i_et):
            mat[idx, idx] = 0.0
        used = np.zeros(g2.dim, dtype=bool)
        mat[image_ee, i_ee] = 1.0
        used[image_ee] = True
        mat[image_te, i_te] = sign_te
        used[image_te] = True
        spare = next(idx for idx in (i_ee, i_te, i_et) if not used[idx])
        mat[spare, i_et] = 1.0
        return mat

    corrections = (
        correction(i_te, i_et),          # alpha|e,e;e> + beta|tau,e;tau> -> message
        correction(i_te, i_et, -1.0),    # alpha|e,e;e> - beta|tau,e;tau>
        correction(i_et, i_te),          # beta|e,e;e> + alpha|tau,e;tau>
        correction(i_et, i_te, -1.0),    # beta|e,e;e> - alpha|tau,e;tau>
    )
    return scenario, pvm, corrections
