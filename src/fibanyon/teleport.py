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

- The plan, cached per (model, resource basis, direction, channel, support
  of the resource): the two rows of the joined basis's table at the
  channel that belong to the message kets (the joined index of every
  (message ket, resource tree) pair), the regrouping map, the bipartition
  and its table at the channel (the index of every C entry), the receiver
  and measured bases, and then the join, the regrouping map and that
  gather composed into the few (C entry, product, coefficient) terms that
  a state on the support reaches, in the map's order.  It runs the join's
  checks and the superselection check once.
  :meth:`MessageQubit.target_vector` places the target on the scenario's
  encoding pair, so scenarios that differ only in their encoding share one
  plan, and so do ``with_resource`` copies with one support.
- The labels, resolved once: a scenario builder makes one lookup per basis
  (the resource terms and Bell pairs on the 4-anyon basis, the encoding
  pair on the 2-anyon one), and a scenario one cached lookup of its
  encoding pair and reachable kets, which ``with_resource`` copies share.
  Every helper after the builder takes tree indices; labels are left to
  the table and the reports.
- The measurement, built once per (scenario, enforcement): the PVM
  and its no-click residual as one stack of transposed projectors,
  validated by :func:`validate_pvm`, and the corrections, each checked
  finite, block diagonal and unitary whether or not its outcome can fire,
  folded with the receiver's sector mask (when enforcing) into one stack
  of linear maps on the receiver's matrices, one per outcome, the
  no-click one the mask alone.  A scenario is always run with its own
  measurement; another PVM or other corrections make a
  ``dataclasses.replace`` copy, which starts with an empty cache (the
  counterfactual is one).

A :class:`SplitState` then only runs the plan: one outer product of (alpha,
beta) with the resource's nonzero amplitudes and one sum by index gives
C, without joining and regrouping the whole 233-dim state.  That state is
built only when asked for, by the join and ``BasisChange.apply``, and is
the reference the plan is tested against.  One round is a handful of
stacked products over every outcome at once: D = C P^T, the
probabilities, D D^dagger / p, and the decoherence and U rho U^dagger as
one product of the channel stack with the vec'd matrices.  Only
each branch's fidelity is scored on its own: scoring them in one stacked
product rounds differently.

Sampled measurements (:func:`sampled_sweep`) serve the reachability sweep
alone.  The verification oracle samples nothing: the receiver's uncorrected
average fidelity is the same for every complete sector-respecting PVM (see
``verify.oracle_excess``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FusionError, SuperselectionError, fibonacci_only, require_memory
from .model import AnyonModel, Charge
from .recouple import _sum_by_index, shape_change
from .states import (
    AnyonState,
    BlockOperator,
    bipartition,
    embed_local,
    ket,
    partial_trace,
    pure_density,
    rounded_outer,
    rounded_product,
    sample_rng,
    superpose,
    validate_cssr,
)
from .trees import SectorBasis, enumerate_basis, grouped_shape, join_shapes

PROB_TOL = 1e-12
PVM_TOL = 1e-10  # validation of PVMs and corrections

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

    def target_vector(self, dim: int, pair) -> np.ndarray:
        """The message placed on a basis pair, given by its indices in a basis
        of dimension `dim`: alpha at pair[0], beta at pair[1]."""
        vec = np.zeros(dim, dtype=complex)
        vec[pair] = self.alpha, self.beta
        return vec


def _joined(table: np.ndarray, dim: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Joined amplitudes: left[i] * right[j] at table[i, j] over both supports,
    which :class:`_Plan` has checked."""
    l_nz, r_nz = left.nonzero()[0], right.nonzero()[0]
    amplitudes = np.zeros(dim, dtype=complex)
    amplitudes[table[l_nz][:, r_nz]] = rounded_product(left[l_nz, None], right[None, r_nz])
    return amplitudes


def validate_pvm(pvm, basis: SectorBasis) -> list[str]:
    """Check PVM invariants; empty report means valid.

    Elements may be BlockOperator or raw matrices on `basis`.  Raw
    matrices with cross-sector support are flagged - projectors that
    superpose different global charges of the measured subsystem are
    unphysical, which is the headline violation here.  A projector with
    a non-finite entry is reported and left out of the other checks.
    """
    # the dense projectors, their products and the residual's eigensolve
    require_memory(16 * (len(pvm) + 4) * basis.dim ** 2,
                   f"validating {len(pvm)} projectors on a {basis.dim}-dim basis")
    report = []
    mats = []
    # Finite entries can still overflow a product or the sum: such a check
    # reads inf or NaN, and fails (a NaN compares false with `<=`).
    with np.errstate(over="ignore", invalid="ignore"):
        for k, op in enumerate(pvm):
            mat = _as_full(op, basis)
            if mat.shape != (basis.dim, basis.dim):
                report.append(f"projector {k}: wrong shape {mat.shape}")
                continue
            if not np.isfinite(mat).all():
                report.append(f"projector {k}: non-finite entries")
                continue
            if not validate_cssr(mat, basis, PVM_TOL):
                report.append(f"projector {k}: cross-sector support (superselection violation)")
            if not np.max(np.abs(mat - mat.conj().T)) <= PVM_TOL:
                report.append(f"projector {k}: not Hermitian")
            if not np.max(np.abs(mat @ mat - mat)) <= PVM_TOL:
                report.append(f"projector {k}: not idempotent")
            mats.append(mat)
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                if not np.max(np.abs(mats[a] @ mats[b])) <= PVM_TOL:
                    report.append(f"projectors {a},{b}: not mutually orthogonal")
        if mats:
            residual = np.eye(basis.dim) - sum(mats)
            residual = (residual + residual.conj().T) / 2
    if mats:
        if not np.isfinite(residual).all():  # not eigensolved
            report.append("projector sum has non-finite entries")
        elif float(np.min(np.linalg.eigvalsh(residual))) < -PVM_TOL:
            report.append("projector sum exceeds the identity")
    return report


def _as_full(op, basis: SectorBasis) -> np.ndarray:
    if isinstance(op, BlockOperator):
        return op.to_full()
    return np.asarray(op, dtype=complex)


class _Plan:
    """C as a function of the message, for one scenario geometry and resource
    support.  It holds the tables the module docstring lists (`gather` is
    the channel's, oriented receiver x measured) and composes them: C's
    flat entry slot[k] adds coeffs[k] * prod[src[k]], where prod is the row-major product of
    (alpha, beta) with the resource's amplitudes on `support`.  The
    regrouping map is :func:`fibanyon.recouple.shape_change`, the F-move
    route run tree by tree, its entries by target index, then by source
    index.  The entries keep that order, so each C entry adds its terms in
    the order ``BasisChange.apply`` does; the map's entries that read an
    amplitude outside the joined support are left out, which is exact,
    because ``bincount`` starts at +0.0 and x + (+-0) = x; for the same
    reason a message amplitude of 0, whose terms are +-0, is kept.  The
    join's checks and the superselection check run here, once.  Build it
    through :func:`_cached_plan`.
    """

    def __init__(self, model: AnyonModel, resource_basis: SectorBasis, direction: str,
                 channel: Charge, support: tuple[int, ...]):
        message_basis = enumerate_basis(model, grouped_shape(1, 1))
        message_first = direction == "ab"
        if message_first:
            left, right = message_basis.shape, resource_basis.shape
            measured_shape = join_shapes(grouped_shape(2, 2), grouped_shape(1, 1))
            n_a, self.receiver_side = 4, "B"
        else:
            left, right = resource_basis.shape, message_basis.shape
            measured_shape = join_shapes(grouped_shape(1, 1), grouped_shape(2, 2))
            n_a, self.receiver_side = 2, "A"
        joined = enumerate_basis(model, join_shapes(left, right))
        join = bipartition(joined, left.n_leaves).table(channel)
        kets = message_basis.index_of_labels(MESSAGE_KETS)
        # row k: the joined index of (message ket k, resource tree j)
        self.message_rows = join[kets] if message_first else join[:, kets].T
        self.change = change = shape_change(model, joined.shape, measured_shape)
        self.part = part = bipartition(change.target, n_a)
        # the regrouped state lives in the channel sector: C gathers it
        # through that sector's table, oriented receiver x measured
        self.gather = part.table(channel)
        if self.receiver_side == "A":
            self.receiver_basis, self.measured_basis = part.a_basis, part.b_basis
        else:
            self.receiver_basis, self.measured_basis = part.b_basis, part.a_basis
            self.gather = self.gather.T
        slices = (self.measured_basis.sector_slice(g) for g in model.charges)
        self.measured_slices = [sl for sl in slices if sl.stop > sl.start]

        self.support = np.array(support, dtype=np.intp)
        index = self.message_rows[:, self.support]
        if not index.size:
            raise ValueError("cannot join a zero state")
        if (index < 0).any():
            raise FusionError("the channel is not a fusion outcome of the two factors' charges")
        # the product read by each joined index, -1 off the support
        product = np.full(change.source.dim, -1)
        product[index.ravel()] = np.arange(index.size)
        src = product[change.cols]
        kept = src >= 0
        # the flat C entry of each regrouped index, -1 outside the channel sector
        gather = self.gather.ravel()
        inside = gather >= 0
        entry = np.full(change.target.dim, -1)
        entry[gather[inside]] = np.flatnonzero(inside)
        self.slot = entry[change.rows[kept]]
        if (self.slot < 0).any():
            raise SuperselectionError("the regrouped state has support outside the channel sector")
        self.src, self.coeffs = src[kept], change.coeffs[kept]

    def coefficients(self, message: MessageQubit, resource: np.ndarray) -> np.ndarray:
        prod = rounded_outer(np.array([message.alpha, message.beta], dtype=complex),
                             resource[self.support])
        terms = self.coeffs * prod.ravel()[self.src]
        return _sum_by_index(self.slot, terms, self.gather.size).reshape(self.gather.shape)


# keyed on (model, resource basis, direction, channel, the resource's nonzero indices)
_cached_plan = functools.lru_cache(maxsize=256)(_Plan)


class _Measurement:
    """A PVM and its corrections as the two stacks one run applies.

    `projectors_t` holds P_k^T for every outcome k, the no-click residual
    last.  `channel` holds, per outcome, the r^2 x r^2 map that decoheres
    and corrects the receiver's matrix in one product on its row-major
    vec: vec(U (M o rho) U^dagger) = (U (x) conj(U)) diag(vec M) vec(rho),
    with U the outcome's correction (the identity for the no-click outcome
    and when there are none) and M the receiver's sector mask when
    `validate` enforces superselection, all ones otherwise.  For a phased
    permutation U, one nonzero per row and each of them 1, -1, i or -i (the
    catalog's Paulis and the counterfactual's signed permutations), entry
    (i, l) of the product has one nonzero term, u_i conj(u_l) rho[p_i, p_l],
    and a unit phase rounds nothing: the sum adds exact zeros.  With
    `validate`, the PVM must pass :func:`validate_pvm` and every correction
    must be finite, block diagonal and unitary on the receiver, whether or
    not its outcome can fire.
    """

    def __init__(self, pvm, corrections, measured_basis: SectorBasis,
                 receiver_basis: SectorBasis, validate: bool):
        m, r, n = measured_basis.dim, receiver_basis.dim, len(pvm) + 1
        # the projectors, densified once for validation and the run, their
        # transposed stack, and the channel stack
        require_memory(32 * n * m * m + 16 * n * r ** 4,
                       f"a measurement of {n} {m} x {m} projectors with {r * r} x {r * r}"
                       " receiver channels")
        projectors = [_as_full(op, measured_basis) for op in pvm]
        if validate:
            problems = validate_pvm(projectors, measured_basis)
            if problems:
                raise SuperselectionError("invalid PVM: " + "; ".join(problems))
        if corrections is not None and len(corrections) != len(pvm):
            raise ValueError("one correction per projector is required (use identity to skip)")
        projectors.append(np.eye(m, dtype=complex) - sum(projectors))
        self.projectors_t = np.stack(projectors).swapaxes(1, 2)
        U = np.tile(np.eye(r, dtype=complex), (n, 1, 1))
        for k, op in enumerate(corrections or ()):
            mat = _as_full(op, receiver_basis)
            if validate:
                if not np.isfinite(mat).all():
                    raise ValueError(f"correction {k} has a non-finite entry")
                if not validate_cssr(mat, receiver_basis, PVM_TOL):
                    raise SuperselectionError(f"correction {k} mixes receiver charge sectors")
                if np.max(np.abs(mat.conj().T @ mat - np.eye(r))) > PVM_TOL:
                    raise ValueError(f"correction {k} is not unitary")
            U[k] = mat
        # channel[k, (i, l), (j, s)] = U_k[i, j] conj(U_k[l, s]) M[j, s]
        channel = U[:, :, None, :, None] * U.conj()[:, None, :, None, :]
        if validate:
            channel *= receiver_basis.sector_mask
        self.channel = channel.reshape(n, r * r, r * r)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The stack `rho` of receiver matrices, one per outcome, each
        decohered and corrected: one product with the channel stack."""
        n, r, _ = rho.shape
        return (self.channel @ rho.reshape(n, r * r, 1)).reshape(n, r, r)


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
    # the scenario's own measurement per validate flag, built on first use
    _measurements: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the resource's nonzero indices, the key of its plan
    _support: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.direction not in ("ab", "ba"):
            raise ValueError(f"direction must be 'ab' or 'ba', got {self.direction!r}")
        object.__setattr__(self, "_support",
                           tuple(np.flatnonzero(self.resource.amplitudes).tolist()))

    def with_resource(self, resource: AnyonState) -> "TeleportScenario":
        copy = replace(self, resource=resource)
        # neither the measurement nor the kets depend on the resource, so copies share them
        vars(copy).update(_measurements=self._measurements, _kets=self._kets)
        return copy

    def reachable_index(self) -> np.ndarray:
        """The reachable diagonal kets' indices in the receiver's basis; a
        ValueError on a direction that declares none (one with a catalog PVM)."""
        if self.reachable is None:
            raise ValueError(f"scenario {self.name}/{self.direction} declares no reachable set")
        return self._kets[2:]

    def _plan(self) -> _Plan:
        return _cached_plan(self.model, self.resource.basis, self.direction, self.channel,
                            self._support)

    @functools.cached_property
    def _kets(self) -> np.ndarray:
        """The indices, in the receiver's two-anyon basis, of the encoding pair
        and then of the reachable kets: the scenario's one label lookup."""
        labels = (*self.encoding, *(self.reachable or ()))
        return enumerate_basis(self.model, grouped_shape(1, 1)).index_of_labels(labels)

    def _measurement(self, validate: bool) -> _Measurement:
        if validate not in self._measurements:
            plan = self._plan()
            self._measurements[validate] = _Measurement(
                self.pvm, self.corrections, plan.measured_basis, plan.receiver_basis, validate)
        return self._measurements[validate]


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

    The scenario's cached plan holds every table and composes them:
    construction only runs the plan.
    `target` is the message re-encoded on the scenario's encoding pair.
    """

    def __init__(self, scenario: TeleportScenario, message: MessageQubit):
        self._plan = plan = scenario._plan()
        self._message, self._resource = message, scenario.resource.amplitudes
        self.coefficients = plan.coefficients(message, self._resource)
        self.basis = plan.change.target
        self.part = plan.part
        self.receiver_side = plan.receiver_side
        self.receiver_basis = plan.receiver_basis
        self.measured_basis = plan.measured_basis
        self.receiver_mask = self.receiver_basis.sector_mask
        self.measured_slices = plan.measured_slices
        self.target = message.target_vector(self.receiver_basis.dim, scenario._kets[:2])

    @functools.cached_property
    def state(self) -> AnyonState:
        """The regrouped 6-anyon state, built the long way: the message joined
        to the resource, then regrouped by ``BasisChange.apply`` of the
        plan's route map, over the whole joined basis.  C is its amplitudes
        read through the plan's gather, bit for bit."""
        change = self._plan.change
        message = np.array([self._message.alpha, self._message.beta], dtype=complex)
        joined = _joined(self._plan.message_rows, change.source.dim, message, self._resource)
        return AnyonState(self.basis, change.apply(joined))


def run_protocol(
    scenario: TeleportScenario,
    message: MessageQubit,
    enforce_superselection: bool = True,
) -> TeleportOutcome:
    """Execute one teleportation round for every measurement outcome at once.

    The scenario's PVM and corrections are measured; another measurement is
    a ``dataclasses.replace`` copy of the scenario.  With enforcement on, the
    PVM must validate, corrections are required to be finite, block diagonal
    and unitary, and the receiver state is decohered across its charge
    sectors, as the anyonic partial trace demands.  The measurement is built
    and validated once per (scenario, enforcement); its channel stack
    decoheres and corrects every outcome in one product (:func:`_assemble`).
    """
    if scenario.pvm is None:
        raise ValueError(f"scenario {scenario.name}/{scenario.direction} has no PVM")
    split = SplitState(scenario, message)
    measurement = scenario._measurement(enforce_superselection)
    D = split.coefficients @ measurement.projectors_t
    probabilities = (np.abs(D) ** 2).sum(axis=(1, 2))
    # a branch at p <= PROB_TOL is dropped: divide it by 1, not by ~0
    scale = np.where(probabilities > PROB_TOL, probabilities, 1.0)
    rho = D @ D.conj().swapaxes(1, 2) / scale[:, None, None]
    return _assemble(probabilities, rho, measurement, split.target, split.receiver_basis,
                     message)


def run_protocol_via_embedding(scenario: TeleportScenario,
                               message: MessageQubit) -> TeleportOutcome:
    """Reference path: embed each projector globally and partial-trace.

    Algebraically identical to :func:`run_protocol` for valid PVMs; kept
    as an independent route for consistency testing.  It shares only the
    validated measurement's channel and the final assembly; its partial
    traces are block diagonal already, so the channel's mask changes nothing.
    """
    if scenario.pvm is None:
        raise ValueError("scenario has no PVM")
    measurement = scenario._measurement(True)
    split = SplitState(scenario, message)
    meas_basis = split.measured_basis
    measured_side = "A" if split.receiver_side == "B" else "B"
    psi = split.state

    def receiver_branch(op_block: BlockOperator):
        embedded = embed_local(op_block, split.part, side=measured_side)
        conditional = embedded.apply(psi)
        p = float(np.real(conditional.inner(conditional)))
        if p <= PROB_TOL:  # a dropped branch: its matrix is never read
            return max(p, 0.0), np.zeros(split.receiver_mask.shape, dtype=complex)
        normalized = AnyonState(psi.basis, conditional.amplitudes / math.sqrt(p))
        return p, partial_trace(pure_density(normalized), split.part, measured_side).to_full()

    blocks = [op if isinstance(op, BlockOperator) else BlockOperator.from_full(op, meas_basis)
              for op in scenario.pvm]
    total = BlockOperator.identity(meas_basis)
    for block in blocks:
        total = total - block
    raw = [receiver_branch(block) for block in blocks + [total]]
    return _assemble(np.array([p for p, _ in raw]), np.stack([state for _, state in raw]),
                     measurement, split.target, split.receiver_basis, message)


def _assemble(probabilities, rho, measurement: _Measurement, target, receiver_basis,
              message) -> TeleportOutcome:
    """Decohere and correct every branch, score each against `target` and sum
    the average fidelity.

    `probabilities` and `rho` hold one probability and one receiver matrix
    per outcome, the no-click branch last; a branch at p <= PROB_TOL has
    no state.  `measurement` maps every matrix, the no-click one included.
    """
    rho = measurement.apply(rho)
    bra = target.conj()
    branches = [
        Branch(float(p), state, float((bra @ state @ target).real)) if p > PROB_TOL
        else Branch(float(p), None, None)
        for p, state in zip(probabilities, rho)
    ]
    no_click = branches.pop()
    avg = sum(b.probability * b.fidelity for b in branches if b.fidelity is not None)
    if no_click.fidelity is not None:
        avg += no_click.probability * no_click.fidelity
    return TeleportOutcome(branches, no_click, float(avg), receiver_basis, message)


# ---------------------------------------------------------------------------
# sampled measurements and reachability


# A sweep draws its samples in chunks of MESSAGE_SAMPLES // (number of
# messages), at least 1: about MESSAGE_SAMPLES (sample, message) pairs,
# whose scratch (the draws, W and its moduli) bounds a sweep's memory.  Each
# chunk pays one ``standard_normal`` call, a stacked QR and a pass over W
# per sector: a one-message sweep of 200 samples pays it 3 times here, and
# would pay it 25 times in chunks of 8 samples.
MESSAGE_SAMPLES = 80


def row_space(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis B (d x r) of the span of the conjugated rows of `block`.

    `block` is C[..., receiver, d], one matrix or a stack over messages, and
    C = C B B^dagger.  The columns are the right singular vectors whose
    singular values exceed numpy's ``matrix_rank`` tolerance (the largest
    singular value x max(rows, d) x eps); r = 0 for a zero block.
    """
    rows = block.reshape(-1, block.shape[-1])
    _, singular, vh = np.linalg.svd(rows, full_matrices=False)
    tol = singular.max(initial=0.0) * max(rows.shape) * np.finfo(float).eps
    return vh[:np.count_nonzero(singular > tol)].conj().T


def _haar_rows(draws: np.ndarray, d: int, r: int) -> np.ndarray:
    """The top r rows of Haar unitaries from (samples, 2 d r) standard normals.

    A row of `draws` is the real and then the imaginary part of a d x r
    complex Ginibre matrix, row-major.  Its thin QR, each column of Q times
    the conjugate phase of R's diagonal entry, gives the first r columns of
    a Haar unitary (Mezzadri, Notices AMS 54, 592 (2007)), and the transpose
    of a Haar unitary is Haar: returns the (samples, r, d) stack of Q^T.
    """
    ginibre = draws[:, :d * r].reshape(-1, d, r).astype(complex)
    ginibre.imag = draws[:, d * r:].reshape(-1, d, r)
    q, upper = np.linalg.qr(ginibre)
    phases = np.diagonal(upper, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return (q * phases.conj()[:, None, :]).swapaxes(1, 2)


def split_states(scenario: TeleportScenario, messages) -> list[SplitState]:
    """The split state of every message, each a MessageQubit or an (alpha, beta) pair."""
    splits = [SplitState(scenario, m if isinstance(m, MessageQubit) else MessageQubit(*m))
              for m in messages]
    if not splits:
        raise ValueError("at least one message is required")
    return splits


def sampled_sweep(scenario: TeleportScenario, messages, samples: int,
                  rng: np.random.Generator):
    """The split state of every message and, per chunk of sampled measurements,
    W, its moduli and the outcome probabilities ||w_k||^2 (summed from those
    moduli) of every measured sector reached.

    Returns (splits, chunks); `chunks` yields, per chunk of up to
    ``max(1, MESSAGE_SAMPLES // len(messages))`` samples, an iterator over
    the (W, |W|, probs) triples of the reached sectors.  Sample s measures
    each sector block of the measured basis in the columns of a Haar
    unitary U-bar, one rank-1 projector per column, and
    W[m, s, :, k] = C[m, :, block] u-bar_k is the unnormalised receiver
    vector of outcome k.  With B = :func:`row_space` of the block
    over every message, C = C B B^dagger, so W = (C B)(B^dagger U-bar), and
    B^dagger U-bar is drawn as the top r rows of a Haar unitary: the draw is
    exact and joint over all messages and outcomes.  A sector with r = 0
    has only p = 0 outcomes and is left out.  Every chunk is one
    ``rng.standard_normal`` call, made when the chunk is yielded: one row
    per sample holding, per reached sector in charge order, its
    :func:`_haar_rows` draw.  The generator fills its draws in sequence, so
    a sample depends on neither the chunking nor the count.
    """
    if samples < 1:
        raise ValueError(f"pvm_samples must be at least 1, got {samples}")
    splits = split_states(scenario, messages)
    coefficients = np.stack([split.coefficients for split in splits])
    blocks = [coefficients[..., sl] for sl in splits[0].measured_slices]
    # per reached sector: C B, the (d, r) of its draw and its columns of a draw row
    reduced, width = [], 0
    for block, basis in zip(blocks, map(row_space, blocks)):
        d, r = basis.shape
        if r:
            reduced.append((block @ basis, d, r, slice(width, width + 2 * d * r)))
            width += 2 * d * r

    def outcomes(draws):
        # one sector's W at a time keeps a chunk's peak to one sector
        for cb, d, r, columns in reduced:
            W = cb[:, None] @ _haar_rows(draws[:, columns], d, r)
            moduli = np.abs(W)
            yield W, moduli, np.sum(moduli ** 2, axis=-2)

    chunk = max(1, MESSAGE_SAMPLES // len(splits))

    def chunks():
        for start in range(0, samples, chunk):
            yield outcomes(rng.standard_normal((min(chunk, samples - start), width)))

    return splits, chunks()


@dataclass
class ReachabilityReport:
    """Support sweep over sampled PVMs: how far receiver states stray."""

    samples: int
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
    reachable diagonal set.  Sample s measures each sector of the measured
    basis in the columns of a Haar unitary, one rank-1 projector per column;
    :func:`sampled_sweep` draws every sample from the one stream
    ``sample_rng(seed)``, in chunks of about MESSAGE_SAMPLES (sample, message)
    pairs, for all messages at once.
    """
    allowed = scenario.reachable_index()
    splits, chunks = sampled_sweep(scenario, messages, pvm_samples, sample_rng(seed))
    off_mask = splits[0].receiver_mask.copy()
    off_mask[allowed, allowed] = False
    # per receiver row r with an off-support entry: the columns s of its entries
    off_rows = [(r, np.flatnonzero(row)) for r, row in enumerate(off_mask) if row.any()]

    # |rho_k[r, s]| = |w_r| |w_s| / p_k, and max_s |w_r| |w_s| = |w_r| max_s |w_s|
    # bit for bit, because rounding a product is monotone in each factor
    worst = 0.0
    count = 0
    for chunk in chunks:
        for W, moduli, probs in chunk:
            keep = probs > PROB_TOL
            peak = np.zeros_like(probs)
            for r, cols in off_rows:
                np.maximum(peak, moduli[..., r, :] * np.max(moduli[..., cols, :], axis=-2),
                           out=peak)
            worst = max(worst, float(np.max(peak[keep] / probs[keep], initial=0.0)))
            count += int(np.count_nonzero(keep))
            # released before the generator computes the next sector's W
            del W, moduli, probs, keep, peak
    return ReachabilityReport(samples=pvm_samples, conditionals=count, max_off_support=worst,
                              tol=tol)


def diagonal_mixture_fidelity_bound(target: np.ndarray, kets) -> float:
    """Oracle: best fidelity any diagonal mixture of the kets at the indices
    `kets` of the target's basis reaches.

    Fidelity is linear in the mixing weights, so the best mixture is the
    single ket with the largest overlap.  Used as the classical ceiling
    for one-way protocols whose receiver states are confined to a
    diagonal family.
    """
    return float(max(abs(target[i]) ** 2 for i in kets))


# ---------------------------------------------------------------------------
# built-in scenarios

# The catalog as one table.  Per scenario: the resource terms (weight, label)
# on the grouped 4-anyon basis, normalized; the global fusion channel of the
# joined 6-anyon state; the receiver's encoding pair.  Per direction, either
# ("pvm", Bell pairs): each pair (u, v) gives the rank-1 projectors onto
# (|u> + |v>)/sqrt(2) and (|u> - |v>)/sqrt(2), and the four outcomes are
# corrected by X, Y, I, Z on the encoding pair; or ("reachable", kets): the
# direction has no useful PVM, only the receiver's diagonal kets for
# sampling sweeps.
SCENARIO_TABLE = {
    # identical marginal spectra: perfect A->B teleportation, B->A limited to
    # a classical diagonal family
    "main-text": {
        "resource": ((1, "(e,e),(e,tau);e,tau;tau"), (1, "(tau,e),(tau,e);tau,tau;tau")),
        "channel": "e",
        "encoding": MESSAGE_KETS,
        "ab": ("pvm", (("(tau,e),(e,e);tau,e;tau", "(e,tau),(tau,e);tau,tau;tau"),    # lambda
                       ("(tau,e),(tau,e);tau,tau;tau", "(e,tau),(e,e);tau,e;tau"))),  # eta
        "ba": ("reachable", ("e,e;e", "tau,e;tau")),
    },
    # each half carries charge e: teleportation works identically both ways
    "appendix-d1-symmetric": {
        "resource": ((1, "(e,e),(e,e);e,e;e"), (1, "(tau,tau),(tau,tau);e,e;e")),
        "channel": "tau",
        "encoding": ("tau,tau;e", "e,e;e"),
        "ab": ("pvm", (("(tau,e),(e,e);tau,e;tau", "(e,tau),(tau,tau);tau,e;tau"),    # lambda
                       ("(tau,e),(tau,tau);tau,e;tau", "(e,tau),(e,e);tau,e;tau"))),  # theta
        "ba": ("pvm", (("(e,e),(tau,e);e,tau;tau", "(tau,tau),(e,tau);e,tau;tau"),
                       ("(tau,tau),(tau,e);e,tau;tau", "(e,e),(e,tau);e,tau;tau"))),
    },
    # unequal marginal spectra: B->A succeeds on half the runs (no-click
    # otherwise), A->B is classical
    "appendix-d2-asymmetric": {
        "resource": ((math.sqrt(2.0), "(e,e),(e,tau);e,tau;tau"),
                     (1, "(e,tau),(e,e);tau,e;tau"),
                     (1, "(tau,e),(e,tau);tau,tau;tau")),
        "channel": "e",
        "encoding": MESSAGE_KETS,
        "ab": ("reachable", ("e,tau;tau", "e,e;e")),
        "ba": ("pvm", (("(e,e),(tau,e);e,tau;tau", "(e,tau),(e,tau);tau,tau;tau"),    # lambda
                       ("(e,tau),(tau,e);tau,tau;tau", "(e,e),(e,tau);e,tau;tau"))),  # eta
    },
}

# The encoded Paulis as 2 x 2 matrices on (ket0, ket1).
_PAULIS = {
    "I": ((1.0, 0.0), (0.0, 1.0)),
    "X": ((0.0, 1.0), (1.0, 0.0)),
    "Y": ((0.0, -1.0j), (1.0j, 0.0)),
    "Z": ((1.0, 0.0), (0.0, -1.0)),
}


def pauli_correction(basis: SectorBasis, pair, kind: str) -> BlockOperator:
    """Encoded Pauli acting on the two trees at the indices `pair`, identity elsewhere."""
    if kind not in _PAULIS:
        raise ValueError(f"unknown Pauli kind {kind!r}")
    mat = np.eye(basis.dim, dtype=complex)
    mat[np.ix_(pair, pair)] = _PAULIS[kind]
    return BlockOperator.from_full(mat, basis)


def _superposed(basis: SectorBasis, terms) -> AnyonState:
    """The normalized sum of w |i> over the (w, tree index i) terms."""
    return superpose([(w, ket(basis, i)) for w, i in terms])[0]


def builtin_scenarios(model: AnyonModel | None = None) -> dict[str, dict[str, TeleportScenario]]:
    """The three scenarios of :data:`SCENARIO_TABLE`, each in both directions,
    as ``{name: {direction: scenario}}``.  A "reachable" direction carries
    ``pvm=None`` and its reachable diagonal set for sampling sweeps."""
    from .model import fibonacci_model

    model = model or fibonacci_model()
    return {name: {direction: _scenario(model, name, direction) for direction in ("ab", "ba")}
            for name in SCENARIO_TABLE}


@fibonacci_only("the scenario catalog")
def _scenario(model: AnyonModel, name: str, direction: str) -> TeleportScenario:
    """One direction of one :data:`SCENARIO_TABLE` row, for the catalog and
    the counterfactual alike."""
    row = SCENARIO_TABLE[name]
    kind, items = row[direction]
    weights, labels = zip(*row["resource"])
    bell = [label for pair in items for label in pair] if kind == "pvm" else []
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    index = g4.index_of_labels([*labels, *bell])  # the Bell pairs follow the resource terms
    resource = _superposed(g4, zip(weights, index))
    pvm = corrections = reachable = None
    if kind == "pvm":
        s = 1.0 / math.sqrt(2.0)
        pvm = tuple(BlockOperator.from_ket_bra(_superposed(g4, [(s, u), (sign, v)]))
                    for u, v in index[len(weights):].reshape(-1, 2) for sign in (s, -s))
        g2 = enumerate_basis(model, grouped_shape(1, 1))
        pair = g2.index_of_labels(row["encoding"])
        corrections = tuple(pauli_correction(g2, pair, pauli) for pauli in "XYIZ")
    else:
        reachable = items
    return TeleportScenario(name, direction, model, resource, row["channel"], pvm, corrections,
                           row["encoding"], reachable)


def d1_family_resource(model: AnyonModel, a: complex, b: complex) -> AnyonState:
    """Resource a|(e,e),(e,e);e,e;e> + b|(tau,tau),(tau,tau);e,e;e> (normalized)."""
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    return _superposed(g4, zip((a, b), _d1_index(g4)))


# the indices of the appendix-d1 resource's two trees, looked up once per basis
_d1_index = functools.lru_cache(maxsize=256)(lambda b: b.index_of_labels(
    [label for _, label in SCENARIO_TABLE["appendix-d1-symmetric"]["resource"]]))


def superselection_violating_protocol(model: AnyonModel | None = None) -> TeleportScenario:
    """Counterfactual B->A measurement that ignores the superselection rule.

    Bell-type projectors pair the two charge sectors of the measured
    subsystem, and the corrections rotate across the receiver's sectors.
    Run with ``enforce_superselection=False``, this achieves unit-fidelity
    teleportation from Bob to Alice on the main-text resource - exactly
    the move the superselection rule forbids.

    Returns the catalog's main-text B->A scenario with this PVM and these
    corrections; as a ``dataclasses.replace`` copy it has a measurement
    cache of its own.
    """
    from .model import fibonacci_model

    model = model or fibonacci_model()
    g4 = enumerate_basis(model, grouped_shape(2, 2))
    g2 = enumerate_basis(model, grouped_shape(1, 1))
    s = 1.0 / math.sqrt(2.0)
    # raw (|u> +- |v>)/sqrt(2) across the e and tau sectors, which superpose
    # and BlockOperator refuse
    pairs = g4.index_of_labels(("(e,tau),(tau,e);tau,tau;e", "(tau,e),(e,tau);tau,tau;tau",
                                "(e,tau),(e,tau);tau,tau;e", "(tau,e),(tau,e);tau,tau;tau"))
    pvm = []
    for u, v in pairs.reshape(-1, 2):
        for sign in (s, -s):
            vec = np.zeros(g4.dim, dtype=complex)
            vec[[u, v]] = s, sign
            pvm.append(np.outer(vec, vec.conj()))

    # signed permutations of (|e,e;e>, |tau,e;tau>, |e,tau;tau>): the images of
    # the three kets, as positions in that tuple, and the sign on |tau,e;tau>'s
    kets = g2.index_of_labels(("e,e;e", "tau,e;tau", "e,tau;tau"))
    corrections = []
    for images, sign in (
        ((1, 2, 0), 1.0),    # alpha|e,e;e> + beta|tau,e;tau> -> message
        ((1, 2, 0), -1.0),   # alpha|e,e;e> - beta|tau,e;tau>
        ((2, 1, 0), 1.0),    # beta|e,e;e> + alpha|tau,e;tau>
        ((2, 1, 0), -1.0),   # beta|e,e;e> - alpha|tau,e;tau>
    ):
        mat = np.eye(g2.dim, dtype=complex)
        mat[kets, kets] = 0.0
        mat[[kets[i] for i in images], kets] = (1.0, sign, 1.0)
        corrections.append(mat)
    return replace(_scenario(model, "main-text", "ba"), pvm=tuple(pvm),
                   corrections=tuple(corrections))
