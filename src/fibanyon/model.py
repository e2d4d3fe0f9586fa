"""Defining data of a multiplicity-free anyon theory.

An anyon model is fixed by its particle types (charges), fusion rules,
F-symbols and R-symbols.  Only multiplicity-free theories are supported
(every fusion channel appears at most once), which covers the built-in
Fibonacci model.

Charges are plain strings; the Fibonacci model uses ``"e"`` for the vacuum
and ``"tau"`` for the nontrivial excitation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import FusionError, ModelFormatError

Charge = str

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# F-symbol keys are (a, b, c, g, d, f): the coefficient relating the
# left-coupled basis |(a,b),c; d; g> to the right-coupled |a,(b,c); f; g>.
FKey = tuple[Charge, Charge, Charge, Charge, Charge, Charge]
RKey = tuple[Charge, Charge, Charge]


@dataclass(frozen=True, eq=False)
class AnyonModel:
    """Immutable container for the data of one anyon theory.

    Instances compare by identity; the built-in Fibonacci model is a
    process-wide singleton (see :func:`fibonacci_model`), so bases and
    caches keyed on the model stay coherent.
    """

    name: str
    charges: tuple[Charge, ...]
    vacuum: Charge
    fusion: dict[tuple[Charge, Charge], tuple[Charge, ...]]
    f_symbols: dict[FKey, complex]
    r_symbols: dict[RKey, complex]

    def charge_index(self, a: Charge) -> int:
        try:
            return self.charges.index(a)
        except ValueError:
            raise FusionError(f"unknown charge {a!r} (model {self.name})") from None

    def fusion_outcomes(self, a: Charge, b: Charge) -> tuple[Charge, ...]:
        """Allowed outcomes of fusing a with b, in charge order."""
        self.charge_index(a)
        self.charge_index(b)
        return self.fusion[(a, b)]

    def can_fuse(self, a: Charge, b: Charge, c: Charge) -> bool:
        """True iff c is an allowed fusion outcome of a x b."""
        return c in self.fusion_outcomes(a, b)

    def conjugate(self, a: Charge) -> Charge:
        """The unique charge that fuses with `a` into the vacuum."""
        matches = [b for b in self.charges if self.vacuum in self.fusion_outcomes(a, b)]
        if len(matches) != 1:
            raise FusionError(f"charge {a!r} has no unique conjugate")
        return matches[0]

    def f_labels(self, a: Charge, b: Charge, c: Charge, g: Charge):
        """Row labels d and column labels f of the F-matrix [F^{abc}_g]."""
        ds = tuple(d for d in self.fusion_outcomes(a, b) if self.can_fuse(d, c, g))
        fs = tuple(f for f in self.fusion_outcomes(b, c) if self.can_fuse(a, f, g))
        return ds, fs

    def f_symbol(self, a, b, c, g, d, f) -> complex:
        """[F^{abc}_g]_{df}; zero when the labeling is not fusion-consistent."""
        return self.f_symbols.get((a, b, c, g, d, f), 0.0)

    def f_matrix(self, a, b, c, g) -> tuple[tuple[Charge, ...], tuple[Charge, ...], np.ndarray]:
        ds, fs = self.f_labels(a, b, c, g)
        mat = np.array(
            [[self.f_symbol(a, b, c, g, d, f) for f in fs] for d in ds],
            dtype=complex,
        ).reshape(len(ds), len(fs))
        return ds, fs, mat

    def r_symbol(self, a: Charge, b: Charge, c: Charge) -> complex:
        """Exchange phase R^{ab}_c for counterclockwise exchange of a and b."""
        try:
            return self.r_symbols[(a, b, c)]
        except KeyError:
            raise FusionError(f"R symbol undefined: {a} x {b} -> {c}") from None

    # The same data as read-only arrays over charge indices, zero off the fusion rules.

    @functools.cached_property
    def fusion_array(self) -> np.ndarray:
        """N[a, b, c]: True iff c is an outcome of a x b."""
        triples = {(a, b, c): True for (a, b), out in self.fusion.items() for c in out}
        return self._dense(triples, 3, bool)

    @functools.cached_property
    def f_array(self) -> np.ndarray:
        """F[a, b, c, g, d, f] = [F^{abc}_g]_{df}."""
        return self._dense(self.f_symbols, 6, complex)

    @functools.cached_property
    def r_array(self) -> np.ndarray:
        """R[a, b, c] = R^{ab}_c."""
        return self._dense(self.r_symbols, 3, complex)

    def _dense(self, symbols: dict, rank: int, dtype) -> np.ndarray:
        out = np.zeros((len(self.charges),) * rank, dtype=dtype)
        for key, val in symbols.items():
            out[tuple(map(self.charge_index, key))] = val
        out.setflags(write=False)
        return out


def _consistent_f_keys(charges, fusion_outcomes, can_fuse):
    for a, b, c, g in product(charges, repeat=4):
        for d in fusion_outcomes(a, b):
            if not can_fuse(d, c, g):
                continue
            for f in fusion_outcomes(b, c):
                if can_fuse(a, f, g):
                    yield (a, b, c, g, d, f)


def build_model(
    name: str,
    charges,
    vacuum: Charge,
    fusion: dict,
    f_overrides: dict | None = None,
    r_overrides: dict | None = None,
) -> AnyonModel:
    """Assemble an AnyonModel, completing the F/R tables.

    Every fusion-consistent F labeling defaults to 1 and every consistent
    R entry to +1; `f_overrides` / `r_overrides` replace individual values.
    This fixes the gauge for vacuum-involving symbols, which carry no
    physical freedom in a multiplicity-free theory.
    """
    charges = tuple(charges)
    for (a, b), out in fusion.items():
        undeclared = [c for c in (a, b, *out) if c not in charges]
        if undeclared:
            raise ModelFormatError(
                f"fusion {a} x {b} -> {' '.join(out)} names undeclared charge {undeclared[0]!r}"
            )
    fusion_total = {}
    for a, b in product(charges, repeat=2):
        out = fusion.get((a, b), fusion.get((b, a)))
        if out is None:
            raise ModelFormatError(f"fusion rule missing for {a} x {b}")
        if len(set(out)) != len(out):
            raise ModelFormatError(
                f"fusion {a} x {b} lists an outcome more than once; fusion multiplicities"
                " are not supported"
            )
        fusion_total[(a, b)] = tuple(c for c in charges if c in out)

    def outcomes(a, b):
        return fusion_total[(a, b)]

    def can(a, b, c):
        return c in fusion_total[(a, b)]

    f_symbols = {key: 1.0 + 0.0j for key in _consistent_f_keys(charges, outcomes, can)}
    for key, val in (f_overrides or {}).items():
        if key not in f_symbols:
            raise ModelFormatError(f"F override {key} is not fusion-consistent")
        f_symbols[key] = complex(val)

    r_symbols = {}
    for a, b in product(charges, repeat=2):
        for c in outcomes(a, b):
            r_symbols[(a, b, c)] = 1.0 + 0.0j
    for key, val in (r_overrides or {}).items():
        if key not in r_symbols:
            raise ModelFormatError(f"R override {key} is not fusion-consistent")
        r_symbols[key] = complex(val)

    return AnyonModel(
        name=name,
        charges=charges,
        vacuum=vacuum,
        fusion=fusion_total,
        f_symbols=f_symbols,
        r_symbols=r_symbols,
    )


@functools.lru_cache(maxsize=1)
def fibonacci_model() -> AnyonModel:
    """The Fibonacci anyon theory.

    Two charges e (vacuum) and tau with tau x tau = e + tau.  The single
    nontrivial F-matrix is

        [F^{tau,tau,tau}_tau] = [[1/phi,        1/sqrt(phi)],
                                 [1/sqrt(phi),  -1/phi     ]]

    with phi the golden ratio; the nontrivial exchange phases are
    R^{tau,tau}_e = exp(-4 pi i / 5) and R^{tau,tau}_tau = exp(3 pi i / 5).
    """
    inv_phi = 1.0 / GOLDEN_RATIO  # == (sqrt(5) - 1) / 2
    sqrt_inv_phi = math.sqrt(inv_phi)
    t = "tau"
    f_overrides = {
        (t, t, t, t, "e", "e"): inv_phi,
        (t, t, t, t, "e", t): sqrt_inv_phi,
        (t, t, t, t, t, "e"): sqrt_inv_phi,
        (t, t, t, t, t, t): -inv_phi,
    }
    r_overrides = {
        (t, t, "e"): cmath.exp(-4j * math.pi / 5.0),
        (t, t, t): cmath.exp(3j * math.pi / 5.0),
    }
    return build_model(
        name="fibonacci",
        charges=("e", t),
        vacuum="e",
        fusion={
            ("e", "e"): ("e",),
            ("e", t): (t,),
            (t, "e"): (t,),
            (t, t): ("e", t),
        },
        f_overrides=f_overrides,
        r_overrides=r_overrides,
    )


def quantum_dimension(model: AnyonModel, a: Charge) -> float:
    """d_a: the Perron-Frobenius eigenvalue of a's fusion matrix N_a[b, c] = N_ab^c."""
    fusion_matrix = model.fusion_array[model.charge_index(a)].astype(float)
    return float(np.max(np.abs(np.linalg.eigvals(fusion_matrix))))


def validate_model(model: AnyonModel, tol: float = 1e-12) -> list[str]:
    """Check the model invariants; returns a report of violations.

    An empty report means: fusion symmetry and vacuum identity hold,
    conjugates are unique, every F-matrix is unitary, R entries are
    phases (vacuum ones trivial), the F-symbols satisfy the pentagon
    identity on all 4-leaf relabelings, and F and R satisfy both hexagon
    identities.
    """
    report = []
    charges = model.charges

    for a, b in product(charges, repeat=2):
        if set(model.fusion_outcomes(a, b)) != set(model.fusion_outcomes(b, a)):
            report.append(f"fusion not symmetric: {a} x {b}")

    for a in charges:
        if model.fusion_outcomes(model.vacuum, a) != (a,):
            report.append(f"vacuum not identity on {a}")

    for a in charges:
        try:
            model.conjugate(a)
        except FusionError:
            report.append(f"no unique conjugate for {a}")

    for a, b, c, g in product(charges, repeat=4):
        ds, fs, mat = model.f_matrix(a, b, c, g)
        if len(ds) == 0 and len(fs) == 0:
            continue
        if len(ds) != len(fs):
            report.append(f"F-matrix not square: [{a},{b},{c}; {g}]")
            continue
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(len(ds))))
        if dev > tol:
            report.append(f"F-matrix not unitary: [{a},{b},{c}; {g}] (dev {dev:.2e})")

    for (a, b, c), val in model.r_symbols.items():
        if abs(abs(val) - 1.0) > tol:
            report.append(f"R not a phase: {a} x {b} -> {c}")
        if (a == model.vacuum or b == model.vacuum) and abs(val - 1.0) > tol:
            report.append(f"vacuum R not trivial: {a} x {b} -> {c}")

    dev = pentagon_residual(model)
    if dev > tol:
        report.append(f"pentagon identity violated (residual {dev:.2e})")

    dev = hexagon_residual(model)
    if dev > tol:
        report.append(f"hexagon identities violated (residual {dev:.2e})")

    return report


def pentagon_residual(model: AnyonModel) -> float:
    """Largest deviation in the pentagon identity over all labelings.

    Both re-association routes from ((ab)c)d to a(b(cd)) must produce the
    same coefficients:

        F[f,c,d; e]_{g,l} F[a,b,l; e]_{f,k}
            = sum_h F[a,b,c; g]_{f,h} F[a,h,d; e]_{g,k} F[b,c,d; k]_{h,l}

    The alphabet is tiny, so both sides are dense arrays over all 9-tuples.
    """
    F = model.f_array
    lhs = np.einsum("fcdegl,ablefk->abcdefgkl", F, F)
    rhs = np.einsum("abcgfh,ahdegk,bcdkhl->abcdefgkl", F, F, F)
    return float(np.max(np.abs(lhs - rhs)))


def hexagon_residual(model: AnyonModel) -> float:
    """Largest deviation in the two hexagon identities over all labelings.

    Exchanging c past a then b must equal exchanging c past the pair (ab):

        R[c,a; e] F[a,c,b; d]_{e,g} R[c,b; g]
            = sum_f F[c,a,b; d]_{e,f} R[c,f; d] F[a,b,c; d]_{f,g}

    and the same with every R[x,y; z] replaced by the clockwise exchange
    R[y,x; z]^{-1}, the conjugate of a phase (Kitaev, Ann. Phys. 321, 2
    (2006); Bonderson, PhD thesis, Caltech (2007)).  Entries outside the
    fusion rules are zero.
    """
    F = model.f_array
    worst = 0.0
    # counterclockwise, then clockwise (R[x, y; z] -> conj(R[y, x; z]))
    for R in (model.r_array, model.r_array.transpose(1, 0, 2).conj()):
        lhs = np.einsum("cae,acbdeg,cbg->abcdeg", R, F, R)
        rhs = np.einsum("cabdef,cfd,abcdfg->abcdeg", F, R, F)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def normalize_charge_label(text: str) -> str:
    """Accept the Unicode tau spelling on input; storage is always ASCII."""
    text = text.strip()
    return "tau" if text in ("τ", "tau") else text


def load_model_text(text: str, name: str = "custom") -> AnyonModel:
    """Parse the line-oriented model definition format.

    Directives (one per line, ``#`` comments allowed)::

        charges e tau
        vacuum e
        dim tau 1.6180339887498949
        fusion tau tau -> e tau
        F tau tau tau ; tau ; e e = 0.6180339887498949 0.0
        R tau tau ; e = -0.8090169943749475 -0.5877852522924731

    Unlisted fusion-consistent F/R entries default to 1 (see
    :func:`build_model`).  A ``dim`` line must match the charge's
    :func:`quantum_dimension` to a relative 1e-9; it is checked, not stored.
    """
    charges: list[str] = []
    vacuum = None
    fusion: dict = {}
    f_overrides: dict = {}
    r_overrides: dict = {}
    dims: dict = {}

    def charges_of(tokens):
        return [normalize_charge_label(t) for t in tokens]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, *rest = line.split(None, 1)
            body = rest[0] if rest else ""
            if head == "charges":
                charges = charges_of(body.split())
            elif head == "vacuum":
                vacuum = normalize_charge_label(body)
            elif head == "dim":
                label, value = body.split()
                dims[normalize_charge_label(label)] = float(value)
            elif head == "fusion":
                lhs, rhs = body.split("->")
                a, b = charges_of(lhs.split())
                fusion[(a, b)] = tuple(charges_of(rhs.split()))
            elif head == "F":
                spec_part, val_part = body.split("=")
                abc, g, df = (seg.strip() for seg in spec_part.split(";"))
                a, b, c = charges_of(abc.split())
                (g,) = charges_of(g.split())
                d, f = charges_of(df.split())
                re_s, im_s = val_part.split()
                f_overrides[(a, b, c, g, d, f)] = complex(float(re_s), float(im_s))
            elif head == "R":
                spec_part, val_part = body.split("=")
                ab, c = (seg.strip() for seg in spec_part.split(";"))
                a, b = charges_of(ab.split())
                (c,) = charges_of(c.split())
                re_s, im_s = val_part.split()
                r_overrides[(a, b, c)] = complex(float(re_s), float(im_s))
            else:
                raise ValueError(f"unknown directive {head!r}")
        except ModelFormatError:
            raise
        except ValueError as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from None

    if not charges or vacuum is None:
        raise ModelFormatError("model file must declare 'charges' and 'vacuum'")
    model = build_model(name, charges, vacuum, fusion, f_overrides, r_overrides)
    for a, value in dims.items():
        if a not in model.charges:
            raise ModelFormatError(f"dim line names undeclared charge {a!r}")
        expected = quantum_dimension(model, a)
        if abs(value - expected) > 1e-9 * expected:
            raise ModelFormatError(
                f"dim {a} {value!r} does not match the fusion rules' quantum dimension {expected!r}"
            )
    return model
