import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from fibanyon.errors import FusionError, ModelFormatError
from fibanyon.model import (
    AnyonModel,
    build_model,
    hexagon_residual,
    load_model_text,
    pentagon_residual,
    quantum_dimension,
    validate_model,
)

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0


def test_fusion_table(model):
    assert model.fusion_outcomes("tau", "tau") == ("e", "tau")
    assert model.fusion_outcomes("e", "tau") == ("tau",)
    assert model.fusion_outcomes("tau", "e") == ("tau",)
    assert model.fusion_outcomes("e", "e") == ("e",)


def test_fusion_unknown_charge(model):
    with pytest.raises(FusionError):
        model.fusion_outcomes("sigma", "tau")


def test_nontrivial_f_matrix(model):
    assert model.f_symbol("tau", "tau", "tau", "tau", "e", "e") == pytest.approx(PHI_INV)
    assert model.f_symbol("tau", "tau", "tau", "tau", "tau", "tau") == pytest.approx(-PHI_INV)
    assert model.f_symbol("tau", "tau", "tau", "tau", "e", "tau") == pytest.approx(
        math.sqrt(PHI_INV)
    )
    ds, fs, mat = model.f_matrix("tau", "tau", "tau", "tau")
    assert ds == ("e", "tau") and fs == ("e", "tau")
    np.testing.assert_allclose(mat.conj().T @ mat, np.eye(2), atol=1e-15)


def test_vacuum_f_symbols_trivial(model):
    # any labeling with a vacuum among (a, b, c) is 1 when consistent, 0 otherwise
    assert model.f_symbol("e", "tau", "tau", "e", "tau", "e") == 1.0
    assert model.f_symbol("e", "tau", "tau", "e", "tau", "tau") == 0.0
    # 1x1 all-tau matrix at global charge e
    assert model.f_symbol("tau", "tau", "tau", "e", "tau", "tau") == 1.0


def test_r_symbols(model):
    assert model.r_symbols["tau", "tau", "e"] == pytest.approx(cmath.exp(-4j * math.pi / 5))
    assert model.r_symbols["tau", "tau", "tau"] == pytest.approx(cmath.exp(3j * math.pi / 5))
    assert model.r_symbols["e", "tau", "tau"] == 1.0
    assert model.r_symbols["tau", "e", "tau"] == 1.0


def test_quantum_dims(model):
    assert quantum_dimension(model, "e") == pytest.approx(1.0)
    assert quantum_dimension(model, "tau") == pytest.approx((1 + math.sqrt(5)) / 2)


def test_conjugates_self(model):
    assert model.conjugate("e") == "e"
    assert model.conjugate("tau") == "tau"


def test_validate_clean(model):
    assert validate_model(model) == []


def test_pentagon_residual_tiny(model):
    assert pentagon_residual(model) <= 1e-12


def _corrupt(model, **overrides) -> AnyonModel:
    fields = dict(
        name="broken",
        charges=model.charges,
        vacuum=model.vacuum,
        fusion=model.fusion,
        f_symbols=model.f_symbols,
        r_symbols=model.r_symbols,
    )
    fields.update(overrides)
    return AnyonModel(**fields)


def test_validate_flags_broken_f(model):
    broken_f = dict(model.f_symbols)
    broken_f[("tau", "tau", "tau", "tau", "e", "e")] = 0.0
    report = validate_model(_corrupt(model, f_symbols=broken_f))
    assert any("unitary" in item for item in report)


def test_validate_flags_broken_vacuum(model):
    broken_fusion = dict(model.fusion)
    broken_fusion[("e", "tau")] = ("e",)
    report = validate_model(_corrupt(model, fusion=broken_fusion))
    assert any("vacuum" in item for item in report)


def test_validate_flags_broken_r(model):
    broken_r = dict(model.r_symbols)
    broken_r[("tau", "tau", "e")] = 0.5 + 0.0j
    report = validate_model(_corrupt(model, r_symbols=broken_r))
    assert any("phase" in item for item in report)


MODEL_TEXT = """
# Fibonacci written out in the text format
charges e tau
vacuum e
dim tau 1.618033988749895
fusion e e -> e
fusion e tau -> tau
fusion tau tau -> e tau
F tau tau tau ; tau ; e e = 0.6180339887498949 0.0
F tau tau tau ; tau ; e tau = 0.7861513777574233 0.0
F tau tau tau ; tau ; tau e = 0.7861513777574233 0.0
F tau tau tau ; tau ; tau tau = -0.6180339887498949 0.0
R tau tau ; e = -0.8090169943749475 -0.5877852522924731
R tau tau ; tau = -0.3090169943749473 0.9510565162951536
"""


def test_load_model_text_matches_builtin(model):
    loaded = load_model_text(MODEL_TEXT)
    assert validate_model(loaded) == []
    assert loaded.fusion_outcomes("tau", "tau") == ("e", "tau")
    for key, val in model.f_symbols.items():
        assert loaded.f_symbols[key] == pytest.approx(val, abs=1e-12)
    for key, val in model.r_symbols.items():
        assert loaded.r_symbols[key] == pytest.approx(val, abs=1e-12)


def test_load_model_text_unicode_tau():
    loaded = load_model_text(MODEL_TEXT.replace("tau", "τ"))
    assert loaded.charges == ("e", "tau")


def test_load_model_text_rejects_garbage():
    with pytest.raises(ModelFormatError):
        load_model_text("charges e tau\nvacuum e\nwobble 3")
    with pytest.raises(ModelFormatError):
        load_model_text("vacuum e")  # no charges line


def test_build_model_rejects_inconsistent_override():
    with pytest.raises(ModelFormatError):
        build_model(
            "bad",
            ("e", "tau"),
            "e",
            {("e", "e"): ("e",), ("e", "tau"): ("tau",), ("tau", "tau"): ("e", "tau")},
            f_overrides={("e", "e", "e", "tau", "e", "e"): 1.0},
        )


def test_fusion_multiplicity_rejected():
    text = MODEL_TEXT.replace("fusion tau tau -> e tau", "fusion tau tau -> e e tau")
    with pytest.raises(ModelFormatError, match="more than once"):
        load_model_text(text)
    with pytest.raises(ModelFormatError, match="more than once"):
        build_model(
            "bad", ("e", "tau"), "e",
            {("e", "e"): ("e",), ("e", "tau"): ("tau",), ("tau", "tau"): ("e", "tau", "tau")},
        )


def test_undeclared_charges_rejected():
    with pytest.raises(ModelFormatError, match="undeclared charge 'sigma'"):
        load_model_text(MODEL_TEXT.replace("fusion tau tau -> e tau", "fusion tau tau -> e sigma"))
    with pytest.raises(ModelFormatError, match="undeclared charge 'sigma'"):
        load_model_text(MODEL_TEXT + "fusion tau sigma -> e\n")
    with pytest.raises(ModelFormatError, match="undeclared charge 'sigma'"):
        build_model(
            "bad", ("e", "tau"), "e",
            {("e", "e"): ("e",), ("e", "tau"): ("tau",), ("tau", "tau"): ("e", "sigma")},
        )


def test_dim_lines_checked_against_fusion_rules():
    assert "dim tau 1.618033988749895" in MODEL_TEXT
    loaded = load_model_text(MODEL_TEXT + "dim e 1.0\n")
    assert not hasattr(loaded, "quantum_dims")
    with pytest.raises(ModelFormatError, match="dim tau"):
        load_model_text(MODEL_TEXT.replace("dim tau 1.618033988749895", "dim tau 2.0"))
    with pytest.raises(ModelFormatError, match="undeclared charge 'sigma'"):
        load_model_text(MODEL_TEXT + "dim sigma 1.0\n")



@pytest.mark.parametrize("old, new, token", [
    ("F tau tau tau ; tau ; e e = 0.6180339887498949 0.0",
     "F tau tau tau ; tau ; e e = nan 0.0", "nan"),
    ("R tau tau ; e = -0.8090169943749475 -0.5877852522924731",
     "R tau tau ; e = -0.8090169943749475 inf", "inf"),
    ("dim tau 1.618033988749895", "dim tau nan", "nan"),
], ids=["F", "R", "dim"])
def test_load_model_text_rejects_non_finite_numbers(old, new, token):
    text = MODEL_TEXT.replace(old, new)
    lineno = text.splitlines().index(new) + 1
    with pytest.raises(ModelFormatError, match=rf"^line {lineno}: '{token}' is not a finite number$"):
        load_model_text(text)


def test_validate_flags_nan_overrides(model):
    fusion = {("e", "e"): ("e",), ("e", "tau"): ("tau",), ("tau", "tau"): ("e", "tau")}
    f_symbols = dict(model.f_symbols)
    f_symbols[("tau", "tau", "tau", "tau", "e", "e")] = math.nan
    report = validate_model(build_model("nan-f", ("e", "tau"), "e", fusion, f_symbols,
                                        model.r_symbols))
    assert report == ["F-matrix not unitary: [tau,tau,tau; tau] (dev not finite)",
                      "pentagon identity violated (residual not finite)",
                      "hexagon identities violated (residual not finite)"]
    r_symbols = dict(model.r_symbols)
    r_symbols[("tau", "tau", "e")] = complex(math.nan, 0.0)
    report = validate_model(build_model("nan-r", ("e", "tau"), "e", fusion, model.f_symbols,
                                        r_symbols))
    assert report == ["R not a phase: tau x tau -> e",
                      "hexagon identities violated (residual not finite)"]

Z2_TEXT = """
charges e s
vacuum e
fusion e e -> e
fusion e s -> s
fusion s s -> e
"""


def test_hexagon_identities(model):
    assert hexagon_residual(model) <= 1e-12
    # the mirror theory (conjugate R) braids too
    mirror = {key: val.conjugate() for key, val in model.r_symbols.items()}
    assert hexagon_residual(_corrupt(model, r_symbols=mirror)) <= 1e-12
    # Z2 as a boson, a fermion and, with F^{sss}_s = -1, the semion
    assert validate_model(load_model_text(Z2_TEXT)) == []
    assert validate_model(load_model_text(Z2_TEXT + "R s s ; e = -1.0 0.0\n")) == []
    semion = Z2_TEXT + "R s s ; e = 0.0 1.0\nF s s s ; s ; e e = -1.0 0.0\n"
    assert validate_model(load_model_text(semion)) == []


def test_validate_flags_hexagon_violations(model):
    plus_minus_i = dict(model.r_symbols)
    plus_minus_i[("tau", "tau", "e")] = 1j
    plus_minus_i[("tau", "tau", "tau")] = -1j
    swapped = dict(model.r_symbols)
    swapped[("tau", "tau", "e")] = model.r_symbols[("tau", "tau", "tau")]
    swapped[("tau", "tau", "tau")] = model.r_symbols[("tau", "tau", "e")]
    for r_symbols in (plus_minus_i, swapped):
        report = validate_model(_corrupt(model, r_symbols=r_symbols))
        assert len(report) == 1 and report[0].startswith("hexagon identities violated")
    # a semion phase needs F^{sss}_s = -1
    report = validate_model(load_model_text(Z2_TEXT + "R s s ; e = 0.0 1.0\n"))
    assert report == ["hexagon identities violated (residual 2.00e+00)"]


ISING_FILE = Path(__file__).parent / "data" / "ising.model"


def test_ising_model_file_validates():
    ising = load_model_text(ISING_FILE.read_text(encoding="utf-8"))
    assert ising.charges == ("e", "sigma", "psi")
    assert validate_model(ising) == []
    assert quantum_dimension(ising, "sigma") == pytest.approx(math.sqrt(2.0), rel=1e-12)
    _, _, f_sss = ising.f_matrix("sigma", "sigma", "sigma", "sigma")
    np.testing.assert_allclose(f_sss, np.array([[1, 1], [1, -1]]) / math.sqrt(2.0), atol=1e-15)


def test_ising_sign_flip_breaks_pentagon_and_hexagon():
    # F^{sigma psi sigma}_psi = +1 keeps every F-matrix unitary, but no longer
    # solves the pentagon, nor the hexagons with the Ising R-symbols
    text = ISING_FILE.read_text(encoding="utf-8").replace(
        "F sigma psi sigma ; psi ; sigma sigma = -1.0 0.0",
        "F sigma psi sigma ; psi ; sigma sigma = 1.0 0.0")
    assert validate_model(load_model_text(text)) == [
        "pentagon identity violated (residual 2.00e+00)",
        "hexagon identities violated (residual 2.00e+00)",
    ]
