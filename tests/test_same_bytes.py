"""Output bytes pinned as sha256 digests.

The digests were recorded from the code before the shared echelon,
accumulate, inverse and substitution helpers replaced their separate
copies; each was the same under PYTHONHASHSEED 0 and 1.  A refactor that
changes any of these bytes (a coefficient, a term order, a verdict, the
order of a certificate) fails here.
"""

import hashlib
import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from qheis.cli import main
from qheis.expr import context_for
from qheis.ideals import ideal_span, phi_elements
from qheis.presets import params

CLI_DIGESTS = {
    "verify --suite all --seed 7 --deg 6 --m 1 --n 1":
        "b1404028e71e82468d4c65d1f8fb16d92e7e147bb7b42d64d00143c19aacfc34",
    "verify --suite all --seed 7 --deg 6 --m 2 --n -3":
        "e3cdfea278755ffc9133dc2c8aceda70055b377908a041661b48e401aa3dbebd",
    "spec catalog --deg 6":
        "75ce950adae0af3c0c3c7f4c2757652b014e078b668e30c5721d50711dd85e58",
    "spec diagram --deg 6 --m 2 --n -3":
        "fa8c45c70c3270a9311cc2d3e6ff4b2df2c4f6eddb32f2ff2369e613f9924ed1",
    "ideal member --ideal I3 --deg 6 Fp*phi1*bp+cp*phi2":
        "0c0d031521a34c652ffbf031adc0effaa2256c967002e63cb235a19a558010b2",
    "ideal member --ideal I1 --deg 6 --q=3/2 bp*phi1*Fp":
        "6300f79e5c8589b7effcf3ea9921a55834facb4a133d09370a28d26e536a1126",
    "module probe --family J2 --deg 4 Fp":
        "dbd15340b950f9480b07e306b215601a04aa3e6a60900eeadb38fdffd5fbfa9e",
    "module probe --family J1 --m 2 --n 3 --deg 3 Ep*Fp+bp":
        "90c8f155bc1b33d8a90cad6df90845630fcfa275c4815eb460643b89759dfdac",
    "nf --q=3/2 E^3*c^2*F*b^2":
        "243c297fb411a5559373a1d1bc1e6db24873a70b9eb431f9dd89d5a26c2ac1f7",
    "nf --algebra S --order J3 --q=3/2 cp^2*bp*Fp*Ep^2":
        "27a9f4965e1bbc17f3517243d86d8543247b77917116e4cc4097621ca5d2ab3e",
    # recorded from the code before the pairing was derived from the
    # coproducts and before each command took only the options it reads
    "pair --m 2 --n -3 K^2*E*F c*b*a^-1":
        "a5d945ec482f0f95b2d7af1e144ae1b3530fe0c117d3bea2ba53717594c3431c",
    "act --m 2 --n 3 E^2*F c^2*b*a":
        "2f1b6f394e9c7de28315e977885addfaf57a55fe3afc5547ffb7bd775c25a9bb",
    "delta --algebra Uq --m 2 --n -3 E^2*F*K":
        "b48d56bc963df38007539662440f963e99326a070b0835da4a14c609c36e4039",
    "antipode --algebra Oq --m 2 --n 3 b^2*c*a^-1":
        "5f4ec739c3f98232eec5720f5acac2a9579fa60f4323cc6baa41f81cde76bcab",
    # recorded from the code before the coproduct became an algebra map
    # into the tensor square
    "delta --algebra Oq --m 2 --n -3 b^2*c*a^-1":
        "b3d76806ceae06564c6a45961b152270495aae5e472ae2d1fc9256eb0b75e734",
    "antipode --algebra Uq --m -2 --n 3 E*F^2*K^-1":
        "a46c60f672bc9d197d081c0d3e7a1e49a3877c796d6f6fbff087d8ee89a0d707",
    "counit --algebra Uq K^3+E":
        "16c3c8092bdde42d9e7cbe07a0120dfef7f3d279efe86032614cdf2c905a048d",
    "smash --m 2 --n -3":
        "52d5683f9071a72d06e9d575bcf067a8322a47db803cb4387e33f2a5efdb6cc3",
    "module growth --family J3 --weight --deg 12":
        "f48b3ddac70e7fb70e1b49c0b6cb8fdbcee6e9eb824008e1b1d37fe1d45a2ffd",
    "module support --kind a --window 3 --eigenvalue 2":
        "1fa372c1ee05df86e0e57d152762c51f8116539367112d785c2c212a1fe6e2c4",
    "aut check --family rho --matrix 2,1,1,1 --m 2 --n -3":
        "2545cef2158b39f5bace557e9540a2e7c60aa85f6a9fc7cfece68d90c1e10b92",
}

# (ideal, q0) -> digest of repr(certificate) at (m, n) = (1, 1); "EpFp+cp"
# is generated by Ep*Fp + cp, whose rows are reduced against earlier rows
# when they are inserted, so its certificates replay those reductions
CERTIFICATE_DIGESTS = {
    ("I1", None): "c85ecfa8b45f783509e9a206ebc435d496434f0104bd21defcf4cad4a7317513",
    ("I1", "3/2"): "70f8fc560d96e6c73ea0dd3e80f0c0c7da14a33d2d46068c15d005169976c639",
    ("I3", None): "2879c6c1705a92889eb31c11c96d8a5d1718e594df9ecb556c1ecf453d1a2e17",
    ("I3", "3/2"): "05468877272d027e2040c764e12a52af14a88731c7bdd16f5d7ae18e8592db4c",
    ("EpFp+cp", None): "6b0aca207e7266e395e1e7fa02a262e74c7e4f512b4b09a6cf8853304097595f",
    ("EpFp+cp", "3/2"): "4f3224c2d2f839c1d4cc34cf98dc16a1cedfd3183ad4f90a4b54bffe145bcff6",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_bytes(command):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(command.split())
    assert code == 0
    assert _sha(buf.getvalue()) == CLI_DIGESTS[command]


@pytest.mark.parametrize("case", sorted(CERTIFICATE_DIGESTS, key=str))
def test_certificate_repr(case):
    which, q0 = case
    spres = context_for("S", params(1, 1), q0=None if q0 is None else Fraction(q0)).pres
    phi1, phi2 = phi_elements(spres)

    def m(*exps):
        return spres.monomial(exps)

    def sandwich(left, middle, right):
        return spres.multiply(spres.multiply(left, middle), right)

    unit = m(0, 0, 0, 0)
    if which == "EpFp+cp":
        g = spres.multiply(m(1, 0, 0, 0), m(0, 1, 0, 0)) + m(0, 0, 0, 1)
        ideal = ideal_span(spres, [g], degree_bound=4)
        x = (
            sandwich(m(0, 0, 1, 0), g, m(0, 1, 0, 0))
            + sandwich(m(1, 0, 0, 0), g, unit)
            + sandwich(unit, g, m(0, 0, 0, 2))
        )
    else:
        gens = [phi1] if which == "I1" else [phi1, phi2]
        ideal = ideal_span(spres, gens, degree_bound=6)
        x = (
            sandwich(m(0, 0, 1, 0), phi1, m(0, 2, 0, 0))
            + sandwich(m(0, 0, 0, 2), phi1, unit)
            + sandwich(m(0, 1, 0, 0), phi1, m(0, 0, 1, 1))
            + sandwich(m(1, 0, 0, 0), phi1, m(1, 0, 0, 0))
        )
        if which == "I3":
            x = x + sandwich(m(0, 0, 1, 0), phi2, m(1, 0, 0, 0))
    cert = ideal.certificate(x)
    assert ideal.replay_certificate(cert) == x
    assert _sha(repr(cert)) == CERTIFICATE_DIGESTS[case]
