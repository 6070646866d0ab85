"""SHA-256 digests of the exact outputs, pinned.

Bracket tables, algebra serializations, centralizer reports, the Casimirs
and their shift restrictions are exact (no floats go into them), so their
text is the same on every platform; a change to any of them is a change
of result, not of rounding.
"""

import hashlib

import pytest

from su3mag import reports
from su3mag.algebra import build_su2, build_su3_chevalley, build_su3_gellmann
from su3mag.invariants import casimirs_su3, restrict_shift

DIGESTS = {
    "brackets_text/regular":
        "ba9b7b403957562ecd8099c5d3655fc8d49f8c71df6d94f33b9d1fe8ccccab0a",
    "brackets_json/regular":
        "7260d359447e236d41f6b551d22891275e12f1bb11907b0636916d9aae7808c9",
    "restrict_shift/C2/regular":
        "03bb362b3bf72e283caed99a1c1b1b57c4ee5fb5b64f8aa74636e886bdf02321",
    "restrict_shift/C3/regular":
        "557d2f513ae6a58789f5a44f7439a74ea9d185e92ce59877b7641b70e0f9af57",
    "brackets_text/irregular":
        "4b86a27d620606c4209be66e12c21273bc3141ed8961356a20c09127e4762c8a",
    "brackets_json/irregular":
        "e83ed869182aef29449f659d0768c60a7265da47428685e5c127606c1e9231bc",
    "restrict_shift/C2/irregular":
        "1160ee14f4d21640d3d2664d1de003bdaefccc7701080a49ba7ee2f2543f3b4d",
    "restrict_shift/C3/irregular":
        "23a74256d4598f3d218911043c14d504f987a5a767278035767eb6586025ba93",
    "serialize/gellmann":
        "f86a46274e75b0bdccd6a3ca3d58e9676cb0fbea6872a236d14a1e38e535a6f2",
    "serialize/chevalley":
        "60360a91af9579aa02320c27f186f43203fd2deef1e84e39298fd3dc3cbf5def",
    "serialize/su2":
        "4d87cdae1a3cce4e2d83896a733695ab6e896935c963eae71f153578fe31b411",
    "C2/gellmann":
        "3c1c00f8f6f0435acf52ce9b79a0badf3f6b00d07cd87d8bc0d34d5c8ea08cb5",
    "C3/gellmann":
        "02ebc381bde09a1614231f9fc9d3d79cfb2e87a08208f9e53cb2f222383d558f",
    "C2/chevalley":
        "8e151fc19456ef3adb7675ebef5118cec670a3a2c3bf4d9381578a29c6663eb4",
    "C3/chevalley":
        "d0fd10e3439a67f2210660c4f5096933043a359e555162c648b23c55ba471cf3",
    "centralizer/su3/torus/True/6":
        "8f237f3d91868c0467ccdfa83e49e98e492aa84a2c1e7f848949005ced5e54e7",
    "centralizer/su3/irregular-A/True/6":
        "182486364d62ce0a2240bdc38c5630e24b5022985e4de3435578848a42a9c8c9",
    "centralizer/su3/torus/False/4":
        "627b57681e64042bcad6894aaa6b2b691fa76693c263dd04c7d6db851ed0191b",
    "centralizer/su2/torus/False/4":
        "195dbec569936d914604dbc0da82ef40499fb4650ac1a6eb752d70471faa4d54",
}

ALGEBRAS = {"gellmann": build_su3_gellmann, "chevalley": build_su3_chevalley,
            "su2": build_su2}


def _text(key):
    kind, *rest = key.split("/")
    if kind in ("brackets_text", "brackets_json", "restrict_shift"):
        sys = reports.make_system(rest[-1], 0.1)
        if kind == "brackets_text":
            return reports.bracket_table_text(sys)
        if kind == "brackets_json":
            return reports.bracket_table_json(sys)
        C = sys.casimirs()[("C2", "C3").index(rest[0])]
        return restrict_shift(C, sys).text()
    if kind == "serialize":
        return ALGEBRAS[rest[0]]().serialize()
    if kind in ("C2", "C3"):
        C = casimirs_su3(ALGEBRAS[rest[0]]())[("C2", "C3").index(kind)]
        return C.text()
    algebra, sub, m_only, degree = rest
    return reports.centralizer_report(algebra, sub, m_only == "True",
                                      int(degree))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_exact_output_digest(key):
    assert hashlib.sha256(_text(key).encode()).hexdigest() == DIGESTS[key]
