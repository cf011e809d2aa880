"""Closed-form invariants of B(k) and the classification rules.

Homology, L-groups, Whitehead group, and the stable bordism group of
B(k) all admit closed forms; the chain-complex pipeline doubles as an
independent oracle for the homological ones.  On top of these sit the
descriptor type for a closed oriented 4-manifold with fundamental
group B(k) (intersection form, w2-type, Kirby-Siebenmann invariant),
the realization rule saying which descriptors occur and how often, and
the three-valued homeomorphism classifier.

The cyclic factor Z/(k-1) that recurs below is read degenerately:
trivial when |k-1| = 1 and infinite cyclic when k = 1.  Both readings
are pinned by the k = 0 and k = 1 groups (Z and Z^2), whose invariants
are classical.
"""

from dataclasses import dataclass
from enum import Enum

from . import foxchain, hermform, intlinalg
from .bsgroup import _json_k
from .errors import (
    DescriptorError,
    GroupMismatchError,
    InconsistentDescriptorError,
    SchemaError,
)
from .hermform import HermitianForm, Parity
from .intlinalg import AbelianGroup


class W2Type(Enum):
    """How the second Stiefel-Whitney class behaves: nonzero on the
    universal cover (I), zero on the manifold (II), or zero on the
    universal cover but not the manifold (III)."""

    I = "I"
    II = "II"
    III = "III"


def homology_closed_form(k, degree, modulus=0):
    """Group homology of B(k) with trivial coefficients, degrees 0-3.

    Integral: H0 = Z, H1 = Z + Z/(k-1), H2 = Z iff k = 1, nothing above
    degree 2.  Mod 2 the same groups tensored down; in degree 2 this
    also equals the mod-2 cohomology, nonzero exactly for odd k."""
    if degree not in (0, 1, 2, 3):
        raise ValueError("degree must be one of 0, 1, 2, 3")
    if modulus not in (0, 2):
        raise ValueError("modulus must be 0 or 2")
    if modulus == 0:
        if degree == 0:
            return AbelianGroup.free(1)
        if degree == 1:
            return AbelianGroup.free(1).direct_sum(AbelianGroup.cyclic(k - 1))
        if degree == 2:
            return AbelianGroup.free(1) if k == 1 else AbelianGroup.trivial()
        return AbelianGroup.trivial()
    if degree == 0:
        return AbelianGroup.elementary(2, 1)
    if degree == 1:
        return AbelianGroup.elementary(2, 2 if k % 2 else 1)
    if degree == 2:
        return AbelianGroup.elementary(2, 1 if k % 2 else 0)
    return AbelianGroup.trivial()


@dataclass(frozen=True)
class LGroupTable:
    """Quadratic L-groups in dimensions 0 and 1 mod 4, the symmetric
    L-group in dimension 0, and the Whitehead group."""

    l4: AbelianGroup
    l5: AbelianGroup
    l0_symmetric: AbelianGroup
    whitehead: AbelianGroup

    def to_json(self):
        return {"L4": self.l4.to_json(),
                "L5": self.l5.to_json(),
                "L0_symmetric": self.l0_symmetric.to_json(),
                "whitehead": self.whitehead.to_json()}


def lgroup_table(k):
    l4 = (AbelianGroup.free(1).direct_sum(AbelianGroup.cyclic(2))
          if k % 2 else AbelianGroup.free(1))
    l5 = AbelianGroup.free(1).direct_sum(AbelianGroup.cyclic(k - 1))
    return LGroupTable(l4, l5, AbelianGroup.free(1), AbelianGroup.trivial())


@dataclass(frozen=True)
class AssemblyStatus:
    """Rank-and-torsion comparison of the assembly-map domains
    (homology with L-theory coefficients) against the L-groups."""

    k: int
    degree4_domain: AbelianGroup
    degree4_codomain: AbelianGroup
    degree5_domain: AbelianGroup
    degree5_codomain: AbelianGroup
    consistent: bool

    def to_json(self):
        return {"k": self.k,
                "degree4": {"domain": self.degree4_domain.to_json(),
                            "codomain": self.degree4_codomain.to_json(),
                            "isomorphic":
                                self.degree4_domain == self.degree4_codomain},
                "degree5": {"domain": self.degree5_domain.to_json(),
                            "codomain": self.degree5_codomain.to_json(),
                            "isomorphic":
                                self.degree5_domain == self.degree5_codomain},
                "consistent": self.consistent}


def assembly_status(k, table):
    """Domains H0 + H2(;Z/2) against L4 and H1 against L5, for table
    = lgroup_table(k)."""
    dom4 = homology_closed_form(k, 0).direct_sum(
        homology_closed_form(k, 2, modulus=2))
    dom5 = homology_closed_form(k, 1)
    consistent = dom4 == table.l4 and dom5 == table.l5
    return AssemblyStatus(k, dom4, table.l4, dom5, table.l5, consistent)


@dataclass(frozen=True)
class BordismDescription:
    """Stable bordism group for a non-type-I normal 1-type: an index-8
    copy of Z detected by the signature, plus 2-torsion."""

    k: int
    w2: "W2Type"
    signature_multiple: int
    torsion: AbelianGroup

    def __str__(self):
        base = "%dZ" % self.signature_multiple
        if self.torsion.is_trivial():
            return base
        return base + " + " + str(self.torsion)

    def to_json(self):
        return {"k": self.k, "w2": self.w2.value,
                "signature_multiple": self.signature_multiple,
                "torsion": self.torsion.to_json()}


def stable_bordism_group(cx, w2):
    """8Z plus H2(B(k); Z/2), the latter computed from the Fox complex
    cx = foxchain.build_complex(k) rather than the closed form."""
    k = cx.k
    if not isinstance(w2, W2Type):
        raise SchemaError("w2 must be a W2Type")
    if w2 is W2Type.I:
        raise DescriptorError("type I has no such bordism description;"
                              " only types II and III do")
    if w2 is W2Type.III and k % 2 == 0:
        raise DescriptorError("type III requires odd k")
    d2, d1 = foxchain.tensor_trivial(cx)
    torsion = intlinalg.homology_of_complex(d2, d1, modulus=2)[2]
    return BordismDescription(k, w2, 8, torsion)


def ks_constraint(w2, sign, arf=None):
    """The Kirby-Siebenmann invariant that type, signature and Arf
    invariant force: sign/8 mod 2 for type II, sign/8 + Arf mod 2 for
    type III.  None means KS is free: always for type I, and for type
    III while the Arf invariant is unknown.  Even types need sign
    divisible by 8; otherwise InconsistentDescriptorError."""
    if not isinstance(w2, W2Type):
        raise SchemaError("w2 must be a W2Type")
    if arf not in (None, 0, 1):
        raise SchemaError("arf must be 0, 1 or None")
    if w2 is W2Type.I:
        return None
    if sign % 8:
        raise InconsistentDescriptorError(
            "an even form has signature divisible by 8")
    if w2 is W2Type.II:
        return (sign // 8) % 2
    if arf is None:
        return None
    return (sign // 8 + arf) % 2


class ManifoldDescriptor:
    """Invariant tuple of a closed oriented 4-manifold with fundamental
    group B(k): certificated intersection form, w2-type, and KS.

    Construction enforces realizability: type I needs an odd form,
    types II/III an even one, type III odd k, and a forced KS relation
    must hold.  ks may be None only for type III with unknown Arf."""

    __slots__ = ("k", "form", "w2", "ks", "parity", "signature")

    def __init__(self, k, form, w2, ks):
        if not isinstance(form, HermitianForm):
            raise SchemaError("form must be a HermitianForm")
        if not isinstance(w2, W2Type):
            raise SchemaError("w2 must be a W2Type")
        if form.k != k:
            raise GroupMismatchError(
                "descriptor k=%d but the form is over k=%d" % (k, form.k))
        if form.inverse is None:
            raise DescriptorError(
                "descriptor forms must carry a verified inverse")
        par = form.parity
        if w2 is W2Type.I and par is not Parity.ODD:
            raise InconsistentDescriptorError("type I requires an odd form")
        if w2 is not W2Type.I and par is not Parity.EVEN:
            raise InconsistentDescriptorError(
                "types II and III require an even form")
        if w2 is W2Type.III and k % 2 == 0:
            raise InconsistentDescriptorError("type III requires odd k")
        sign = form.signature
        arf = form.arf.value if form.arf is not None else None
        forced = ks_constraint(w2, sign, arf)
        if ks is None:
            if not (w2 is W2Type.III and form.arf is None):
                raise DescriptorError(
                    "ks may be omitted only for type III forms with"
                    " unknown Arf invariant")
        elif type(ks) is not int or ks not in (0, 1):
            raise DescriptorError("ks must be 0 or 1")
        elif forced is not None and ks != forced:
            raise InconsistentDescriptorError(
                "KS must be %d for this type and signature" % forced)
        self.k = k
        self.form = form
        self.w2 = w2
        self.ks = ks
        self.parity = par
        self.signature = sign

    def invariant_snapshot(self):
        return {"w2": self.w2.value, "ks": self.ks,
                "rank": self.form.rank, "parity": self.parity.value,
                "signature": self.signature}

    def to_json(self, entry=None):
        """The descriptor document; entry writes the form's entries
        (see HermitianForm.to_json)."""
        return {"k": self.k, "form": self.form.to_json(entry),
                "w2": self.w2.value, "ks": self.ks}

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict) or set(doc) != {"k", "form", "w2", "ks"}:
            raise SchemaError(
                "descriptor needs exactly 'k', 'form', 'w2' and 'ks'")
        k = _json_k(doc, "descriptor k must be an integer")
        try:
            w2 = W2Type(doc["w2"])
        except ValueError:
            raise SchemaError("w2 must be 'I', 'II' or 'III'") from None
        ks = doc["ks"]
        if ks is not None and (type(ks) is not int or ks not in (0, 1)):
            raise SchemaError("ks must be 0, 1 or null")
        return cls(k, HermitianForm.from_json(doc["form"]), w2, ks)


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str
    reasons: tuple
    invariants: dict

    def to_json(self):
        return {"verdict": self.verdict, "reasons": list(self.reasons),
                "invariants": self.invariants}


_INVARIANT_NAMES = {"w2": "w2 type", "ks": "Kirby-Siebenmann invariant"}


def classify(d1, d2, isometry=None):
    """Three-valued homeomorphism test.

    NotHomeomorphic when a necessary invariant (w2-type, KS, rank,
    parity, augmented signature) differs; Homeomorphic when all agree
    and a supplied isometry certificate verifies; Unknown otherwise.
    No isometry search is attempted."""
    if not isinstance(d1, ManifoldDescriptor) \
            or not isinstance(d2, ManifoldDescriptor):
        raise SchemaError("classify takes two manifold descriptors")
    if d1.k != d2.k:
        raise GroupMismatchError("descriptors are over different k")
    first, second = d1.invariant_snapshot(), d2.invariant_snapshot()
    invariants = {"first": first, "second": second}
    # One reason per differing invariant, in snapshot order; an unknown
    # ks (None) differs from nothing.
    reasons = []
    for name, a in first.items():
        b = second[name]
        if a != b and a is not None and b is not None:
            reasons.append("%s differs: %s vs %s"
                           % (_INVARIANT_NAMES.get(name, name), a, b))
    if reasons:
        return ClassifyResult("NotHomeomorphic", tuple(reasons), invariants)
    ks_known = d1.ks is not None and d2.ks is not None
    if isometry is None:
        return ClassifyResult(
            "Unknown", ("no isometry certificate supplied",), invariants)
    try:
        ok = hermform.verify_isometry(d1.form, d2.form, isometry)
    except hermform.CertificateError as exc:
        return ClassifyResult(
            "Unknown", ("isometry certificate is unusable: %s" % exc,),
            invariants)
    if not ok:
        return ClassifyResult(
            "Unknown", ("isometry certificate does not verify",), invariants)
    if not ks_known:
        return ClassifyResult(
            "Unknown",
            ("forms are isometric but the Kirby-Siebenmann invariant is"
             " undetermined",), invariants)
    return ClassifyResult(
        "Homeomorphic",
        ("all invariants agree and the isometry certificate verifies",),
        invariants)


def realize(k, form):
    """Descriptors of the manifolds carrying a given certificated
    form: two for odd forms (KS free), one for even forms when k is
    even (type II), two when k is odd (types II and III).  Every
    descriptor runs the constructor's realizability checks; the parity
    and the augmented signature are computed once, by the first reads
    of form.parity and form.signature, and kept on the form."""
    if not isinstance(form, HermitianForm):
        raise SchemaError("realize takes a HermitianForm")
    if form.k != k:
        raise GroupMismatchError(
            "realize called with k=%d but the form is over k=%d"
            % (k, form.k))
    if form.inverse is None:
        raise DescriptorError("realize requires a verified inverse")
    if form.parity is Parity.ODD:
        return [ManifoldDescriptor(k, form, W2Type.I, ks) for ks in (0, 1)]
    arf = form.arf.value if form.arf is not None else None
    # An even form with an inverse augments to an even unimodular
    # lattice, so 8 divides its signature; were it not, ks_constraint
    # would raise InconsistentDescriptorError here.
    types = (W2Type.II, W2Type.III) if k % 2 else (W2Type.II,)
    return [ManifoldDescriptor(
                k, form, w2, ks_constraint(w2, form.signature, arf))
            for w2 in types]

