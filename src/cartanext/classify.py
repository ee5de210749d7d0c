"""Existence deciders and constructive verification of structure rows.

Existence is decided constructively: a verdict of EXISTS always carries a
witness extension that passes validation, NOT_EXISTS is emitted only from
decidable linear or commutant criteria, and everything else is UNDECIDED.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import bases
from .catalog import (
    GradedAlgebra,
    SymmetricPair,
    build_graded,
    factor_decomposition,
    isotropy_rep,
    restricted_killing,
)
from .errors import InputError, InternalCheckError
from .extension import (
    Extension,
    curvature,
    is_flat,
    solve_projective_b2,
    torsion_free,
    validate,
)
from .lie import commutant, invariant_bilinear_forms, is_semisimple, split_idempotents
from .linalg import ONE, ZERO, Mat, SpanSolver, invert, solve_linear

EXISTS = "EXISTS"
NOT_EXISTS = "NOT_EXISTS"
UNDECIDED = "UNDECIDED"


@dataclass
class ExistenceVerdict:
    pair_name: str
    family: str
    verdict: str
    reason: str = ""
    witness: Optional[Extension] = None
    conjugate_witness: Optional[Extension] = None
    equivalence: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    witness_data: Optional[dict] = None  # non-extension evidence (conformal form space)
    complex_structure: Optional[Mat] = None  # the J behind an h-projective witness

    def __post_init__(self):
        if self.verdict == EXISTS and self.witness is None and self.witness_data is None:
            raise InternalCheckError("EXISTS verdicts must carry a witness")


# ---------------------------------------------------------------------------
# Standard witnesses
# ---------------------------------------------------------------------------


def g0_action_solver(target: GradedAlgebra) -> Mat:
    """Matrix of the map g_0 -> gl(g_-1) given by the bracket action.

    Read from the structure-constant table: the column of X_z holds the
    entries of [X_z, X_m] = table[z][m] for X_m in g_-1, flattened row-major
    as an n x n block.
    """
    table = target.algebra.constants.table
    n, width = target.dim_gm1, len(target.zero)
    local = {m: a for a, m in enumerate(target.minus_one)}
    entries = [ZERO] * (n * n * width)
    for c, z in enumerate(target.zero):
        for b, m in enumerate(target.minus_one):
            for t, v in table[z][m].items():
                if t in local:
                    entries[(local[t] * n + b) * width + c] = v
    return Mat(n * n, width, entries)


def standard_witness(pair: SymmetricPair, target: GradedAlgebra,
                     frame: Optional[Mat] = None, label: str = "") -> Extension:
    """Grading-shaped extension: isotropy into g_0 through a frame, zero b2 part.

    The g_0 coordinates of each alpha(h) are solved exactly from the
    requirement that its bracket action on g_-1 matches the framed isotropy
    action; the no-ideal condition makes that solution unique.  All h-elements
    are solved in one elimination, one right-hand column each.
    """
    n = pair.dim_m
    if n != target.dim_gm1:
        raise InputError("frame dimensions do not match")
    frame = frame or Mat.identity(n)
    frame_inv = invert(frame)
    rep = isotropy_rep(pair)
    framed = [(frame @ a @ frame_inv).entries for a in rep.action]
    sol = solve_linear(g0_action_solver(target), Mat.from_columns(framed, n * n))
    if sol is None:
        raise InputError(
            "isotropy action does not land in the grading-preserving block"
        )
    if sol.kernel:
        raise InternalCheckError("g_0 action map is not injective; target not effective")
    alpha_rows = [[ZERO] * pair.dim for _ in range(target.dim)]
    for pos, h_idx in enumerate(pair.h_indices):
        for local, z in enumerate(target.zero):
            alpha_rows[z][h_idx] = sol.particular[local, pos]
    for local, m_idx in enumerate(pair.m_indices):
        col = frame.col(local)
        for r, v in enumerate(col):
            if v != 0:
                alpha_rows[target.minus_one[r]][m_idx] = v
    return Extension(pair, target, Mat.from_rows(alpha_rows), label)


def inclusion_witness(pair: SymmetricPair, target: GradedAlgebra,
                      conjugator: Optional[Mat] = None, label: str = "") -> Extension:
    """Extension given by an ambient (possibly conjugated) subalgebra inclusion."""
    if pair.k_algebra.ambient_size != target.algebra.ambient_size:
        raise InputError("ambient sizes differ; inclusion witness impossible")
    cols = []
    inv = invert(conjugator) if conjugator is not None else None
    for b in pair.k_algebra.basis:
        image = inv @ b @ conjugator if conjugator is not None else b
        coords = target.algebra.coordinates(image)
        if coords is None:
            raise InputError("pair algebra does not embed into the target span")
        cols.append(coords)
    alpha = Mat.from_columns(cols, target.dim)
    return Extension(pair, target, alpha, label)


def coordinate_complex_structure(target: GradedAlgebra) -> Mat:
    """Multiplication by i as a coordinate operator on a realified target."""
    if target.ambient_J is None:
        raise InputError("target has no ambient complex structure")
    cols = []
    for b in target.algebra.basis:
        coords = target.algebra.coordinates(target.ambient_J @ b)
        if coords is None:
            raise InternalCheckError("ambient J does not preserve the target span")
        cols.append(coords)
    return Mat.from_columns(cols, target.dim)


# ---------------------------------------------------------------------------
# Projective structures
# ---------------------------------------------------------------------------


def decide_projective(pair: SymmetricPair) -> ExistenceVerdict:
    """Every semisimple pair carries a unique projective structure."""
    if not is_semisimple(pair.k_algebra):
        return ExistenceVerdict(pair.name, "projective", UNDECIDED,
                                "pair is not semisimple")
    n = pair.dim_m
    target = build_graded("projective", {"n": n})
    witness = standard_witness(pair, target, label=f"{pair.name}->projective")
    report = validate(witness)
    if not report.passed:
        raise InternalCheckError(f"projective witness failed axioms {report.failed_axioms()}")
    kappa = None
    if n >= 2:
        b2 = solve_projective_b2(witness)
        witness, kappa = b2.extension, b2.kappa
        if not b2.homogeneous_kernel_trivial:
            raise InternalCheckError("projective b2 was not unique")
    if not torsion_free(witness, kappa):
        raise InternalCheckError("projective witness has torsion")
    return ExistenceVerdict(
        pair.name, "projective", EXISTS, "semisimple pair", witness,
        equivalence={"classes": "unique"},
    )


# ---------------------------------------------------------------------------
# Conformal structures
# ---------------------------------------------------------------------------


@dataclass
class ConformalReport:
    verdict: ExistenceVerdict
    form_space_dim: int
    factor_form_dims: list
    cross_blocks_zero: bool
    killing_is_member: bool
    signatures: list
    circle_parameters: int


def _signature_sum(parts: list) -> tuple:
    p = sum(x[0] for x in parts)
    q = sum(x[1] for x in parts)
    return (p, q)


# `seed` is unused; perfbench/child.py still passes it.
def decide_conformal(pair: SymmetricPair, seed: int = 0) -> ConformalReport:
    """Invariant metrics factor-by-factor: one real ray per generic factor,
    a complex line when the factor's Killing form is complex linear."""
    if not is_semisimple(pair.k_algebra):
        verdict = ExistenceVerdict(pair.name, "conformal", UNDECIDED, "not semisimple")
        return ConformalReport(verdict, 0, [], False, False, [], 0)
    factors = factor_decomposition(pair)
    rep = isotropy_rep(pair)
    forms = invariant_bilinear_forms(rep, "symmetric")
    factor_dims = []
    factor_signatures = []
    circle = 0
    for f in factors:
        frep = isotropy_rep(f.pair)
        ffor = invariant_bilinear_forms(frep, "symmetric")
        factor_dims.append(len(ffor))
        if len(ffor) == 2:
            circle += 1
        gram, sig = restricted_killing(f.pair)
        factor_signatures.append((sig.positive, sig.negative))
    cross_zero = True
    for i in range(len(factors)):
        for j in range(len(factors)):
            if i == j:
                continue
            ui, uj = factors[i].m_embedding, factors[j].m_embedding
            for g in forms:
                if not (ui.transpose() @ g @ uj).is_zero():
                    cross_zero = False
    gram, _sig = restricted_killing(pair)
    span = SpanSolver(pair.dim_m ** 2)
    for g in forms:
        span.insert(g.entries)
    member = span.contains(gram.entries)
    menu = set()
    real_positions = [i for i, d in enumerate(factor_dims) if d != 2]
    for mask in range(1 << len(real_positions)):
        parts = []
        for i, sig in enumerate(factor_signatures):
            if factor_dims[i] == 2:
                d = sig[0] + sig[1]
                parts.append((d // 2, d // 2))
            else:
                flip = bool(mask & (1 << real_positions.index(i)))
                parts.append((sig[1], sig[0]) if flip else sig)
        menu.add(_signature_sum(parts))
    verdict = ExistenceVerdict(
        pair.name, "conformal", EXISTS, "Killing form restricts nondegenerately",
        equivalence={
            "classes": "per-factor sign choices and circle parameters",
            "sign_choices": len(real_positions),
            "circle_parameters": circle,
        },
        witness_data={
            "kind": "invariant-form-space",
            "dimension": len(forms),
            "signatures": sorted(menu),
        },
    )
    return ConformalReport(
        verdict, len(forms), factor_dims, cross_zero, member,
        sorted(menu), circle,
    )


# ---------------------------------------------------------------------------
# H-projective structures
# ---------------------------------------------------------------------------


def _centroid_complex_structures(pair: SymmetricPair):
    """All coordinate J with J^2 = -1 in the centroid, split by factor.

    Returns (status, list of J matrices); status "none" certifies that no
    invariant complex structure exists at all.
    """
    from .lie import _factor_generator, _SpanAlgebra, _square_roots_of_minus_unit, commutant_basis

    centroid = commutant_basis(pair.k_algebra.adjoint_representation())
    projs = split_idempotents(centroid)
    if projs is None:
        return ("undecided", [])
    alg = _SpanAlgebra([Mat.identity(centroid[0].rows)] + centroid)
    partial = []
    for p in projs:
        gen = _factor_generator(p, centroid)
        if gen is None:
            # one-dimensional (real) factor: no complex structure on it
            return ("none", [])
        sols = _square_roots_of_minus_unit(p, gen, alg)
        if not sols:
            return ("undecided", [])
        partial.append(sols[0])
    out = []
    for mask in range(1 << len(partial)):
        j = Mat.zero(partial[0].rows, partial[0].cols)
        for i, jp in enumerate(partial):
            j = j + (jp if mask & (1 << i) else -jp)
        out.append(j)
    return ("decided", out)


def _preserves_span(j: Mat, indices: list, dim: int) -> bool:
    span = SpanSolver(dim)
    for i in indices:
        e = [ZERO] * dim
        e[i] = ONE
        span.insert(e)
    for i in indices:
        if not span.contains(j.col(i)):
            return False
    return True


def complex_adapted_frame(pair: SymmetricPair, j_pair: Mat) -> Mat:
    """Frame m -> g_-1 sending a J-adapted basis to the elementary complex
    coordinate pairs of a realified target."""
    dim_m = pair.dim_m
    j_m = j_pair.submatrix(pair.m_indices, pair.m_indices)
    span = SpanSolver(dim_m)
    cols = []
    for c in range(dim_m):
        e = [ZERO] * dim_m
        e[c] = ONE
        if span.contains(e):
            continue
        je = j_m.col(c)
        span.insert(e)
        if not span.insert(je):
            raise InternalCheckError("J-adapted basis extraction failed")
        cols.append(e)
        cols.append(je)
    adapted = Mat.from_columns(cols, dim_m)
    return invert(adapted)


# `seed` is unused; perfbench/child.py still passes it.
def decide_h_projective(pair: SymmetricPair, seed: int = 0) -> ExistenceVerdict:
    """Exists iff the centroid carries a complex structure preserving the
    fixed subalgebra; the two conjugate witnesses come from J and -J."""
    if not is_semisimple(pair.k_algebra):
        return ExistenceVerdict(pair.name, "h_projective", UNDECIDED, "not semisimple")
    status, js = _centroid_complex_structures(pair)
    if status == "none":
        return ExistenceVerdict(pair.name, "h_projective", NOT_EXISTS,
                                "a simple factor has real centroid")
    if status == "undecided":
        return ExistenceVerdict(pair.name, "h_projective", UNDECIDED,
                                "centroid complex structure not rational in this basis")
    dim = pair.dim
    good = [j for j in js if _preserves_span(j, pair.h_indices, dim)
            and _preserves_span(j, pair.m_indices, dim)]
    if not good:
        return ExistenceVerdict(pair.name, "h_projective", NOT_EXISTS,
                                "no invariant complex structure preserves the subalgebra")
    j = good[0]
    if pair.dim_m % 2:
        return ExistenceVerdict(pair.name, "h_projective", NOT_EXISTS,
                                "odd-dimensional tangent model admits no complex structure")
    n_c = pair.dim_m // 2
    target = build_graded("h_projective", {"n": n_c})
    witnesses = []
    for jj in (j, -j):
        frame = complex_adapted_frame(pair, jj)
        w = standard_witness(pair, target, frame, label=f"{pair.name}->h_projective")
        report = validate(w)
        if not report.passed:
            raise InternalCheckError(f"h-projective witness failed {report.failed_axioms()}")
        witnesses.append(w)
    return ExistenceVerdict(
        pair.name, "h_projective", EXISTS,
        "invariant complex structure found", witnesses[0],
        conjugate_witness=witnesses[1],
        equivalence={"classes": "two conjugate classes", "pair": "{J, -J}"},
        certificates=[{"complex_structures": len(good)}],
        complex_structure=j,
    )


# ---------------------------------------------------------------------------
# Structure rows verified by explicit inclusions
# ---------------------------------------------------------------------------


def _span_algebra_closure(mats: list, cap: int = 6) -> list:
    """Closure of span(mats) under matrix products (small algebras only)."""
    d = mats[0].rows
    span = SpanSolver(d * d)
    basis = []
    for m in mats:
        if span.insert(m.entries):
            basis.append(m)
    frontier = list(basis)
    while frontier and len(basis) <= cap:
        new = []
        for a in basis:
            for b in frontier:
                for prod in (a @ b, b @ a):
                    if span.insert(prod.entries):
                        new.append(prod)
                        basis.append(prod)
        frontier = new
    return basis


def quaternion_relation_certificate(pair: SymmetricPair) -> dict:
    """Exact product relations for the designated 3-dimensional ideal acting
    on the (-1)-eigenspace: quaternion relations for sp(1), split-quaternion
    relations for sl(2,R)."""
    cert = pair.certificate_ideal
    if not cert:
        raise InputError("pair carries no designated certificate ideal")
    rep = isotropy_rep(pair)
    d = pair.dim_m
    identity = Mat.identity(d)
    if cert["type"] == "quaternion":
        u1 = rep.action[cert["I"]]
        u2 = rep.action[cert["J"]]
        u3 = rep.action[cert["K"]]
        squares = (-1, -1, -1)
    else:
        sh = rep.action[cert["H"]]
        se = rep.action[cert["E"]]
        sf = rep.action[cert["F"]]
        u1, u2, u3 = sh, se + sf, se - sf
        squares = (1, 1, -1)
    relations = []
    for u, s in zip((u1, u2, u3), squares):
        relations.append(u @ u == identity.scale(s))
    anti = [
        u1 @ u2 == -(u2 @ u1),
        u1 @ u3 == -(u3 @ u1),
        u2 @ u3 == -(u3 @ u2),
    ]
    product = u1 @ u2
    aligned = product == u3 or product == -u3
    algebra = _span_algebra_closure([identity, u1, u2, u3])
    ok = all(relations) and all(anti) and aligned and len(algebra) == 4
    if not ok:
        return {
            "type": cert["type"], "verified": False,
            "squares": [bool(r) for r in relations],
            "anticommute": [bool(a) for a in anti],
            "product_aligned": bool(aligned),
            "algebra_dim": len(algebra),
        }
    return {"type": cert["type"], "verified": True, "algebra_dim": 4}


def _row_grassmannian_so(pair: SymmetricPair) -> Extension:
    p = pair.params
    t = build_graded("grassmannian", {"p": p["a"] + p["c"], "q": p["b"] + p["d"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->grassmannian")


def _row_grassmannian_sp(pair: SymmetricPair) -> Extension:
    p = pair.params
    t = build_graded("grassmannian", {"p": 2 * p["p"], "q": 2 * p["q"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->grassmannian")


def _row_para_quaternionic_sp(pair: SymmetricPair) -> Extension:
    p = pair.params
    if p["p"] != 1:
        raise InputError("para-quaternionic witness needs the sp(2,R) factor first")
    t = build_graded("para_quaternionic", {"n": 2 * p["q"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->para_quaternionic")


def _row_para_quaternionic_so(pair: SymmetricPair) -> Extension:
    p = pair.params
    if p["a"] + p["c"] != 2:
        raise InputError("para-quaternionic rows need a rank-2 first block")
    t = build_graded("para_quaternionic", {"n": p["b"] + p["d"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->para_quaternionic")


def _row_para_quaternionic_conformal(pair: SymmetricPair) -> Extension:
    k, l = pair.params["k"], pair.params["l"]
    n = k + l
    t = build_graded("para_quaternionic", {"n": n})
    amb = n + 2
    perm = [ZERO] * (amb * amb)
    order = [0, amb - 1] + [1 + i for i in range(n)]
    for new, old in enumerate(order):
        perm[old * amb + new] = ONE
    u = Mat(amb, amb, perm)
    return inclusion_witness(pair, t, conjugator=u, label=f"{pair.name}->para_quaternionic")


def _row_quaternionic_so_star(pair: SymmetricPair) -> Extension:
    t = build_graded("quaternionic", {"n": pair.params["n"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->quaternionic")


def _row_quaternionic_sp1(pair: SymmetricPair) -> Extension:
    p = pair.params
    t = build_graded("quaternionic", {"n": p["p"] + p["q"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->quaternionic")


def _row_lagrangean_group(pair: SymmetricPair) -> Extension:
    base = pair.params["base"]
    if not base.startswith("sp("):
        raise InputError("Lagrangean rows need a symplectic group-type pair")
    size = int(base.split("(")[1].split(",")[0])
    nb = size // 2
    t = build_graded("lagrangean", {"n": size})
    omega = _split_omega(nb)
    amb = 2 * size

    def phi(a: Mat, b: Mat) -> Mat:
        s = (a + b).scale(Fraction(1, 2))
        d = (a - b).scale(Fraction(1, 2))
        tl = s
        tr = (d @ omega).scale(Fraction(-1, 2))
        bl = (omega @ d).scale(2)
        br = (omega @ s @ omega).scale(-1)
        return _four_block(tl, tr, bl, br)

    return _mapped_witness(pair, t, phi, size, f"{pair.name}->lagrangean")


def _row_spinorial_group(pair: SymmetricPair) -> Extension:
    base = pair.params["base"]
    if not base.startswith("so("):
        raise InputError("spinorial rows need an orthogonal group-type pair")
    args = base.split("(")[1].rstrip(")").split(",")
    p = int(args[0])
    q = int(args[1]) if len(args) > 1 else 0
    n = p + q
    t = build_graded("spinorial", {"n": n})
    signs = Mat.diag([1] * p + [-1] * q)

    def phi(a: Mat, b: Mat) -> Mat:
        s = (a + b).scale(Fraction(1, 2))
        d = (a - b).scale(Fraction(1, 2))
        tl = s
        tr = (d @ signs).scale(Fraction(1, 2))
        bl = (signs @ d).scale(2)
        br = signs @ s @ signs
        return _four_block(tl, tr, bl, br)

    return _mapped_witness(pair, t, phi, n, f"{pair.name}->spinorial")


def _row_su_pp_so_complex(pair: SymmetricPair) -> Extension:
    n = pair.params["n"]
    t = build_graded("su_pp", {"p": n})
    half = Fraction(1, 2)
    re_w = _four_block(Mat.identity(n), Mat.zero(n, n), Mat.zero(n, n),
                       Mat.identity(n).scale(half))
    im_w = _four_block(Mat.zero(n, n), Mat.identity(n).scale(-half),
                       Mat.identity(n).scale(-1), Mat.zero(n, n))
    w = bases.realify_complex(re_w, im_w)
    w_inv = invert(w)
    cols = []
    zero = Mat.zero(2 * n, 2 * n)
    for b in pair.k_algebra.basis:
        image = w_inv @ bases.realify_complex(b, zero) @ w
        coords = t.algebra.coordinates(image)
        if coords is None:
            raise InternalCheckError("complexified element escapes the su(p,p) span")
        cols.append(coords)
    alpha = Mat.from_columns(cols, t.dim)
    return Extension(pair, t, alpha, f"{pair.name}->su_pp")


def _split_omega(n: int) -> Mat:
    entries = [ZERO] * (4 * n * n)
    for i in range(n):
        entries[i * 2 * n + n + i] = ONE
        entries[(n + i) * 2 * n + i] = -ONE
    return Mat(2 * n, 2 * n, entries)


def _four_block(tl: Mat, tr: Mat, bl: Mat, br: Mat) -> Mat:
    n = tl.rows
    out = [ZERO] * (4 * n * n)
    width = 2 * n
    for i in range(n):
        for j in range(n):
            out[i * width + j] = tl[i, j]
            out[i * width + n + j] = tr[i, j]
            out[(n + i) * width + j] = bl[i, j]
            out[(n + i) * width + n + j] = br[i, j]
    return Mat(width, width, out)


def _mapped_witness(pair: SymmetricPair, target: GradedAlgebra,
                    phi: Callable[[Mat, Mat], Mat], half: int, label: str) -> Extension:
    cols = []
    for mat in pair.k_algebra.basis:
        a = mat.submatrix(range(half), range(half))
        b = mat.submatrix(range(half, 2 * half), range(half, 2 * half))
        coords = target.algebra.coordinates(phi(a, b))
        if coords is None:
            raise InternalCheckError("mapped element escapes the target span")
        cols.append(coords)
    alpha = Mat.from_columns(cols, target.dim)
    return Extension(pair, target, alpha, label)


_ROW_BUILDERS = {
    ("grassmannian", "so_block"): _row_grassmannian_so,
    ("grassmannian", "sp_block"): _row_grassmannian_sp,
    ("para_quaternionic", "sp_block"): _row_para_quaternionic_sp,
    ("para_quaternionic", "so_block"): _row_para_quaternionic_so,
    ("para_quaternionic", "conformal_model"): _row_para_quaternionic_conformal,
    ("quaternionic", "so_star"): _row_quaternionic_so_star,
    ("quaternionic", "sp1_block"): _row_quaternionic_sp1,
    ("lagrangean", "group_type"): _row_lagrangean_group,
    ("spinorial", "group_type"): _row_spinorial_group,
    ("su_pp", "so_complex"): _row_su_pp_so_complex,
}

FLAT_ROW_KEYS = tuple(sorted(_ROW_BUILDERS))


def verify_family_row(family: str, pair: SymmetricPair) -> ExistenceVerdict:
    """Build the row's natural witness and machine-check its properties."""
    key = (family, pair.family)
    builder = _ROW_BUILDERS.get(key)
    if builder is None:
        return ExistenceVerdict(pair.name, family, UNDECIDED,
                                f"no witness construction registered for {key}")
    try:
        witness = builder(pair)
    except InputError as exc:
        return ExistenceVerdict(pair.name, family, UNDECIDED, f"rank bound: {exc}")
    report = validate(witness)
    if not report.passed:
        return ExistenceVerdict(pair.name, family, NOT_EXISTS,
                                f"witness violates axioms {report.failed_axioms()}")
    kappa = curvature(witness)
    certificates = []
    if family in ("quaternionic", "para_quaternionic") and pair.certificate_ideal:
        cert = quaternion_relation_certificate(pair)
        certificates.append(cert)
        if not cert["verified"]:
            return ExistenceVerdict(pair.name, family, NOT_EXISTS,
                                    "quaternion relations failed", certificates=certificates)
    if not torsion_free(witness, kappa):
        raise InternalCheckError("row witness has torsion; construction bug")
    flat = is_flat(witness, kappa)
    return ExistenceVerdict(
        pair.name, family, EXISTS,
        "flat inclusion witness" if flat else "torsion-free witness",
        witness,
        equivalence={"classes": "unique"},
        certificates=certificates + [{"flat": flat}],
    )


# ---------------------------------------------------------------------------
# Centralizer reports
# ---------------------------------------------------------------------------


@dataclass
class CentralizerReport:
    pair_name: str
    factor_labels: list
    total_dim: int
    product_structure_verified: bool

    @property
    def labels_in_contract(self) -> bool:
        return all(l in ("R", "C", "RxR", "CxC") for l in self.factor_labels)


# `seed` is unused; perfbench/child.py still passes it.
def centralizer_report(pair: SymmetricPair, seed: int = 0) -> CentralizerReport:
    """Per-factor commutant labels plus the product-structure check."""
    factors = factor_decomposition(pair)
    labels = []
    dims = []
    for f in factors:
        cls = commutant(isotropy_rep(f.pair))
        labels.append(cls.label)
        dims.append(cls.dim)
    full = commutant(isotropy_rep(pair))
    ok = full.dim == sum(dims)
    if ok:
        for t in full.commutant_basis:
            for f in factors:
                u = f.m_embedding
                image = t @ u
                span = SpanSolver(pair.dim_m)
                for c in range(u.cols):
                    span.insert(u.col(c))
                for c in range(image.cols):
                    if not span.contains(image.col(c)):
                        ok = False
    if not ok:
        raise InternalCheckError(
            f"{pair.name}: commutant is not the product of factor commutants"
        )
    return CentralizerReport(pair.name, labels, full.dim, ok)
