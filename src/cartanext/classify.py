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
    centroid,
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
from .lie import commutant, factor_complex_structure, invariant_bilinear_forms, is_semisimple
from .linalg import Mat, SpanSolver, block_matrix, invert, solve_linear

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
    data: dict = {}
    for c, z in enumerate(target.zero):
        for b, m in enumerate(target.minus_one):
            for t, v in table[z][m].items():
                if t in local:
                    data.setdefault(local[t] * n + b, {})[c] = v
    return Mat.from_sparse(n * n, width, data)


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
    rep = isotropy_rep(pair)
    if frame is None:
        frame, framed = Mat.identity(n), [a.flat() for a in rep.action]
    else:
        frame_inv = invert(frame)
        framed = [(frame @ a @ frame_inv).flat() for a in rep.action]
    rhs = Mat.from_sparse(len(framed), n * n, dict(enumerate(framed))).transpose()
    sol = solve_linear(g0_action_solver(target), rhs)
    if sol is None:
        raise InputError(
            "isotropy action does not land in the grading-preserving block"
        )
    if sol.kernel:
        raise InternalCheckError("g_0 action map is not injective; target not effective")
    # alpha: the solved g_0 block on the h columns, the frame on the m columns
    alpha = {}
    for blocks, rows, cols in ((sol.particular, target.zero, pair.h_indices),
                               (frame, target.minus_one, pair.m_indices)):
        for r, row in blocks.sparse.items():
            alpha[rows[r]] = {cols[c]: v for c, v in row.items()}
    return Extension(pair, target, Mat.from_sparse(target.dim, pair.dim, alpha), label)


def inclusion_witness(pair: SymmetricPair, target: GradedAlgebra,
                      conjugator: Optional[Mat] = None, label: str = "") -> Extension:
    """Extension given by an ambient (possibly conjugated) subalgebra inclusion."""
    if pair.k_algebra.ambient_size != target.algebra.ambient_size:
        raise InputError("ambient sizes differ; inclusion witness impossible")
    images = pair.k_algebra.basis
    if conjugator is not None:
        inv = invert(conjugator)
        images = (inv @ b @ conjugator for b in images)
    alpha = target.algebra.coordinate_matrix(images)
    if alpha is None:
        raise InputError("pair algebra does not embed into the target span")
    return Extension(pair, target, alpha, label)


def coordinate_complex_structure(target: GradedAlgebra) -> Mat:
    """Multiplication by i as a coordinate operator on a realified target."""
    if target.ambient_J is None:
        raise InputError("target has no ambient complex structure")
    j = target.algebra.coordinate_matrix(target.ambient_J @ b for b in target.algebra.basis)
    if j is None:
        raise InternalCheckError("ambient J does not preserve the target span")
    return j


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
    gram, whole = restricted_killing(pair)
    factor_dims = []
    factor_signatures = []
    circle = 0
    for f in factors:  # a simple pair is its own factor: its forms and signature are the pair's
        ffor = forms if f.pair is pair else invariant_bilinear_forms(
            isotropy_rep(f.pair), "symmetric")
        factor_dims.append(len(ffor))
        if len(ffor) == 2:
            circle += 1
        sig = whole if f.pair is pair else restricted_killing(f.pair)[1]
        factor_signatures.append((sig.positive, sig.negative))
    # A theorem check, kept for `cross_blocks_zero`: each factor's k_j is
    # semisimple, so k_j = [k_j, k_j] and m_j = [h_j, m_j]; an invariant g
    # then gives g(m_i, [h_j, m_j]) = -g([h_j, m_i], m_j) = 0 for i != j.
    cross_zero = True
    for i in range(len(factors)):
        for j in range(len(factors)):
            if i == j:
                continue
            ui, uj = factors[i].m_embedding, factors[j].m_embedding
            for g in forms:
                if not (ui.transpose() @ g @ uj).is_zero():
                    cross_zero = False
    span = SpanSolver(pair.dim_m ** 2)
    for g in forms:
        span.insert(g.flat())
    member = span.contains(gram.flat())
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
    invariant complex structure exists at all.  Each J is a sum of +-J_p
    with J_p^2 = -p over the primitive idempotents p, which are orthogonal
    and sum to I, so J^2 = -I.
    """
    basis, projs = centroid(pair)
    partial = []
    for p in projs:
        status, j = factor_complex_structure(p, basis)
        if j is None:  # "none" (a real factor) or "undecided"
            return (status, [])
        partial.append(j)
    out = []
    for mask in range(1 << len(partial)):
        j = Mat.zero(partial[0].rows, partial[0].cols)
        for i, jp in enumerate(partial):
            j = j + (jp if mask & (1 << i) else -jp)
        out.append(j)
    return ("decided", out)


def _preserves_h_and_m(j: Mat, pair: SymmetricPair) -> bool:
    """Whether J maps h into h and m into m: no entry links an h and an m index."""
    h = frozenset(pair.h_indices)
    return all((r in h) == (c in h) for r, row in j.sparse.items() for c in row)


def complex_adapted_frame(pair: SymmetricPair, j_pair: Mat) -> Mat:
    """Frame m -> g_-1 sending a J-adapted basis to the elementary complex
    coordinate pairs of a realified target."""
    dim_m = pair.dim_m
    j_cols = j_pair.submatrix(pair.m_indices, pair.m_indices).transpose().sparse
    span = SpanSolver(dim_m)
    cols = []
    for c in range(dim_m):
        e = {c: 1}
        if span.contains(e):
            continue
        je = j_cols.get(c, {})
        span.insert(e)
        if not span.insert(je):
            raise InternalCheckError("J-adapted basis extraction failed")
        cols.append(e)
        cols.append(je)
    return invert(Mat.from_sparse(len(cols), dim_m, dict(enumerate(cols))).transpose())


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
    good = [j for j in js if _preserves_h_and_m(j, pair)]
    if not good:
        return ExistenceVerdict(pair.name, "h_projective", NOT_EXISTS,
                                "no invariant complex structure preserves the subalgebra")
    # J^2 = -I and J maps m to m, so dim m is even
    j = good[0]
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


def quaternion_relation_certificate(pair: SymmetricPair) -> dict:
    """Exact product relations for the designated 3-dimensional ideal acting
    on the (-1)-eigenspace: quaternion relations for sp(1), split-quaternion
    relations for sl(2,R).

    The relations u_i^2 = +-I, u_i u_j = -u_j u_i and u_1 u_2 = +-u_3 make
    span{I, u_1, u_2, u_3} closed under products and, for dim m >= 1 (the
    row witness's invertible frame gives it), 4-dimensional: conjugation
    by u_1 fixes I and u_1 and negates u_2 and u_3, so a relation among the
    four splits into a I + b u_1 = 0 and c u_2 + d u_3 = 0, and u_1 and
    u_2 u_3 = +-u_1 are not scalars, as each anticommutes with an
    invertible u_2.  So the relations alone verify the algebra; a failed
    certificate reports the rank of the four matrices.
    """
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
    if not (all(relations) and all(anti) and aligned):
        span = SpanSolver(d * d)
        return {
            "type": cert["type"], "verified": False,
            "squares": relations,
            "anticommute": anti,
            "product_aligned": aligned,
            "rank": sum(span.insert(u.flat()) for u in (identity, u1, u2, u3)),
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
    order = [0, amb - 1] + [1 + i for i in range(n)]
    u = Mat.from_sparse(amb, amb, {old: {new: 1} for new, old in enumerate(order)})
    return inclusion_witness(pair, t, conjugator=u, label=f"{pair.name}->para_quaternionic")


def _row_quaternionic_so_star(pair: SymmetricPair) -> Extension:
    t = build_graded("quaternionic", {"n": pair.params["n"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->quaternionic")


def _row_quaternionic_sp1(pair: SymmetricPair) -> Extension:
    p = pair.params
    t = build_graded("quaternionic", {"n": p["p"] + p["q"]})
    return inclusion_witness(pair, t, label=f"{pair.name}->quaternionic")


def _row_lagrangean_group(pair: SymmetricPair) -> Extension:
    _size, _build, ints, _name, key = bases._read_token(pair.params["base"])
    if key != ("sp", "R"):
        raise InputError("Lagrangean rows need a symplectic group-type pair")
    return _group_row(pair, build_graded("lagrangean", {"n": ints[0]}),
                      bases.symplectic_form(ints[0] // 2))


def _row_spinorial_group(pair: SymmetricPair) -> Extension:
    _size, _build, ints, _name, key = bases._read_token(pair.params["base"])
    if key != ("so", ""):
        raise InputError("spinorial rows need an orthogonal group-type pair")
    signs = bases._signs(ints)
    return _group_row(pair, build_graded("spinorial", {"n": len(signs)}), Mat.diag(signs))


def _group_row(pair: SymmetricPair, target: GradedAlgebra, form: Mat) -> Extension:
    """The row witness of a group-type pair: its element (a, b) maps to
    [[s, d F^-1 / 2], [2 F d, F^-1 s F]] with s = (a + b)/2, d = (a - b)/2
    and F the `form`, which squares to +-I (the split symplectic form, or a
    diagonal +-1 form)."""
    half = Fraction(1, 2)
    f_inv = form.scale((form @ form)[0, 0])

    def phi(a: Mat, b: Mat) -> Mat:
        s, d = (a + b).scale(half), (a - b).scale(half)
        return block_matrix([[s, (d @ f_inv).scale(half)], [(form @ d).scale(2), f_inv @ s @ form]])

    return _mapped_witness(pair, target, phi, form.rows, f"{pair.name}->{target.family}")


def _row_su_pp_so_complex(pair: SymmetricPair) -> Extension:
    n = pair.params["n"]
    t = build_graded("su_pp", {"p": n})
    half = Fraction(1, 2)
    re_w = block_matrix([[Mat.identity(n), Mat.zero(n, n)],
                         [Mat.zero(n, n), Mat.identity(n).scale(half)]])
    im_w = block_matrix([[Mat.zero(n, n), Mat.identity(n).scale(-half)],
                         [Mat.identity(n).scale(-1), Mat.zero(n, n)]])
    w = bases.realify_complex(re_w, im_w)
    w_inv = invert(w)
    zero = Mat.zero(2 * n, 2 * n)
    alpha = t.algebra.coordinate_matrix(w_inv @ bases.realify_complex(b, zero) @ w
                                        for b in pair.k_algebra.basis)
    if alpha is None:
        raise InternalCheckError("complexified element escapes the su(p,p) span")
    return Extension(pair, t, alpha, f"{pair.name}->su_pp")


def _mapped_witness(pair: SymmetricPair, target: GradedAlgebra,
                    phi: Callable[[Mat, Mat], Mat], half: int, label: str) -> Extension:
    low, high = range(half), range(half, 2 * half)
    alpha = target.algebra.coordinate_matrix(phi(m.submatrix(low, low), m.submatrix(high, high))
                                             for m in pair.k_algebra.basis)
    if alpha is None:
        raise InternalCheckError("mapped element escapes the target span")
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
    # a failed witness or certificate shows that this construction does not
    # apply, not that no structure exists
    report = validate(witness)
    if not report.passed:
        return ExistenceVerdict(pair.name, family, UNDECIDED,
                                f"witness violates axioms {report.failed_axioms()}")
    kappa = curvature(witness)
    certificates = []
    if family in ("quaternionic", "para_quaternionic") and pair.certificate_ideal:
        cert = quaternion_relation_certificate(pair)
        certificates.append(cert)
        if not cert["verified"]:
            return ExistenceVerdict(pair.name, family, UNDECIDED,
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
    classes = [commutant(isotropy_rep(f.pair)) for f in factors]
    full = commutant(isotropy_rep(pair))
    ok = full.dim == sum(cls.dim for cls in classes)
    if ok and factors[0].pair is not pair:  # a pair that is its own factor holds trivially
        for f in factors:
            u = f.m_embedding
            span = SpanSolver(pair.dim_m)
            for col in u.transpose().sparse.values():
                span.insert(col)
            for t in full.commutant_basis:
                ok = ok and all(map(span.contains, (t @ u).transpose().sparse.values()))
    if not ok:
        raise InternalCheckError(f"{pair.name}: commutant is not the product of factor commutants")
    return CentralizerReport(pair.name, [cls.label for cls in classes], full.dim, ok)
