"""The full acceptance suite: eleven numbered end-to-end checks.

Each criterion rebuilds its own inputs and returns a JSON-safe dict with no
wall-clock data, so suite output is byte-identical for one configuration.
Criterion 7 draws with `random.Random` and a pure-Python Gram-Schmidt QR.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .cyclic import (
    CyclicModelData, abelian_rep, build_cyclic_model, semidirect_stationarity,
    verify_half_liberation, verify_k_symmetry,
)
from .cyclotomic import zeta
from .groups import DEFAULT_CAP, AutoMap, FinAbelian, Perm, PermGroup
from .induced import (
    VirtuallyAbelianData, check_stationarity, evaluate_at_character,
    frobenius_trace, induce,
)
from .magic import (
    StateOnWords, bichon_build, block_projection, convolution_idempotency,
    dual_group_stationarity, fixed_point_matrix, orbits_from_source,
    quasi_flat_check, regular_rep, single_fiber, stationarity_check,
    verify_magic,
)
from .matrices import CMatrix, _float_roots
from .quasiflat import (
    LatinFamily, NoFamily, derangement_scan, latin_family_search,
    classical_model_from_family, trace_vector_check, uniform_check,
)

TOL_FLOAT_AGREE = 1e-9
TOL_RANDOM = 1e-8


def _pg(degree, *cycle_sets, cap=DEFAULT_CAP):
    gens = [Perm.from_cycles(degree, cs) for cs in cycle_sets]
    return PermGroup.from_generators(gens, degree=degree, cap=cap)


def _klein6(cap):
    return _pg(6, [(1, 2), (3, 4)], [(1, 2), (5, 6)], cap=cap)


def criterion_1(cap=DEFAULT_CAP):
    """No quasi-flat family over the Klein group acting on six points."""
    g = _klein6(cap)
    orb = orbits_from_source(g)
    scan = derangement_scan(g)
    res = latin_family_search(g, 2)
    ok = (orb.blocks == ((1, 2), (3, 4), (5, 6))
          and scan == ()
          and isinstance(res, NoFamily)
          and res.exhaustive)
    return {
        "criterion": 1,
        "name": "no-family-counterexample",
        "passed": ok,
        "details": {
            "orbits": [list(b) for b in orb.blocks],
            "derangements": len(scan),
            "explored": res.explored if isinstance(res, NoFamily) else None,
            "exhaustive": res.exhaustive if isinstance(res, NoFamily) else False,
        },
    }


def _thoma_pairs(cap):
    s3 = _pg(3, [(1, 2)], [(1, 2, 3)], cap=cap)
    a3 = s3.subgroup([Perm.from_cycles(3, [(1, 2, 3)])], cap=cap)
    d4 = _pg(4, [(1, 2, 3, 4)], [(1, 3)], cap=cap)
    z4 = d4.subgroup([Perm.from_cycles(4, [(1, 2, 3, 4)])], cap=cap)
    z6 = _pg(6, [(1, 2, 3, 4, 5, 6)], cap=cap)
    return [("S3/A3", s3, a3), ("D4/Z4", d4, z4), ("Z6/Z6", z6, z6)]


def criterion_2(cap=DEFAULT_CAP):
    """Induced models are stationary, and the two character routes agree."""
    cases = []
    for label, gamma, lam in _thoma_pairs(cap):
        data = VirtuallyAbelianData.from_permutation_groups(gamma, lam)
        rep = check_stationarity(data)
        _, _, chars = data.char_structure()
        traces_agree = True
        pairs = 0
        for g in gamma.elements:
            model = induce(data, g)
            for chi in chars:
                pairs += 1
                direct = frobenius_trace(data, chi, g)
                via_matrix = evaluate_at_character(model, chi).trace()
                if not direct == via_matrix:
                    traces_agree = False
        cases.append({
            "pair": label,
            "stationary": rep.passed,
            "routes_agree": rep.details["routes_agree"],
            "character_pairs": pairs,
            "traces_agree": traces_agree,
        })
    ok = all(c["stationary"] and c["routes_agree"] and c["traces_agree"]
             for c in cases)
    return {"criterion": 2, "name": "induced-stationarity", "passed": ok,
            "details": {"cases": cases}}


def _family_cases(cap):
    z3 = _pg(3, [(1, 2, 3)], cap=cap)
    klein4 = _pg(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], cap=cap)
    d4 = _pg(4, [(1, 2, 3, 4)], [(1, 3)], cap=cap)
    return [("Z3<S3", z3, 3), ("V4<S4", klein4, 4), ("D4<S4", d4, 4)]


def criterion_3(cap=DEFAULT_CAP):
    """Families found by search yield magic, quasi-flat, stationary models."""
    cases = []
    for label, group, size in _family_cases(cap):
        fam = latin_family_search(group, size)
        found = isinstance(fam, LatinFamily)
        entry = {"case": label, "family_found": found}
        if found:
            model = classical_model_from_family(group, fam)
            entry["magic"] = verify_magic(model).passed
            entry["quasi_flat"] = quasi_flat_check(
                model, orbits_from_source(group)).passed
            entry["stationary"] = stationarity_check(group, model, 2).passed
            entry["idempotent"] = convolution_idempotency(
                StateOnWords.from_model(model, 2)).passed
        cases.append(entry)
    ok = all(c.get("family_found") and c.get("magic") and c.get("quasi_flat")
             and c.get("stationary") and c.get("idempotent") for c in cases)
    return {"criterion": 3, "name": "family-models", "passed": ok,
            "details": {"cases": cases}}


def criterion_4(cap=DEFAULT_CAP):
    """Collapsing the dihedral family model to one fiber breaks stationarity
    (identity fiber, exact witness) and breaks state idempotency (reflection
    fiber)."""
    d4 = _pg(4, [(1, 2, 3, 4)], [(1, 3)], cap=cap)
    fam = latin_family_search(d4, 4)
    model = classical_model_from_family(d4, fam)
    elements = list(d4.elements)
    ident_x = elements.index(d4.identity)
    refl_x = next(x for x, g in enumerate(elements) if g not in fam.members)

    st = stationarity_check(d4, single_fiber(model, ident_x), word_len=2)
    wit = st.witnesses[0] if st.witnesses else {}
    witness_ok = (not st.passed
                  and wit.get("word") == "u[1,1] u[2,2]"
                  and wit.get("model") == "1/4"
                  and wit.get("reference") == "1/8")

    refl = single_fiber(model, refl_x)
    refl_st = stationarity_check(d4, refl, word_len=2)
    conv = convolution_idempotency(StateOnWords.from_model(refl, 2))
    ok = witness_ok and not refl_st.passed and not conv.passed
    return {
        "criterion": 4,
        "name": "single-fiber-control",
        "passed": ok,
        "details": {
            "identity_fiber_witness": dict(wit),
            "reflection_fiber_stationary": refl_st.passed,
            "reflection_fiber_idempotent": conv.passed,
            "idempotency_witness": dict(conv.witnesses[0]) if conv.witnesses else {},
        },
    }


def _bichon_cases():
    return [("Z2", FinAbelian([2])), ("Z3", FinAbelian([3])),
            ("Z2xZ2", FinAbelian([2, 2]))]


def _circulant_blocks(model, sizes):
    # in-block entry (r, c) must depend only on (c - r) mod the block size
    off = 0
    for size in sizes:
        for r in range(size):
            for c in range(size):
                d = (c - r) % size
                if not model.entries[off + r][off + c][0] == model.entries[off][off + d][0]:
                    return False
        off += size
    return True


def criterion_5():
    """Spectral-projection block models over regular representations are
    magic, circulant within blocks, and reproduce the dual Haar state."""
    cases = []
    for label, group in _bichon_cases():
        rep = regular_rep(group)
        gens = [rep[group.generator(i)] for i in range(len(group.factors))]
        sizes = list(group.factors)
        model = bichon_build(sizes, gens)
        dual = dual_group_stationarity(group, rep)
        cases.append({
            "case": label,
            "magic": verify_magic(model).passed,
            "circulant": _circulant_blocks(model, sizes),
            "dual_stationary": dual.passed,
            "elements_checked": dual.checked,
            "idempotent": convolution_idempotency(
                StateOnWords.from_model(model, 2)).passed,
        })
    ok = all(c["magic"] and c["circulant"] and c["dual_stationary"]
             and c["idempotent"] for c in cases)
    return {"criterion": 5, "name": "block-dual-models", "passed": ok,
            "details": {"cases": cases}}


def _d5_data():
    z5 = FinAbelian([5])
    rep = abelian_rep(z5, [CMatrix.diagonal([zeta(5), zeta(5, 4)])])
    return CyclicModelData(z5, rep, AutoMap.from_function(z5, z5.inv), 2)


def criterion_6():
    """The order-two twisted model over the five-cycle passes the relation
    checks and is stationary for the full twisted product."""
    data = _d5_data()
    model = build_cyclic_model(data)
    rel = verify_half_liberation(model)
    stat = semidirect_stationarity(data)
    ok = rel.passed and stat.passed
    return {
        "criterion": 6,
        "name": "half-liberation-model",
        "passed": ok,
        "details": {
            "relations": rel.passed,
            "stationary": stat.passed,
            "basis_elements": data.group.order * data.k,
        },
    }


def _pattern_entries(k, bits):
    return [zeta(k) ** (j * bits[j]) for j in range(k)]


def _pattern_flat(k, bits):
    counts = [0] * k
    for j in range(k):
        counts[(j * bits[j]) % k] += 1
    return all(c == 1 for c in counts), tuple(counts)


def _random_conjugate(rng, eigs):
    """Q diag(eigs) Q*, Q by modified Gram-Schmidt on complex Gaussian columns."""
    k, cols = len(eigs), []
    for _ in range(k):
        v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(k)]
        for q in cols:
            c = sum(a.conjugate() * b for a, b in zip(q, v))
            v = [b - c * a for a, b in zip(q, v)]
        norm = math.sqrt(sum(b.real * b.real + b.imag * b.imag for b in v))
        cols.append([b / norm for b in v])
    return CMatrix.floating([[sum(e * q[i] * q[j].conjugate() for e, q in zip(eigs, cols))
                              for j in range(k)] for i in range(k)])


def _diagonal_patterns():
    """(K, mask, exact diagonal, flat, multiplicities) per 0/1 pattern, K <= 6."""
    for k in range(1, 7):
        for mask in range(2 ** k):
            bits = [(mask >> j) & 1 for j in range(k)]
            yield k, mask, CMatrix.diagonal(_pattern_entries(k, bits)), *_pattern_flat(k, bits)


def _criterion_7_exact():
    """Criterion 7's seed-independent half: (checked, disagreements)."""
    checked, disagreements = 0, 0
    for k, _, u, flat, counts in _diagonal_patterns():
        rep = trace_vector_check(u, k)
        checked += 1
        disagreements += (rep.passed != flat
                          or sorted(rep.details["multiplicities"]) != sorted(counts))
    return checked, disagreements


def _criterion_7_float(seed, samples):
    """Criterion 7's seeded half: (checked, disagreements)."""
    rng = random.Random(seed)
    checked, disagreements = 0, 0
    for k in range(2, 7):
        roots = _float_roots(k)
        for _ in range(samples):
            bits = [rng.randrange(2) for _ in range(k)]
            u = _random_conjugate(rng, [roots[(j * bits[j]) % k] for j in range(k)])
            rep = trace_vector_check(u, k, tol=TOL_RANDOM)
            checked += 1
            disagreements += rep.passed != _pattern_flat(k, bits)[0]
    return checked, disagreements


def criterion_7(seed=0, samples=200):
    """Trace-vector flatness agrees with multiplicity-one spectra on every
    diagonal pattern (exact) and on seeded random conjugates Q D Q* (float),
    Q Haar-distributed as the Gram-Schmidt factor of a complex Gaussian matrix
    drawn from `random.Random(seed)` (Mezzadri, Notices AMS 54, 2007)."""
    exact_checked, exact_bad = _criterion_7_exact()
    float_checked, float_bad = _criterion_7_float(seed, samples)
    return {"criterion": 7, "name": "trace-vector-equivalence",
            "passed": exact_bad + float_bad == 0,
            "details": {"exact_checked": exact_checked, "float_checked": float_checked,
                        "disagreements": exact_bad + float_bad}}


def criterion_8(cap=DEFAULT_CAP):
    """Fixed-point averages equal the flat projection for transitive groups
    and the block projection for the six-point Klein action."""
    cases = []
    quarter = Fraction(1, 4)
    flat4 = CMatrix.exact([[quarter] * 4 for _ in range(4)])
    transitive = [
        ("Z4", _pg(4, [(1, 2, 3, 4)], cap=cap)),
        ("D4", _pg(4, [(1, 2, 3, 4)], [(1, 3)], cap=cap)),
        ("S4", _pg(4, [(1, 2)], [(1, 2, 3, 4)], cap=cap)),
    ]
    for label, group in transitive:
        q, rep = fixed_point_matrix(group)
        cases.append({"case": label, "projection": rep.passed,
                      "matches_flat": q == flat4})
    klein = _klein6(cap)
    q, rep = fixed_point_matrix(klein)
    expected = block_projection(orbits_from_source(klein), 6)
    cases.append({"case": "V4<S6", "projection": rep.passed,
                  "matches_blocks": q == expected})
    ok = all(c["projection"] and c.get("matches_flat", c.get("matches_blocks"))
             for c in cases)
    return {"criterion": 8, "name": "fixed-point-projection", "passed": ok,
            "details": {"cases": cases}}


def _cyclic_models():
    z3 = FinAbelian([3])
    one = CyclicModelData(
        z3, abelian_rep(z3, [CMatrix.diagonal([zeta(3), zeta(3, 2)])]),
        AutoMap.identity(z3), 1)
    z7 = FinAbelian([7])
    three = CyclicModelData(
        z7, abelian_rep(z7, [CMatrix.exact([[zeta(7)]])]),
        AutoMap.from_function(z7, lambda a: ((2 * a[0]) % 7,)), 3)
    return [("K1", one), ("K2", _d5_data()), ("K3", three)]


def criterion_9():
    """Diagonal twist symmetry holds for every built cyclic model and fails
    for the two-block dual model."""
    cases = []
    for label, data in _cyclic_models():
        model = build_cyclic_model(data)
        cases.append({"case": label, "k": data.k,
                      "symmetric": verify_k_symmetry(model).passed})
    z2 = FinAbelian([2])
    magic2 = bichon_build([2], [regular_rep(z2)[(1,)]])
    counter = verify_k_symmetry(magic2)
    ok = all(c["symmetric"] for c in cases) and not counter.passed
    return {"criterion": 9, "name": "k-symmetry", "passed": ok,
            "details": {"cases": cases, "dual_model_symmetric": counter.passed}}


def criterion_10(cap=DEFAULT_CAP):
    """Uniformity certificates: two positives and one sharp negative."""
    z2z2 = _pg(4, [(1, 2)], [(3, 4)], cap=cap)
    s3 = _pg(3, [(1, 2)], [(1, 3)], cap=cap)
    s3z2 = _pg(5, [(1, 2)], [(1, 3)], [(4, 5)], cap=cap)
    pos1 = uniform_check(z2z2, [Perm.from_cycles(4, [(1, 2)]),
                                Perm.from_cycles(4, [(3, 4)])])
    pos2 = uniform_check(s3, [Perm.from_cycles(3, [(1, 2)]),
                              Perm.from_cycles(3, [(1, 3)])])
    neg = uniform_check(s3z2, [Perm.from_cycles(5, [(1, 2)]),
                               Perm.from_cycles(5, [(1, 3)]),
                               Perm.from_cycles(5, [(4, 5)])])
    first_failing = neg.details["first_failing"]
    ok = pos1.passed and pos2.passed and not neg.passed and first_failing == 4
    return {
        "criterion": 10,
        "name": "uniformity",
        "passed": ok,
        "details": {
            "z2z2_uniform": pos1.passed,
            "s3_uniform": pos2.passed,
            "mixed_uniform": neg.passed,
            "mixed_first_failing": first_failing,
        },
    }


def _payload(cap=DEFAULT_CAP, seed=0, samples=200):
    return [
        criterion_1(cap),
        criterion_2(cap),
        criterion_3(cap),
        criterion_4(cap),
        criterion_5(),
        criterion_6(),
        criterion_7(seed=seed, samples=samples),
        criterion_8(cap),
        criterion_9(),
        criterion_10(cap),
    ]


def _float_reverify(cap, tol):
    checks = []

    for label, group, size in _family_cases(cap):
        fam = latin_family_search(group, size)
        mf = classical_model_from_family(group, fam).to_float()
        checks.append((f"{label} magic", verify_magic(mf, tol).passed))
        checks.append((f"{label} quasi-flat",
                       quasi_flat_check(mf, orbits_from_source(group), tol).passed))
        checks.append((f"{label} stationary",
                       stationarity_check(group, mf, 2, tol).passed))

    for label, group in _bichon_cases():
        rep = regular_rep(group)
        gens = [rep[group.generator(i)] for i in range(len(group.factors))]
        mf = bichon_build(list(group.factors), gens).to_float()
        checks.append((f"{label} block magic", verify_magic(mf, tol).passed))

    d5 = build_cyclic_model(_d5_data()).to_float()
    checks.append(("K2 relations", verify_half_liberation(d5, tol).passed))
    checks.append(("K2 symmetry", verify_k_symmetry(d5, tol).passed))

    for label, group in [("Z4", _pg(4, [(1, 2, 3, 4)], cap=cap))]:
        q, _ = fixed_point_matrix(group)
        quarter = Fraction(1, 4)
        flat = CMatrix.exact([[quarter] * 4 for _ in range(4)]).to_float()
        checks.append((f"{label} fixed points",
                       q.to_float().close_to(flat, tol)))

    for k, mask, u, flat, _ in _diagonal_patterns():
        rep = trace_vector_check(u.to_float(), k, tol=tol)
        checks.append((f"pattern K={k} mask={mask}", rep.passed == flat))
    return checks


def criterion_11(cap=DEFAULT_CAP, seed=0, samples=200, tol=TOL_FLOAT_AGREE, first=None):
    """Two identically configured runs render byte-identical output, and
    float re-verification of the exact passes stays within tolerance.  The
    first run is `first` when given (run_suite passes its reported payload);
    otherwise both runs are made here."""
    from .serialize import render_json

    if first is None:
        first = _payload(cap, seed, samples)
    deterministic = render_json(first) == render_json(_payload(cap, seed, samples))

    float_checks = _float_reverify(cap, tol)
    failing = [name for name, ok in float_checks if not ok]
    ok = deterministic and not failing
    return {
        "criterion": 11,
        "name": "determinism-float",
        "passed": ok,
        "details": {
            "byte_identical": deterministic,
            "float_checks": len(float_checks),
            "float_failures": failing,
        },
    }


def run_suite(cap=DEFAULT_CAP, seed=0, samples=200, tol=TOL_FLOAT_AGREE):
    """Run every criterion in order and aggregate; the reported payload is
    the first of criterion 11's two compared runs, checked against a rerun."""
    results = _payload(cap, seed, samples)
    results.append(criterion_11(cap, seed, samples, tol, first=results))
    return {"criteria": results, "passed": all(r["passed"] for r in results)}
