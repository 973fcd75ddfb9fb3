"""Reference checks computed apart from the program.

Nothing here imports magicmodels.  Models are read from their JSON with a
small numpy reader, groups are enumerated by their own closure, and every
expected value is derived from the benchmark's inputs: projections and
row/column sums, the spectral-projection formula, Latin-family validity, an
independent no-family search, Haar values by counting group elements, word
states by multiplying 0/1 fibers, and eigenvalue multiplicities.

Every check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import cmath
import itertools
from fractions import Fraction

import numpy as np

from seeded import regular_action

TOL = 1e-8


# -- reading ----------------------------------------------------------------

def scalar_value(v) -> complex:
    """Numeric value of one JSON scalar in the program's documented schema."""
    if isinstance(v, str):
        return complex(float(Fraction(v)))
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if isinstance(v, dict) and "order" in v:
        n = v["order"]
        return sum(float(Fraction(c)) * cmath.exp(2j * cmath.pi * a / n)
                   for a, c in enumerate(v["coeffs"]) if c != "0")
    if isinstance(v, dict) and "re" in v:
        return complex(v["re"], v["im"])
    raise ValueError(f"unreadable scalar {v!r}")


def matrix_value(m) -> np.ndarray:
    return np.array([[scalar_value(x) for x in row] for row in m["rows"]],
                    dtype=complex)


def read_model(payload) -> dict:
    """{"n", "dim", "labels", "weights", "fibers"} with fibers an array of
    shape (points, n, n, dim, dim)."""
    n, dim = payload["n"], payload["dim"]
    pts = payload["points"]
    fibers = np.zeros((len(pts), n, n, dim, dim), dtype=complex)
    for x, pt in enumerate(pts):
        for i in range(n):
            for j in range(n):
                fibers[x, i, j] = matrix_value(pt["entries"][i][j])
    return {"n": n, "dim": dim, "labels": [pt["label"] for pt in pts],
            "weights": [Fraction(pt["weight"]) for pt in pts], "fibers": fibers}


def close(a, b) -> bool:
    return bool(np.allclose(a, b, atol=TOL, rtol=0))


# -- permutation groups -----------------------------------------------------

def compose(s, t):
    """(s t)(i) = s(t(i)) on 1-based image tuples."""
    return tuple(s[i - 1] for i in t)


def enumerate_group(gens) -> list[tuple]:
    gens = [tuple(g) for g in gens]
    ident = tuple(range(1, len(gens[0]) + 1))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def perm_order(p) -> int:
    ident = tuple(range(1, len(p) + 1))
    k, q = 1, tuple(p)
    while q != ident:
        q = compose(q, p)
        k += 1
    return k


def parse_cycles(label: str, degree: int) -> tuple:
    """Images of a permutation written in the cycle notation "(1 2)(3 4)" or "e"."""
    images = list(range(1, degree + 1))
    if label != "e":
        for part in label.strip("()").split(")("):
            cyc = [int(x) for x in part.split()]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
    return tuple(images)


def orbits(gens) -> list[tuple]:
    degree = len(gens[0])
    seen, out = set(), []
    for start in range(1, degree + 1):
        if start in seen:
            continue
        orb, frontier = {start}, [start]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = g[p - 1]
                if q not in orb:
                    orb.add(q)
                    frontier.append(q)
        seen |= orb
        out.append(tuple(sorted(orb)))
    return out


# -- Latin families ---------------------------------------------------------

def check_family(gens, members, size) -> list[str]:
    """Members must lie in the group, number `size`, and take pairwise
    distinct values at every point."""
    problems = []
    group = set(enumerate_group(gens))
    members = [tuple(m) for m in members]
    if len(members) != size:
        problems.append(f"family has {len(members)} members, expected {size}")
    for m in members:
        if m not in group:
            problems.append(f"family member {list(m)} is not in the group")
    for point in range(len(gens[0])):
        values = [m[point] for m in members]
        if len(set(values)) != len(values):
            problems.append(f"family members collide at point {point + 1}")
    return problems


def family_exists(gens, size) -> bool:
    """Independent search: a family of `size` members with pairwise distinct
    values everywhere.  Right-multiplying a family by the inverse of one
    member gives a family containing the identity, and within an orbit of
    size `size` the members must send the orbit's first point to distinct
    points.  So pick, for each image of the first block's first point, one
    element with that image, all pairwise compatible with the identity and
    with each other."""
    elements = enumerate_group(gens)
    degree = len(gens[0])
    ident = tuple(range(1, degree + 1))
    first = orbits(gens)[0][0]
    arr = np.array(elements)
    compat = (arr[:, None, :] != arr[None, :, :]).all(axis=2)
    masks = [sum(1 << j for j in np.flatnonzero(row)) for row in compat]
    by_image = {}
    id_idx = elements.index(ident)
    for idx, e in enumerate(elements):
        if compat[id_idx, idx]:
            by_image.setdefault(e[first - 1], []).append(idx)
    images = sorted(by_image)
    if len(images) < size - 1:
        return False

    def extend(depth, allowed):
        if depth == size - 1:
            return True
        for idx in by_image[images[depth]]:
            if allowed >> idx & 1 and extend(depth + 1, allowed & masks[idx]):
                return True
        return False

    return extend(0, masks[id_idx])


# -- classical family models and Haar states --------------------------------

def family_fibers(point, members, degree):
    """0/1 fibers of the family model at group element `point`: entry (i, j)
    is the diagonal unit E_kk for the k with members[k](point(j)) = i."""
    size = len(members)
    fib = np.zeros((degree, degree, size, size), dtype=np.int64)
    for j in range(degree):
        target = point[j]
        for k, m in enumerate(members):
            fib[m[target - 1] - 1, j, k, k] = 1
    return fib


def check_family_model(payload, gens, members) -> list[str]:
    """The model JSON must hold one point per group element with weight
    1/|G|, and the 0/1 fibers of the family construction."""
    problems = []
    group = enumerate_group(gens)
    degree = len(gens[0])
    model = read_model(payload)
    points = [parse_cycles(lbl, degree) for lbl in model["labels"]]
    if sorted(points) != group:
        problems.append("model points are not the group elements")
        return problems
    if any(w != Fraction(1, len(group)) for w in model["weights"]):
        problems.append("model weights are not uniform")
    members = [tuple(m) for m in members]
    for x, pt in enumerate(points):
        if not close(model["fibers"][x], family_fibers(pt, members, degree)):
            problems.append(f"fibers at point {model['labels'][x]} differ from the family construction")
            break
    return problems + check_magic(model)


def check_magic(model) -> list[str]:
    """Projections everywhere; every row and column sums to the identity."""
    problems = []
    f = model["fibers"]
    ident = np.eye(model["dim"])
    if not close(f, np.conj(np.swapaxes(f, -1, -2))):
        problems.append("an entry is not self-adjoint")
    if not close(f @ f, f):
        problems.append("an entry is not idempotent")
    if not close(f.sum(axis=2), np.broadcast_to(ident, f.sum(axis=2).shape)):
        problems.append("a row does not sum to the identity")
    if not close(f.sum(axis=1), np.broadcast_to(ident, f.sum(axis=1).shape)):
        problems.append("a column does not sum to the identity")
    return problems


def words(n, max_len):
    """Words in length-major lexicographic order, as the program lists them."""
    letters = list(itertools.product(range(n), repeat=2))
    for m in range(max_len + 1):
        yield from itertools.product(letters, repeat=m)


def word_count(n, max_len) -> int:
    return sum((n * n) ** m for m in range(max_len + 1))


def word_label(word) -> str:
    return " ".join(f"u[{i + 1},{j + 1}]" for i, j in word) if word else "1"


def haar_classical(elements, word) -> Fraction:
    """Share of group elements with sigma(j) = i for every letter (i, j)."""
    hits = sum(1 for s in elements if all(s[j] == i + 1 for i, j in word))
    return Fraction(hits, len(elements))


def single_point_state(fibers, word) -> Fraction:
    """Normalized trace of the product of 0/1 fibers."""
    dim = fibers.shape[-1]
    prod = np.eye(dim, dtype=np.int64)
    for i, j in word:
        prod = prod @ fibers[i, j]
    return Fraction(int(np.trace(prod)), dim)


def expected_witnesses(gens, fibers, max_len) -> list[dict]:
    """Every word where the single-point model state differs from the Haar
    state, in the program's witness order and string form."""
    elements = enumerate_group(gens)
    out = []
    for word in words(len(gens[0]), max_len):
        ref = haar_classical(elements, word)
        mod = single_point_state(fibers, word)
        if ref != mod:
            out.append({"word": word_label(word), "reference": str(ref),
                        "model": str(mod)})
    return out


# -- spectral block models (dual-build) -------------------------------------

def spectral_block_model(sizes, generators) -> np.ndarray:
    """Entries (1/K) sum_a zeta_K^((c - r) a) U^a on block-diagonal
    positions, zero elsewhere; shape (n, n, dim, dim)."""
    dim = generators[0].shape[0]
    n = sum(sizes)
    out = np.zeros((n, n, dim, dim), dtype=complex)
    off = 0
    for k, u in zip(sizes, generators):
        powers = [np.linalg.matrix_power(u, a) for a in range(k)]
        for r in range(k):
            for c in range(k):
                out[off + r, off + c] = sum(
                    cmath.exp(2j * cmath.pi * ((c - r) * a % k) / k) * powers[a]
                    for a in range(k)) / k
        off += k
    return out


def check_dual_model(payload, dual_input) -> list[str]:
    model = read_model(payload)
    sizes = dual_input["sizes"]
    gens = [matrix_value(m) for m in dual_input["generators"]]
    problems = []
    if model["fibers"].shape[0] != 1:
        problems.append("dual model must have a single point")
        return problems
    fib = model["fibers"][0]
    if not close(fib, spectral_block_model(sizes, gens)):
        problems.append("entries differ from (1/K) sum_a zeta^((c-r)a) U^a")
    off = 0
    for k in sizes:
        if not all(close(fib[off + r, off + c], fib[off, off + (c - r) % k])
                   for r in range(k) for c in range(k)):
            problems.append(f"block at offset {off} is not circulant")
        off += k
    return problems + check_magic(model)


def support_blocks(model) -> list[list[int]]:
    """Connected components of the nonzero-entry graph, 1-based."""
    n = model["n"]
    nz = np.abs(model["fibers"]).max(axis=(0, 3, 4)) > TOL
    comp = list(range(n))

    def find(a):
        while comp[a] != a:
            a = comp[a]
        return a

    for i in range(n):
        for j in range(n):
            if nz[i, j]:
                a, b = find(i), find(j)
                comp[max(a, b)] = min(a, b)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i + 1)
    return [blocks[r] for r in sorted(blocks)]


def dual_haar_states(factors, block_orders, max_len) -> dict:
    """Haar state of the dual of Z_f1 x ... on the block coordinates
    (1/K) sum_a zeta^((c-r)a) g^a: the normalized trace in the regular
    representation, word by word."""
    gens = []
    for images in regular_action(factors):
        m = np.zeros((len(images), len(images)))
        m[images, range(len(images))] = 1
        gens.append(m)
    coords = spectral_block_model(block_orders, gens)
    return word_states(coords, max_len)


def word_states(coords, max_len) -> dict:
    """ntrace of the product of coordinates over every word up to max_len;
    coords has shape (n, n, dim, dim)."""
    n, dim = coords.shape[0], coords.shape[-1]
    out = {}

    def rec(word, prod):
        out[word] = np.trace(prod) / dim
        if len(word) == max_len:
            return
        for i in range(n):
            for j in range(n):
                rec(word + ((i, j),), prod @ coords[i, j])

    rec((), np.eye(dim, dtype=complex))
    return out


def check_dual_stationary(payload, factors, block_orders, max_len) -> list[str]:
    """The model's word states equal the dual Haar states on every word."""
    model = read_model(payload)
    ref = dual_haar_states(factors, block_orders, max_len)
    got = word_states(model["fibers"][0], max_len)
    bad = [w for w in ref if abs(ref[w] - got[w]) > 1e-7]
    return [f"model state differs from the dual Haar state on {word_label(bad[0])}"] if bad else []


# -- cyclic models ----------------------------------------------------------

def cyclic_fibers(cyc_input) -> np.ndarray:
    """Fibers of the cycle-filled model over Z_m: at point g, row r of the
    (i, j) entry carries v(sigma^(r+1)(g))_ij in column r - 1 (mod K)."""
    (m,) = cyc_input["factors"]
    (u,) = [matrix_value(x) for x in cyc_input["rep_generators"]]
    ((auto,),) = cyc_input["auto_images"]
    k = cyc_input["k"]
    d = u.shape[0]
    out = np.zeros((m, d, d, k, k), dtype=complex)
    for g in range(m):
        for r in range(k):
            h = g * pow(auto, r + 1, m) % m
            v = np.linalg.matrix_power(u, h)
            out[g, :, :, r, (r - 1) % k] = v
    return out


def check_cyclic_model(payload, cyc_input) -> list[str]:
    model = read_model(payload)
    expected = cyclic_fibers(cyc_input)
    (m,) = cyc_input["factors"]
    if model["labels"] != [f"({g},)" for g in range(m)]:
        return ["cyclic model points are not the group elements in order"]
    if not close(model["fibers"], expected):
        return ["cyclic model fibers differ from the cycle-fill construction"]
    return []


def check_cyclic_relations(cyc_input) -> list[str]:
    """Half-liberation relations and K-symmetry, numerically."""
    fib = cyclic_fibers(cyc_input)
    points, d, _, k, _ = fib.shape
    problems = []
    zk = cmath.exp(2j * cmath.pi / k)
    dmat = np.diag([zk ** r for r in range(k)])
    for x in range(points):
        big = fib[x].transpose(0, 2, 1, 3).reshape(d * k, d * k)
        adj = np.conj(np.swapaxes(fib[x], -1, -2)).transpose(0, 2, 1, 3).reshape(d * k, d * k)
        for name, m in (("fiber", big), ("entrywise adjoint", adj)):
            if not close(m @ m.conj().T, np.eye(d * k)):
                problems.append(f"{name} at point {x} is not unitary")
        flat = fib[x].reshape(d * d, k, k)
        fadj = np.conj(np.swapaxes(flat, -1, -2))
        prods = np.concatenate([
            np.einsum("aij,bjk->abik", flat, fadj).reshape(-1, k, k),
            np.einsum("aij,bjk->abik", fadj, flat).reshape(-1, k, k)])
        # diagonal matrices commute, so diagonality also settles the
        # pairwise commutation of these products
        off = prods * (1 - np.eye(k))
        if np.abs(off).max() > TOL:
            problems.append(f"a product a b* or a* b at point {x} is not diagonal")
        sym = dmat @ flat @ dmat.conj().T
        if not close(sym, zk * flat):
            problems.append(f"K-symmetry fails at point {x}")
    return problems


# -- dual-flat fibers -------------------------------------------------------

def eigen_multiplicities(u: np.ndarray, k: int) -> list[int]:
    """How many eigenvalues of u sit at each zeta_k^a."""
    counts = [0] * k
    for lam in np.linalg.eigvals(u):
        a = round((cmath.phase(lam) / (2 * cmath.pi)) * k) % k
        counts[a] += 1
    return counts


def nonflat_fibers(flat_input) -> list[tuple[int, str]]:
    """(generator, point label) of every fiber whose eigenvalues repeat."""
    k = flat_input["k"]
    labels = flat_input.get("labels")
    out = []
    for gi, per in enumerate(flat_input["generators"]):
        for x, m in enumerate(per):
            if any(c != 1 for c in eigen_multiplicities(matrix_value(m), k)):
                out.append((gi + 1, labels[x] if labels else str(x)))
    return out


# -- uniform generating sets ------------------------------------------------

def swap_evidence(gens, a, b):
    """For generators a and b (0-based): a group element conjugating the
    generator list onto the list with a and b swapped (the swap extends to an
    inner automorphism), or a third generator c with ord(g_a g_c) !=
    ord(g_b g_c) (no automorphism swaps them).  Returns ("inner", element),
    ("obstructed", c) or None when neither is found."""
    gens = [tuple(g) for g in gens]
    swapped = list(gens)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    for x in enumerate_group(gens):
        xinv = [0] * len(x)
        for i, v in enumerate(x):
            xinv[v - 1] = i + 1
        if all(compose(compose(x, g), tuple(xinv)) == s for g, s in zip(gens, swapped)):
            return ("inner", x)
    for c in range(len(gens)):
        if c not in (a, b) and perm_order(compose(gens[a], gens[c])) != perm_order(compose(gens[b], gens[c])):
            return ("obstructed", c)
    return None
