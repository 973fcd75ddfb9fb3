"""Seeded benchmark inputs, written as the JSON files the CLI reads.

The seed only relabels: every permutation group is conjugated by a random
permutation of its points, and every matrix input (dual-build generators,
cyclic representation generators, dual-flat fibers) is conjugated by a random
permutation matrix, one per input so that a representation stays a
representation.  Relabelling keeps group orders, element enumeration order,
search trees, sparsity and cyclotomic orders, so every seed asks the program
for the same amount of work.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

# Groups as 1-based image lists.
D4 = [[2, 3, 4, 1], [3, 2, 1, 4]]                       # <(1 2 3 4), (1 3)>
S4 = [[2, 1, 3, 4], [2, 3, 4, 1]]                       # <(1 2), (1 2 3 4)>
V4_IN_S4 = [[2, 1, 4, 3], [3, 4, 1, 2]]                 # (1 2)(3 4), (1 3)(2 4)
Z4_IN_D4 = [[2, 3, 4, 1]]
Z3 = [[2, 3, 1]]
V4 = [[2, 1, 4, 3], [3, 4, 1, 2]]
G216 = [[2, 3, 6, 1, 4, 5, 12, 9, 10, 8, 7, 11],
        [1, 6, 3, 2, 5, 4, 11, 10, 7, 12, 9, 8]]
G360 = [[3, 2, 6, 1, 4, 5, 8, 11, 10, 12, 9, 7],
        [1, 3, 5, 2, 6, 4, 7, 8, 9, 10, 11, 12]]
S5_STAR = [[2, 1, 3, 4, 5], [3, 2, 1, 4, 5], [4, 2, 3, 1, 5], [5, 2, 3, 4, 1]]
S3_Z2 = [[2, 1, 3, 4, 5], [3, 2, 1, 4, 5], [1, 2, 3, 5, 4]]


def conjugate(perm, pi):
    """pi g pi^-1 on image lists: the image of pi(i) is pi(g(i))."""
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[pi[i] - 1] = pi[v - 1]
    return out


def random_perm(rng: random.Random, n: int) -> list[int]:
    pts = list(range(1, n + 1))
    rng.shuffle(pts)
    return pts


def relabel(rng: random.Random, *groups):
    """Conjugate every group of a related tuple by one random permutation."""
    pi = random_perm(rng, len(groups[0][0]))
    return [[conjugate(g, pi) for g in gens] for gens in groups]


def group_json(gens) -> dict:
    return {"degree": len(gens[0]), "generators": gens}


# -- exact scalars and matrices as plain data --------------------------------
# A scalar is (order, exponent, numerator, denominator): num/den * zeta_order^exp.
# Matrices are lists of rows of such scalars or of 0.

def root(order: int, exp: int, num: int = 1, den: int = 1):
    return (order, exp % order, num, den)


def scalar_json(x):
    if x == 0:
        return "0"
    order, exp, num, den = x
    frac = f"{num}/{den}" if den != 1 else str(num)
    if order == 1 or exp == 0:
        return frac
    coeffs = ["0"] * order
    coeffs[exp] = frac
    return {"order": order, "coeffs": coeffs}


def matrix_json(rows) -> dict:
    return {"mode": "exact", "rows": [[scalar_json(x) for x in r] for r in rows]}


def shift_matrix(n: int, step: int = 1):
    """Permutation matrix of i -> i + step (mod n)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[(i + step) % n][i] = root(1, 0)
    return rows


def diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def conjugate_matrix(rows, pi):
    """P M P^T for the permutation matrix P of pi (0-based images)."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = rows[i][j]
    return out


def random_index_perm(rng: random.Random, n: int) -> list[int]:
    return [p - 1 for p in random_perm(rng, n)]


def regular_action(factors) -> list[list[int]]:
    """Regular action of Z_f1 x ... x Z_fr on the lexicographically ordered
    exponent tuples: entry i maps each element's index to the index of the
    element with 1 added to coordinate i."""
    elements = list(itertools.product(*(range(f) for f in factors)))
    index = {g: x for x, g in enumerate(elements)}
    images = []
    for i, f in enumerate(factors):
        shifted = []
        for g in elements:
            h = list(g)
            h[i] = (h[i] + 1) % f
            shifted.append(index[tuple(h)])
        images.append(shifted)
    return images


def regular_generators(factors):
    """Permutation matrices of the regular action (column y has its one in
    row images[y])."""
    gens = []
    for images in regular_action(factors):
        rows = [[0] * len(images) for _ in images]
        for y, x in enumerate(images):
            rows[x][y] = root(1, 0)
        gens.append(rows)
    return gens


# -- workload inputs ---------------------------------------------------------

def _dual_input(rng, factors):
    pi = random_index_perm(rng, math.prod(factors))
    gens = [conjugate_matrix(g, pi) for g in regular_generators(factors)]
    return {"sizes": list(factors), "generators": [matrix_json(g) for g in gens]}


def _cyclic_input(rng, order, diag_exps, auto, k):
    pi = random_index_perm(rng, len(diag_exps))
    gen = conjugate_matrix(diagonal([root(order, e) for e in diag_exps]), pi)
    return {"factors": [order], "rep_generators": [matrix_json(gen)],
            "auto_images": [[auto]], "k": k}


def _flat_input(rng):
    """K = 8 fibers of one generator at two points, each of order dividing 8:
    the regular shift (eight distinct eigenvalues, flat) and a diagonal that
    repeats the eigenvalue zeta_8^6 (not flat).  Each point costs about
    1.5 s of exact K = 8 arithmetic, which is why there are only two."""
    k = 8
    repeated = diagonal([root(8, e) for e in (0, 1, 2, 3, 4, 5, 6, 6)])
    gens = [[matrix_json(conjugate_matrix(m, random_index_perm(rng, k)))
             for m in (shift_matrix(k, 1), repeated)]]
    return {"k": k, "generators": gens, "labels": ["p1", "p2"]}


def make_inputs(workload: str, seed: int) -> dict:
    """All input payloads of one workload, keyed by file stem."""
    rng = random.Random(f"{workload}:{seed}")
    out = {}
    if workload == "suite":
        for name, gens in (("z3", Z3), ("v4", V4), ("d4", D4)):
            (g,) = relabel(rng, gens)
            out[f"group_{name}"] = group_json(g)
    elif workload == "classical":
        for name, gens in (("d4", D4), ("s4", S4), ("g216", G216),
                           ("g360", G360), ("s5star", S5_STAR),
                           ("s3z2", S3_Z2)):
            (g,) = relabel(rng, gens)
            out[f"group_{name}"] = group_json(g)
        for name, big, small in (("s4v4", S4, V4_IN_S4), ("d4z4", D4, Z4_IN_D4)):
            g, lam = relabel(rng, big, small)
            out[f"thoma_{name}_gamma"] = group_json(g)
            out[f"thoma_{name}_lambda"] = group_json(lam)
    elif workload == "cyclotomic":
        out["dual_z8"] = _dual_input(rng, [8])
        out["dual_z3z4"] = _dual_input(rng, [3, 4])
        out["dual_z2z2"] = _dual_input(rng, [2, 2])
        out["dual_z4"] = _dual_input(rng, [4])
        out["cyclic_d5"] = _cyclic_input(rng, 5, [1, 4], 4, 2)
        out["cyclic_z7"] = _cyclic_input(rng, 7, [1], 2, 3)
        out["cyclic_z13"] = _cyclic_input(rng, 13, [1, 3, 9], 3, 3)
        out["flat_k8"] = _flat_input(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write every input of the workload as <stem>.json; returns stem -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, payload in make_inputs(workload, seed).items():
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        paths[stem] = str(path)
    return paths


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Write the seeded inputs of one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=["suite", "classical", "cyclotomic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    for stem, path in write_inputs(args.workload, args.seed, Path(args.out)).items():
        print(path)
