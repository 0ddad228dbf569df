"""Seeded instance generators, one per workload.

Each generator writes instance JSON files in the program's own schema and
returns, per instance, the command chain to run and the instance kind.  The
kind keys the golden record (``golden.json``): the generators draw every
instance from a family whose verdict, rank and Gram size do not depend on the
seed, so one record per kind checks every seed.

All randomness comes from ``numpy.random.default_rng(seed)``; the same seed
gives byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Depths the workloads run at; the golden record and the ROADMAP invariants
# below are stated for these.
ABELIAN_DEPTH = 3
FREE_DEPTH = 3
MATRIX_DEPTH = 4
MATRIX_H = 10
NICA_DEPTH = 3
NICA_MAX_F = 4
# The nilpotent pair T1 = [[0, s], [0, 0]], T2 = i T1 passes both checks at
# s <= 0.7 and fails them at s >= 0.8.
NILPOTENT_PASS = (0.3, 0.7)
NILPOTENT_FAIL = (0.8, 1.0)


@dataclass
class Instance:
    """One generated input: a file, the commands it runs, and its kind."""

    path: str
    kind: str
    chain: tuple          # command names run in order, e.g. ("dilate", "verify")
    flags: dict           # per-command extra flags


def _cjson(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phases(rng, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _commuting_abelian_pair(rng, h: int = 2) -> list[np.ndarray]:
    """T_i = U diag(d_i) U* with |d| in [0.2, 0.9]."""
    u = _unitary(rng, h)
    out = []
    for _ in range(2):
        d = rng.uniform(0.2, 0.9, h) * _phases(rng, h)
        out.append(u @ np.diag(d) @ u.conj().T)
    return out


def _abelian_scalar_doc(t_mats, depth: int) -> dict:
    return {
        "system": {
            "semigroup": {"kind": "free_abelian", "rank": 2},
            "model": {"kind": "toeplitz_abelian"},
            "base": {"blocks": [1]},
        },
        "T": [_cjson(t) for t in t_mats],
        "phi": {"kind": "from_contractions"},
        "depth": depth,
    }


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------

DILATE_CHAIN = ("dilate", "verify")
SCREEN_CHAIN = ("check-cp", "check-nica")


def gen_abelian_gram(rng, directory: str, count: int,
                     depth: int = ABELIAN_DEPTH) -> list[Instance]:
    out = []
    for k in range(count):
        doc = _abelian_scalar_doc(_commuting_abelian_pair(rng), depth)
        path = _write(directory, f"abelian_gram_{k:02d}", doc)
        out.append(Instance(path, "abelian_gram", DILATE_CHAIN, {}))
    return out


def gen_free_boundary(rng, directory: str, count: int) -> list[Instance]:
    out = []
    for k in range(count):
        rows = _unitary(rng, 4)[:2, :]          # [T1 T2] is a co-isometry
        t_mats = [rows[:, :2], rows[:, 2:]]
        doc = {
            "system": {
                "semigroup": {"kind": "free_monoid", "rank": 2},
                "model": {"kind": "boundary_free"},
                "base": {"blocks": [2]},
            },
            "T": [_cjson(t) for t in t_mats],
            "phi": {"kind": "state", "rho": _cjson(np.eye(2) / 2.0)},
            "depth": FREE_DEPTH,
        }
        path = _write(directory, f"free_boundary_{k:02d}", doc)
        out.append(Instance(path, "free_boundary", DILATE_CHAIN, {}))
    return out


def gen_matrix_dense(rng, directory: str, count: int) -> list[Instance]:
    """Three in four instances dilate; the second of every four is the
    transpose pair, which the dilation must refuse at ``gram.psd``."""
    out = []
    for k in range(count):
        alphas = [np.diag(_phases(rng, 2)) for _ in range(2)]
        system = {
            "semigroup": {"kind": "free_abelian", "rank": 2},
            "model": {"kind": "matrix"},
            "base": {"blocks": [2]},
            "alphas": [{"unitary": _cjson(d)} for d in alphas],
        }
        if k % 4 == 1:
            kind = "matrix_dense/transpose"
            w = _unitary(rng, MATRIX_H // 2)
            vs = [w @ np.diag(_phases(rng, MATRIX_H // 2)) @ w.conj().T
                  for _ in range(2)]
            t_mats = [np.kron(d.conj(), v) for d, v in zip(alphas, vs)]
            units = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :]
                     for i in range(2) for j in range(2)]
            values = [np.kron(e.T, np.eye(MATRIX_H // 2)) for e in units]
            phi = {"kind": "base_values", "values": [_cjson(v) for v in values]}
        else:
            kind = "matrix_dense/state"
            w = _unitary(rng, MATRIX_H)
            t_mats = [w @ np.diag(_phases(rng, MATRIX_H)) @ w.conj().T
                      for _ in range(2)]
            p = rng.uniform(0.2, 0.8)
            phi = {"kind": "state", "rho": _cjson(np.diag([p, 1.0 - p]))}
        doc = {"system": system, "T": [_cjson(t) for t in t_mats],
               "phi": phi, "depth": MATRIX_DEPTH}
        path = _write(directory, f"matrix_dense_{k:02d}", doc)
        out.append(Instance(path, kind, DILATE_CHAIN, {}))
    return out


def gen_nica_screen(rng, directory: str, count: int) -> list[Instance]:
    """Cycles abelian, free, nilpotent-below-flip, nilpotent-above-flip."""
    flags = {"check-nica": {"max_f": NICA_MAX_F}}
    out = []
    for k in range(count):
        sort = k % 4
        if sort == 0:
            kind = "nica_screen/abelian"
            doc = _abelian_scalar_doc(_commuting_abelian_pair(rng), NICA_DEPTH)
        elif sort == 1:
            kind = "nica_screen/free"
            rows = rng.uniform(0.5, 0.95) * _unitary(rng, 4)[:2, :]
            doc = {
                "system": {
                    "semigroup": {"kind": "free_monoid", "rank": 2},
                    "model": {"kind": "toeplitz_free"},
                    "base": {"blocks": [1]},
                },
                "T": [_cjson(rows[:, :2]), _cjson(rows[:, 2:])],
                "phi": {"kind": "from_contractions"},
                "depth": NICA_DEPTH,
            }
        else:
            lo, hi = NILPOTENT_PASS if sort == 2 else NILPOTENT_FAIL
            kind = ("nica_screen/nilpotent_pass" if sort == 2
                    else "nica_screen/nilpotent_fail")
            t1 = np.array([[0.0, rng.uniform(lo, hi)], [0.0, 0.0]])
            doc = _abelian_scalar_doc([t1, 1j * t1], NICA_DEPTH)
        path = _write(directory, f"nica_screen_{k:02d}", doc)
        out.append(Instance(path, kind, SCREEN_CHAIN, flags))
    return out


GENERATORS = {
    "abelian_gram": gen_abelian_gram,
    "free_boundary": gen_free_boundary,
    "matrix_dense": gen_matrix_dense,
    "nica_screen": gen_nica_screen,
}


def generate(workload: str, seed: int, directory: str, count: int) -> list[Instance]:
    """Write ``count`` instances of ``workload`` drawn from ``seed``."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, directory, count)


def invariant_rank(kind: str, depth: int = ABELIAN_DEPTH):
    """Dilation rank predicted by the ROADMAP invariants, where one holds."""
    if kind == "abelian_gram":
        return 2 * (depth + 1) ** 2
    if kind == "matrix_dense/state":
        return 4 * MATRIX_H
    return None
