"""Mutation check of the Tier-1 suite: every mutant of src/ must make it fail.

    python tests/mutants.py             # every mutant, then write tests/mutants.json
    python tests/mutants.py NAME ...    # only the named mutants (others kept as recorded)

Each mutant is one textual change to one file under src/mucone: (name,
file, old text, new text, what it breaks). For each, the script copies
src/, tests/, bench/ and pyproject.toml into a temporary directory,
replaces the old text (which must occur exactly once) and runs the Tier-1
suite there with -x. The suite failing kills the mutant; the first failing
test is recorded. A mutant that computes the same results as the source is
listed in EQUIVALENT with the reason. The results go to tests/mutants.json,
and the exit status is 1 when a mutant survived without a reason.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "tests" / "mutants.json"
TIMEOUT_S = 900

# (name, file under src/mucone, old text, new text, what it breaks)
MUTANTS = [
    # -- geometry: faces, extreme rays, pointedness, subdivisions
    ("face-sets-no-closure", "geometry.py",
     "new = {a & b for a in new for b in facet_sets} - sets",
     "new = set()",
     "faces are only the whole set and the facets: no vertex, edge or ray is a face"),
    ("face-sets-one-round", "geometry.py",
     "    while new:\n        sets |= new",
     "    if new:\n        sets |= new",
     "faces are only intersections of at most two facets: a cube has no vertex"),
    ("singleton-rule-inverted", "geometry.py",
     "if frozenset({i}) in faces)",
     "if frozenset({i}) not in faces)",
     "a cone's extreme rays are the rays that are not faces"),
    ("extreme-rays-every-index", "geometry.py",
     "return tuple(i for i in range(len(self.generators)) if frozenset({i}) in faces)",
     "return tuple(range(len(self.generators)))",
     "redundant generators count as extreme rays"),
    ("polytope-vertex-check-dropped", "geometry.py",
     'raise NotExtremeError(f"input point {Vector(p)} is not a vertex")',
     "pass",
     "a polytope accepts input points that are not vertices"),
    ("is-pointed-ge", "geometry.py",
     "rank([h for h, _ in self.facets]) == self.dim",
     "rank([h for h, _ in self.facets]) >= self.dim",
     "pointedness accepts facet normals of rank above the dimension"),
    ("cone-facets-one-orientation", "geometry.py",
     "elif all(v <= 0 for v in vals):",
     "elif False:",
     "facets whose first normal points outward are dropped"),
    ("normal-cone-strict-subset", "geometry.py",
     "if f.indices <= on)",
     "if f.indices < on)",
     "a facet's normal cone loses its own normal"),
    ("certify-gap", "geometry.py",
     "if cnt != want:",
     "if cnt > want:",
     "a subdivision with a gap (an interior wall seen once) passes the certificate"),
    ("star-step-max-point", "geometry.py",
     "w, num = min(points, key=lambda pc: (sum(pc[1]), pc[1]))",
     "w, num = max(points, key=lambda pc: (sum(pc[1]), pc[1]))",
     "the stellar step picks the parallelepiped point of largest coefficient sum"),
    ("volume-factorial", "geometry.py",
     "Fraction(f._det_sum, math.factorial(f.dim))",
     "Fraction(f._det_sum, math.factorial(f.dim + 1))",
     "normalized volumes are divided by (dim + 1)! instead of dim!"),
    # -- complement: psi's one elimination, the Gram images
    ("psi-denominator-sign", "complement.py",
     " * (1 if d > 0 else -1)",
     "",
     "psi keeps the elimination's sign: a pairing of negative determinant gives a "
     "negative denominator"),
    ("psi-generic-any-k-pivots", "complement.py",
     "if len(rows) != k or pivots != list(range(k)):",
     "if len(pivots) < k:",
     "psi accepts k pivots anywhere as generic, also pivots in the basis block of a "
     "singular pairing"),
    ("psi-ray-scale-dropped", "complement.py",
     "nums = [[a * x for x in row[k:]]",
     "nums = [[x for x in row[k:]]",
     "psi's pivot vectors for rational rays miss each ray's cleared denominator"),
    ("gram-image-first-for-all", "complement.py",
     "return [self._images[w] for w in rays]",
     "return [next(iter(self._images.values())) for w in rays]",
     "a Gram map returns the first ray's cached image for every ray"),
    # -- series: the Todd coefficients
    ("todd-coefficient-sign", "series.py",
     "g = [Fraction((-1) ** k, math.factorial(k + 1))",
     "g = [Fraction(1, math.factorial(k + 1))",
     "td is inverted from (e^z - 1)/z, the Todd series of -z"),
    # -- interp: the reduction, the chain sum, the interpolation, the cache
    ("rewrite-relation-sign", "interp.py",
     "spill = [-per * dot(rays[j], u) for j in rest]",
     "spill = [per * dot(rays[j], u) for j in rest]",
     "the rewrite D_i D_S adds the <w_j, u> D_j D_S terms instead of subtracting them"),
    ("reducer-top-degree-spill", "interp.py",
     "elif r < self.order or len(s) < self.k:",
     "elif r < self.order:",
     "at the top t-degree a rewrite drops its spill to larger subsets"),
    ("td-factor-one-pivot", "interp.py",
     "power = self._apply(power, i)",
     "power = self._apply(power, self.pivot_order[0])",
     "every Td factor multiplies by the first pivot's operator"),
    ("psi-order-0-tolerance", "interp.py",
     "if len(s) < k or order:",
     "if len(s) < k:",
     "a psi failure on the full subset is swallowed at every order"),
    ("chain-sum-sign", "interp.py",
     "g[t] = (-a // r, b // r)",
     "g[t] = (a // r, b // r)",
     "the chain sum loses its alternating sign"),
    ("chain-sum-q-power", "interp.py",
     "den *= d * q ** cap",
     "den *= d * q ** (cap - 1)",
     "the chain-sum term is off by the line's denominator q"),
    ("newton-differences", "interp.py",
     "for i in range(len(line) - 1, j - 1, -1):",
     "for i in range(len(line) - 1, j, -1):",
     "one difference short on each lattice line: wrong Newton coefficients"),
    ("newton-degree-check", "interp.py",
     "if sum(alpha) > r:",
     "if sum(alpha) > r + 1:",
     "a degree-r part with Newton coefficients of degree r + 1 is accepted"),
    ("reduce-no-rescale", "interp.py",
     "* Q ** (order - r) if top else 0",
     "* Q ** order if top else 0",
     "the reducer puts every t-degree over the denominator of degree order"),
    ("reduce-cell-rescale-exponent", "interp.py",
     "(Q // L) ** (k + r)",
     "(Q // L) ** k",
     "a cell whose scale is below the line's lcm is summed at the wrong power of the ratio"),
    ("reduce-one-cell-rule-every-line", "interp.py",
     "one = len(scales) == 1",
     "one = len(scales) >= 1",
     "every line takes its first cell's row as it is, also when the cone has more cells"),
    ("reduce-first-cell-only", "interp.py",
     "for c, L in enumerate(scales))",
     "for c, L in enumerate(scales[:1]))",
     "a line's row holds only the first basic cell"),
    ("mu-basic-provenance", "interp.py",
     'kind = "reduction" if cone.is_basic else "subdivision-sum"',
     'kind = "reduction"',
     "mu of a non-basic cone is labelled a reduction"),
    ("cross-check-first-cell", "interp.py",
     "for cell in cone.basic_cells:\n            val, other",
     "for cell in cone.basic_cells[:1]:\n            val, other",
     "mu's cross-check compares only the first basic cell"),
    ("line-cross-check-dropped", "interp.py",
     "if cross_validate and restrict_to_direction(",
     "if False and restrict_to_direction(",
     "mu_on_line's cross-check never compares with the full mu"),
    ("todd-top-coefficient-dropped", "interp.py",
     "todd = [(m, c) for m, c in enumerate(tdn) if c]",
     "todd = [(m, c) for m, c in enumerate(tdn[:-1]) if c]",
     "the chain sum's Todd factors lose their top coefficient td_(k + order)"),
    ("nodes-exit-when-all-vanish", "interp.py",
     "if not all(p for p, _ in rows[-1]):",
     "if not any(p for p, _ in rows[-1]):",
     "a shift is kept although some form vanishes at one of its nodes"),
    ("homogeneity-numerators-only", "interp.py",
     "if any(b * A != a * 2 ** r * B for",
     "if any(b != a * 2 ** r for",
     "the n = 1 homogeneity check compares numerators over different denominators"),
    ("interpolate-keeps-zero-sums", "interp.py",
     "for e, c in coeffs.items() if c})",
     "for e, c in coeffs.items()})",
     "the interpolated series stores monomials whose coefficient sums to zero"),
    ("mu-cache-key-cross-validate", "interp.py",
     "key = (cone.canonical_key(), cmap.key(), order, bool(cross_validate))",
     "key = (cone.canonical_key(), cmap.key(), order)",
     "a cross-validated mu is read from a cache filled without the check"),
    # -- valuations: power sums, face integrals, half-open cells, directions, reports
    ("power-sum-factorial", "valuations.py",
     "factorial(r) * s ** r) for r in range(q + 1)]",
     "factorial(r + 1) * s ** r) for r in range(q + 1)]",
     "the lattice-point sum's t^r coefficient is divided by (r + 1)!"),
    ("homogeneous-sums", "valuations.py",
     "h[r] += c * h[r - 1]",
     "h[r] += c * h[r]",
     "the complete homogeneous sums of the simplex pairings are wrong"),
    ("face-integral-denominator", "valuations.py",
     "factorial(m + r) * s ** r",
     "factorial(m) * factorial(r) * s ** r",
     "the face integral's t^r coefficient is divided by m! r! instead of (m + r)!"),
    ("power-sum-scale-once", "valuations.py",
     "factorial(r) * s ** r)",
     "factorial(r) * s)",
     "the lattice-point sum divides its t^r coefficient by the direction's denominator s, "
     "not by s^r"),
    ("face-integral-scale-once", "valuations.py",
     "factorial(m + r) * s ** r)",
     "factorial(m + r) * s)",
     "the face integral divides its t^r coefficient by the direction's denominator s, "
     "not by s^r"),
    ("half-open-selection", "valuations.py",
     "if dot(h, probe) < 0}",
     "if dot(h, probe) > 0}",
     "Brion's half-open cells open the facets facing the probe"),
    ("direction-zero-vectors-kept", "valuations.py",
     "avoid = [v for v in avoid if any(v)]",
     "avoid = list(avoid)",
     "a zero vector in avoid rejects every direction"),
    ("identity-order-unchecked", "valuations.py",
     "(self.achieved >= q\n                       and all(",
     "(all(",
     "an identity report passes although it was checked below order q"),
    # -- cli: the exit-code map
    ("exit-domain-not-integral", "cli.py",
     "_DOMAIN_ERRORS = (NotGenericError, NotIntegralError, UnknownRayError,",
     "_DOMAIN_ERRORS = (NotGenericError, UnknownRayError,",
     "a non-integral input exits 1 (usage) instead of 2 (domain)"),
    ("exit-verify-failure", "cli.py",
     "return data, EXIT_PASS if ok else EXIT_VERIFY",
     "return data, EXIT_PASS",
     "a failed verification exits 0"),
]

EQUIVALENT = {
    "is-pointed-ge": "the facet normals lie in the cone's linear span, of dimension dim, "
                     "so their rank is at most dim and >= reads as ==",
}


def apply(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "mucone" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: old text occurs {text.count(old)} times: {old!r}")
    path.write_text(text.replace(old, new))


def run_one(name: str, file: str, old: str, new: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        apply(tree, file, old, new)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        seconds = round(time.perf_counter() - start, 1)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    result = {"seconds": seconds}
    if proc.returncode == 0:
        result["status"] = "equivalent" if name in EQUIVALENT else "survived"
        if name in EQUIVALENT:
            result["reason"] = EQUIVALENT[name]
    else:
        result["status"] = "killed"
        result["first_failure"] = failed.group(1) if failed else f"exit {proc.returncode}"
    return result


def main(argv: list[str]) -> int:
    known = {m[0] for m in MUTANTS}
    unknown = set(argv) - known
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    recorded = {r["name"]: r for r in json.loads(RESULTS.read_text())} if RESULTS.exists() else {}
    out = []
    for name, file, old, new, breaks in MUTANTS:
        if argv and name not in argv and name in recorded:
            out.append(recorded[name])
            continue
        result = run_one(name, file, old, new)
        print(f"{name}: {result['status']} ({result['seconds']} s)", flush=True)
        out.append({"name": name, "file": f"src/mucone/{file}", "breaks": breaks, **result})
    RESULTS.write_text(json.dumps(out, indent=1) + "\n")
    survivors = [r["name"] for r in out if r.get("status") == "survived"]
    if survivors:
        print("survived:", ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
