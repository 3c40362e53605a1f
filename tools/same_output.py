"""Check that two redix source trees give byte-identical output.

    python3 tools/same_output.py OLD_SRC NEW_SRC

Runs every CLI row of perfbench/corpus.json and of EXTRA at seeds 42
and 7, and `selftest --scope all --seed 42`, each once with `--format
json` and once in the default human format, as `python -m redix.cli
...` in a fresh process with PYTHONHASHSEED=0 and PYTHONPATH set to one
of the two directories.  EXTRA holds field-extension reports that the
corpus, with its single one into GF(8), lacks, and monomial reports that
pin renderings the corpus never reaches: the zero component, the prime
(0), the witness 1, witnesses in two subrings, a fiber of index 0 and
witness order across six primes in four variables; and abelian reports
the corpus never reaches: the trivial group, three primary parts, a
search above the quotient-scan cap and a skipped search.
Compares stdout, stderr and exit code of each request and exits 1 if
any differ, 0 if none do.
Only the standard library is used, and the corpus is read, never
written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.json"
SEEDS = (42, 7)
EXTRA = (
    # 28,730 trial divisors over GF(169), the largest field-extension factoring here
    ["basechange", "f: x^4+x^3+1 over GF(13)", "field:->GF(169)"],
    # two irreducible cubics, each splitting into three linear factors
    ["basechange", "f: x^6+x^5+x^4+x^3+x^2+x+1 over GF(2)", "field:GF(2)->GF(8)=s^3+s+1"],
    # x^2 * (x^2 + 1)^2, repeated factors on both sides
    ["basechange", "f: x^6+2*x^4+x^2 over GF(3)", "field:->GF(9)"],
    # minus signs and a descriptor modulus over an odd prime
    ["basechange", "f: x^4 - x^2 + 2*x - 1 over GF(5)", "field:GF(5)->GF(25)=t^2+2"],
    # a leading minus and a bracketed coefficient
    ["basechange", "f: -x^3 + (2)*x + 1 over GF(3)", "field:->GF(9)"],
    # bracketed sums over an extension field, refused with exit 2
    ["basechange", "f: (t+1)*x^2 + (-t)*x + t^2 over GF(4)=t^2+t+1", "field:->GF(16)"],
    # the zero ideal: component 0, prime (0) and witness 1
    ["decompose", "ring: x, y; ideal:"],
    # primes (x) and (x, y), with witnesses in the rings on x and on x, y
    ["decompose", "ideal: x^2, x*y"],
    # one fiber, labelled (0)
    ["basechange", "ring: x, y; ideal:", "extend:1"],
    # inverting y sends the fiber at (x, y) to the zero ring: index 0
    ["basechange", "ideal: x^2, x*y", "invert:y"],
    # six primes in four variables, three witnesses at (w, x, y) in lex order
    ["decompose", "ideal: x^3*y, x*y^2*z^2, y^3*z*w, z^2*w^3, x^2*w"],
    # the same ideal with y inverted: three of the six fibers are zero
    ["basechange", "ideal: x^3*y, x*y^2*z^2, y^3*z*w, z^2*w^3, x^2*w", "invert:y"],
    # the trivial group: an empty sample and no secondary representation
    ["abelian", "group: Z/1"],
    # three primary parts, and sample members of two digits
    ["abelian", "group: Z/4 + Z/3 + Z/5"],
    # a search on a group above the quotient-scan cap
    ["abelian", "group: Z/64"],
    # --max-order below the order: the search is skipped
    ["abelian", "group: Z/2 + Z/32", "--max-order", "16"],
)


def requests() -> list[list[str]]:
    rows = [row["argv"] for row in json.loads(CORPUS.read_text())["cli"]] + list(EXTRA)
    plain = [[*argv, "--seed", str(seed)] for seed in SEEDS for argv in rows]
    plain.append(["selftest", "--scope", "all", "--seed", "42"])
    return [argv + fmt for fmt in (["--format", "json"], []) for argv in plain]


def run(src: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "redix.cli", *argv], capture_output=True, env=env, check=False
    )
    return proc.stdout, proc.stderr, proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_output.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    differ = 0
    todo = requests()
    for argv_i in todo:
        a, b = run(old, argv_i), run(new, argv_i)
        diff = [name for name, x, y in zip(("stdout", "stderr", "exit"), a, b) if x != y]
        status = "DIFFERENT " + ",".join(diff) if diff else "same"
        print(f"{status:<12} exit {a[2]}/{b[2]}  {' '.join(argv_i)}")
        differ += bool(diff)
    print(f"{len(todo) - differ} of {len(todo)} requests byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
