"""Busy time per field and top-level function, from a verify_sweep span file.

    python3 perfbench/trace_by_field.py perfbench/out/trace-verify_sweep.csv.gz 12 14 16

`verify` builds its fields in order m = 2, 3, ...; each `gf2m.make_field` span
starts the next field.  Only spans called directly by `cli.main` are summed,
so a function's time includes its callees (for example `predict_acorr`
includes `expand_inverse_one_plus_pi_tau`, `pow` and `inv`).
"""

import collections
import gzip
import sys


def busy_by_field(path: str, first_m: int = 2) -> dict:
    names, busy = [], collections.defaultdict(float)
    m = first_m - 1
    with gzip.open(path, "rt") as fh:
        for line in fh:
            if line.startswith(("#", "name,")):
                continue
            name, start, end, parent, _raised = line.rstrip("\n").split(",")
            names.append(name)
            if name == "gf2m.make_field":
                m += 1
            p = int(parent)
            if p >= 0 and names[p] == "cli.main":
                busy[m, name] += (int(end) - int(start)) / 1e9
    return busy


if __name__ == "__main__":
    busy = busy_by_field(sys.argv[1])
    for m in map(int, sys.argv[2:]):
        print(f"m={m}")
        for (field, name), seconds in sorted(busy.items(), key=lambda kv: -kv[1]):
            if field == m:
                print(f"  {name:<46} {seconds:10.3f} s")
