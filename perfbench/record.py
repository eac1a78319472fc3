#!/usr/bin/env python3
"""Record the reference outputs of every input any seed can pick.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a source checkout. Writes ``reference.json``: for
each workload and input key, the digest of the generated documents and
the output the program gives at the current commit. Refuses to record
an output that does not re-certify. Re-record only together with a
change to the benchmark's inputs, never to make a changed program pass.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

from run import HERE, OUT, SRC, import_program
from workloads import WORKLOADS, digest


def record(wl, gp, workdir) -> dict:
    out = {}
    for key in wl.all_keys():
        docs = wl.docs(key)
        case = wl.prepare(gp, docs, workdir, key)
        t0 = time.perf_counter()
        raw = wl.call(gp, case)
        dt = time.perf_counter() - t0
        errs = wl.certify(gp, case, raw)
        if errs:
            raise SystemExit(f"{wl.name} {key}: {errs}")
        out[key] = {"input": digest(docs), "output": wl.canon(raw)}
        print(f"{wl.name} {key} {dt:.4f}s", file=sys.stderr, flush=True)
    return out


def main(names) -> None:
    sys.path.insert(0, str(SRC))
    gp = import_program()
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            ref[name] = record(WORKLOADS[name], gp, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
