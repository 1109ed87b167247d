"""Set-up child: import repmetric, then load and validate one workload's inputs.

Its wall time, spawn to exit, is the benchmark's ``setup_s``: the cost a
user pays before any distance is computed.

    python3 bench/setup_child.py SPEC.json

SPEC lists ``manifests`` (read with read_manifest, every entry loaded)
and ``matrices`` ([path, kind] pairs read with read_matrix).
"""

import json
import sys

import repmetric as rm


def load(path, kind):
    loaded = rm.read_matrix(path, kind)
    kind = rm.MatrixKind(kind)
    if kind is rm.MatrixKind.REPRESENTATION:
        return rm.gram(rm.RepresentationMatrix.from_array(loaded.values, loaded.labels))
    if kind is rm.MatrixKind.KERNEL:
        return rm.KernelMatrix.from_array(loaded.values, loaded.labels)
    return loaded


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for manifest_path in spec.get("manifests", []):
        manifest = rm.read_manifest(manifest_path)
        for entry in manifest.entries:
            load(manifest.resolve(entry), entry.kind.value)
    for path, kind in spec.get("matrices", []):
        load(path, kind)


if __name__ == "__main__":
    main(sys.argv[1])
