"""Write ``reference.json``: the answers the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only when the package's answers are meant to change; the digests
record the mathematical fields of every sweep record of the A1 corpus.
"""

import json
import sys

import run


def main() -> int:
    run.prepare_environment()
    from workloads import (REFERENCE, SWEEP_CORPUS, enumerate_symbols,
                           evaluate_symbol, record_digest)
    sweep = {}
    for primes, max_order in SWEEP_CORPUS:
        for sym in enumerate_symbols(max_order, primes):
            sweep[str(sym)] = record_digest(evaluate_symbol(str(sym)))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"sweep": sweep}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE.name}: {len(sweep)} sweep records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
