#!/usr/bin/env python3
"""Print the verify digests of this checkout: sha256 over the
concatenated `render.to_json(report)` of every report of `verify_all`,
each report written as its title and checks.

The first digest covers the built-in catalog.  The second continues the
same hash over one catalog for each planted single-field error of the
`audit` benchmark's mutation space (`bench/audit.py`, 1797 errors; about
10 s on a 2-core x86-64 host).  A change that keeps every verify report byte for byte keeps both
digests, so comparing them at two commits checks that nothing `verify`
prints has moved.

    python3 scripts/verify_digest.py

The package is loaded from `src/` and the mutation space from `bench/`
of the checkout this script lives in; neither is changed.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import audit
    from delpezzo.catalog import builtin_catalog, construction_models
    from delpezzo.render import to_json
    from delpezzo.verify import verify_all

    records = builtin_catalog()
    space = audit.mutation_space(records, construction_models)
    digest = hashlib.sha256()
    # the pristine catalog (mutation None) first, then each planted error
    for mutation in [None] + space:
        for report in verify_all(audit.mutate(records, mutation)):
            digest.update(to_json(report).encode())
        if mutation is None:
            print(f"pristine  {digest.hexdigest()}")
    print(f"planted   {digest.hexdigest()}  ({len(space)} planted errors)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
