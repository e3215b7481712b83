"""Cold start of one workload: import dpgtransport and solve level 0.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON

Prints the raw seconds and the seconds at the reference speed (speed.py) of
importing `dpgtransport` and running the level-0 `solve_level`, which fills
the basis, quadrature and subcell caches that every CLI run pays for.
"""

import json
import sys

from speed import Segment  # standard library only


def main() -> None:
    src, config_json = sys.argv[1], sys.argv[2]
    with Segment() as segment:
        sys.path.insert(0, src)
        from dpgtransport import cli

        kwargs = json.loads(config_json)
        kwargs["levels"] = tuple(kwargs["levels"])
        cli.solve_level(cli.RunConfig(**kwargs), 0)
    print(repr(segment.seconds), repr(segment.scaled))


if __name__ == "__main__":
    main()
