"""Module entry point: ``python -m repro``.

A :class:`~repro.common.errors.ConfigurationError` is a usage error:
it prints one line and exits 2, as argparse's own usage errors do.
"""

import sys

from repro.cli import main
from repro.common.errors import ConfigurationError

try:
    sys.exit(main())
except ConfigurationError as error:
    print(f"repro: error: ConfigurationError: {error}", file=sys.stderr)
    sys.exit(2)
