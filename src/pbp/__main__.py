"""``python -m pbp``: the ``pbp`` command line, without an installed console script."""

import sys

from .cli import main

sys.exit(main())
