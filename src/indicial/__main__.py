"""``python -m indicial``: the command line of :func:`indicial.cli.main`."""

import sys

from .cli import main

sys.exit(main())
