"""``python -m repro.plan`` — see :mod:`repro.plan`."""

import sys

from . import main

sys.exit(main())
