"""``python -m spherehc``: the ``spherehc`` command."""

from .cli import main

raise SystemExit(main())
