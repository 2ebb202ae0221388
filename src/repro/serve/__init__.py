"""Network front end: SQL over HTTP against a resident query engine.

::

    python -m repro serve --port 8080 --kernel process --workers 4

    curl -s localhost:8080/sql -d '{"sql": "Select ...", "options": {"mode": "parallel"}}'

See :mod:`repro.serve.server` for the protocol.
"""

from repro.serve.server import QueryServer

__all__ = ["QueryServer"]
