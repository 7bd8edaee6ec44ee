"""The keep-alive framing matrix of ``test_keepalive``, through the pool.

The router reads each request body with the same ``read_request_body``
as the single server before relaying it, so it must answer every framing
error the same way: 400 and close, and never read unread body bytes as
the next request.  The tests imported below run here a second time, with
``addr`` the public port of a one-worker pool.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.serve.service import QueryService
from tests.serve.test_keepalive import (
    MAX_BODY,
    test_connection_reused_across_requests,  # noqa: F401
    test_missing_content_length_rejected,  # noqa: F401
    test_negative_content_length_rejected,  # noqa: F401
    test_non_integer_content_length_rejected,  # noqa: F401
    test_oversized_body_does_not_poison_pipelined_request,  # noqa: F401
    test_oversized_body_rejected_and_connection_closed,  # noqa: F401
    test_short_body_rejected_and_closed,  # noqa: F401
    test_trace_id_is_not_echoed_on_later_replies,  # noqa: F401
    test_unknown_post_route_does_not_poison_pipelined_request,  # noqa: F401
)


@pytest.fixture(scope="module")
def addr():
    if not hasattr(os, "fork"):
        pytest.skip("PoolServer needs os.fork")
    from repro.serve.pool import PoolServer

    pool = PoolServer(
        QueryService(), port=0, workers=1, max_body_bytes=MAX_BODY, preload=False
    )
    pool.start()
    thread = threading.Thread(target=pool.serve_forever, daemon=True)
    thread.start()
    try:
        yield pool.address
    finally:
        pool.shutdown()
        pool.close()
        thread.join(timeout=10)
