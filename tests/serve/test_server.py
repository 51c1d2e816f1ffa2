"""QueryServer: the JSON protocol over TCP and stdio, error isolation,
and the background drain of queued guarantees."""

import asyncio
import io
import json

from repro.serve import QueryServer, request_over_tcp

SPEC = {
    "schema": {"R": 1},
    "family": {"kind": "geometric", "first": 0.3, "ratio": 0.9},
    "query": "EXISTS x. R(x) AND (R(1) OR R(2))",
    "strategy": "bdd",
    "epsilon_budget": 0.05,
}


def roundtrip(requests, server=None):
    """Boot a server on an ephemeral port, run the requests through a
    real socket from a worker thread, shut down, return the responses.
    A trailing shutdown op is appended when missing so the server task
    always terminates."""
    requests = list(requests)
    if not requests or requests[-1].get("op") != "shutdown":
        requests.append({"op": "shutdown"})

    async def run():
        srv = server if server is not None else QueryServer()
        ready = asyncio.Event()
        holder = {}

        def on_ready(port):
            holder["port"] = port
            ready.set()

        task = asyncio.ensure_future(srv.serve_tcp(port=0, ready=on_ready))
        await ready.wait()
        loop = asyncio.get_running_loop()
        try:
            responses = await loop.run_in_executor(
                None, request_over_tcp, "127.0.0.1", holder["port"],
                requests)
        finally:
            srv._shutdown.set()
            await task
            srv.close()
        return responses

    return asyncio.run(run())[:-1]  # drop the shutdown ack


def test_ping():
    (response,) = roundtrip([{"op": "ping"}])
    assert response == {"ok": True, "result": "pong"}


def test_create_query_sweep_best():
    create, query, sweep, best = roundtrip([
        {"op": "create", "session": "s", "spec": SPEC},
        {"op": "query", "session": "s", "epsilon": 0.1},
        {"op": "sweep", "session": "s", "epsilons": [0.1, 0.05, 0.05]},
        {"op": "best", "session": "s"},
    ])
    assert create["ok"] and create["result"]["name"] == "s"
    assert query["ok"] and not query["partial"]
    assert query["result"]["epsilon"] == 0.1
    assert sweep["ok"]
    assert [r["requested_epsilon"] for r in sweep["result"]] == [0.1, 0.05]
    assert best["ok"] and best["result"]["epsilon"] == 0.05


def test_queued_query_returns_partial_then_drains():
    server = QueryServer()
    coarse_then_tight = roundtrip([
        {"op": "create", "session": "s", "spec": SPEC},
        {"op": "query", "session": "s", "epsilon": 0.1},
        {"op": "query", "session": "s", "epsilon": 0.001},
    ], server=server)
    tight = coarse_then_tight[2]
    assert tight["partial"] is True
    assert tight["result"]["epsilon"] == 0.1  # the anytime best so far
    # The drain task ran before shutdown completed (serve_tcp awaits
    # _settle); the queued guarantee is now met in warm session state.
    managed = server.manager.get("s")
    assert managed.pending == []
    assert managed.best.epsilon == 0.001


def test_wait_true_blocks_for_full_refinement():
    responses = roundtrip([
        {"op": "create", "session": "s", "spec": SPEC},
        {"op": "query", "session": "s", "epsilon": 0.1},
        {"op": "query", "session": "s", "epsilon": 0.001, "wait": True},
    ])
    assert responses[2]["partial"] is False
    assert responses[2]["result"]["epsilon"] == 0.001


def test_sessions_stats_drop():
    sessions, stats, drop, gone = roundtrip([
        {"op": "create", "session": "s", "spec": SPEC},
        {"op": "sessions"},
        {"op": "stats"},
        {"op": "drop", "session": "s"},
        {"op": "sessions"},
    ])[1:]
    assert [s["name"] for s in sessions["result"]] == ["s"]
    assert stats["result"]["sessions"] == 1
    assert stats["result"]["shard_pool"] is None
    assert drop["ok"]
    assert gone["result"] == []


MARGINALS_SPEC = {
    "schema": {"R": 1},
    "family": {"kind": "geometric", "first": 0.3, "ratio": 0.9},
    "query": "R(x)",
}


def test_shard_pool_workers_start_with_the_first_compiled_marginals():
    """``QueryServer(shard_workers=2)`` forks nothing when it starts.  A
    safe ``marginals`` request is one in-process grouped pass and starts
    no worker; a ``bdd`` one ships, which starts the pool's workers, and
    its answers equal a pool-less server's bit for bit."""
    from repro.parallel import shutdown_shared_pools

    compiled_spec = dict(MARGINALS_SPEC, strategy="bdd")
    requests = [
        {"op": "stats"},
        {"op": "create", "session": "safe", "spec": MARGINALS_SPEC},
        {"op": "marginals", "session": "safe", "epsilon": 0.05},
        {"op": "stats"},
        {"op": "create", "session": "bdd", "spec": compiled_spec},
        {"op": "marginals", "session": "bdd", "epsilon": 0.05},
        {"op": "stats"},
    ]
    shutdown_shared_pools()  # a fresh process-wide pool for this test
    try:
        server = QueryServer(shard_workers=2)
        assert server.shard_pool.worker_pids() == []
        responses = roundtrip(requests, server=server)
        assert server.shard_pool.worker_pids()
    finally:
        shutdown_shared_pools()
    assert all(r["ok"] for r in responses), responses
    stats = [responses[i]["result"]["shard_pool"] for i in (0, 3, 6)]
    assert stats[0] == stats[1] == {"workers": 2, "live": 0}
    assert stats[2]["workers"] == 2 and stats[2]["live"] >= 1
    serial = roundtrip(requests)
    for i in (2, 5):
        assert [(r["answer"], r["value"]) for r in responses[i]["result"]] \
            == [(r["answer"], r["value"]) for r in serial[i]["result"]]


def test_errors_do_not_kill_the_connection():
    responses = roundtrip([
        {"op": "query", "session": "ghost", "epsilon": 0.1},
        {"op": "create", "session": "s", "spec": {"bogus": True}},
        {"op": "frobnicate"},
        {"op": "query", "epsilon": 0.1},
        {"op": "ping"},
    ])
    assert [r["ok"] for r in responses] == [False] * 4 + [True]
    assert "no session" in responses[0]["error"]
    assert "unknown op" in responses[2]["error"]


def test_bad_json_is_an_error_response():
    async def run():
        server = QueryServer()
        response = await server.dispatch_line("this is not json\n")
        array = await server.dispatch_line("[1, 2]\n")
        server.close()
        return response, array

    response, array = asyncio.run(run())
    assert not response["ok"] and "bad JSON" in response["error"]
    assert not array["ok"] and "JSON object" in array["error"]


def test_stdio_mode():
    lines = [
        {"op": "ping"},
        {"op": "create", "session": "s", "spec": SPEC},
        {"op": "query", "session": "s", "epsilon": 0.1},
        {"op": "shutdown"},
    ]
    infile = io.StringIO("\n".join(json.dumps(l) for l in lines) + "\n")
    outfile = io.StringIO()
    server = QueryServer()
    asyncio.run(server.serve_stdio(infile=infile, outfile=outfile))
    server.close()
    responses = [json.loads(l) for l in outfile.getvalue().splitlines()]
    assert len(responses) == 4
    assert all(r["ok"] for r in responses)
    assert responses[2]["result"]["epsilon"] == 0.1


def test_warm_session_answers_from_memory():
    """The point of the service: a repeated guarantee is a cache hit,
    not a recomputation."""
    server = QueryServer()
    roundtrip([
        {"op": "create", "session": "s", "spec": SPEC},
        {"op": "query", "session": "s", "epsilon": 0.01},
        {"op": "query", "session": "s", "epsilon": 0.01},
        {"op": "query", "session": "s", "epsilon": 0.05},
    ], server=server)
    managed = server.manager.get("s")
    # 3 queries, but only the first refined; the rest were covered by
    # the remembered best.
    assert managed.requests == 3
    assert managed.refinements == 1


def test_approximation_errors_carry_the_achieved_tail():
    """An exhausted truncation search comes back as a structured error:
    the message, the error class and the certified tail it reached."""
    spec = dict(SPEC, family={"kind": "zeta", "exponent": 1.5,
                              "scale": 0.5},
                max_facts=50)
    create, query, bad = roundtrip([
        {"op": "create", "session": "z", "spec": spec},
        {"op": "query", "session": "z", "epsilon": 1e-4, "wait": True},
        {"op": "query", "session": "missing", "epsilon": 0.1},
    ])
    assert create["ok"], create
    assert not query["ok"]
    assert query["error_type"] == "ApproximationError"
    assert query["achieved_tail"] > 1e-4
    assert "max_facts=50" in query["error"]
    assert bad["error_type"] == "ServeError" and "achieved_tail" not in bad


def test_query_result_carries_the_certificate():
    create, query = roundtrip([
        {"op": "create", "session": "s", "spec": SPEC},
        {"op": "query", "session": "s", "epsilon": 0.1},
    ])
    result = query["result"]
    assert result["tail"] <= 0.1
    assert result["fold_error"] > 0.0
    assert result["low"] <= result["value"] <= result["high"]
    assert result["high"] - result["low"] <= (
        result["tail"] + 3 * result["fold_error"])
