"""Turn one measured run into the metrics ``BENCHMARK.json`` names.

``BENCHMARK.json`` is the single list of metric names, units and
bounds; this module computes a value for every one of them and the
runner emits exactly the listed set.

Layer times are *self* times (a span less what its children cover)
divided by the number of warm passes, so on an engine workload they add
up to the traced ``warm_pass_s``; ``cold.*`` are per cold sample and
``post_commit.*`` per post-commit query.  ``core.engine.run_s`` is the
one inclusive figure.  Counts come from the same boundaries or from the
program's public counters (``RunResult`` fields, ``GraphService.stats()``).
"""

import statistics
from trace import SPAN_NAMES, layer_totals, request_gaps

def summary(samples):
    """Median, quartiles and count of a timing's samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def end_to_end(measured, setup_samples):
    """The end-to-end metrics of one run, each with its quartiles and
    sample count: the four every workload has (the ones BENCHMARK.json
    bounds), plus throughput, the failed share and ``serve_live``'s
    three service-only latencies, which the report prints beside
    them."""
    samples = dict(measured["samples"], setup_s=setup_samples)
    out = {name: summary(values) for name, values in samples.items()
           if values}
    passes = samples["warm_pass_s"]
    out["ops_per_s"] = {"value": measured["ops"] / sum(passes),
                        "n": len(passes)}
    out["peak_rss_mb"] = {"value": measured["peak_rss_mb"], "n": 1}
    tally = measured["tally"]
    out["failed_share"] = {"value": tally.failed / tally.attempted,
                           "n": tally.attempted}
    return out


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(measured, tracer):
    """Every per-layer metric of one traced run, as ``{name: value}``."""
    spans = tracer.spans
    passes = len(measured["samples"]["warm_pass_s"])
    cold_samples = len(measured["samples"]["cold_first_answer_s"])
    warm = layer_totals(spans, "warm")
    cold = layer_totals(spans, "cold")
    counters = measured["counters"]
    service = measured.get("service", {})

    def per_pass(value):
        return value / passes

    def self_s(name):
        return per_pass(warm[name]["self_s"])

    def count(field):
        return per_pass(counters.get(field, 0))

    out = {}
    plan_s = self_s("core.plan.get") + self_s("core.plan.build")
    kernel_s = (self_s("core.kernels.batch") + self_s("core.kernels.page")
                + self_s("core.kernels.round"))
    plan_calls = warm["core.plan.get"]["calls"]
    out.update({
        "format.io.open_s": (cold["format.io.open"]["self_s"]
                             / max(1, cold["format.io.open"]["calls"])),
        "format.io.page_s": self_s("format.io.page"),
        "format.io.page_calls": per_pass(warm["format.io.page"]["calls"]),
        "format.io.pool_hit_rate": _ratio(counters.get("pool_hits", 0),
                                          counters.get("pool_misses", 0)),
        "format.io.bytes_read": count("host_bytes_read"),
        "core.plan.get_s": plan_s,
        "core.plan.builds": per_pass(warm["core.plan.build"]["calls"]),
        "core.plan.hit_rate": (
            1.0 - warm["core.plan.build"]["calls"] / plan_calls
            if plan_calls else 0.0),
        "core.plan.gather_s": self_s("core.plan.gather"),
        "core.plan.gather_calls": per_pass(
            warm["core.plan.gather"]["calls"]),
        "core.kernels.batch_s": self_s("core.kernels.batch"),
        "core.kernels.page_s": self_s("core.kernels.page"),
        "core.kernels.round_s": self_s("core.kernels.round"),
        "core.kernels.edges": count("edges_traversed"),
        "core.kernels.medges_per_s": (
            count("edges_traversed") / kernel_s / 1e6 if kernel_s else 0.0),
        "core.streams.booking_s": self_s("core.streams.booking"),
        "core.streams.pages_booked": count("pages_streamed"),
        "core.streams.kpages_per_s": (
            count("pages_streamed") / self_s("core.streams.booking") / 1e3
            if warm["core.streams.booking"]["self_s"] else 0.0),
        "core.cache.gpu_hit_rate": _ratio(counters.get("cache_hits", 0),
                                          counters.get("cache_misses", 0)),
        "core.cache.shared_hit_rate": _ratio(
            counters.get("shared_hits", 0),
            counters.get("shared_misses", 0)),
        "core.engine.run_s": per_pass(warm["core.engine.run"]["total_s"]),
        "core.engine.self_s": self_s("core.engine.run"),
        "core.engine.rounds": count("num_rounds"),
        "hardware.sim_elapsed_s": count("elapsed_seconds"),
        "hardware.storage_bytes_read": count("storage_bytes_read"),
        "dynamic.apply_s": self_s("dynamic.apply"),
        "dynamic.wal_append_s": self_s("dynamic.wal_append"),
        "dynamic.pin_s": self_s("dynamic.pin"),
        "dynamic.commits": per_pass(service.get("commits", 0)),
        "dynamic.reclaimed_versions": service.get("reclaimed_versions", 0),
        "dynamic.chain_length_max": service.get("chain_length_max", 0),
        "dynamic.delta_bytes": service.get("delta_bytes", 0),
        "service.submit_s": self_s("service.submit"),
        "service.update_s": self_s("service.update"),
        "service.http.serialize_s": self_s("service.http.serialize"),
        "service.rejected": service.get("rejected", 0),
        "service.peak_in_flight": service.get("peak_in_flight", 0),
        "concurrency.gate_wait_s": per_pass(
            service.get("gate_wait_s", 0.0)),
        "concurrency.plan_lock_wait_s": per_pass(
            service.get("plan_lock_wait_s", 0.0)),
        "concurrency.admission_lock_wait_s": per_pass(
            service.get("admission_lock_wait_s", 0.0)),
    })
    def cold_s(name, field="self_s"):
        return cold[name][field] / max(1, cold_samples)

    out.update({
        "cold.format.io.page_s": cold_s("format.io.page"),
        "cold.core.plan.get_s": (cold_s("core.plan.get")
                                 + cold_s("core.plan.build")),
        "cold.core.kernels.batch_s": cold_s("core.kernels.batch"),
        "cold.core.kernels.page_s": cold_s("core.kernels.page"),
        "cold.core.streams.booking_s": cold_s("core.streams.booking"),
        "cold.core.engine.self_s": cold_s("core.engine.run"),
    })
    # The plan build *with* the page scan under it: what a persisted or
    # patched plan (ROADMAP item 6a) would take off a cold first answer.
    out["cold.core.plan.get_total_s"] = cold_s("core.plan.get", "total_s")

    # The service's cross-thread gaps, and what the client waits beyond
    # the handler.
    gaps = request_gaps(spans, "warm")
    handler = warm["service.http.handler"]
    latencies = service.get("latencies", [])
    updates = service.get("update_latencies", [])
    post_commit = service.get("post_commit", [])
    sizes = service.get("response_bytes", [])
    out.update({
        "service.queue_wait_s": per_pass(gaps["queue_wait_s"]),
        "service.self_s": per_pass(gaps["service_self_s"]),
        "service.http.handler_s": per_pass(
            max(0.0, handler["self_s"] - gaps["blocked_s"])),
        "service.http.wire_s": per_pass(
            max(0.0, sum(latencies) + sum(updates) - handler["total_s"])
            if handler["calls"] else 0.0),
        "service.http.response_bytes": (statistics.mean(sizes)
                                        if sizes else 0),
        "service.query_p50_s": (statistics.median(latencies)
                                if latencies else 0.0),
        "service.query_p95_s": (
            statistics.quantiles(latencies, n=20)[-1]
            if len(latencies) > 1 else 0.0),
        "service.post_commit_query_p50_s": (
            statistics.median(post_commit) if post_commit else 0.0),
        "service.update_p50_s": (statistics.median(updates)
                                 if updates else 0.0),
        "service.ops_per_s": (
            measured["ops"] / sum(measured["samples"]["warm_pass_s"])
            if latencies else 0.0),
    })
    post_ids = set(service.get("post_commit_ids", []))
    post = layer_totals(spans, "warm", requests=post_ids)
    per_post = max(1, len(post_ids))
    out["post_commit.core.plan.get_s"] = (
        post["core.plan.get"]["self_s"]
        + post["core.plan.build"]["self_s"]) / per_post
    out["post_commit.core.plan.get_total_s"] = (
        post["core.plan.get"]["total_s"] / per_post)
    out["post_commit.core.engine.run_s"] = (
        post["core.engine.run"]["total_s"] / per_post)

    # Coverage: the share of the traced wall that some layer accounts
    # for.  Engine workloads: every span's self time over the timed
    # cold samples and passes.  serve_live: what the client waited less
    # the wire (the engine's spans run on pool threads while the
    # handler thread blocks, so thread self times would count it twice).
    wall = measured["traced_wall_s"]
    if handler["calls"]:
        covered = handler["total_s"]
    else:
        covered = sum(totals[name]["self_s"] for totals in (warm, cold)
                      for name in SPAN_NAMES)
    out["trace.coverage"] = covered / wall if wall else 0.0
    out["trace.warm_pass_s"] = statistics.median(
        measured["samples"]["warm_pass_s"])
    out["trace.spans"] = len(spans)
    return out
