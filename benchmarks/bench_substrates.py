"""Substrate microbenchmarks (pytest-benchmark timing targets).

Throughput of the building blocks every experiment leans on: HDR
recording, event-engine dispatch, B+tree/masstree ops, OCC and shore
transactions, BM25 search, stack decoding, Viterbi decoding, DNN
inference, and cache simulation. These catch performance regressions
in the substrates themselves.
"""

import random

from repro.apps import create_app
from repro.stats import HdrHistogram
from repro.workloads import TpccScale, TpccWorkload, YcsbWorkload


def test_hdr_record_throughput(benchmark, save_baseline):
    hist = HdrHistogram()
    rng = random.Random(0)
    values = [rng.expovariate(1000.0) for _ in range(10_000)]

    def record_all():
        for v in values:
            hist.record(v)

    benchmark(record_all)
    save_baseline("substrate_hdr", {
        "mean_s": benchmark.stats.stats.mean,
        "records_per_call": len(values),
    })


def test_event_engine_throughput(benchmark, save_baseline):
    from repro.sim import Engine

    def run_events():
        engine = Engine()
        for i in range(5000):
            engine.at(i * 1e-6, lambda: None)
        engine.run()

    benchmark(run_events)
    mean_s = benchmark.stats.stats.mean
    save_baseline("substrate_engine", {
        "mean_s": mean_s,
        "events_per_call": 5000,
        "events_per_s": 5000 / mean_s,
    })


def test_simulated_load_throughput(benchmark, save_baseline):
    from repro.sim import SimConfig, simulate_app

    config = SimConfig(qps=4000, measure_requests=3000, warmup_requests=300)
    benchmark(simulate_app, "masstree", config)
    save_baseline("substrate_sim", {
        "mean_s": benchmark.stats.stats.mean,
        "sim_requests_per_s": config.total_requests / benchmark.stats.stats.mean,
    })


def test_btree_put_get(benchmark, save_baseline):
    from repro.apps.masstree import BPlusTree

    keys = random.Random(1).sample(range(100_000), 5000)

    def workload():
        tree = BPlusTree(order=16)
        for k in keys:
            tree.put(k, k)
        for k in keys:
            tree.get(k)

    benchmark(workload)
    save_baseline("substrate_btree", {
        "mean_s": benchmark.stats.stats.mean,
        "keys_per_call": len(keys),
    })


def test_masstree_ycsb_ops(benchmark):
    app = create_app("masstree", n_records=2000)
    app.setup()
    workload = YcsbWorkload(n_records=2000, seed=2)
    ops = [workload.next_operation() for _ in range(2000)]

    def run_ops():
        for op in ops:
            app.process(op)

    benchmark(run_ops)


def test_xapian_search(benchmark):
    app = create_app("xapian", n_docs=500, vocab_size=1500, mean_doc_len=80)
    app.setup()
    client = app.make_client(seed=3)
    queries = [client.next_request() for _ in range(100)]

    def run_queries():
        for q in queries:
            app.process(q)

    benchmark(run_queries)


def test_silo_tpcc_throughput(benchmark):
    app = create_app("silo", scale=TpccScale.small())
    app.setup()
    workload = TpccWorkload(scale=TpccScale.small(), seed=4)
    txns = [workload.next_transaction() for _ in range(300)]

    def run_txns():
        for t in txns:
            app.process(t)

    benchmark(run_txns)


def test_shore_tpcc_throughput(benchmark):
    app = create_app("shore", scale=TpccScale.small(), buffer_capacity=64)
    app.setup()
    workload = TpccWorkload(scale=TpccScale.small(), seed=5)
    txns = [workload.next_transaction() for _ in range(150)]

    def run_txns():
        for t in txns:
            app.process(t)

    benchmark(run_txns)
    app.teardown()


def test_moses_decode(benchmark):
    app = create_app("moses", vocab_size=80, n_sentences=400, stack_size=8)
    app.setup()
    client = app.make_client(seed=6)
    sentences = [client.next_request() for _ in range(20)]

    def decode_all():
        for s in sentences:
            app.process(s)

    benchmark(decode_all)


def test_sphinx_decode(benchmark):
    app = create_app("sphinx", beam=40.0)
    app.setup()
    client = app.make_client(seed=7)
    utterances = [client.next_request() for _ in range(5)]

    def decode_all():
        for u in utterances:
            app.process(u)

    benchmark(decode_all)


def test_img_dnn_inference(benchmark):
    app = create_app("img-dnn", train_samples=300, epochs=3)
    app.setup()
    client = app.make_client(seed=8)
    images = [client.next_request() for _ in range(500)]

    def classify_all():
        for img in images:
            app.process(img)

    benchmark(classify_all)


def test_cache_hierarchy_throughput(benchmark):
    from repro.archsim import characterize_app

    benchmark(characterize_app, "silo", n_instructions=30_000)
