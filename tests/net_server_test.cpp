// Loopback integration suite for the wire-protocol server (DESIGN.md §13).
// A real TCP server over a live Engine<OurBTreeSnap>:
//
//   * handshake + every request type over one session;
//   * structured error frames: unknown relation / bad request / oversized
//     frame / batch limit keep the session alive, missing HELLO and version
//     mismatch close it;
//   * K concurrent clients mixing snapshot queries with group commits —
//     epochs nondecreasing per connection, acked facts immediately visible,
//     range scans strictly sorted, and the final state equal to a one-shot
//     oracle evaluation over initial + acked facts;
//   * SIGTERM mid-traffic drains cleanly: wait() returns, every acked
//     commit is present afterwards;
//   * read timeouts close idle sessions and tick the timeout counter.
//
// The TSan/ASan legs of scripts/check.sh and CI run this suite — the
// reader-threads-vs-writer-thread interleavings are the point.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datalog/program.h"
#include "net/client.h"
#include "net/server.h"

namespace {

using namespace dtree;
using datalog::StorageTuple;
using SnapEngine = datalog::Engine<datalog::storage::OurBTreeSnap>;

constexpr const char* kProgram = R"(
.decl edge(a:number, b:number) input
.decl path(a:number, b:number) output
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
)";

StorageTuple tup(std::uint64_t a, std::uint64_t b) {
    StorageTuple t{};
    t[0] = a;
    t[1] = b;
    return t;
}

/// A chain 1->2->...->n plus a few cross edges: small but recursive enough
/// that commits genuinely re-derive paths.
std::vector<StorageTuple> initial_edges(std::uint64_t n) {
    std::vector<StorageTuple> es;
    for (std::uint64_t i = 1; i < n; ++i) es.push_back(tup(i, i + 1));
    es.push_back(tup(n, 1));
    return es;
}

struct ServerFixture {
    datalog::AnalyzedProgram prog;
    SnapEngine engine;
    net::Server<SnapEngine> server;

    explicit ServerFixture(net::ServerConfig cfg = {},
                           std::uint64_t chain = 16)
        : prog(datalog::compile(kProgram)), engine(prog), server(engine, cfg) {
        engine.add_facts("edge", initial_edges(chain));
        engine.run(1);
        server.start();
    }
};

/// Raw frame exchange on a bare socket (for pre-HELLO protocol tests the
/// Client class cannot express — its constructor always handshakes).
struct RawConn {
    net::Socket sock;
    net::FrameDecoder decoder;

    explicit RawConn(std::uint16_t port) {
        std::string err;
        if (!net::connect_tcp("127.0.0.1", port, 5000, sock, err)) {
            throw std::runtime_error(err);
        }
    }

    void send(const std::vector<std::uint8_t>& bytes) {
        ASSERT_EQ(sock.send_all(bytes.data(), bytes.size(), 5000),
                  net::IoResult::Ok);
    }

    /// Next frame, or nullopt-ish via `ok=false` when the peer closed.
    bool recv(net::Frame& f, int timeout_ms = 5000) {
        for (;;) {
            if (decoder.next(f) == net::FrameDecoder::Event::Frame) return true;
            std::uint8_t buf[4096];
            std::size_t got = 0;
            const auto r = sock.recv_some(buf, sizeof(buf), got, timeout_ms);
            if (r != net::IoResult::Ok) return false;
            decoder.feed(buf, got);
        }
    }
};

TEST(NetServer, HandshakeAndBasicOps) {
    ServerFixture fx;
    net::Client c("127.0.0.1", fx.server.port());
    EXPECT_EQ(c.server_limits().version, net::kProtocolVersion);
    EXPECT_GT(c.server_limits().max_frame, 0u);

    // Point queries against the initial fixpoint.
    EXPECT_TRUE(c.query("edge", tup(1, 2), 2).found);
    EXPECT_FALSE(c.query("edge", tup(2, 1), 2).found);
    EXPECT_TRUE(c.query("path", tup(1, 16), 2).found);

    // Range scan matches the engine's own view and arrives sorted.
    std::vector<StorageTuple> scanned;
    c.range("edge", StorageTuple{}, 0, 2,
            [&](const StorageTuple& t) { scanned.push_back(t); });
    const auto direct = fx.engine.tuples("edge");
    EXPECT_EQ(scanned, direct);
    EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));

    // Prefix scan: out-edges of node 3 only.
    scanned.clear();
    c.range("edge", tup(3, 0), 1, 2,
            [&](const StorageTuple& t) { scanned.push_back(t); });
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_EQ(scanned[0], tup(3, 4));

    // COUNT agrees with the relation size.
    EXPECT_EQ(c.count("edge").tuples, direct.size());

    // FACT + COMMIT: the ack means the writer applied it; the next query
    // (a fresh snapshot) must see the fact AND its derived consequences.
    EXPECT_EQ(c.fact("edge", tup(100, 1), 2), 1u);
    const auto cr = c.commit();
    EXPECT_EQ(cr.fresh, 1u);
    EXPECT_GT(cr.iterations, 0u);
    EXPECT_TRUE(c.query("edge", tup(100, 1), 2).found);
    EXPECT_TRUE(c.query("path", tup(100, 16), 2).found)
        << "derived consequence of the committed edge must be present";

    // Empty commit is a no-op ack.
    EXPECT_EQ(c.commit().fresh, 0u);

    // STATS returns the json envelope.
    const std::string stats = c.stats();
    EXPECT_NE(stats.find("\"server\""), std::string::npos);
    EXPECT_NE(stats.find("\"commit_latency_us\""), std::string::npos);

    c.goodbye();
    fx.server.request_stop();
    fx.server.wait();
    EXPECT_GE(fx.server.counters().connections.load(), 1u);
    EXPECT_GT(fx.server.counters().frames_in.load(), 0u);
    EXPECT_GT(fx.server.counters().frames_out.load(), 0u);
}

TEST(NetServer, ErrorFramesKeepTheSessionAlive) {
    net::ServerConfig cfg;
    cfg.max_frame = 4096;
    cfg.max_batch = 4;
    ServerFixture fx(cfg);
    net::Client c("127.0.0.1", fx.server.port());

    // Unknown relation: structured error, session continues.
    EXPECT_THROW(
        {
            try {
                c.query("nope", tup(1, 2), 2);
            } catch (const net::NetError& e) {
                EXPECT_EQ(e.err(), net::ErrCode::UnknownRelation);
                throw;
            }
        },
        net::NetError);
    EXPECT_TRUE(c.query("edge", tup(1, 2), 2).found) << "session survived";

    // Arity mismatch: BadRequest, session continues.
    try {
        c.query("edge", tup(1, 2), 1);
        FAIL() << "expected BadRequest";
    } catch (const net::NetError& e) {
        EXPECT_EQ(e.err(), net::ErrCode::BadRequest);
    }

    // Batch limit: the 5th staged tuple overflows max_batch=4.
    std::vector<StorageTuple> five;
    for (std::uint64_t i = 0; i < 5; ++i) five.push_back(tup(200 + i, 1));
    try {
        c.load("edge", five, 2);
        FAIL() << "expected BatchLimit";
    } catch (const net::NetError& e) {
        EXPECT_EQ(e.err(), net::ErrCode::BatchLimit);
    }

    // Oversized frame: header above max_frame draws FrameTooLarge and the
    // stream resynchronises — the next request works.
    {
        std::vector<std::uint8_t> huge;
        const std::uint32_t len = 1u << 16; // > max_frame, < what we send
        for (unsigned i = 0; i < 4; ++i) {
            huge.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
        }
        huge.resize(4 + len, 0xEE);
        c.send_raw(huge);
        const net::Frame f = c.recv_any();
        net::ErrorMsg e;
        ASSERT_TRUE(net::decode_error(f, e));
        EXPECT_EQ(e.code, net::ErrCode::FrameTooLarge);
    }
    EXPECT_TRUE(c.query("edge", tup(1, 2), 2).found)
        << "session survived the oversized frame";

    // Unknown opcode: UnknownOp, session continues.
    {
        net::FrameBuilder b(static_cast<net::Op>(0x42));
        c.send_raw(b.finish());
        const net::Frame f = c.recv_any();
        net::ErrorMsg e;
        ASSERT_TRUE(net::decode_error(f, e));
        EXPECT_EQ(e.code, net::ErrCode::UnknownOp);
    }
    EXPECT_TRUE(c.query("edge", tup(1, 2), 2).found);
    c.goodbye();

    // Missing HELLO: first frame anything else -> NeedHello, then close.
    {
        RawConn raw(fx.server.port());
        raw.send(net::encode_count("edge"));
        net::Frame f;
        ASSERT_TRUE(raw.recv(f));
        net::ErrorMsg e;
        ASSERT_TRUE(net::decode_error(f, e));
        EXPECT_EQ(e.code, net::ErrCode::NeedHello);
        EXPECT_FALSE(raw.recv(f)) << "server must close after NeedHello";
    }

    // Version mismatch: BadVersion, then close.
    {
        RawConn raw(fx.server.port());
        raw.send(net::encode_hello(net::kProtocolVersion + 1));
        net::Frame f;
        ASSERT_TRUE(raw.recv(f));
        net::ErrorMsg e;
        ASSERT_TRUE(net::decode_error(f, e));
        EXPECT_EQ(e.code, net::ErrCode::BadVersion);
        EXPECT_FALSE(raw.recv(f)) << "server must close after BadVersion";
    }

    fx.server.request_stop();
    fx.server.wait();
    EXPECT_GT(fx.server.counters().errors_sent.load(), 0u);
}

// K clients hammer the server concurrently: each commits its own disjoint
// range of new edges while querying and scanning. Consistency obligations
// checked CLIENT-side during traffic, oracle equality checked at the end.
TEST(NetServer, ConcurrentClientsMatchOneShotOracle) {
    constexpr unsigned kClients = 4;
    constexpr std::uint64_t kChain = 16;
    constexpr int kCommitsPerClient = 6;
    constexpr int kEdgesPerCommit = 3;

    net::ServerConfig cfg;
    cfg.jobs = 2;
    ServerFixture fx(cfg, kChain);

    std::atomic<bool> failed{false};
    std::vector<std::vector<StorageTuple>> acked(kClients);
    std::vector<std::thread> threads;
    for (unsigned ci = 0; ci < kClients; ++ci) {
        threads.emplace_back([&, ci] {
            try {
                net::Client c("127.0.0.1", fx.server.port());
                std::uint64_t last_epoch = 0;
                // Client ci owns node ids [1000*(ci+1), ...): disjoint from
                // every other client and from the initial chain.
                const std::uint64_t base = 1000 * (ci + 1);
                for (int k = 0; k < kCommitsPerClient; ++k) {
                    std::vector<StorageTuple> batch;
                    for (int e = 0; e < kEdgesPerCommit; ++e) {
                        // New node -> chain node: every edge derives paths.
                        batch.push_back(tup(base + k * kEdgesPerCommit + e,
                                            1 + (e % kChain)));
                    }
                    c.load("edge", batch, 2);
                    c.commit();
                    acked[ci].insert(acked[ci].end(), batch.begin(), batch.end());

                    // Acked facts are immediately visible to a fresh snapshot.
                    for (const auto& t : batch) {
                        const auto q = c.query("edge", t, 2);
                        if (!q.found) {
                            ADD_FAILURE() << "acked edge missing from snapshot";
                            failed = true;
                        }
                        if (q.epoch < last_epoch) {
                            ADD_FAILURE() << "epoch went backwards on one session";
                            failed = true;
                        }
                        last_epoch = q.epoch;
                    }

                    // Range scans are sorted and epoch-monotone.
                    std::vector<StorageTuple> scanned;
                    const auto epoch =
                        c.range("edge", tup(base, 0), 0, 2,
                                [&](const StorageTuple& t) { scanned.push_back(t); });
                    if (!std::is_sorted(scanned.begin(), scanned.end())) {
                        ADD_FAILURE() << "range scan not sorted";
                        failed = true;
                    }
                    if (epoch < last_epoch) {
                        ADD_FAILURE() << "scan epoch went backwards";
                        failed = true;
                    }
                    last_epoch = epoch;

                    // Derived paths from this client's own edges exist.
                    const auto p = c.query("path", tup(batch[0][0], batch[0][1]), 2);
                    if (!p.found) {
                        ADD_FAILURE() << "derived path missing after commit";
                        failed = true;
                    }
                    (void)c.count("path");
                }
                c.goodbye();
            } catch (const std::exception& e) {
                ADD_FAILURE() << "client " << ci << ": " << e.what();
                failed = true;
            }
        });
    }
    for (auto& t : threads) t.join();
    fx.server.request_stop();
    fx.server.wait();
    ASSERT_FALSE(failed.load());

    // One-shot oracle: fresh engine over initial + every acked edge.
    datalog::AnalyzedProgram prog2 = datalog::compile(kProgram);
    SnapEngine oracle(prog2);
    auto all = initial_edges(kChain);
    for (const auto& per_client : acked) {
        all.insert(all.end(), per_client.begin(), per_client.end());
    }
    oracle.add_facts("edge", all);
    oracle.run(1);
    EXPECT_EQ(fx.engine.tuples("edge"), oracle.tuples("edge"));
    EXPECT_EQ(fx.engine.tuples("path"), oracle.tuples("path"))
        << "served state diverged from one-shot evaluation";

    const auto& c = fx.server.counters();
    EXPECT_EQ(c.connections.load(), kClients);
    EXPECT_GT(c.frames_in.load(), 0u);
    EXPECT_EQ(c.commits_queued.load(),
              static_cast<std::uint64_t>(kClients) * kCommitsPerClient);
    EXPECT_GE(c.commits_queued.load(), c.group_commits.load())
        << "group commit must batch, never multiply, queued commits";
}

// SIGTERM mid-traffic: the signal handler requests a drain; wait() must
// return with every ACKED commit applied (acks are durability promises) and
// the engine equal to an oracle over initial + acked edges.
TEST(NetServer, SigtermDrainsCleanly) {
    constexpr std::uint64_t kChain = 12;
    ServerFixture fx({}, kChain);
    net::install_signal_handlers(&fx.server.stop_controller());

    std::vector<StorageTuple> acked;
    std::atomic<bool> stop_traffic{false};
    std::thread traffic([&] {
        try {
            net::Client c("127.0.0.1", fx.server.port());
            for (std::uint64_t k = 0; !stop_traffic.load(); ++k) {
                const auto t = tup(5000 + k, 1 + (k % kChain));
                c.fact("edge", t, 2);
                c.commit();
                acked.push_back(t); // only reached when the ack arrived
                (void)c.query("path", t, 2);
            }
            c.goodbye();
        } catch (const net::NetError&) {
            // Shutdown raced this request: expected — ShuttingDown error,
            // server-closed socket, or recv timeout during the drain.
        }
    });

    // Let some commits land, then deliver a real SIGTERM to the process.
    while (fx.server.counters().group_commits.load() < 3) {
        std::this_thread::yield();
    }
    ::raise(SIGTERM);
    fx.server.wait(); // must return: drain finished
    stop_traffic.store(true);
    traffic.join();
    net::install_signal_handlers(nullptr);

    // Every acked commit survived the drain.
    datalog::AnalyzedProgram prog2 = datalog::compile(kProgram);
    SnapEngine oracle(prog2);
    auto all = initial_edges(kChain);
    all.insert(all.end(), acked.begin(), acked.end());
    oracle.add_facts("edge", all);
    oracle.run(1);
    // The engine may hold MORE than the oracle (a commit applied whose ack
    // the client never read) — never less. Ingest is idempotent, so replay
    // the acked set into the oracle-equality check via subset assertions.
    const auto edges = fx.engine.tuples("edge");
    const std::set<StorageTuple> edge_set(edges.begin(), edges.end());
    for (const auto& t : acked) {
        EXPECT_TRUE(edge_set.count(t)) << "acked edge lost in shutdown drain";
    }
    const auto paths = fx.engine.tuples("path");
    const std::set<StorageTuple> path_set(paths.begin(), paths.end());
    for (const auto& t : oracle.tuples("path")) {
        EXPECT_TRUE(path_set.count(t))
            << "derived consequence of an acked edge lost in shutdown drain";
    }
}

// A client that requests data and never reads a byte must not wedge the
// server. Regression for two coupled bugs: accepted sockets were blocking,
// so poll(POLLOUT) + blocking send() made the write deadline illusory (the
// sender thread wedged in ::send forever), and reap_sessions on the acceptor
// thread then blocked in sender.join() — one hostile client halted accepts.
TEST(NetServer, SlowClientIsShedWithoutWedgingTheServer) {
    net::ServerConfig cfg;
    cfg.write_timeout_ms = 200;
    cfg.poll_slice_ms = 20;
    cfg.max_output_bytes = 64 * 1024;
    ServerFixture fx(cfg, /*chain=*/64); // cyclic chain: |path| = 64*64

    // Flood full-relation RANGE requests without reading any response: the
    // ~135 KiB chunks fill the socket buffer, then the bounded output queue,
    // then the write deadline fires and the session is shed.
    net::Client slow("127.0.0.1", fx.server.port());
    for (int i = 0; i < 200; ++i) {
        slow.send_raw(net::encode_range("path", StorageTuple{}, 0, 2));
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (fx.server.counters().sessions_shed.load() == 0 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(fx.server.counters().sessions_shed.load(), 1u);

    // The acceptor must still be serving new connections end to end.
    net::Client fresh("127.0.0.1", fx.server.port());
    EXPECT_TRUE(fresh.query("edge", tup(1, 2), 2).found);
    EXPECT_EQ(fresh.count("path").tuples, 64u * 64u);
    fresh.goodbye();

    fx.server.request_stop();
    fx.server.wait(); // must return: no thread may be wedged in ::send
}

TEST(NetServer, ReadTimeoutClosesIdleSessions) {
    net::ServerConfig cfg;
    cfg.read_timeout_ms = 200;
    cfg.poll_slice_ms = 20;
    ServerFixture fx(cfg);
    net::Client c("127.0.0.1", fx.server.port());
    // Go idle past the deadline: the server must send ERROR Timeout and
    // close; the client observes the error frame (or the close).
    try {
        const net::Frame f = c.recv_any(5000);
        net::ErrorMsg e;
        ASSERT_TRUE(net::decode_error(f, e));
        EXPECT_EQ(e.code, net::ErrCode::Timeout);
    } catch (const net::NetError&) {
        // Connection torn down before the frame was read — also acceptable.
    }
    fx.server.request_stop();
    fx.server.wait();
    EXPECT_GE(fx.server.counters().timeouts.load(), 1u);
}

// Session cap: at max_sessions the acceptor answers ERROR Busy and closes
// without starting session threads; a slot freed by GOODBYE is reusable.
TEST(NetServer, SessionCapRepliesBusy) {
    net::ServerConfig cfg;
    cfg.max_sessions = 2;
    cfg.poll_slice_ms = 20;
    ServerFixture fx(cfg);
    net::Client a("127.0.0.1", fx.server.port());
    net::Client b("127.0.0.1", fx.server.port());
    EXPECT_TRUE(a.query("edge", tup(1, 2), 2).found);

    try {
        net::Client third("127.0.0.1", fx.server.port());
        ADD_FAILURE() << "third session admitted past max_sessions = 2";
    } catch (const net::NetError& e) {
        EXPECT_EQ(e.err(), net::ErrCode::Busy) << e.what();
    }
    EXPECT_EQ(fx.server.counters().sessions_refused.load(), 1u);
    EXPECT_TRUE(b.query("edge", tup(1, 2), 2).found)
        << "admitted sessions keep working at the cap";

    // GOODBYE frees a's slot once its reader thread has exited; until the
    // acceptor sees it finished a reconnect may still be refused.
    a.goodbye();
    bool admitted = false;
    for (int attempt = 0; attempt < 200 && !admitted; ++attempt) {
        try {
            net::Client again("127.0.0.1", fx.server.port());
            EXPECT_EQ(again.count("path").tuples, 16u * 16u);
            again.goodbye();
            admitted = true;
        } catch (const net::NetError& e) {
            ASSERT_EQ(e.err(), net::ErrCode::Busy) << e.what();
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    EXPECT_TRUE(admitted) << "freed slot never became reusable";
    b.goodbye();

    fx.server.request_stop();
    fx.server.wait();
}

} // namespace
