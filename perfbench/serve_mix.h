#pragma once

// The serve phase: the instance's program on storage::OurBTreeSnap behind an
// in-process net::Server on loopback, with a third of one input relation
// held back. Two client connections:
//
//   * writer (closed loop): LOAD + COMMIT per batch, waits for the ack, then
//     QUERYs one fact of the batch — acked facts must be visible to the next
//     snapshot;
//   * reader (open loop): alternates QUERY on `query_rel` and prefix-1 RANGE
//     on `range_rel` at a fixed offered rate. A sender thread issues each
//     request when it falls due and records how late it ran (generator lag);
//     the receiving thread matches replies in order and times each request
//     from when it was due, so a stalled server cannot hide its queueing.
//
// Checks, each counted as one attempted operation: every reply decodes;
// per-relation epochs never decrease on a session; a QUERY answer is sound
// (found => in the oracle's fixpoint) and monotone (once found, always
// found); RANGE rows are sorted, carry the requested prefix and are in the
// oracle; acked facts are visible; the final state equals the oracle.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datalog/program.h"
#include "datalog/service.h"
#include "net/client.h"
#include "net/server.h"
#include "util/random.h"

#include "perfbench/instance.h"
#include "perfbench/report.h"

namespace perfbench {

using SnapEngine = dtree::datalog::Engine<dtree::datalog::storage::OurBTreeSnap>;
using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A coarse client-side interval, kept for the traced pass's span log.
struct ClientSpan {
    const char* name;
    Clock::time_point start, end;
};

/// Consecutive reader connections in the traffic window.
inline constexpr unsigned kReaderSessions = 6;
/// Reader offered load, requests per second.
inline constexpr double kReaderRate = 1000.0;
/// Server refixpoint threads. One: commit latency then follows the commit
/// path's own work instead of how two workers meet at region barriers, which
/// the 4-thread batch reps already measure.
inline constexpr unsigned kServeJobs = 1;

struct ServeResult {
    double setup_s = 0;     ///< compile + load + initial fixpoint + start + connect
    std::vector<double> query_us, range_us; ///< client-side, all reader sessions
    std::vector<double> commit_ms, lag_ms;
    std::vector<ClientSpan> spans;
    std::uint64_t held_tuples = 0;
    std::uint64_t commits = 0;
    // Server-side view.
    std::uint64_t frames_in = 0, bytes_in = 0, bytes_out = 0;
    std::uint64_t timeouts = 0, errors_sent = 0, group_commits = 0;
    std::string server_stats_json;
    dtree::datalog::EngineStats engine_stats;
    std::vector<double> service_query_us; ///< direct EngineService::query on the final state
};

namespace detail {

struct Pending {
    Clock::time_point due;
    bool is_query;
    std::size_t key; ///< index into the key/bound list
};

class EpochTracker {
public:
    bool advance(const std::string& rel, std::uint64_t e) {
        auto& last = last_[rel];
        const bool ok = e >= last;
        last = std::max(last, e);
        return ok;
    }

private:
    std::map<std::string, std::uint64_t> last_;
};

} // namespace detail

/// Runs the serve phase. The writer's commits are spread over a traffic
/// window of `window_s` seconds; `keep_spans` records client spans for the
/// span log. Every check is counted in `report`.
inline ServeResult run_serve(const Instance& in, const Oracle& oracle, double window_s,
                             bool keep_spans, std::uint64_t seed, Report& report) {
    using namespace dtree;
    ServeResult res;

    // Reader inputs: half the QUERY keys are fixpoint tuples (hits once
    // derived), half are the same tuples with a random second column
    // (mostly misses); RANGE bounds are first columns of fixpoint tuples.
    util::Rng rng(seed ^ 0x5e7e);
    const auto& qt = oracle.tuples.at(in.query_rel);
    const auto& rt = oracle.tuples.at(in.range_rel);
    std::vector<StorageTuple> keys, bounds;
    for (std::size_t i = 0; i < 4096 && !qt.empty(); ++i) {
        StorageTuple k = qt[util::uniform_int<std::size_t>(rng, 0, qt.size() - 1)];
        if (i % 2) k[1] = qt[util::uniform_int<std::size_t>(rng, 0, qt.size() - 1)][1];
        keys.push_back(k);
    }
    for (std::size_t i = 0; i < 4096 && !rt.empty(); ++i) {
        StorageTuple b{};
        b[0] = rt[util::uniform_int<std::size_t>(rng, 0, rt.size() - 1)][0];
        bounds.push_back(b);
    }
    for (const auto& b : in.batches) res.held_tuples += b.size();

    const auto t_setup = Clock::now();
    SnapEngine engine(datalog::compile(in.full.source));
    for (const auto& [rel, facts] : in.initial) engine.add_facts(rel, facts);
    engine.run(kServeJobs);
    net::ServerConfig scfg;
    scfg.jobs = kServeJobs;
    net::Server<SnapEngine> server(engine, scfg);
    server.start();
    std::unique_ptr<net::Client> writer;
    try {
        writer = std::make_unique<net::Client>("127.0.0.1", server.port());
    } catch (const std::exception& e) {
        report.check(false, std::string("connect: ") + e.what());
        return res;
    }
    res.setup_s = ms_since(t_setup, Clock::now()) / 1e3;

    const auto window_start = Clock::now();
    const auto at = [&](double s) {
        return window_start +
               std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };

    // -- writer: one commit per slot, spread over the window -----------------
    std::vector<ClientSpan> writer_spans;
    std::thread writer_thread([&] {
        detail::EpochTracker epochs;
        const double slot = window_s / static_cast<double>(in.batches.size());
        try {
            for (std::size_t i = 0; i < in.batches.size(); ++i) {
                const auto& batch = in.batches[i];
                std::this_thread::sleep_until(at(slot * static_cast<double>(i)));
                const auto c0 = Clock::now();
                writer->load(in.ingest_rel, batch, in.ingest_arity);
                writer->commit();
                const auto c1 = Clock::now();
                res.commit_ms.push_back(ms_since(c0, c1));
                if (keep_spans) writer_spans.push_back({"commit", c0, c1});
                ++res.commits;
                report.check(true, "commit");
                const auto q = writer->query(in.ingest_rel, batch.front(), in.ingest_arity);
                report.check(q.found, "acked fact not visible to the next snapshot");
                report.check(epochs.advance(in.ingest_rel, q.epoch),
                           "writer session epoch went backwards");
            }
            writer->goodbye();
        } catch (const std::exception& e) {
            report.check(false, std::string("writer: ") + e.what());
        }
    });

    // -- reader: consecutive sessions, each an open-loop sender + in-order
    // receiver. Fresh connections get fresh server session threads, so no
    // one placement of those threads on CPUs decides the reported latency.
    std::vector<char> seen_found(keys.size(), 0);
    util::Rng srng(seed ^ 0x7ead);
    for (unsigned sid = 0; sid < kReaderSessions; ++sid) {
        const double s_begin = window_s * sid / kReaderSessions;
        const double s_end = window_s * (sid + 1) / kReaderSessions;
        std::this_thread::sleep_until(at(s_begin));
        std::unique_ptr<net::Client> reader;
        try {
            reader = std::make_unique<net::Client>("127.0.0.1", server.port());
        } catch (const std::exception& e) {
            report.check(false, std::string("reader connect: ") + e.what());
            continue;
        }
        std::mutex pending_mu;
        std::condition_variable pending_cv;
        std::deque<detail::Pending> pending;
        bool sender_done = false;
        std::thread sender([&] {
            // A plain sleep overshoots by the timer slack (50 us by default),
            // which would land in every latency sample; 1 ns slack makes the
            // wake-up as precise as the kernel's hrtimers without spinning.
            ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            const auto start = Clock::now();
            const auto period = std::chrono::duration<double>(1.0 / kReaderRate);
            try {
                for (std::uint64_t i = 0;; ++i) {
                    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                                 period * static_cast<double>(i));
                    if (due >= at(s_end)) break;
                    std::this_thread::sleep_until(due);
                    res.lag_ms.push_back(ms_since(due, Clock::now()));
                    const bool is_query = i % 2 == 0;
                    const std::size_t k = util::uniform_int<std::size_t>(
                        srng, 0, (is_query ? keys.size() : bounds.size()) - 1);
                    {
                        std::lock_guard<std::mutex> lk(pending_mu);
                        pending.push_back({due, is_query, k});
                    }
                    pending_cv.notify_one();
                    reader->send_raw(
                        is_query ? net::encode_query(in.query_rel, keys[k], in.query_arity)
                                 : net::encode_range(in.range_rel, bounds[k], 1,
                                                     in.range_arity));
                }
            } catch (const std::exception& e) {
                report.check(false, std::string("reader send: ") + e.what());
            }
            {
                std::lock_guard<std::mutex> lk(pending_mu);
                sender_done = true;
            }
            pending_cv.notify_one();
        });

        detail::EpochTracker epochs;
        std::vector<StorageTuple> rows;
        try {
            for (;;) {
                // A request is queued before it is sent, so its reply can
                // only arrive while it sits at the front of `pending`.
                detail::Pending p;
                {
                    std::unique_lock<std::mutex> lk(pending_mu);
                    pending_cv.wait(lk, [&] { return sender_done || !pending.empty(); });
                    if (pending.empty()) break;
                    p = pending.front();
                }
                bool ok = true;
                std::uint64_t epoch = 0;
                bool found = false;
                rows.clear();
                for (;;) {
                    const net::Frame f = reader->recv_any();
                    if (p.is_query) {
                        net::QueryOkMsg m;
                        ok = net::decode_query_ok(f, m);
                        found = m.found;
                        epoch = m.epoch;
                        break;
                    }
                    net::RangeOkMsg m;
                    if (!net::decode_range_ok(f, m)) {
                        ok = false;
                        break;
                    }
                    epoch = m.epoch;
                    rows.insert(rows.end(), m.tuples.begin(), m.tuples.end());
                    if (m.last) break;
                }
                const auto done = Clock::now();
                {
                    std::lock_guard<std::mutex> lk(pending_mu);
                    pending.pop_front();
                }
                (p.is_query ? res.query_us : res.range_us).push_back(ms_since(p.due, done) * 1e3);
                if (keep_spans) {
                    res.spans.push_back({p.is_query ? "query" : "range", p.due, done});
                }
                report.check(ok, "malformed or error reply");
                if (!ok) continue;
                const std::string& rel = p.is_query ? in.query_rel : in.range_rel;
                report.check(epochs.advance(rel, epoch), "reader session epoch went backwards");
                if (p.is_query) {
                    report.check(!found || oracle.contains(rel, keys[p.key]),
                               "QUERY found a tuple outside the fixpoint");
                    report.check(found || !seen_found[p.key], "QUERY answer was not monotone");
                    if (found) seen_found[p.key] = 1;
                } else {
                    bool good = std::is_sorted(rows.begin(), rows.end());
                    for (const auto& t : rows) {
                        good = good && t[0] == bounds[p.key][0] && oracle.contains(rel, t);
                    }
                    report.check(good, "RANGE rows unsorted, off-prefix or outside the fixpoint");
                }
            }
            reader->goodbye();
        } catch (const std::exception& e) {
            report.check(false, std::string("reader recv: ") + e.what());
        }
        sender.join();
    }
    writer_thread.join();
    server.request_stop();
    server.wait();
    res.spans.insert(res.spans.end(), writer_spans.begin(), writer_spans.end());

    const net::ServerCounters& sc = server.counters();
    res.frames_in = sc.frames_in.load();
    res.bytes_in = sc.bytes_in.load();
    res.bytes_out = sc.bytes_out.load();
    res.timeouts = sc.timeouts.load();
    res.errors_sent = sc.errors_sent.load();
    res.group_commits = sc.group_commits.load();
    res.server_stats_json = server.stats_json();
    res.engine_stats = engine.stats();

    report.check(digest(engine) == oracle.digests,
               "final served state differs from the one-shot oracle");

    // The in-process floor under QUERY: the same keys through EngineService.
    datalog::EngineService<SnapEngine> service(engine);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto t0 = Clock::now();
        const auto r = service.query(in.query_rel, keys[i]);
        res.service_query_us.push_back(ms_since(t0, Clock::now()) * 1e3);
        if (r.found && !oracle.contains(in.query_rel, keys[i])) {
            report.check(false, "EngineService::query disagrees with the oracle");
        }
    }
    return res;
}

} // namespace perfbench
