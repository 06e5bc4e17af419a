#pragma once

// The wire-protocol server (DESIGN.md §13): sessions, the single-writer
// group-commit queue, backpressure, and drain-on-shutdown.
//
// Thread model
// ------------
//   * acceptor thread: polls the listener + reaps finished sessions;
//   * per session, a READER thread (decode frames, serve reads, stage
//     writes) and a SENDER thread (drain the session's bounded output
//     queue into the socket);
//   * ONE writer thread owning all engine mutation: sessions enqueue
//     CommitRequests; the writer drains every pending request, stages each
//     via ingest(), and runs ONE refixpoint() for the whole group (group
//     commit — the PR-7 batch semantics, now shared across connections).
//
// Reads never wait for the writer: QUERY/RANGE/COUNT pin
// `Relation::snapshot()` on the reader thread and resolve against that
// epoch boundary WHILE a refixpoint runs (the PR-6 guarantee, now
// per-connection). This is why Server static_asserts snapshot_capable.
//
// Robustness envelope
// -------------------
//   * read timeout: a session idle past read_timeout_ms gets ERROR Timeout
//     and is closed; * write timeout/backpressure: each session's output
//     queue is bounded by bytes — when a slow client keeps it full past
//     write_timeout_ms the session is SHED (counted, closed) instead of
//     wedging a reader thread or growing the heap;
//   * max_sessions: a connection beyond the cap gets one ERROR Busy frame
//     and is closed by the acceptor before any session thread starts, so
//     threads stay at 2 per admitted session plus 2;
//   * max_frame: oversize frames are skipped in O(1) memory and answered
//     with ERROR FrameTooLarge (the session survives); max_batch bounds
//     staged tuples per session (ERROR BatchLimit);
//   * malformed payloads draw ERROR BadFrame; only an unrecoverable framing
//     break (zero-length header) or protocol-order violations (no HELLO,
//     version mismatch) close the connection;
//   * shutdown (request_stop(), or SIGINT/SIGTERM via
//     install_signal_handlers): stop accepting, fail NEW commits with
//     ERROR ShuttingDown, finish every in-flight commit, flush output
//     queues, join everything. wait() returns only when the engine is
//     quiescent and all sockets are closed.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog/service.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/metrics.h"

namespace dtree::net {

struct ServerConfig {
    std::uint16_t port = 0;        ///< 0 = ephemeral (read back via port())
    unsigned jobs = 1;             ///< refixpoint threads per group commit
    int read_timeout_ms = 30000;   ///< idle budget between client frames
    int write_timeout_ms = 5000;   ///< budget to make progress to a client
    int poll_slice_ms = 50;        ///< granularity of stop/deadline checks
    std::size_t max_frame = kDefaultMaxFrame;
    std::size_t max_batch = kDefaultMaxBatch;
    std::size_t max_output_bytes = 4u << 20; ///< per-session output queue bound
    std::size_t max_sessions = 256; ///< live sessions; more get ERROR Busy
};

/// Always-on server counters (the net_* metrics mirror these when
/// DATATREE_METRICS is compiled in; tests and STATS read these directly so
/// observability does not depend on a build flag).
struct ServerCounters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> sessions_shed{0};
    std::atomic<std::uint64_t> sessions_refused{0};
    std::atomic<std::uint64_t> commits_queued{0};
    std::atomic<std::uint64_t> group_commits{0};
    std::atomic<std::uint64_t> errors_sent{0};
};

/// Stop flag + self-pipe: request_stop() is async-signal-safe (one relaxed
/// store + one write()), so the SIGINT/SIGTERM handler can call it directly.
/// Threads block on the pipe fd in poll() alongside their sockets.
class StopController {
public:
    StopController() {
        if (::pipe(fds_) != 0) {
            fds_[0] = fds_[1] = -1;
        }
    }
    ~StopController() {
        if (fds_[0] >= 0) ::close(fds_[0]);
        if (fds_[1] >= 0) ::close(fds_[1]);
    }
    StopController(const StopController&) = delete;
    StopController& operator=(const StopController&) = delete;

    void request_stop() noexcept {
        stopping_.store(true, std::memory_order_release);
        if (fds_[1] >= 0) {
            const char b = 's';
            // A full pipe already wakes every poller; the byte is best-effort.
            [[maybe_unused]] ssize_t rc = ::write(fds_[1], &b, 1);
        }
    }

    bool stopping() const noexcept {
        return stopping_.load(std::memory_order_acquire);
    }
    int poll_fd() const noexcept { return fds_[0]; }

private:
    std::atomic<bool> stopping_{false};
    int fds_[2] = {-1, -1};
};

namespace detail {
inline std::atomic<StopController*> g_signal_stop{nullptr};
inline void signal_stop_handler(int) {
    if (StopController* s = g_signal_stop.load(std::memory_order_acquire)) {
        s->request_stop();
    }
}
} // namespace detail

/// Routes SIGINT/SIGTERM to `stop.request_stop()` (drain-and-exit). The
/// handler body is async-signal-safe. Pass nullptr to detach.
inline void install_signal_handlers(StopController* stop) {
    detail::g_signal_stop.store(stop, std::memory_order_release);
    if (!stop) return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = detail::signal_stop_handler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

template <typename EngineT>
class Server {
    using Service = datalog::EngineService<EngineT>;
    static_assert(Service::snapshots,
                  "the wire-protocol server requires snapshot-capable storage: "
                  "reads must pin epochs concurrently with refixpoints");

public:
    Server(EngineT& engine, ServerConfig cfg)
        : cfg_(cfg), service_(engine) {}

    ~Server() {
        request_stop();
        wait();
    }

    /// Binds, then launches the acceptor and writer threads. Throws on bind
    /// failure (port in use).
    void start() {
        std::string err;
        if (!listener_.bind_loopback(cfg_.port, err)) {
            throw std::runtime_error("server: " + err);
        }
        acceptor_ = std::thread([this] { accept_loop(); });
        writer_ = std::thread([this] { writer_loop(); });
    }

    std::uint16_t port() const { return listener_.port(); }
    StopController& stop_controller() { return stop_; }
    const ServerCounters& counters() const { return counters_; }

    void request_stop() { stop_.request_stop(); }

    /// Blocks until fully drained: acceptor joined, every queued commit
    /// applied (the writer drains before exiting), all sessions joined and
    /// their output flushed. Idempotent.
    void wait() {
        if (acceptor_.joinable()) acceptor_.join();
        listener_.close();
        // Wake the writer: it drains whatever is queued, then exits.
        {
            std::lock_guard<std::mutex> lk(queue_mu_);
        }
        queue_cv_.notify_all();
        if (writer_.joinable()) writer_.join();
        reap_sessions(/*all=*/true);
    }

    /// {"server": counters, "commit_latency_us": histogram,
    ///  "metrics": registry snapshot} — the STATS frame payload, also
    /// printed by soufflette at shutdown.
    std::string stats_json() {
        std::ostringstream os;
        json::Writer w(os, /*pretty=*/false);
        w.begin_object();
        w.key("server");
        w.begin_object();
        w.kv("connections", counters_.connections.load());
        w.kv("frames_in", counters_.frames_in.load());
        w.kv("frames_out", counters_.frames_out.load());
        w.kv("bytes_in", counters_.bytes_in.load());
        w.kv("bytes_out", counters_.bytes_out.load());
        w.kv("timeouts", counters_.timeouts.load());
        w.kv("sessions_shed", counters_.sessions_shed.load());
        w.kv("sessions_refused", counters_.sessions_refused.load());
        w.kv("commits_queued", counters_.commits_queued.load());
        w.kv("group_commits", counters_.group_commits.load());
        w.kv("errors_sent", counters_.errors_sent.load());
        w.end_object();
        w.key("commit_latency_us");
        {
            std::lock_guard<std::mutex> lk(hist_mu_);
            commit_hist_.write_json(w);
        }
        w.key("metrics");
        metrics::snapshot().write_json(w);
        w.end_object();
        return os.str();
    }

private:
    // -- writer queue --------------------------------------------------------

    struct CommitRequest {
        typename Service::Batch batch;
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        bool ok = false;
        std::string error;
        ErrCode code = ErrCode::Internal;
        std::uint64_t fresh = 0;
        std::uint64_t iterations = 0;

        void complete_ok(std::uint64_t f, std::uint64_t it) {
            std::lock_guard<std::mutex> lk(mu);
            ok = true;
            fresh = f;
            iterations = it;
            done = true;
            cv.notify_all();
        }
        void complete_err(ErrCode c, std::string msg) {
            std::lock_guard<std::mutex> lk(mu);
            ok = false;
            code = c;
            error = std::move(msg);
            done = true;
            cv.notify_all();
        }
        void await() {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [this] { return done; });
        }
    };

    /// Enqueues a commit; returns false when the writer has already drained
    /// and exited (shutdown raced the request).
    bool enqueue_commit(std::shared_ptr<CommitRequest> req) {
        {
            std::lock_guard<std::mutex> lk(queue_mu_);
            if (writer_done_) return false;
            queue_.push_back(std::move(req));
        }
        counters_.commits_queued.fetch_add(1, std::memory_order_relaxed);
        DTREE_METRIC_INC(net_commits_queued);
        queue_cv_.notify_one();
        return true;
    }

    void writer_loop() {
        for (;;) {
            std::vector<std::shared_ptr<CommitRequest>> group;
            {
                std::unique_lock<std::mutex> lk(queue_mu_);
                queue_cv_.wait(lk, [this] {
                    return !queue_.empty() || stop_.stopping();
                });
                if (queue_.empty() && stop_.stopping()) {
                    // Nothing pending and no new enqueues can land after
                    // writer_done_: safe to exit — the drain guarantee holds.
                    writer_done_ = true;
                    return;
                }
                group.assign(queue_.begin(), queue_.end());
                queue_.clear();
            }
            process_group(group);
        }
    }

    void process_group(std::vector<std::shared_ptr<CommitRequest>>& group) {
        // Pre-validate each request in full before staging ANY of its
        // relations: ingest() throws per relation, and a request half-staged
        // into the engine could not be unwound (insert-only storage).
        std::vector<std::shared_ptr<CommitRequest>> accepted;
        for (auto& req : group) {
            bool ok = true;
            for (const auto& [rel, facts] : req->batch) {
                if (!service_.ingest_allowed(rel)) {
                    req->complete_err(
                        service_.find_decl(rel) ? ErrCode::IngestRejected
                                                : ErrCode::UnknownRelation,
                        "commit rejected for relation: " + rel);
                    ok = false;
                    break;
                }
            }
            if (ok) accepted.push_back(req);
        }
        if (accepted.empty()) return;

        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::uint64_t> fresh(accepted.size(), 0);
        std::uint64_t iterations = 0;
        try {
            for (std::size_t i = 0; i < accepted.size(); ++i) {
                for (auto& [rel, facts] : accepted[i]->batch) {
                    fresh[i] += service_.engine().ingest(rel, facts);
                }
            }
            // ONE refixpoint for the whole group: this is the group commit.
            iterations = service_.engine().refixpoint(cfg_.jobs);
        } catch (const std::exception& e) {
            // ingest_allowed pre-screened the known rejection reasons, so
            // this is an engine invariant failure; fail the whole group
            // rather than guess which request poisoned it.
            for (auto& req : accepted) {
                req->complete_err(ErrCode::Internal, e.what());
            }
            return;
        }
        counters_.group_commits.fetch_add(1, std::memory_order_relaxed);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        {
            std::lock_guard<std::mutex> lk(hist_mu_);
            commit_hist_.record(static_cast<std::uint64_t>(ns));
        }
        for (std::size_t i = 0; i < accepted.size(); ++i) {
            accepted[i]->complete_ok(fresh[i], iterations);
        }
    }

    // -- bounded output queue ------------------------------------------------

    /// Per-session outgoing frame queue, bounded by total bytes. push()
    /// blocks up to the write timeout when full — if the sender cannot drain
    /// it by then the client is too slow and the session is shed.
    class OutQueue {
    public:
        explicit OutQueue(std::size_t max_bytes) : max_bytes_(max_bytes) {}

        enum class PushResult { Ok, Full, Closed };

        PushResult push(std::vector<std::uint8_t> frame, int timeout_ms) {
            std::unique_lock<std::mutex> lk(mu_);
            const bool ok = cv_space_.wait_for(
                lk, std::chrono::milliseconds(timeout_ms), [&] {
                    return closed_ || bytes_ + frame.size() <= max_bytes_ ||
                           q_.empty(); // one oversized frame may always queue
                });
            if (closed_) return PushResult::Closed;
            if (!ok) return PushResult::Full;
            bytes_ += frame.size();
            q_.push_back(std::move(frame));
            cv_data_.notify_one();
            return PushResult::Ok;
        }

        /// Blocks for data; false = closed AND drained (sender exits).
        bool pop(std::vector<std::uint8_t>& out) {
            std::unique_lock<std::mutex> lk(mu_);
            cv_data_.wait(lk, [&] { return closed_ || !q_.empty(); });
            if (q_.empty()) return false;
            out = std::move(q_.front());
            q_.pop_front();
            bytes_ -= out.size();
            cv_space_.notify_all();
            return true;
        }

        /// Stops accepting; pop() drains what is queued, then returns false.
        void close() {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
            cv_data_.notify_all();
            cv_space_.notify_all();
        }

        /// Drop everything undelivered (shedding): the client is gone.
        void abort() {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
            q_.clear();
            bytes_ = 0;
            cv_data_.notify_all();
            cv_space_.notify_all();
        }

    private:
        std::mutex mu_;
        std::condition_variable cv_data_, cv_space_;
        std::deque<std::vector<std::uint8_t>> q_;
        std::size_t bytes_ = 0;
        std::size_t max_bytes_;
        bool closed_ = false;
    };

    // -- session -------------------------------------------------------------

    struct Session {
        Socket sock;
        OutQueue out;
        std::thread reader;
        std::thread sender;
        std::atomic<bool> finished{false};

        explicit Session(Socket s, std::size_t max_out)
            : sock(std::move(s)), out(max_out) {}
    };

    void accept_loop() {
        while (!stop_.stopping()) {
            Socket client;
            const IoResult r = listener_.accept(client, cfg_.poll_slice_ms);
            if (r == IoResult::Ok) {
                counters_.connections.fetch_add(1, std::memory_order_relaxed);
                DTREE_METRIC_INC(net_connections);
                reap_sessions(/*all=*/false);
                if (live_sessions() >= cfg_.max_sessions) {
                    refuse_busy(client);
                    continue;
                }
                auto sess = std::make_shared<Session>(std::move(client),
                                                      cfg_.max_output_bytes);
                sess->sender = std::thread([this, sess] { sender_loop(*sess); });
                sess->reader = std::thread([this, sess] { session_loop(*sess); });
                {
                    std::lock_guard<std::mutex> lk(sessions_mu_);
                    sessions_.push_back(sess);
                }
            } else if (r == IoResult::Error) {
                break; // listener closed under us (shutdown) or fatal
            }
            reap_sessions(/*all=*/false);
        }
        // Stop point: close remaining client sockets' READ side only, so
        // session readers unblock promptly while the write side stays open —
        // sender threads must still flush queued responses (a COMMIT_OK for
        // an applied group commit is a durability promise; killing the write
        // direction here would turn it into a connection error). Staged-but-
        // uncommitted batches die with their sessions (a commit is only
        // durable once COMMIT was enqueued).
        std::lock_guard<std::mutex> lk(sessions_mu_);
        for (auto& s : sessions_) s->sock.shutdown_read();
    }

    std::size_t live_sessions() {
        std::lock_guard<std::mutex> lk(sessions_mu_);
        return sessions_.size();
    }

    /// Session cap reached: one ERROR Busy frame, then close, on the
    /// acceptor thread — no session threads start. The write side is shut
    /// first and the client's already-sent bytes (its HELLO) are drained
    /// for at most one poll slice, so the close does not reset the
    /// connection before the client has read the frame.
    void refuse_busy(Socket& client) {
        counters_.sessions_refused.fetch_add(1, std::memory_order_relaxed);
        counters_.errors_sent.fetch_add(1, std::memory_order_relaxed);
        const auto frame = encode_error(ErrCode::Busy, "server at max_sessions");
        if (client.send_all(frame.data(), frame.size(), cfg_.poll_slice_ms) !=
            IoResult::Ok) {
            return;
        }
        client.shutdown_write();
        const std::int64_t deadline = posix::now_ms() + cfg_.poll_slice_ms;
        std::uint8_t buf[1024];
        std::size_t got = 0;
        for (std::int64_t left = cfg_.poll_slice_ms; left > 0;
             left = deadline - posix::now_ms()) {
            if (client.recv_some(buf, sizeof(buf), got, static_cast<int>(left)) !=
                IoResult::Ok) {
                break;
            }
        }
    }

    void reap_sessions(bool all) {
        std::vector<std::shared_ptr<Session>> dead;
        {
            std::lock_guard<std::mutex> lk(sessions_mu_);
            for (auto it = sessions_.begin(); it != sessions_.end();) {
                if (all || (*it)->finished.load(std::memory_order_acquire)) {
                    dead.push_back(*it);
                    it = sessions_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (auto& s : dead) {
            if (s->reader.joinable()) s->reader.join();
            if (s->sender.joinable()) s->sender.join();
        }
    }

    void sender_loop(Session& sess) {
        std::vector<std::uint8_t> frame;
        while (sess.out.pop(frame)) {
            const IoResult r =
                sess.sock.send_all(frame.data(), frame.size(), cfg_.write_timeout_ms);
            if (r != IoResult::Ok) {
                if (r == IoResult::Timeout) shed(sess);
                sess.out.abort();
                sess.sock.shutdown_both(); // unblock the reader too
                return;
            }
            counters_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
            DTREE_METRIC_ADD(net_bytes_out, frame.size());
        }
    }

    void shed(Session& sess) {
        counters_.sessions_shed.fetch_add(1, std::memory_order_relaxed);
        DTREE_METRIC_INC(net_sessions_shed);
        (void)sess;
    }

    /// Queues one frame toward the client; false = backpressure overflow or
    /// closed queue (session is being torn down) — caller should stop.
    bool send_frame(Session& sess, std::vector<std::uint8_t> frame) {
        counters_.frames_out.fetch_add(1, std::memory_order_relaxed);
        DTREE_METRIC_INC(net_frames_out);
        const auto r = sess.out.push(std::move(frame), cfg_.write_timeout_ms);
        if (r == OutQueue::PushResult::Full) {
            shed(sess);
            sess.out.abort();
            return false;
        }
        return r == OutQueue::PushResult::Ok;
    }

    bool send_error(Session& sess, ErrCode code, const std::string& msg) {
        counters_.errors_sent.fetch_add(1, std::memory_order_relaxed);
        return send_frame(sess, encode_error(code, msg));
    }

    void session_loop(Session& sess) {
        try {
            session_run(sess);
        } catch (const std::exception& e) {
            // A decoder/handler failure (including bad_alloc on a hostile
            // payload) closes THIS session, never the process: an escaped
            // exception on a reader thread would be std::terminate.
            try {
                send_error(sess, ErrCode::Internal, e.what());
            } catch (...) {
            }
        } catch (...) {
            try {
                send_error(sess, ErrCode::Internal, "internal error");
            } catch (...) {
            }
        }
        sess.out.close(); // sender drains remaining frames, then exits
        sess.finished.store(true, std::memory_order_release);
    }

    void session_run(Session& sess) {
        FrameDecoder decoder(cfg_.max_frame);
        bool hello_done = false;
        std::size_t batch_tuples = 0;
        typename Service::Batch batch;
        std::uint8_t buf[16 * 1024];
        std::int64_t last_activity = posix::now_ms();

        for (;;) {
            // Pump decoded frames before reading more bytes.
            Frame f;
            for (;;) {
                const auto ev = decoder.next(f);
                if (ev == FrameDecoder::Event::None) break;
                if (ev == FrameDecoder::Event::Oversized) {
                    if (!send_error(sess, ErrCode::FrameTooLarge,
                                    "frame exceeds max_frame")) {
                        return;
                    }
                    continue;
                }
                if (ev == FrameDecoder::Event::Malformed) {
                    send_error(sess, ErrCode::BadFrame,
                               "unrecoverable framing error");
                    return;
                }
                counters_.frames_in.fetch_add(1, std::memory_order_relaxed);
                counters_.bytes_in.fetch_add(5 + f.payload.size(),
                                             std::memory_order_relaxed);
                DTREE_METRIC_INC(net_frames_in);
                DTREE_METRIC_ADD(net_bytes_in, 5 + f.payload.size());
                switch (handle_frame(sess, f, hello_done, batch, batch_tuples)) {
                    case FrameAction::Continue: break;
                    case FrameAction::CloseSession: return;
                }
            }

            if (stop_.stopping()) {
                // Drain point for readers: stop serving new requests. Any
                // commit already enqueued was awaited inside handle_frame, so
                // acknowledged writes are durable.
                return;
            }

            std::size_t got = 0;
            const IoResult r =
                sess.sock.recv_some(buf, sizeof(buf), got, cfg_.poll_slice_ms);
            if (r == IoResult::Ok) {
                last_activity = posix::now_ms();
                decoder.feed(buf, got);
            } else if (r == IoResult::Timeout) {
                if (posix::now_ms() - last_activity >= cfg_.read_timeout_ms) {
                    counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
                    DTREE_METRIC_INC(net_timeouts);
                    send_error(sess, ErrCode::Timeout, "read timeout");
                    return;
                }
            } else {
                return; // Closed / Error: peer went away
            }
        }
    }

    enum class FrameAction { Continue, CloseSession };

    FrameAction handle_frame(Session& sess, const Frame& f, bool& hello_done,
                             typename Service::Batch& batch,
                             std::size_t& batch_tuples) {
        if (!hello_done) {
            HelloMsg hello;
            if (!decode_hello(f, hello)) {
                send_error(sess, ErrCode::NeedHello,
                           "first frame must be HELLO");
                return FrameAction::CloseSession;
            }
            if (!hello_acceptable(hello)) {
                send_error(sess, ErrCode::BadVersion,
                           "unsupported protocol version " +
                               std::to_string(hello.version));
                return FrameAction::CloseSession;
            }
            hello_done = true;
            HelloOkMsg ok;
            ok.version = kProtocolVersion;
            ok.max_frame = static_cast<std::uint32_t>(cfg_.max_frame);
            ok.max_batch = static_cast<std::uint32_t>(cfg_.max_batch);
            return send_frame(sess, encode_hello_ok(ok))
                       ? FrameAction::Continue
                       : FrameAction::CloseSession;
        }

        switch (f.op) {
            case Op::Query: {
                QueryMsg m;
                if (!decode_query(f, m)) return bad_frame(sess);
                const auto* d = service_.find_decl(m.rel);
                if (!d) return unknown_relation(sess, m.rel);
                if (m.arity != d->arity()) {
                    return keep_after(send_error(sess, ErrCode::BadRequest,
                                                 "arity mismatch for " + m.rel));
                }
                const auto res = service_.query(m.rel, m.tuple);
                QueryOkMsg ok;
                ok.found = res.found;
                ok.epoch = res.epoch;
                return keep_after(send_frame(sess, encode_query_ok(ok)));
            }
            case Op::Range: {
                RangeMsg m;
                if (!decode_range(f, m)) return bad_frame(sess);
                const auto* d = service_.find_decl(m.rel);
                if (!d) return unknown_relation(sess, m.rel);
                if (m.prefix > d->arity() || m.arity < m.prefix) {
                    return keep_after(send_error(sess, ErrCode::BadRequest,
                                                 "bad prefix for " + m.rel));
                }
                return handle_range(sess, m, static_cast<std::uint8_t>(d->arity()));
            }
            case Op::Count: {
                CountMsg m;
                if (!decode_count(f, m)) return bad_frame(sess);
                if (!service_.find_decl(m.rel)) return unknown_relation(sess, m.rel);
                const auto res = service_.count(m.rel);
                CountOkMsg ok;
                ok.tuples = res.tuples;
                ok.epoch = res.epoch;
                return keep_after(send_frame(sess, encode_count_ok(ok)));
            }
            case Op::Fact: {
                FactMsg m;
                if (!decode_fact(f, m)) return bad_frame(sess);
                const auto* d = service_.find_decl(m.rel);
                if (!d) return unknown_relation(sess, m.rel);
                if (m.arity != d->arity()) {
                    return keep_after(send_error(sess, ErrCode::BadRequest,
                                                 "arity mismatch for " + m.rel));
                }
                if (!service_.ingest_allowed(m.rel)) {
                    return keep_after(send_error(
                        sess, ErrCode::IngestRejected,
                        m.rel + " is read under negation; cannot ingest"));
                }
                if (batch_tuples + 1 > cfg_.max_batch) {
                    return keep_after(send_error(sess, ErrCode::BatchLimit,
                                                 "session batch limit reached"));
                }
                batch[m.rel].push_back(m.tuple);
                ++batch_tuples;
                return keep_after(send_frame(
                    sess, encode_buffered(Op::FactOk,
                                          static_cast<std::uint32_t>(batch_tuples))));
            }
            case Op::Load: {
                LoadMsg m;
                if (!decode_load(f, m)) return bad_frame(sess);
                const auto* d = service_.find_decl(m.rel);
                if (!d) return unknown_relation(sess, m.rel);
                if (m.arity != d->arity()) {
                    return keep_after(send_error(sess, ErrCode::BadRequest,
                                                 "arity mismatch for " + m.rel));
                }
                if (!service_.ingest_allowed(m.rel)) {
                    return keep_after(send_error(
                        sess, ErrCode::IngestRejected,
                        m.rel + " is read under negation; cannot ingest"));
                }
                if (batch_tuples + m.tuples.size() > cfg_.max_batch) {
                    return keep_after(send_error(sess, ErrCode::BatchLimit,
                                                 "session batch limit reached"));
                }
                auto& dst = batch[m.rel];
                dst.insert(dst.end(), m.tuples.begin(), m.tuples.end());
                batch_tuples += m.tuples.size();
                return keep_after(send_frame(
                    sess, encode_buffered(Op::LoadOk,
                                          static_cast<std::uint32_t>(batch_tuples))));
            }
            case Op::Commit: {
                if (!decode_commit(f)) return bad_frame(sess);
                if (batch.empty()) {
                    CommitOkMsg ok; // empty commit: trivially applied
                    return keep_after(send_frame(sess, encode_commit_ok(ok)));
                }
                auto req = std::make_shared<CommitRequest>();
                req->batch = std::move(batch);
                batch.clear();
                batch_tuples = 0;
                if (!enqueue_commit(req)) {
                    return keep_after(send_error(sess, ErrCode::ShuttingDown,
                                                 "server is draining"));
                }
                // Block THIS session only; reads on other sessions proceed
                // against snapshots while the writer runs the group.
                req->await();
                if (!req->ok) {
                    return keep_after(send_error(sess, req->code, req->error));
                }
                CommitOkMsg ok;
                ok.fresh = req->fresh;
                ok.iterations = req->iterations;
                return keep_after(send_frame(sess, encode_commit_ok(ok)));
            }
            case Op::Stats: {
                if (!decode_stats(f)) return bad_frame(sess);
                return keep_after(send_frame(sess, encode_stats_ok(stats_json())));
            }
            case Op::Goodbye: {
                send_frame(sess, encode_bye());
                return FrameAction::CloseSession;
            }
            case Op::Hello: {
                return keep_after(
                    send_error(sess, ErrCode::BadRequest, "duplicate HELLO"));
            }
            default:
                return keep_after(
                    send_error(sess, ErrCode::UnknownOp, "unknown opcode"));
        }
    }

    FrameAction handle_range(Session& sess, const RangeMsg& m, std::uint8_t arity) {
        // One snapshot pin covers the whole scan, so every chunk of the
        // response reflects the same epoch; chunking bounds frame size AND
        // per-session memory — chunks are enqueued from inside the scan
        // callback, so a full-relation RANGE never materializes the relation
        // into session-local heap, and the bounded output queue applies its
        // backpressure per chunk while the scan is still running.
        RangeOkMsg out;
        out.arity = arity;
        out.tuples.reserve(kRangeChunkTuples);
        bool send_failed = false;
        service_.scan(
            m.rel, m.bound, m.prefix,
            [&](std::uint64_t epoch) { out.epoch = epoch; },
            [&](const datalog::StorageTuple& t) {
                if (send_failed) return;
                out.tuples.push_back(t);
                if (out.tuples.size() >= kRangeChunkTuples) {
                    out.last = false;
                    if (!send_frame(sess, encode_range_ok(out))) {
                        send_failed = true;
                    }
                    out.tuples.clear();
                }
            });
        if (send_failed) return FrameAction::CloseSession;
        out.last = true; // final chunk: whatever remains, possibly empty
        return keep_after(send_frame(sess, encode_range_ok(out)));
    }

    FrameAction bad_frame(Session& sess) {
        return keep_after(
            send_error(sess, ErrCode::BadFrame, "malformed payload"));
    }
    FrameAction unknown_relation(Session& sess, const std::string& rel) {
        return keep_after(
            send_error(sess, ErrCode::UnknownRelation, "unknown relation: " + rel));
    }
    /// Session survives unless the send side already collapsed.
    FrameAction keep_after(bool sent) {
        return sent ? FrameAction::Continue : FrameAction::CloseSession;
    }

    ServerConfig cfg_;
    Service service_;
    Listener listener_;
    StopController stop_;
    ServerCounters counters_;

    std::thread acceptor_;
    std::vector<std::shared_ptr<Session>> sessions_;
    std::mutex sessions_mu_;

    std::thread writer_;
    std::deque<std::shared_ptr<CommitRequest>> queue_;
    std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    bool writer_done_ = false;

    util::Histogram commit_hist_;
    std::mutex hist_mu_;
};

} // namespace dtree::net
