#pragma once

// The soufflette wire protocol (DESIGN.md §13): a length-prefixed binary
// framing shared by the server (src/net/server.h), the blocking client
// library (src/net/client.h), and the codec unit tests — the codec is pure
// byte manipulation over in-memory buffers, so framing corner cases
// (truncation, oversize, garbage, byte-at-a-time partial reads) are testable
// without a socket in sight.
//
// Frame grammar (all integers little-endian, fixed width):
//
//   frame   := len:u32 body            len = |body|, 1 <= len <= max_frame
//   body    := op:u8 payload
//   str     := n:u16 byte*n            relation names, error messages
//   tuple   := arity:u8 value:u64*arity   (arity <= kMaxArity; trailing
//                                          storage columns read back as 0)
//
// Counted tuple blocks (LOAD, RANGE_OK) additionally require arity >= 1 —
// the parser forbids nullary relations, and with arity 0 a tuple would
// consume zero payload bytes, so a lying count could not be bounded by the
// frame size. Decoders check count * 8 * arity against the remaining
// payload BEFORE looping, so a hostile count fails fast without allocating.
//
// Requests (client -> server) and their responses:
//
//   HELLO   version:u16                -> HELLO_OK version max_frame max_batch
//   QUERY   rel:str t:tuple            -> QUERY_OK  found:u8 epoch:u64
//   RANGE   rel:str prefix:u8 b:tuple  -> RANGE_OK* (chunked; last:u8 flags
//                                          the final chunk)
//   FACT    rel:str t:tuple            -> FACT_OK   buffered:u32
//   LOAD    rel:str arity:u8 n:u32 v*  -> LOAD_OK   buffered:u32
//   COMMIT                             -> COMMIT_OK fresh:u64 iterations:u64
//   COUNT   rel:str                    -> COUNT_OK  n:u64 epoch:u64
//   STATS                              -> STATS_OK  json:rest-of-payload
//   GOODBYE                            -> BYE (then the server closes)
//
// Any request can instead draw ERROR code:u16 msg:str — a *structured* error
// frame: except for BadVersion / NeedHello / Malformed framing, the session
// survives and the client may continue. A frame whose length header exceeds
// max_frame is skipped (the body is drained, never buffered) and answered
// with ERROR FrameTooLarge rather than a disconnect; only an unparseable
// header (len == 0) is fatal, because the stream cannot be resynchronised.
//
// Version negotiation: HELLO must be the first frame of a session; the
// server accepts exactly kProtocolVersion today and rejects anything else
// with ERROR BadVersion before closing. HELLO_OK advertises the server's
// frame/batch limits so clients can size LOAD batches without guessing.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace dtree::net {

using datalog::kMaxArity;
using datalog::StorageTuple;
using datalog::Value;

inline constexpr std::uint16_t kProtocolVersion = 1;

/// Default robustness-envelope limits; ServerConfig can override them, and
/// HELLO_OK reports the effective values to the client.
inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;  ///< bytes per frame
inline constexpr std::size_t kDefaultMaxBatch = 1u << 14;  ///< tuples buffered
/// Tuples per RANGE_OK chunk: bounded so a chunk frame stays far below
/// kDefaultMaxFrame (4096 * (1 + 8 * kMaxArity) + header ~ 135 KiB).
inline constexpr std::size_t kRangeChunkTuples = 4096;

enum class Op : std::uint8_t {
    // client -> server
    Hello = 0x01,
    Query = 0x02,
    Range = 0x03,
    Fact = 0x04,
    Load = 0x05,
    Commit = 0x06,
    Count = 0x07,
    Stats = 0x08,
    Goodbye = 0x09,
    // server -> client
    HelloOk = 0x81,
    QueryOk = 0x82,
    RangeOk = 0x83,
    FactOk = 0x84,
    LoadOk = 0x85,
    CommitOk = 0x86,
    CountOk = 0x87,
    StatsOk = 0x88,
    Bye = 0x89,
    Error = 0xFF,
};

enum class ErrCode : std::uint16_t {
    BadFrame = 1,        ///< payload did not parse (wrong shape / trailing bytes)
    BadVersion = 2,      ///< HELLO version not supported (fatal)
    NeedHello = 3,       ///< request before HELLO completed (fatal)
    UnknownOp = 4,       ///< opcode not in the table above (session survives)
    UnknownRelation = 5, ///< relation name not declared by the program
    BadRequest = 6,      ///< arity/prefix out of range for the relation
    FrameTooLarge = 7,   ///< length header above max_frame; body was skipped
    BatchLimit = 8,      ///< session buffer would exceed max_batch tuples
    IngestRejected = 9,  ///< relation feeds a negation (insert-only storage)
    ShuttingDown = 10,   ///< server is draining; no new commits accepted
    Timeout = 11,        ///< read deadline expired (server closes after this)
    Internal = 12,
    Busy = 13,           ///< server at max_sessions; connection closed
};

inline const char* err_name(ErrCode c) {
    switch (c) {
        case ErrCode::BadFrame: return "bad-frame";
        case ErrCode::BadVersion: return "bad-version";
        case ErrCode::NeedHello: return "need-hello";
        case ErrCode::UnknownOp: return "unknown-op";
        case ErrCode::UnknownRelation: return "unknown-relation";
        case ErrCode::BadRequest: return "bad-request";
        case ErrCode::FrameTooLarge: return "frame-too-large";
        case ErrCode::BatchLimit: return "batch-limit";
        case ErrCode::IngestRejected: return "ingest-rejected";
        case ErrCode::ShuttingDown: return "shutting-down";
        case ErrCode::Timeout: return "timeout";
        case ErrCode::Internal: return "internal";
        case ErrCode::Busy: return "busy";
    }
    return "?";
}

/// One decoded frame: opcode + raw payload (without the length header).
struct Frame {
    Op op = Op::Error;
    std::vector<std::uint8_t> payload;
};

// -- payload serialisation ---------------------------------------------------

/// Builds one frame: opcode byte + payload, rendered with the 4-byte length
/// prefix by finish(). Append-only; no I/O.
class FrameBuilder {
public:
    explicit FrameBuilder(Op op) { body_.push_back(static_cast<std::uint8_t>(op)); }

    FrameBuilder& u8(std::uint8_t v) {
        body_.push_back(v);
        return *this;
    }
    FrameBuilder& u16(std::uint16_t v) { return le(v, 2); }
    FrameBuilder& u32(std::uint32_t v) { return le(v, 4); }
    FrameBuilder& u64(std::uint64_t v) { return le(v, 8); }

    FrameBuilder& str(const std::string& s) {
        u16(static_cast<std::uint16_t>(
            std::min<std::size_t>(s.size(), std::numeric_limits<std::uint16_t>::max())));
        body_.insert(body_.end(), s.begin(),
                     s.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                                     s.size(), std::numeric_limits<std::uint16_t>::max())));
        return *this;
    }

    /// arity:u8 + arity u64 values (columns past arity are not transmitted).
    FrameBuilder& tuple(const StorageTuple& t, unsigned arity) {
        u8(static_cast<std::uint8_t>(arity));
        for (unsigned c = 0; c < arity; ++c) u64(t[c]);
        return *this;
    }

    /// Raw trailing bytes (the STATS json rides as rest-of-payload).
    FrameBuilder& raw(const std::string& s) {
        body_.insert(body_.end(), s.begin(), s.end());
        return *this;
    }

    /// The full wire frame: len:u32 (LE) + body.
    std::vector<std::uint8_t> finish() const {
        std::vector<std::uint8_t> out;
        out.reserve(4 + body_.size());
        const std::uint32_t len = static_cast<std::uint32_t>(body_.size());
        for (unsigned i = 0; i < 4; ++i) {
            out.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
        }
        out.insert(out.end(), body_.begin(), body_.end());
        return out;
    }

private:
    FrameBuilder& le(std::uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            body_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
        }
        return *this;
    }

    std::vector<std::uint8_t> body_;
};

/// Bounds-checked payload reader: every accessor returns false instead of
/// reading past the end, so garbage payloads degrade to a parse failure (an
/// ERROR frame), never out-of-bounds access. decode_* helpers additionally
/// require full consumption — trailing bytes are a malformed payload too.
class PayloadReader {
public:
    PayloadReader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}
    explicit PayloadReader(const std::vector<std::uint8_t>& v)
        : PayloadReader(v.data(), v.size()) {}

    bool u8(std::uint8_t& out) {
        if (n_ - i_ < 1) return false;
        out = p_[i_++];
        return true;
    }
    bool u16(std::uint16_t& out) { return le(out, 2); }
    bool u32(std::uint32_t& out) { return le(out, 4); }
    bool u64(std::uint64_t& out) { return le(out, 8); }

    bool str(std::string& out) {
        std::uint16_t n = 0;
        if (!u16(n)) return false;
        if (n_ - i_ < n) return false;
        out.assign(reinterpret_cast<const char*>(p_ + i_), n);
        i_ += n;
        return true;
    }

    /// Rejects arity > kMaxArity; columns past the wire arity read as 0.
    bool tuple(StorageTuple& out, std::uint8_t& arity) {
        if (!u8(arity)) return false;
        if (arity > kMaxArity) return false;
        out = StorageTuple{};
        for (unsigned c = 0; c < arity; ++c) {
            std::uint64_t v = 0;
            if (!u64(v)) return false;
            out[c] = v;
        }
        return true;
    }

    /// Everything left (STATS json).
    void rest(std::string& out) {
        out.assign(reinterpret_cast<const char*>(p_ + i_), n_ - i_);
        i_ = n_;
    }

    std::size_t remaining() const { return n_ - i_; }
    bool done() const { return i_ == n_; }

private:
    template <typename T>
    bool le(T& out, unsigned bytes) {
        if (n_ - i_ < bytes) return false;
        std::uint64_t v = 0;
        for (unsigned b = 0; b < bytes; ++b) {
            v |= static_cast<std::uint64_t>(p_[i_ + b]) << (8 * b);
        }
        i_ += bytes;
        out = static_cast<T>(v);
        return true;
    }

    const std::uint8_t* p_;
    std::size_t n_;
    std::size_t i_ = 0;
};

// -- incremental frame decoding ----------------------------------------------

/// Incremental framing decoder: feed() arbitrary byte chunks (a socket read,
/// one byte at a time in the codec tests — framing must be correct at every
/// split point), next() pops complete frames. Oversized frames are skipped
/// in O(1) memory (the body is consumed, never buffered) and surfaced as one
/// Oversized event so the session can answer with ERROR FrameTooLarge and
/// keep going; a zero-length header is Malformed and sticky — the stream has
/// no resynchronisation point, the connection must close.
class FrameDecoder {
public:
    explicit FrameDecoder(std::size_t max_frame = kDefaultMaxFrame)
        : max_frame_(max_frame) {}

    enum class Event { None, Frame, Oversized, Malformed };

    void feed(const std::uint8_t* data, std::size_t n) {
        buf_.insert(buf_.end(), data, data + n);
    }
    void feed(const std::vector<std::uint8_t>& v) { feed(v.data(), v.size()); }

    Event next(Frame& out) {
        if (dead_) return Event::Malformed;
        // Finish draining a skipped oversized body first.
        if (skip_ > 0) {
            const std::size_t take =
                static_cast<std::size_t>(std::min<std::uint64_t>(skip_, avail()));
            pos_ += take;
            skip_ -= take;
            compact();
            if (skip_ > 0) return Event::None;
        }
        if (avail() < 4) return Event::None;
        std::uint32_t len = 0;
        for (unsigned i = 0; i < 4; ++i) {
            len |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
        }
        if (len == 0) {
            // No opcode byte: the framing itself is broken and there is no
            // way to find the next boundary. Fatal.
            dead_ = true;
            return Event::Malformed;
        }
        if (len > max_frame_) {
            pos_ += 4;
            skip_ = len;
            compact();
            // Caller reports FrameTooLarge; subsequent next() calls drain
            // the body as more bytes arrive, then resume normal parsing.
            return Event::Oversized;
        }
        if (avail() < 4 + static_cast<std::size_t>(len)) return Event::None;
        out.op = static_cast<Op>(buf_[pos_ + 4]);
        out.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 5),
                           buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + len));
        pos_ += 4 + len;
        compact();
        return Event::Frame;
    }

    /// Bytes buffered but not yet consumed (tests).
    std::size_t buffered() const { return avail(); }
    bool dead() const { return dead_; }

private:
    std::size_t avail() const { return buf_.size() - pos_; }

    void compact() {
        if (pos_ == buf_.size()) {
            buf_.clear();
            pos_ = 0;
        } else if (pos_ > 4096 && pos_ > buf_.size() / 2) {
            buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
            pos_ = 0;
        }
    }

    std::size_t max_frame_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::uint64_t skip_ = 0;
    bool dead_ = false;
};

// -- typed messages ----------------------------------------------------------

struct HelloMsg {
    std::uint16_t version = 0;
};
struct HelloOkMsg {
    std::uint16_t version = 0;
    std::uint32_t max_frame = 0;
    std::uint32_t max_batch = 0;
};
struct QueryMsg {
    std::string rel;
    StorageTuple tuple{};
    std::uint8_t arity = 0;
};
struct QueryOkMsg {
    bool found = false;
    std::uint64_t epoch = 0;
};
struct RangeMsg {
    std::string rel;
    std::uint8_t prefix = 0;
    StorageTuple bound{};
    std::uint8_t arity = 0; ///< columns transmitted in `bound` (>= prefix)
};
struct RangeOkMsg {
    std::uint64_t epoch = 0;
    bool last = false;
    std::uint8_t arity = 0;
    std::vector<StorageTuple> tuples;
};
struct FactMsg {
    std::string rel;
    StorageTuple tuple{};
    std::uint8_t arity = 0;
};
struct BufferedMsg { ///< FACT_OK / LOAD_OK: session buffer size after the op
    std::uint32_t buffered = 0;
};
struct LoadMsg {
    std::string rel;
    std::uint8_t arity = 0;
    std::vector<StorageTuple> tuples;
};
struct CommitOkMsg {
    std::uint64_t fresh = 0;
    std::uint64_t iterations = 0;
};
struct CountMsg {
    std::string rel;
};
struct CountOkMsg {
    std::uint64_t tuples = 0;
    std::uint64_t epoch = 0;
};
struct StatsOkMsg {
    std::string json;
};
struct ErrorMsg {
    ErrCode code = ErrCode::Internal;
    std::string message;
};

inline std::vector<std::uint8_t> encode_hello(std::uint16_t version) {
    return FrameBuilder(Op::Hello).u16(version).finish();
}
inline std::vector<std::uint8_t> encode_hello_ok(const HelloOkMsg& m) {
    return FrameBuilder(Op::HelloOk)
        .u16(m.version)
        .u32(m.max_frame)
        .u32(m.max_batch)
        .finish();
}
inline std::vector<std::uint8_t> encode_query(const std::string& rel,
                                              const StorageTuple& t, unsigned arity) {
    return FrameBuilder(Op::Query).str(rel).tuple(t, arity).finish();
}
inline std::vector<std::uint8_t> encode_query_ok(const QueryOkMsg& m) {
    return FrameBuilder(Op::QueryOk).u8(m.found ? 1 : 0).u64(m.epoch).finish();
}
inline std::vector<std::uint8_t> encode_range(const std::string& rel,
                                              const StorageTuple& bound,
                                              unsigned prefix, unsigned arity) {
    return FrameBuilder(Op::Range)
        .str(rel)
        .u8(static_cast<std::uint8_t>(prefix))
        .tuple(bound, arity)
        .finish();
}
inline std::vector<std::uint8_t> encode_range_ok(const RangeOkMsg& m) {
    FrameBuilder b(Op::RangeOk);
    b.u64(m.epoch).u8(m.last ? 1 : 0).u8(m.arity).u32(
        static_cast<std::uint32_t>(m.tuples.size()));
    for (const auto& t : m.tuples) {
        for (unsigned c = 0; c < m.arity; ++c) b.u64(t[c]);
    }
    return b.finish();
}
inline std::vector<std::uint8_t> encode_fact(const std::string& rel,
                                             const StorageTuple& t, unsigned arity) {
    return FrameBuilder(Op::Fact).str(rel).tuple(t, arity).finish();
}
inline std::vector<std::uint8_t> encode_buffered(Op op, std::uint32_t buffered) {
    return FrameBuilder(op).u32(buffered).finish();
}
inline std::vector<std::uint8_t> encode_load(const std::string& rel,
                                             const std::vector<StorageTuple>& ts,
                                             unsigned arity) {
    FrameBuilder b(Op::Load);
    b.str(rel).u8(static_cast<std::uint8_t>(arity)).u32(
        static_cast<std::uint32_t>(ts.size()));
    for (const auto& t : ts) {
        for (unsigned c = 0; c < arity; ++c) b.u64(t[c]);
    }
    return b.finish();
}
inline std::vector<std::uint8_t> encode_commit() {
    return FrameBuilder(Op::Commit).finish();
}
inline std::vector<std::uint8_t> encode_commit_ok(const CommitOkMsg& m) {
    return FrameBuilder(Op::CommitOk).u64(m.fresh).u64(m.iterations).finish();
}
inline std::vector<std::uint8_t> encode_count(const std::string& rel) {
    return FrameBuilder(Op::Count).str(rel).finish();
}
inline std::vector<std::uint8_t> encode_count_ok(const CountOkMsg& m) {
    return FrameBuilder(Op::CountOk).u64(m.tuples).u64(m.epoch).finish();
}
inline std::vector<std::uint8_t> encode_stats() {
    return FrameBuilder(Op::Stats).finish();
}
inline std::vector<std::uint8_t> encode_stats_ok(const std::string& json) {
    return FrameBuilder(Op::StatsOk).raw(json).finish();
}
inline std::vector<std::uint8_t> encode_goodbye() {
    return FrameBuilder(Op::Goodbye).finish();
}
inline std::vector<std::uint8_t> encode_bye() { return FrameBuilder(Op::Bye).finish(); }
inline std::vector<std::uint8_t> encode_error(ErrCode code, const std::string& msg) {
    return FrameBuilder(Op::Error)
        .u16(static_cast<std::uint16_t>(code))
        .str(msg)
        .finish();
}

inline bool decode_hello(const Frame& f, HelloMsg& m) {
    if (f.op != Op::Hello) return false;
    PayloadReader r(f.payload);
    return r.u16(m.version) && r.done();
}
inline bool decode_hello_ok(const Frame& f, HelloOkMsg& m) {
    if (f.op != Op::HelloOk) return false;
    PayloadReader r(f.payload);
    return r.u16(m.version) && r.u32(m.max_frame) && r.u32(m.max_batch) && r.done();
}
inline bool decode_query(const Frame& f, QueryMsg& m) {
    if (f.op != Op::Query) return false;
    PayloadReader r(f.payload);
    return r.str(m.rel) && r.tuple(m.tuple, m.arity) && r.done();
}
inline bool decode_query_ok(const Frame& f, QueryOkMsg& m) {
    if (f.op != Op::QueryOk) return false;
    PayloadReader r(f.payload);
    std::uint8_t found = 0;
    if (!(r.u8(found) && r.u64(m.epoch) && r.done())) return false;
    m.found = found != 0;
    return true;
}
inline bool decode_range(const Frame& f, RangeMsg& m) {
    if (f.op != Op::Range) return false;
    PayloadReader r(f.payload);
    return r.str(m.rel) && r.u8(m.prefix) && r.tuple(m.bound, m.arity) && r.done();
}
inline bool decode_range_ok(const Frame& f, RangeOkMsg& m) {
    if (f.op != Op::RangeOk) return false;
    PayloadReader r(f.payload);
    std::uint8_t last = 0;
    std::uint32_t n = 0;
    if (!(r.u64(m.epoch) && r.u8(last) && r.u8(m.arity) && r.u32(n))) return false;
    if (m.arity == 0 || m.arity > kMaxArity) return false;
    if (r.remaining() != static_cast<std::uint64_t>(n) * 8u * m.arity) return false;
    m.last = last != 0;
    m.tuples.clear();
    m.tuples.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        StorageTuple t{};
        for (unsigned c = 0; c < m.arity; ++c) {
            std::uint64_t v = 0;
            if (!r.u64(v)) return false;
            t[c] = v;
        }
        m.tuples.push_back(t);
    }
    return r.done();
}
inline bool decode_fact(const Frame& f, FactMsg& m) {
    if (f.op != Op::Fact) return false;
    PayloadReader r(f.payload);
    return r.str(m.rel) && r.tuple(m.tuple, m.arity) && r.done();
}
inline bool decode_buffered(const Frame& f, Op expect, BufferedMsg& m) {
    if (f.op != expect) return false;
    PayloadReader r(f.payload);
    return r.u32(m.buffered) && r.done();
}
inline bool decode_load(const Frame& f, LoadMsg& m) {
    if (f.op != Op::Load) return false;
    PayloadReader r(f.payload);
    std::uint32_t n = 0;
    if (!(r.str(m.rel) && r.u8(m.arity) && r.u32(n))) return false;
    if (m.arity == 0 || m.arity > kMaxArity) return false;
    if (r.remaining() != static_cast<std::uint64_t>(n) * 8u * m.arity) return false;
    m.tuples.clear();
    m.tuples.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        StorageTuple t{};
        for (unsigned c = 0; c < m.arity; ++c) {
            std::uint64_t v = 0;
            if (!r.u64(v)) return false;
            t[c] = v;
        }
        m.tuples.push_back(t);
    }
    return r.done();
}
inline bool decode_commit(const Frame& f) {
    return f.op == Op::Commit && f.payload.empty();
}
inline bool decode_commit_ok(const Frame& f, CommitOkMsg& m) {
    if (f.op != Op::CommitOk) return false;
    PayloadReader r(f.payload);
    return r.u64(m.fresh) && r.u64(m.iterations) && r.done();
}
inline bool decode_count(const Frame& f, CountMsg& m) {
    if (f.op != Op::Count) return false;
    PayloadReader r(f.payload);
    return r.str(m.rel) && r.done();
}
inline bool decode_count_ok(const Frame& f, CountOkMsg& m) {
    if (f.op != Op::CountOk) return false;
    PayloadReader r(f.payload);
    return r.u64(m.tuples) && r.u64(m.epoch) && r.done();
}
inline bool decode_stats(const Frame& f) {
    return f.op == Op::Stats && f.payload.empty();
}
inline bool decode_stats_ok(const Frame& f, StatsOkMsg& m) {
    if (f.op != Op::StatsOk) return false;
    PayloadReader r(f.payload);
    r.rest(m.json);
    return true;
}
inline bool decode_goodbye(const Frame& f) {
    return f.op == Op::Goodbye && f.payload.empty();
}
inline bool decode_bye(const Frame& f) { return f.op == Op::Bye && f.payload.empty(); }
inline bool decode_error(const Frame& f, ErrorMsg& m) {
    if (f.op != Op::Error) return false;
    PayloadReader r(f.payload);
    std::uint16_t code = 0;
    if (!(r.u16(code) && r.str(m.message) && r.done())) return false;
    m.code = static_cast<ErrCode>(code);
    return true;
}

/// HELLO acceptance rule, shared by the server session and the codec test:
/// exactly the protocol version this build speaks.
inline bool hello_acceptable(const HelloMsg& m) {
    return m.version == kProtocolVersion;
}

} // namespace dtree::net
