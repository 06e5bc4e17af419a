#pragma once

// Thin RAII POSIX socket layer for the wire-protocol server and client.
// Everything here is deliberately boring and deadline-correct:
//
//   * every blocking wait is poll() against a CLOCK_MONOTONIC deadline, so
//     EINTR restarts never extend a timeout;
//   * connected fds run in O_NONBLOCK mode: poll(POLLOUT) only promises
//     SOME buffer space, so on a blocking fd the subsequent full-remainder
//     send() could block on a peer that stopped reading and the deadline
//     would be illusory. Non-blocking, send() writes what fits, returns
//     EAGAIN, and the loop re-polls under the same deadline — the timeout
//     is real;
//   * send_all loops over partial writes, recv_some surfaces partial reads
//     to the framing decoder (which is split-point-agnostic by design);
//   * sends use MSG_NOSIGNAL — a peer that vanished mid-write yields an
//     error return, never a process-killing SIGPIPE;
//   * Timeout / Closed / Error are distinct results, because the session
//     layer treats them differently (read timeout = structured ERROR frame
//     then close; peer close = silent teardown).

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

namespace dtree::net {

enum class IoResult { Ok, Timeout, Closed, Error };

namespace posix {

inline std::int64_t now_ms() {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// poll() one fd for `events` until the absolute monotonic `deadline_ms`
/// (negative = wait forever). EINTR restarts recompute the remaining budget.
/// Returns >0 ready, 0 timeout, <0 error.
inline int poll_until(int fd, short events, std::int64_t deadline_ms) {
    for (;;) {
        int wait = -1;
        if (deadline_ms >= 0) {
            const std::int64_t left = deadline_ms - now_ms();
            if (left <= 0) return 0;
            wait = static_cast<int>(left);
        }
        struct pollfd p;
        p.fd = fd;
        p.events = events;
        p.revents = 0;
        const int rc = ::poll(&p, 1, wait);
        if (rc > 0) return rc;
        if (rc == 0) {
            if (deadline_ms < 0) continue; // spurious zero without a deadline
            return 0;
        }
        if (errno == EINTR) continue;
        return -1;
    }
}

} // namespace posix

/// Move-only owning socket. All I/O is deadline-based; timeout_ms < 0 waits
/// forever (the client library uses finite timeouts everywhere).
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Socket& operator=(Socket&& o) noexcept {
        if (this != &o) {
            close();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    void close() {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    /// Both directions; unblocks a peer (or our own reader) stuck in recv.
    void shutdown_both() {
        if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    }

    /// Read side only: our recv unblocks (returns 0), but the write side
    /// stays open so queued responses can still flush to the peer.
    void shutdown_read() {
        if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
    }

    /// Write side only: the peer reads EOF after our queued bytes.
    void shutdown_write() {
        if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
    }

    /// O_NONBLOCK: required for deadline-correct send_all/recv_some (see the
    /// header comment). Every connected socket gets this at creation.
    bool set_nonblocking() {
        if (fd_ < 0) return false;
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        return flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
    }

    /// Writes all `n` bytes or reports why it could not: partial writes loop,
    /// EINTR retries, EPIPE/ECONNRESET map to Closed.
    IoResult send_all(const void* data, std::size_t n, int timeout_ms) {
        const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
        const std::int64_t deadline =
            timeout_ms < 0 ? -1 : posix::now_ms() + timeout_ms;
        std::size_t sent = 0;
        while (sent < n) {
            const int ready = posix::poll_until(fd_, POLLOUT, deadline);
            if (ready == 0) return IoResult::Timeout;
            if (ready < 0) return IoResult::Error;
            const ssize_t rc = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
            if (rc > 0) {
                sent += static_cast<std::size_t>(rc);
                continue;
            }
            if (rc < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
                continue;
            }
            if (rc < 0 && (errno == EPIPE || errno == ECONNRESET)) {
                return IoResult::Closed;
            }
            return IoResult::Error;
        }
        return IoResult::Ok;
    }

    /// One recv of up to `cap` bytes (the framing decoder accepts any chunk
    /// size). `got` = 0 with Ok never happens; orderly peer shutdown is
    /// Closed.
    IoResult recv_some(void* buf, std::size_t cap, std::size_t& got, int timeout_ms) {
        got = 0;
        const std::int64_t deadline =
            timeout_ms < 0 ? -1 : posix::now_ms() + timeout_ms;
        for (;;) {
            const int ready = posix::poll_until(fd_, POLLIN, deadline);
            if (ready == 0) return IoResult::Timeout;
            if (ready < 0) return IoResult::Error;
            const ssize_t rc = ::recv(fd_, buf, cap, 0);
            if (rc > 0) {
                got = static_cast<std::size_t>(rc);
                return IoResult::Ok;
            }
            if (rc == 0) return IoResult::Closed;
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
            if (errno == ECONNRESET) return IoResult::Closed;
            return IoResult::Error;
        }
    }

private:
    int fd_ = -1;
};

/// Loopback listener. Binds 127.0.0.1 only: this server speaks an
/// unauthenticated protocol and is meant for same-host clients (benches,
/// tests, local tooling); exposing it wider is a deliberate future step.
class Listener {
public:
    Listener() = default;

    /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral; the chosen port
    /// is readable via port()). Returns false with `err` set on failure.
    bool bind_loopback(std::uint16_t port, std::string& err) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        struct sockaddr_in addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
            err = std::string("bind: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        if (::listen(fd, 64) < 0) {
            err = std::string("listen: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        socklen_t len = sizeof(addr);
        if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
            err = std::string("getsockname: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        sock_ = Socket(fd);
        port_ = ntohs(addr.sin_port);
        return true;
    }

    /// Accepts one connection within `timeout_ms` (Timeout when none
    /// arrived; the acceptor loop interleaves this with its stop check).
    IoResult accept(Socket& out, int timeout_ms) {
        const std::int64_t deadline =
            timeout_ms < 0 ? -1 : posix::now_ms() + timeout_ms;
        for (;;) {
            const int ready = posix::poll_until(sock_.fd(), POLLIN, deadline);
            if (ready == 0) return IoResult::Timeout;
            if (ready < 0) return IoResult::Error;
            const int fd = ::accept(sock_.fd(), nullptr, nullptr);
            if (fd >= 0) {
                const int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
                out = Socket(fd);
                out.set_nonblocking();
                return IoResult::Ok;
            }
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == ECONNABORTED) {
                continue;
            }
            return IoResult::Error;
        }
    }

    bool valid() const { return sock_.valid(); }
    int fd() const { return sock_.fd(); }
    std::uint16_t port() const { return port_; }
    void close() { sock_.close(); }

private:
    Socket sock_;
    std::uint16_t port_ = 0;
};

/// Client-side connect to 127.0.0.1-style dotted-quad `host`.
inline bool connect_tcp(const std::string& host, std::uint16_t port,
                        int timeout_ms, Socket& out, std::string& err) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        err = "bad address: " + host;
        ::close(fd);
        return false;
    }
    // Loopback connects complete (or fail) synchronously; a blocking connect
    // with EINTR restart is enough for the same-host clients this serves.
    (void)timeout_ms;
    for (;;) {
        if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) == 0) {
            break;
        }
        if (errno == EINTR) continue;
        err = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    out = Socket(fd);
    // Non-blocking only AFTER the (synchronous loopback) connect, so the
    // connect path stays simple while all I/O is deadline-correct.
    out.set_nonblocking();
    return true;
}

} // namespace dtree::net
