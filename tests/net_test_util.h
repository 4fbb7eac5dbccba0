#ifndef TAILBENCH_TESTS_NET_TEST_UTIL_H_
#define TAILBENCH_TESTS_NET_TEST_UTIL_H_

/**
 * @file
 * Raw-socket client helpers for the net tests: the same encode-to-bytes
 * and decode-from-one-window form the library's readers use.
 */

#include <poll.h>

#include <cstddef>

#include "core/transport.h"
#include "net/wire.h"

namespace tb::test {

/** Writes all @p len bytes to socket @p fd. */
inline bool
sendAll(int fd, const void* p, size_t len)
{
    net::FdStream s(fd);
    return net::writeFull(s, p, len);
}

/** Blocks until @p in holds a whole response frame read from @p fd,
 * then decodes it; false at EOF, on an error or a malformed frame. */
inline bool
recvResponseFrom(int fd, net::InWindow& in, core::Response& out)
{
    for (;;) {
        size_t used = 0;
        switch (net::tryDecodeResponseFrame(in.data(), in.size(), out,
                                            used)) {
        case net::DecodeResult::kFrame:
            in.consume(used);
            return true;
        case net::DecodeResult::kBadFrame:
            return false;
        case net::DecodeResult::kNeedMore:
            if (in.readFrom(fd) <= 0)
                return false;
        }
    }
}

/** True when the peer closes @p fd within 10 s with nothing left
 * undecoded in @p in — a clean end of stream. */
inline bool
cleanEof(int fd, net::InWindow& in)
{
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    return in.empty() && ::poll(&p, 1, 10000) == 1 &&
        in.readFrom(fd) == 0;
}

}  // namespace tb::test

#endif  // TAILBENCH_TESTS_NET_TEST_UTIL_H_
