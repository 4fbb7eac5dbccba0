#include "net/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace tb::net {

namespace {

static_assert(kRequestHeaderBytes == 4 + 4 + 8 + 8,
              "request header layout changed");
static_assert(kResponseFrameBytes == 4 + 4 + 8 + 8 + 8 + 8 + 8,
              "response frame layout changed");

void
put32(uint8_t* p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

void
put64(uint8_t* p, uint64_t v)
{
    put32(p, static_cast<uint32_t>(v));
    put32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t
get32(const uint8_t* p)
{
    return static_cast<uint32_t>(p[0]) |
        static_cast<uint32_t>(p[1]) << 8 |
        static_cast<uint32_t>(p[2]) << 16 |
        static_cast<uint32_t>(p[3]) << 24;
}

uint64_t
get64(const uint8_t* p)
{
    return static_cast<uint64_t>(get32(p)) |
        static_cast<uint64_t>(get32(p + 4)) << 32;
}

}  // namespace

ByteStream::~ByteStream() = default;

bool
writeFull(ByteStream& s, const void* buf, size_t len)
{
    const uint8_t* p = static_cast<const uint8_t*>(buf);
    size_t sent = 0;
    while (sent < len) {
        const ssize_t n = s.writeSome(p + sent, len - sent);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
encodeRequestFrame(std::vector<uint8_t>& out, const core::Request& req)
{
    const std::string_view payload = req.payload.view();
    if (payload.size() > kMaxPayloadBytes)
        return false;
    const size_t at = out.size();
    out.resize(at + kRequestHeaderBytes + payload.size());
    uint8_t* p = out.data() + at;
    put32(p, kRequestMagic);
    put32(p + 4, static_cast<uint32_t>(payload.size()));
    put64(p + 8, req.id);
    put64(p + 16, static_cast<uint64_t>(req.genNs));
    if (!payload.empty())
        std::memcpy(p + kRequestHeaderBytes, payload.data(),
                    payload.size());
    return true;
}

bool
sendRequestFrame(ByteStream& s, const core::Request& req)
{
    // Per-thread reusable storage: the frame leaves as one write, and
    // the steady state allocates nothing.
    static thread_local std::vector<uint8_t> t_frame;
    t_frame.clear();
    return encodeRequestFrame(t_frame, req) &&
        writeFull(s, t_frame.data(), t_frame.size());
}

void
encodeResponseFrame(uint8_t* out, const core::Response& resp)
{
    put32(out, kResponseMagic);
    put32(out + 4, 0);
    put64(out + 8, resp.id);
    put64(out + 16, resp.checksum);
    put64(out + 24, static_cast<uint64_t>(resp.timing.genNs));
    put64(out + 32, static_cast<uint64_t>(resp.timing.startNs));
    put64(out + 40, static_cast<uint64_t>(resp.timing.endNs));
}

DecodeResult
tryDecodeRequestFrameView(const uint8_t* data, size_t len,
                          RequestFrameView& out, size_t& consumed)
{
    // Magic and payload bound are checked on as much of the first 8
    // bytes as have arrived, so a hostile prefix is rejected before
    // its claimed payload is buffered.
    if (len >= 4 && get32(data) != kRequestMagic)
        return DecodeResult::kBadFrame;
    if (len >= 8 && get32(data + 4) > kMaxPayloadBytes)
        return DecodeResult::kBadFrame;
    if (len < kRequestHeaderBytes)
        return DecodeResult::kNeedMore;
    const uint32_t payload_len = get32(data + 4);
    const size_t total = kRequestHeaderBytes + payload_len;
    if (len < total)
        return DecodeResult::kNeedMore;
    out.id = get64(data + 8);
    out.genNs = static_cast<int64_t>(get64(data + 16));
    out.payload = data + kRequestHeaderBytes;
    out.payloadLen = payload_len;
    consumed = total;
    return DecodeResult::kFrame;
}

DecodeResult
tryDecodeResponseFrame(const uint8_t* data, size_t len,
                       core::Response& out, size_t& consumed)
{
    if (len >= 4 && get32(data) != kResponseMagic)
        return DecodeResult::kBadFrame;
    if (len < kResponseFrameBytes)
        return DecodeResult::kNeedMore;
    if (get32(data + 4) != 0)  // reserved word
        return DecodeResult::kBadFrame;
    out.id = get64(data + 8);
    out.checksum = get64(data + 16);
    out.ctx = 0;
    out.timing.genNs = static_cast<int64_t>(get64(data + 24));
    out.timing.startNs = static_cast<int64_t>(get64(data + 32));
    out.timing.endNs = static_cast<int64_t>(get64(data + 40));
    consumed = kResponseFrameBytes;
    return DecodeResult::kFrame;
}

ssize_t
InWindow::readFrom(int fd, size_t room)
{
    reserve(room);
    for (;;) {
        const ssize_t n =
            ::read(fd, buf_.data() + tail_, buf_.size() - tail_);
        if (n > 0)
            tail_ += static_cast<size_t>(n);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

void
InWindow::append(const uint8_t* p, size_t len)
{
    reserve(len);
    std::memcpy(buf_.data() + tail_, p, len);
    tail_ += len;
}

void
InWindow::consume(size_t n)
{
    head_ += n;
    if (head_ == tail_)
        head_ = tail_ = 0;
}

void
InWindow::reserve(size_t n)
{
    if (buf_.size() - tail_ >= n)
        return;
    // Slide the live bytes (a cut frame) to the front; grow only if
    // the consumed prefix does not make the room.
    if (head_ > 0)
        std::memmove(buf_.data(), buf_.data() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
    if (buf_.size() - tail_ < n)
        buf_.resize(std::max(2 * buf_.size(), tail_ + n));
}

ssize_t
FdStream::readSome(void* buf, size_t len)
{
    for (;;) {
        const ssize_t n = ::read(fd_, buf, len);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

ssize_t
FdStream::writeSome(const void* buf, size_t len)
{
    for (;;) {
        // MSG_NOSIGNAL: a peer-closed connection must surface as an
        // error return the transports can log, not as a SIGPIPE that
        // kills the whole benchmark process.
        const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

}  // namespace tb::net
