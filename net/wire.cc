#include "net/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

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

/**
 * Reads exactly @p len bytes, distinguishing clean EOF (no bytes at
 * all — a peer that closed at a frame boundary) from a mid-read
 * truncation. The one short-read loop everything else wraps.
 */
WireResult
readExact(ByteStream& s, uint8_t* buf, size_t len)
{
    size_t got = 0;
    while (got < len) {
        const ssize_t n = s.readSome(buf + got, len - got);
        if (n < 0)
            return WireResult::kBadFrame;  // error is never a clean EOF
        if (n == 0)
            return got == 0 ? WireResult::kEof : WireResult::kBadFrame;
        got += static_cast<size_t>(n);
    }
    return WireResult::kOk;
}

/**
 * The request header check both request decoders share: magic and
 * payload bound, validated on as much of the first 8 bytes as @p len
 * covers — so the window decoder rejects a hostile prefix before its
 * claimed payload is buffered, and the stream decoder before it
 * allocates.
 */
bool
requestHeaderValid(const uint8_t* hdr, size_t len)
{
    if (len >= 4 && get32(hdr) != kRequestMagic)
        return false;
    return len < 8 || get32(hdr + 4) <= kMaxPayloadBytes;
}

/** The one response decoder: a full kResponseFrameBytes frame; false
 * on a bad magic or a nonzero reserved word. */
bool
decodeResponseFrame(const uint8_t* frame, core::Response& out)
{
    if (get32(frame) != kResponseMagic || get32(frame + 4) != 0)
        return false;
    out.id = get64(frame + 8);
    out.checksum = get64(frame + 16);
    out.ctx = 0;
    out.timing.genNs = static_cast<int64_t>(get64(frame + 24));
    out.timing.startNs = static_cast<int64_t>(get64(frame + 32));
    out.timing.endNs = static_cast<int64_t>(get64(frame + 40));
    return true;
}

}  // namespace

ByteStream::~ByteStream() = default;

bool
readFull(ByteStream& s, void* buf, size_t len)
{
    return readExact(s, static_cast<uint8_t*>(buf), len) ==
        WireResult::kOk;
}

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
sendRequestFrame(ByteStream& s, const core::Request& req)
{
    const std::string_view payload = req.payload.view();
    if (payload.size() > kMaxPayloadBytes)
        return false;
    uint8_t hdr[kRequestHeaderBytes];
    put32(hdr, kRequestMagic);
    put32(hdr + 4, static_cast<uint32_t>(payload.size()));
    put64(hdr + 8, req.id);
    put64(hdr + 16, static_cast<uint64_t>(req.genNs));
    return writeFull(s, hdr, sizeof(hdr)) &&
        (payload.empty() ||
         writeFull(s, payload.data(), payload.size()));
}

WireResult
recvRequestFrame(ByteStream& s, core::Request& out)
{
    uint8_t hdr[kRequestHeaderBytes];
    const WireResult hr = readExact(s, hdr, sizeof(hdr));
    if (hr != WireResult::kOk)
        return hr;
    if (!requestHeaderValid(hdr, sizeof(hdr)))
        return WireResult::kBadFrame;
    const uint32_t payload_len = get32(hdr + 4);
    out.id = get64(hdr + 8);
    out.genNs = static_cast<int64_t>(get64(hdr + 16));
    out.ctx = 0;  // routing context is per-hop, never wire-carried
    // Owning payload: this is the blocking (threads-backend) path; the
    // reactor's allocation-free path decodes via the frame view.
    std::string payload(payload_len, '\0');
    if (payload_len > 0 && !readFull(s, &payload[0], payload_len))
        return WireResult::kBadFrame;
    out.payload = std::move(payload);
    return WireResult::kOk;
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

WireResult
recvResponseFrame(ByteStream& s, core::Response& out)
{
    uint8_t frame[kResponseFrameBytes];
    const WireResult hr = readExact(s, frame, sizeof(frame));
    if (hr != WireResult::kOk)
        return hr;
    return decodeResponseFrame(frame, out) ? WireResult::kOk
                                           : WireResult::kBadFrame;
}

DecodeResult
tryDecodeRequestFrameView(const uint8_t* data, size_t len,
                          RequestFrameView& out, size_t& consumed)
{
    if (!requestHeaderValid(data, len))
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
    if (!decodeResponseFrame(data, out))
        return DecodeResult::kBadFrame;
    consumed = kResponseFrameBytes;
    return DecodeResult::kFrame;
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
