#ifndef TAILBENCH_NET_WIRE_H_
#define TAILBENCH_NET_WIRE_H_

/**
 * @file
 * Length-prefixed wire format for harness requests and responses.
 *
 * Request frame (little-endian):
 *   u32 magic 'TBRQ'  | u32 payloadLen | u64 id | i64 genNs
 *   | payloadLen bytes
 * Response frame:
 *   u32 magic 'TBRP'  | u32 zero       | u64 id | u64 checksum
 *   | i64 genNs | i64 startNs | i64 endNs
 *
 * One form: every frame is encoded to bytes (a request leaves as one
 * write, a server response run as one write), and every socket reader
 * — the reactor, the thread-per-connection reader, both client
 * collectors — reads into an InWindow and decodes from it through
 * tryDecodeRequestFrameView / tryDecodeResponseFrame. So cut frames,
 * pipelined frames and hostile prefixes have one implementation,
 * testable without sockets. A bad magic or a payload length above
 * kMaxPayloadBytes is rejected as soon as the prefix shows it, before
 * the claimed payload is buffered.
 */

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/transport.h"

namespace tb::net {

/** Upper bound on a request payload; app request strings are tiny, so
 * anything near this is framing corruption, not load. */
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;

inline constexpr uint32_t kRequestMagic = 0x51524254;   // "TBRQ" LE
inline constexpr uint32_t kResponseMagic = 0x50524254;  // "TBRP" LE

/** Request frame header size (magic + payloadLen + id + genNs). */
inline constexpr size_t kRequestHeaderBytes = 24;
/** Full response frame size — responses carry no variable payload. */
inline constexpr size_t kResponseFrameBytes = 48;

/**
 * Minimal byte-stream abstraction with write(2) semantics: writeSome
 * returns >0 bytes accepted (possibly fewer than len) or <0 on error.
 * readSome (read(2) semantics) has no caller in the library; readers
 * decode from an InWindow instead.
 */
class ByteStream {
  public:
    virtual ~ByteStream();
    virtual ssize_t readSome(void* buf, size_t len) = 0;
    virtual ssize_t writeSome(const void* buf, size_t len) = 0;
};

/** Loops over short writes; false on error. */
bool writeFull(ByteStream& s, const void* buf, size_t len);

/** Appends @p req's frame to @p out; false (nothing appended) when the
 * payload exceeds kMaxPayloadBytes. */
bool encodeRequestFrame(std::vector<uint8_t>& out,
                        const core::Request& req);

/** Encodes @p req into per-thread reusable storage and writes it with
 * one writeFull; false on an oversized payload or a write error. */
bool sendRequestFrame(ByteStream& s, const core::Request& req);

/** Serializes @p resp into a caller buffer of kResponseFrameBytes —
 * the server encodes a whole response run into reusable per-thread
 * storage this way, so the run leaves as one write. */
void encodeResponseFrame(uint8_t* out, const core::Response& resp);

enum class DecodeResult {
    /** The window does not yet hold one full frame; read more. */
    kNeedMore,
    /** One frame decoded; @p consumed bytes were used. */
    kFrame,
    /** Bad magic or oversized payload — the connection is poisoned
     * (byte-stream framing cannot resynchronize). */
    kBadFrame,
};

/** Zero-copy view of one decoded request frame: payload points into
 * the caller's buffer, valid only until that buffer moves or is
 * reused. */
struct RequestFrameView {
    uint64_t id = 0;
    int64_t genNs = 0;
    const uint8_t* payload = nullptr;
    uint32_t payloadLen = 0;

    std::string_view
    payloadView() const
    {
        return {reinterpret_cast<const char*>(payload), payloadLen};
    }
};

/**
 * Attempts to decode one request frame from the first @p len bytes of
 * @p data, without copying the payload. Validates the magic and
 * payload bound as soon as enough bytes exist to check them, so a
 * hostile or corrupt peer is rejected before its claimed payload is
 * buffered. On kFrame, @p consumed is the frame's total size (data
 * beyond it is the next frame's).
 */
DecodeResult tryDecodeRequestFrameView(const uint8_t* data, size_t len,
                                       RequestFrameView& out,
                                       size_t& consumed);

/** Same contract, for one response frame (the client side). */
DecodeResult tryDecodeResponseFrame(const uint8_t* data, size_t len,
                                    core::Response& out,
                                    size_t& consumed);

/** Hands each whole request frame at the front of @p data to
 * @p onFrame(const RequestFrameView&) and sets @p used to the bytes
 * they took; false on a bad frame (the ones before it still count). */
template <typename OnFrame>
bool
decodeRequestFrames(const uint8_t* data, size_t len, size_t& used,
                    OnFrame&& onFrame)
{
    RequestFrameView view;
    size_t n = 0;
    DecodeResult r;
    used = 0;
    while ((r = tryDecodeRequestFrameView(data + used, len - used, view,
                                          n)) == DecodeResult::kFrame) {
        onFrame(view);
        used += n;
    }
    return r == DecodeResult::kNeedMore;
}

/**
 * One connection's bytes read but not yet decoded. A reader appends
 * (readFrom, or append for bytes read elsewhere), decodes whole frames
 * from data()/size() and consume()s them; a cut frame's prefix waits
 * for the next read. The buffer reuses its consumed prefix before it
 * grows, so a connection's steady state allocates nothing.
 */
class InWindow {
  public:
    /** Free space a read asks for by default: more than a window of
     * small frames fills, so one read takes all the socket holds. */
    static constexpr size_t kReadBytes = 16 * 1024;

    const uint8_t* data() const { return buf_.data() + head_; }
    size_t size() const { return tail_ - head_; }
    bool empty() const { return head_ == tail_; }

    /** One read(2) from @p fd (EINTR retried) into at least @p room
     * free bytes at the tail: >0 bytes read, 0 at EOF, <0 on error. */
    ssize_t readFrom(int fd, size_t room = kReadBytes);
    void append(const uint8_t* p, size_t len);
    /** Drops @p n decoded bytes from the front. */
    void consume(size_t n);

  private:
    /** Makes at least @p n free bytes past the tail. */
    void reserve(size_t n);

    std::vector<uint8_t> buf_;  // size() is the capacity
    size_t head_ = 0;
    size_t tail_ = 0;
};

/** ByteStream over a *connected socket* (writes use send() with
 * MSG_NOSIGNAL, so a dead peer is an error return, not a fatal
 * SIGPIPE); retries EINTR, does not own the fd. */
class FdStream final : public ByteStream {
  public:
    explicit FdStream(int fd) : fd_(fd) {}
    ssize_t readSome(void* buf, size_t len) override;
    ssize_t writeSome(const void* buf, size_t len) override;

  private:
    int fd_;
};

}  // namespace tb::net

#endif  // TAILBENCH_NET_WIRE_H_
