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
 * Framing is defined over an abstract ByteStream rather than a file
 * descriptor so the codec is testable against partial reads and short
 * writes without sockets (tests/test_net.cc drives it through a
 * deliberately fragmenting stream). FdStream adapts a connected
 * socket.
 *
 * Receivers reject frames with a bad magic or a payload length above
 * kMaxPayloadBytes *before* allocating, so a corrupt or hostile peer
 * cannot make the server allocate unbounded memory.
 *
 * One decoder per frame type: the stream and window request decoders
 * share one header check, and one fixed-size response decoder serves
 * both recvResponseFrame and tryDecodeResponseFrame. Senders encode
 * responses with encodeResponseFrame (a whole run at a time, on the
 * server) and requests with sendRequestFrame.
 */

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

#include "core/transport.h"

namespace tb::net {

/** Upper bound on a request payload; app request strings are tiny, so
 * anything near this is framing corruption, not load. */
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;

inline constexpr uint32_t kRequestMagic = 0x51524254;   // "TBRQ" LE
inline constexpr uint32_t kResponseMagic = 0x50524254;  // "TBRP" LE

/**
 * Minimal byte-stream abstraction with read(2)/write(2) semantics:
 * readSome returns >0 bytes read, 0 on EOF, <0 on error; writeSome
 * returns >0 bytes accepted (possibly fewer than len) or <0 on error.
 */
class ByteStream {
  public:
    virtual ~ByteStream();
    virtual ssize_t readSome(void* buf, size_t len) = 0;
    virtual ssize_t writeSome(const void* buf, size_t len) = 0;
};

/** Loops over short reads; false on EOF or error. */
bool readFull(ByteStream& s, void* buf, size_t len);

/** Loops over short writes; false on error. */
bool writeFull(ByteStream& s, const void* buf, size_t len);

enum class WireResult {
    kOk,
    /** Clean end of stream at a frame boundary. */
    kEof,
    /** Bad magic, oversized payload, or a mid-frame truncation. */
    kBadFrame,
};

bool sendRequestFrame(ByteStream& s, const core::Request& req);
WireResult recvRequestFrame(ByteStream& s, core::Request& out);

WireResult recvResponseFrame(ByteStream& s, core::Response& out);

// --- Buffer-based (nonblocking) variants, for event-loop IO --------
//
// A reactor cannot block in readExact: its socket delivers whatever
// bytes the kernel has, cut anywhere — possibly mid-header. These
// entry points frame over an in-memory byte window instead of a
// ByteStream, through the same header check / response decoder as
// the stream entry points, so the stream-tested framing semantics
// and the incremental ones cannot drift apart.

/** Request frame header size (magic + payloadLen + id + genNs). */
inline constexpr size_t kRequestHeaderBytes = 24;
/** Full response frame size — responses carry no variable payload. */
inline constexpr size_t kResponseFrameBytes = 48;

enum class DecodeResult {
    /** The window does not yet hold one full frame; read more. */
    kNeedMore,
    /** One frame decoded; @p consumed bytes were used. */
    kFrame,
    /** Bad magic or oversized payload — the connection is poisoned
     * (byte-stream framing cannot resynchronize). */
    kBadFrame,
};

/**
 * Zero-copy view of one decoded request frame: payload points into
 * the caller's buffer, valid only until that buffer moves or is
 * reused. The reactor's allocation-free read path decodes through
 * this and copies the payload into its arena.
 */
struct RequestFrameView {
    uint64_t id = 0;
    int64_t genNs = 0;
    const uint8_t* payload = nullptr;
    uint32_t payloadLen = 0;
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

/** Same contract, for one response frame (the client side of an
 * event-loop transport). */
DecodeResult tryDecodeResponseFrame(const uint8_t* data, size_t len,
                                    core::Response& out,
                                    size_t& consumed);

/** Serializes @p resp into a caller buffer of kResponseFrameBytes —
 * the server encodes a whole response run into reusable per-thread
 * storage this way, so the run leaves as one write. */
void encodeResponseFrame(uint8_t* out, const core::Response& resp);

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
