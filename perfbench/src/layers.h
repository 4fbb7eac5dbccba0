#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/**
 * @file
 * Outside-in instrumentation of the harness layers: decorators of the
 * three public seams (apps::App, core::Transport, core::ServerPort)
 * that record spans into preallocated memory, the join that turns the
 * spans into one per-stage timeline per request, and the layer-cost
 * microloops. Nothing here edits or reaches into library code; every
 * number comes from timing calls into public functions.
 *
 * One request's timeline, as the decorators see it:
 *
 *   genNs (scheduled) -> send start -> send end -> [pool pop]
 *     -> process start -> process end -> client receipt
 *
 * The transport decorator sees request ids; the app decorator sees
 * only the payload, so it keys its spans by the payload's nonce (the
 * trailing hex token every app's genRequest writes) and the join maps
 * nonces back to ids through the send spans.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common/app.h"
#include "core/transport.h"

namespace perfbench {

namespace apps = tb::apps;
namespace core = tb::core;
namespace util = tb::util;

enum class SpanName : uint8_t {
    kSend,     // key = id; [send start, send end]; a = genNs, b = nonce
    kPoolPop,  // key = id; recvReqBatch return (start == end)
    kProcess,  // key = nonce; [process start, end]; a = model service
    kRecv,     // key = id; [service start stamp, receipt]; a = endNs stamp
};

struct Span {
    SpanName name = SpanName::kSend;
    uint64_t key = 0;
    int64_t start = 0;
    int64_t end = 0;
    int64_t a = 0;
    uint64_t b = 0;
};

/** Fixed-capacity, multi-writer span store. Appends past capacity are
 * counted, never stored, so recording never allocates. */
class SpanLog {
  public:
    explicit SpanLog(size_t capacity);

    void add(const Span& s);
    /** The recorded spans (call after every writer has stopped). */
    std::vector<Span> spans() const;
    uint64_t dropped() const { return dropped_.load(); }

  private:
    std::unique_ptr<Span[]> spans_;
    const size_t capacity_;
    std::atomic<size_t> next_{0};
    std::atomic<uint64_t> dropped_{0};
};

/** The trailing hex token of an app payload ("get 17 9f3a..."). */
uint64_t payloadNonce(std::string_view payload);

/**
 * Counts every request id sent and every response id received, so a
 * run can prove each request was answered exactly once. Ids are the
 * LoadClient's dense 0..n-1 sequence; an id outside the ledger counts
 * as a stray response. sent() and answered() each have one writer
 * thread and touch disjoint counters; read the totals only after both
 * threads are done.
 */
class IdLedger {
  public:
    explicit IdLedger(uint64_t ids) : sent_(ids, 0), answered_(ids, 0) {}

    void sent(uint64_t id);
    void answered(uint64_t id);

    /** Ids sent and answered exactly once. */
    uint64_t answeredOnce() const;
    /** Responses for unknown or unsent ids, plus duplicates. */
    uint64_t strays() const;

  private:
    std::vector<uint8_t> sent_;
    std::vector<uint8_t> answered_;
    uint64_t unknown_ = 0;
};

/** Transport decorator: feeds the ledger always and, when @p log is
 * set, records send and receipt spans. sendRequest runs on the
 * generator thread and recvResponse on the collector thread, per the
 * Transport contract, so each ledger side has a single writer. */
class CheckedTransport final : public core::Transport {
  public:
    CheckedTransport(core::Transport& inner, IdLedger& ledger,
                     SpanLog* log = nullptr)
        : inner_(inner), ledger_(ledger), log_(log)
    {
    }

    void sendRequest(core::Request&& req) override;
    bool recvResponse(core::Response& out) override;
    void finishSend() override { inner_.finishSend(); }

  private:
    core::Transport& inner_;
    IdLedger& ledger_;
    SpanLog* log_;
};

/** App decorator: records one kProcess span per process() call, keyed
 * by payload nonce. Everything else forwards. */
class TracedApp final : public apps::App {
  public:
    TracedApp(apps::App& inner, SpanLog& log) : inner_(inner), log_(log) {}

    const std::string& name() const override { return inner_.name(); }
    void init(const apps::AppConfig& cfg) override { inner_.init(cfg); }
    std::string genRequest(util::Rng& rng) override
    {
        return inner_.genRequest(rng);
    }
    uint64_t process(std::string_view request) override;
    int64_t serviceNsFor(std::string_view request) const override
    {
        return inner_.serviceNsFor(request);
    }
    apps::RequestCost costFor(std::string_view request) const override
    {
        return inner_.costFor(request);
    }
    apps::AppProfile profile() const override { return inner_.profile(); }

  private:
    apps::App& inner_;
    SpanLog& log_;
};

/** ServerPort decorator: records the instant each request leaves the
 * request pool (recvReqBatch return). Batching is preserved — every
 * call forwards to the same-shaped call on the inner port. */
class TracedPort final : public core::ServerPort {
  public:
    TracedPort(core::ServerPort& inner, SpanLog& log)
        : inner_(inner), log_(log)
    {
    }

    bool recvReq(core::Request& out) override;
    size_t recvReqBatch(std::vector<core::Request>& out,
                        size_t max) override;
    void bindWorker(unsigned worker) override { inner_.bindWorker(worker); }
    void sendResp(core::Response&& resp) override
    {
        inner_.sendResp(std::move(resp));
    }
    void sendRespBatch(std::vector<core::Response>& resps) override
    {
        inner_.sendRespBatch(resps);
    }
    void closeResponses() override { inner_.closeResponses(); }

  private:
    core::ServerPort& inner_;
    SpanLog& log_;
};

/** One request's joined timeline; stamps a decorator did not see stay
 * at -1. */
struct Timeline {
    uint64_t id = 0;
    int64_t gen = -1;
    int64_t sendStart = -1;
    int64_t sendEnd = -1;
    int64_t poolPop = -1;
    int64_t procStart = -1;
    int64_t procEnd = -1;
    int64_t modelNs = -1;
    int64_t recv = -1;
    /** The harness's own service interval (endNs - startNs stamps). */
    int64_t svcInterval = -1;
};

struct JoinResult {
    std::vector<Timeline> timelines;  // ascending id
    /** Process spans whose nonce matched no send span. */
    uint64_t unmatchedProcess = 0;
    /** Nonces carried by more than one sent request. */
    uint64_t duplicateNonces = 0;
};

/** Joins spans into per-request timelines: transport spans by id, app
 * spans by payload nonce through the send spans' nonce -> id map. */
JoinResult joinSpans(const std::vector<Span>& spans);

/** Per-stage medians over joined timelines, in microseconds. */
struct StageMedians {
    uint64_t requests = 0;  // timelines with every needed stamp
    double lagUs = 0, sendUs = 0, reqUs = 0, poolWaitUs = 0,
           processUs = 0, overrunUs = 0, respUs = 0, svcGapUs = 0,
           sojournUs = 0;
    bool hasPool = false;
};

StageMedians stageMedians(const std::vector<Timeline>& timelines);

/** Median of @p v (sorted in place); 0 when empty. */
double median(std::vector<double>& v);

// --- layer-cost microloops (thread CPU ns per operation, median of
// reps) ---------------------------------------------------------------

double wireRequestEncodeNs(uint64_t seed);
double wireRequestDecodeNs(uint64_t seed);
double wireResponseEncodeNs(uint64_t seed);
double wireResponseDecodeNs(uint64_t seed);
/** RequestPool push + popBatch, per request, on the sharded policy the
 * loopback workload's server uses. */
double poolPushPopNs();
/** buildRunResult over a fixed seeded timing vector, per request. */
double resultBuildNs(uint64_t seed);
/** App::genRequest, per call. */
double appGenNs(apps::App& app, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
