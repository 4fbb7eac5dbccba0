#include "src/layers.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "core/harness.h"
#include "core/sharded_port.h"
#include "net/wire.h"
#include "src/report.h"
#include "util/clock.h"
#include "util/rng.h"

namespace perfbench {

namespace net = tb::net;

SpanLog::SpanLog(size_t capacity)
    : spans_(new Span[capacity]), capacity_(capacity)
{
}

void
SpanLog::add(const Span& s)
{
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < capacity_)
        spans_[i] = s;
    else
        dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span>
SpanLog::spans() const
{
    const size_t n = std::min(next_.load(), capacity_);
    return std::vector<Span>(spans_.get(), spans_.get() + n);
}

uint64_t
payloadNonce(std::string_view payload)
{
    const size_t sp = payload.rfind(' ');
    const std::string_view tok =
        sp == std::string_view::npos ? payload : payload.substr(sp + 1);
    uint64_t v = 0;
    for (const char c : tok) {
        unsigned d;
        if (c >= '0' && c <= '9')
            d = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = static_cast<unsigned>(c - 'a' + 10);
        else
            break;
        v = (v << 4) | d;
    }
    return v;
}

void
IdLedger::sent(uint64_t id)
{
    if (id < sent_.size() && sent_[id] < 255)
        sent_[id]++;
}

void
IdLedger::answered(uint64_t id)
{
    if (id >= answered_.size())
        unknown_++;
    else if (answered_[id] < 255)
        answered_[id]++;
}

uint64_t
IdLedger::answeredOnce() const
{
    uint64_t n = 0;
    for (size_t i = 0; i < sent_.size(); i++)
        n += sent_[i] == 1 && answered_[i] == 1;
    return n;
}

uint64_t
IdLedger::strays() const
{
    uint64_t n = unknown_;
    for (size_t i = 0; i < sent_.size(); i++) {
        if (answered_[i] > 1)
            n += answered_[i] - 1u;
        if (answered_[i] != 0 && sent_[i] == 0)
            n++;
    }
    return n;
}

void
CheckedTransport::sendRequest(core::Request&& req)
{
    const uint64_t id = req.id;
    ledger_.sent(id);
    if (log_ == nullptr) {
        inner_.sendRequest(std::move(req));
        return;
    }
    const int64_t gen = req.genNs;
    const uint64_t nonce = payloadNonce(req.payload.view());
    const int64_t t0 = util::monotonicNs();
    inner_.sendRequest(std::move(req));
    const int64_t t1 = util::monotonicNs();
    log_->add({SpanName::kSend, id, t0, t1, gen, nonce});
}

bool
CheckedTransport::recvResponse(core::Response& out)
{
    if (!inner_.recvResponse(out))
        return false;
    ledger_.answered(out.id);
    if (log_ != nullptr)
        log_->add({SpanName::kRecv, out.id, out.timing.startNs,
                   util::monotonicNs(), out.timing.endNs, 0});
    return true;
}

uint64_t
TracedApp::process(std::string_view request)
{
    const int64_t t0 = util::monotonicNs();
    const uint64_t r = inner_.process(request);
    const int64_t t1 = util::monotonicNs();
    log_.add({SpanName::kProcess, payloadNonce(request), t0, t1,
              inner_.serviceNsFor(request), 0});
    return r;
}

bool
TracedPort::recvReq(core::Request& out)
{
    if (!inner_.recvReq(out))
        return false;
    const int64_t t = util::monotonicNs();
    log_.add({SpanName::kPoolPop, out.id, t, t, 0, 0});
    return true;
}

size_t
TracedPort::recvReqBatch(std::vector<core::Request>& out, size_t max)
{
    const size_t n = inner_.recvReqBatch(out, max);
    const int64_t t = util::monotonicNs();
    for (size_t i = 0; i < n; i++)
        log_.add({SpanName::kPoolPop, out[i].id, t, t, 0, 0});
    return n;
}

JoinResult
joinSpans(const std::vector<Span>& spans)
{
    JoinResult r;
    std::unordered_map<uint64_t, Timeline> by_id;
    std::unordered_map<uint64_t, uint64_t> id_of_nonce;
    for (const Span& s : spans) {
        if (s.name == SpanName::kProcess)
            continue;
        Timeline& t = by_id[s.key];
        t.id = s.key;
        switch (s.name) {
        case SpanName::kSend:
            t.gen = s.a;
            t.sendStart = s.start;
            t.sendEnd = s.end;
            if (!id_of_nonce.emplace(s.b, s.key).second)
                r.duplicateNonces++;
            break;
        case SpanName::kPoolPop:
            t.poolPop = s.start;
            break;
        case SpanName::kRecv:
            t.recv = s.end;
            t.svcInterval = s.a - s.start;
            break;
        case SpanName::kProcess:
            break;
        }
    }
    for (const Span& s : spans) {
        if (s.name != SpanName::kProcess)
            continue;
        const auto it = id_of_nonce.find(s.key);
        if (it == id_of_nonce.end()) {
            r.unmatchedProcess++;
            continue;
        }
        Timeline& t = by_id[it->second];
        t.procStart = s.start;
        t.procEnd = s.end;
        t.modelNs = s.a;
    }
    r.timelines.reserve(by_id.size());
    for (auto& kv : by_id)
        r.timelines.push_back(kv.second);
    std::sort(r.timelines.begin(), r.timelines.end(),
              [](const Timeline& a, const Timeline& b) {
                  return a.id < b.id;
              });
    return r;
}

double
median(std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2.0;
}

StageMedians
stageMedians(const std::vector<Timeline>& timelines)
{
    std::vector<double> lag, send, req, pool, proc, overrun, resp, gap,
        soj;
    for (const Timeline& t : timelines) {
        if (t.gen < 0 || t.sendStart < 0 || t.procStart < 0 ||
            t.recv < 0)
            continue;
        const auto us = [](int64_t ns) {
            return static_cast<double>(ns) / 1e3;
        };
        const int64_t proc_ns = t.procEnd - t.procStart;
        lag.push_back(us(t.sendStart - t.gen));
        send.push_back(us(t.sendEnd - t.sendStart));
        req.push_back(us(t.procStart - t.sendEnd));
        if (t.poolPop >= 0)
            pool.push_back(us(t.poolPop - t.sendEnd));
        proc.push_back(us(proc_ns));
        overrun.push_back(us(proc_ns - t.modelNs));
        resp.push_back(us(t.recv - t.procEnd));
        gap.push_back(us(t.svcInterval - proc_ns));
        soj.push_back(us(t.recv - t.gen));
    }
    StageMedians m;
    m.requests = soj.size();
    m.lagUs = median(lag);
    m.sendUs = median(send);
    m.reqUs = median(req);
    m.hasPool = !pool.empty();
    m.poolWaitUs = median(pool);
    m.processUs = median(proc);
    m.overrunUs = median(overrun);
    m.respUs = median(resp);
    m.svcGapUs = median(gap);
    m.sojournUs = median(soj);
    return m;
}

// --- microloops -----------------------------------------------------

namespace {

constexpr int kReps = 7;
constexpr size_t kOps = 20000;

/** Median over kReps of (thread CPU ns of body() / kOps). */
template <typename F>
double
perOpNs(F&& body)
{
    std::vector<double> reps;
    for (int r = 0; r < kReps; r++) {
        const int64_t t0 = threadCpuNs();
        body();
        const int64_t t1 = threadCpuNs();
        reps.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(kOps));
    }
    return median(reps);
}

/** Write-only ByteStream into a reusable byte buffer. */
class BufStream final : public net::ByteStream {
  public:
    ssize_t readSome(void*, size_t) override { return -1; }
    ssize_t
    writeSome(const void* buf, size_t len) override
    {
        const uint8_t* p = static_cast<const uint8_t*>(buf);
        bytes.insert(bytes.end(), p, p + len);
        return static_cast<ssize_t>(len);
    }
    std::vector<uint8_t> bytes;
};

/** kOps requests with app-shaped payloads. */
std::vector<core::Request>
sampleRequests(uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<core::Request> reqs(kOps);
    char buf[64];
    for (size_t i = 0; i < kOps; i++) {
        std::snprintf(buf, sizeof(buf), "get %llu %llx",
                      static_cast<unsigned long long>(rng.next() % 100000),
                      static_cast<unsigned long long>(rng.next()));
        reqs[i].id = i;
        reqs[i].genNs = static_cast<int64_t>(rng.next() >> 2);
        reqs[i].payload = std::string(buf);
    }
    return reqs;
}

std::vector<core::Response>
sampleResponses(uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<core::Response> resps(kOps);
    for (size_t i = 0; i < kOps; i++) {
        resps[i].id = i;
        resps[i].checksum = rng.next();
        resps[i].timing.genNs = static_cast<int64_t>(rng.next() >> 2);
        resps[i].timing.startNs = resps[i].timing.genNs + 1000;
        resps[i].timing.endNs = resps[i].timing.startNs + 5000;
    }
    return resps;
}

uint64_t g_sink = 0;

}  // namespace

double
wireRequestEncodeNs(uint64_t seed)
{
    const std::vector<core::Request> reqs = sampleRequests(seed);
    BufStream s;
    s.bytes.reserve(kOps * 64);
    return perOpNs([&] {
        s.bytes.clear();
        for (const core::Request& r : reqs)
            net::sendRequestFrame(s, r);
        g_sink += s.bytes.size();
    });
}

double
wireRequestDecodeNs(uint64_t seed)
{
    const std::vector<core::Request> reqs = sampleRequests(seed);
    BufStream s;
    for (const core::Request& r : reqs)
        net::sendRequestFrame(s, r);
    return perOpNs([&] {
        const uint8_t* p = s.bytes.data();
        size_t left = s.bytes.size();
        net::RequestFrameView v;
        size_t used = 0;
        while (net::tryDecodeRequestFrameView(p, left, v, used) ==
               net::DecodeResult::kFrame) {
            g_sink += v.id + v.payloadLen;
            p += used;
            left -= used;
        }
    });
}

double
wireResponseEncodeNs(uint64_t seed)
{
    const std::vector<core::Response> resps = sampleResponses(seed);
    std::vector<uint8_t> out(kOps * net::kResponseFrameBytes);
    return perOpNs([&] {
        uint8_t* p = out.data();
        for (const core::Response& r : resps) {
            net::encodeResponseFrame(p, r);
            p += net::kResponseFrameBytes;
        }
        g_sink += out[out.size() / 2];
    });
}

double
wireResponseDecodeNs(uint64_t seed)
{
    const std::vector<core::Response> resps = sampleResponses(seed);
    std::vector<uint8_t> in(kOps * net::kResponseFrameBytes);
    for (size_t i = 0; i < kOps; i++)
        net::encodeResponseFrame(in.data() + i * net::kResponseFrameBytes,
                                 resps[i]);
    return perOpNs([&] {
        const uint8_t* p = in.data();
        size_t left = in.size();
        core::Response r;
        size_t used = 0;
        while (net::tryDecodeResponseFrame(p, left, r, used) ==
               net::DecodeResult::kFrame) {
            g_sink += r.checksum;
            p += used;
            left -= used;
        }
    });
}

double
poolPushPopNs()
{
    core::PortOptions opts;
    opts.policy = core::QueuePolicy::kSharded;
    core::RequestPool pool(core::resolveShards(opts, 1));
    pool.bind(0);
    const size_t batch = pool.batchMax();
    std::vector<core::Request> out;
    out.reserve(batch);
    return perOpNs([&] {
        for (size_t done = 0; done < kOps; done += batch) {
            for (size_t i = 0; i < batch; i++) {
                core::Request r;
                r.id = done + i;
                pool.push(std::move(r));
            }
            size_t got = 0;
            while (got < batch) {
                out.clear();
                got += pool.popBatch(out, batch);
            }
            g_sink += out.back().id;
        }
    });
}

double
resultBuildNs(uint64_t seed)
{
    constexpr size_t kTimings = 100000;
    util::Rng rng(seed);
    std::vector<core::RequestTiming> timings(kTimings);
    std::vector<core::GenLagSample> lag(kTimings);
    int64_t t = 0;
    for (size_t i = 0; i < kTimings; i++) {
        t += 100 + static_cast<int64_t>(rng.next() % 200);
        timings[i].genNs = t;
        timings[i].startNs = t + static_cast<int64_t>(rng.next() % 5000);
        timings[i].endNs =
            timings[i].startNs + 1000 + static_cast<int64_t>(rng.next() % 9000);
        lag[i] = {t, static_cast<int64_t>(rng.next() % 300)};
    }
    // Collection order is completion order, not generation order.
    for (size_t i = kTimings - 1; i > 0; i--)
        std::swap(timings[i], timings[rng.next() % (i + 1)]);
    std::vector<double> reps;
    for (int r = 0; r < kReps; r++) {
        std::vector<core::RequestTiming> copy = timings;
        core::ResultOptions opts;
        opts.scheduledMeanGapNs = 200.0;
        opts.genLag = &lag;
        const int64_t t0 = threadCpuNs();
        const core::RunResult res =
            core::buildRunResult(std::move(copy), opts);
        const int64_t t1 = threadCpuNs();
        g_sink += res.latency.sojourn.count;
        reps.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(kTimings));
    }
    return median(reps);
}

double
appGenNs(apps::App& app, uint64_t seed)
{
    util::Rng rng(seed);
    return perOpNs([&] {
        for (size_t i = 0; i < kOps; i++)
            g_sink += app.genRequest(rng).size();
    });
}

}  // namespace perfbench
