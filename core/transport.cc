#include "core/transport.h"

namespace tb::core {

Transport::~Transport() = default;
ServerPort::~ServerPort() = default;

void
ServerPort::bindWorker(unsigned)
{
}

bool
ServerPort::recvReq(Request& out)
{
    std::vector<Request> one;
    if (recvReqBatch(one, 1) == 0)
        return false;
    out = std::move(one[0]);
    return true;
}

void
ServerPort::sendResp(Response&& resp)
{
    std::vector<Response> one;
    one.push_back(std::move(resp));
    sendRespBatch(one);
}

InProcessTransport::InProcessTransport(const PortOptions& opts)
    : requests_(opts), port_(*this)
{
}

void
InProcessTransport::sendRequest(Request&& req)
{
    requests_.push(std::move(req));
}

bool
InProcessTransport::recvResponse(Response& out)
{
    if (rx_head_ >= rx_.size()) {
        rx_head_ = 0;
        if (responses_.popAll(rx_) == 0)
            return false;
    }
    out = std::move(rx_[rx_head_]);
    rx_head_++;
    return true;
}

void
InProcessTransport::finishSend()
{
    requests_.close();
}

size_t
InProcessTransport::Port::recvReqBatch(std::vector<Request>& out,
                                       size_t max)
{
    return owner_.requests_.popBatch(out, max);
}

void
InProcessTransport::Port::bindWorker(unsigned worker)
{
    owner_.requests_.bind(worker);
}

void
InProcessTransport::Port::sendRespBatch(std::vector<Response>& resps)
{
    owner_.responses_.pushBatch(resps);
}

void
InProcessTransport::Port::closeResponses()
{
    owner_.responses_.close();
}

}  // namespace tb::core
