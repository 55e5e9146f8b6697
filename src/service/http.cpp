#include "service/http.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace vaq::service
{

namespace
{

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

/** write() the whole buffer, ignoring EINTR; false on error. */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

std::string
renderResponse(const HttpResponse &response)
{
    std::string out = "HTTP/1.1 " +
                      std::to_string(response.status) + " " +
                      httpStatusReason(response.status) + "\r\n";
    out += "Content-Type: " + response.contentType + "\r\n";
    for (const auto &[key, value] : response.headers)
        out += key + ": " + value + "\r\n";
    out += "Content-Length: " +
           std::to_string(response.body.size()) + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += response.body;
    return out;
}

void
respondAndClose(int fd, const HttpResponse &response)
{
    writeAll(fd, renderResponse(response));
    // Half-close and drain (bounded) whatever request bytes we did
    // not consume — closing with unread data in the receive buffer
    // makes the kernel send RST, which can discard the queued
    // response before the peer reads it (e.g. a 413 racing a body
    // still in flight).
    ::shutdown(fd, SHUT_WR);
    char scratch[4096];
    std::size_t drained = 0;
    while (drained < (1u << 20)) {
        const ssize_t n =
            ::recv(fd, scratch, sizeof(scratch), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        drained += static_cast<std::size_t>(n);
    }
    ::close(fd);
}

HttpResponse
errorResponse(int status, const std::string &message)
{
    HttpResponse response;
    response.status = status;
    response.body = "{\"error\":\"" + message + "\"}";
    return response;
}

} // namespace

const std::string *
HttpRequest::header(const std::string &name) const
{
    for (const auto &[key, value] : headers) {
        if (iequals(key, name))
            return &value;
    }
    return nullptr;
}

const std::string *
HttpResponse::header(const std::string &name) const
{
    for (const auto &[key, value] : headers) {
        if (iequals(key, name))
            return &value;
    }
    return nullptr;
}

void
HttpResponse::retryAfter(double seconds)
{
    long long rounded =
        static_cast<long long>(std::ceil(seconds));
    if (rounded < 1)
        rounded = 1;
    headers.emplace_back("Retry-After", std::to_string(rounded));
}

const char *
httpStatusReason(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 408:
        return "Request Timeout";
    case 413:
        return "Payload Too Large";
    case 422:
        return "Unprocessable Content";
    case 429:
        return "Too Many Requests";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    case 504:
        return "Gateway Timeout";
    }
    return "Unknown";
}

HttpServer::HttpServer(HttpServerOptions options,
                       HttpHandler handler)
    : _options(options), _handler(std::move(handler))
{
    require(_handler != nullptr, "http server needs a handler");
    require(_options.workerThreads > 0,
            "http server needs at least one worker");
    require(_options.queueDepth > 0,
            "queueDepth must be at least 1 (a zero-depth admission "
            "queue sheds every connection)");

    _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    require(_listenFd >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(_options.port));
    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(_listenFd);
        throw VaqError("bind(127.0.0.1:" +
                       std::to_string(_options.port) +
                       ") failed: " + std::strerror(err));
    }
    if (::listen(_listenFd, 64) != 0) {
        const int err = errno;
        ::close(_listenFd);
        throw VaqError(std::string("listen() failed: ") +
                       std::strerror(err));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    _port = static_cast<int>(ntohs(addr.sin_port));

    _workers.reserve(_options.workerThreads);
    for (std::size_t i = 0; i < _options.workerThreads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
    _acceptThread = std::thread([this] { acceptLoop(); });
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::stop()
{
    bool expected = true;
    if (!_running.compare_exchange_strong(expected, false)) {
        return; // already stopped
    }
    // Unblock accept(); harmless if the loop already exited.
    ::shutdown(_listenFd, SHUT_RDWR);
    if (_acceptThread.joinable())
        _acceptThread.join();
    ::close(_listenFd);
    _ready.notify_all();
    for (std::thread &worker : _workers) {
        if (worker.joinable())
            worker.join();
    }
}

void
HttpServer::acceptLoop()
{
    while (_running.load()) {
        const int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listening socket shut down
        }
        if (_options.recvTimeoutSeconds > 0) {
            timeval tv{};
            tv.tv_sec = _options.recvTimeoutSeconds;
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv));
        }
        bool shed = false;
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            if (_queue.size() >= _options.queueDepth) {
                shed = true;
            } else {
                _queue.push_back(fd);
            }
        }
        if (shed) {
            // Admission control: better an instant 503 than an
            // unbounded queue — the client can back off and retry.
            _shed.fetch_add(1);
            if (obs::enabled())
                obs::count("service.queue.shed");
            HttpResponse response =
                errorResponse(503, "admission queue full");
            // Queue-drain estimate: a full queue across the worker
            // pool, assuming ~queueDepth/workers exchanges each at
            // well under a second on localhost — one second is the
            // honest lower bound the header can express.
            response.retryAfter(
                static_cast<double>(_options.queueDepth) /
                static_cast<double>(_options.workerThreads) /
                64.0);
            respondAndClose(fd, response);
            continue;
        }
        _ready.notify_one();
    }
}

void
HttpServer::workerLoop()
{
    while (true) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _ready.wait(lock, [this] {
                return !_queue.empty() || !_running.load();
            });
            if (_queue.empty()) {
                if (!_running.load())
                    return; // drained and stopping
                continue;
            }
            fd = _queue.front();
            _queue.pop_front();
        }
        serveConnection(fd);
    }
}

void
HttpServer::serveConnection(int fd)
{
    // Read until the header terminator, then Content-Length bytes.
    std::string data;
    std::size_t headerEnd = std::string::npos;
    char buffer[4096];
    while (true) {
        headerEnd = data.find("\r\n\r\n");
        if (headerEnd != std::string::npos)
            break;
        if (data.size() > 64u * 1024) {
            respondAndClose(
                fd, errorResponse(400, "request header too large"));
            return;
        }
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            if (n < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK)) {
                respondAndClose(
                    fd, errorResponse(408, "request timed out"));
            } else {
                ::close(fd); // peer went away mid-request
            }
            return;
        }
        data.append(buffer, static_cast<std::size_t>(n));
    }

    HttpRequest request;
    {
        // Request line: METHOD SP target SP version.
        const std::size_t lineEnd = data.find("\r\n");
        const std::string line = data.substr(0, lineEnd);
        const std::size_t sp1 = line.find(' ');
        const std::size_t sp2 =
            sp1 == std::string::npos ? std::string::npos
                                     : line.find(' ', sp1 + 1);
        if (sp2 == std::string::npos ||
            line.compare(sp2 + 1, 5, "HTTP/") != 0) {
            respondAndClose(
                fd, errorResponse(400, "malformed request line"));
            return;
        }
        request.method = line.substr(0, sp1);
        request.path = line.substr(sp1 + 1, sp2 - sp1 - 1);

        std::size_t cursor = lineEnd + 2;
        while (cursor < headerEnd) {
            const std::size_t end = data.find("\r\n", cursor);
            const std::string headerLine =
                data.substr(cursor, end - cursor);
            cursor = end + 2;
            const std::size_t colon = headerLine.find(':');
            if (colon == std::string::npos)
                continue; // tolerate junk header lines
            std::string key = headerLine.substr(0, colon);
            std::string value = headerLine.substr(colon + 1);
            while (!value.empty() &&
                   (value.front() == ' ' || value.front() == '\t'))
                value.erase(value.begin());
            request.headers.emplace_back(std::move(key),
                                         std::move(value));
        }
    }

    std::size_t contentLength = 0;
    if (const std::string *value =
            request.header("Content-Length")) {
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(value->c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
            respondAndClose(
                fd, errorResponse(400, "bad Content-Length"));
            return;
        }
        contentLength = static_cast<std::size_t>(parsed);
    }
    if (contentLength > _options.maxBodyBytes) {
        respondAndClose(
            fd, errorResponse(413, "request body too large"));
        return;
    }

    request.body = data.substr(headerEnd + 4);
    while (request.body.size() < contentLength) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ::close(fd); // truncated body
            return;
        }
        request.body.append(buffer, static_cast<std::size_t>(n));
    }
    request.body.resize(contentLength);

    HttpResponse response;
    try {
        response = _handler(request);
    } catch (const std::exception &e) {
        // The handler maps domain errors itself; anything that
        // still escapes is a server-side bug.
        response = errorResponse(500, e.what());
    } catch (...) {
        response = errorResponse(500, "unknown error");
    }
    respondAndClose(fd, response);
}

HttpResponse
httpExchange(int port, const std::string &method,
             const std::string &path, const std::string &body,
             const std::string &contentType)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    require(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw VaqError("connect(127.0.0.1:" + std::to_string(port) +
                       ") failed: " + std::strerror(err));
    }

    std::string out = method + " " + path + " HTTP/1.1\r\n";
    out += "Host: 127.0.0.1\r\n";
    out += "Content-Type: " + contentType + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) +
           "\r\n";
    out += "Connection: close\r\n\r\n";
    out += body;
    if (!writeAll(fd, out)) {
        const int err = errno;
        ::close(fd);
        throw VaqError(std::string("send() failed: ") +
                       std::strerror(err));
    }

    std::string data;
    char buffer[4096];
    while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            const int err = errno;
            ::close(fd);
            throw VaqError(std::string("recv() failed: ") +
                           std::strerror(err));
        }
        if (n == 0)
            break;
        data.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);

    const std::size_t headerEnd = data.find("\r\n\r\n");
    require(headerEnd != std::string::npos,
            "malformed http response");
    const std::size_t sp = data.find(' ');
    require(sp != std::string::npos && sp + 4 <= data.size(),
            "malformed http status line");

    HttpResponse response;
    response.status = std::stoi(data.substr(sp + 1, 3));
    response.body = data.substr(headerEnd + 4);

    // Surface every response header for callers that check them
    // (Content-Type, Retry-After, ... in the tests).
    std::size_t cursor = data.find("\r\n") + 2;
    while (cursor < headerEnd) {
        const std::size_t end = data.find("\r\n", cursor);
        const std::string line = data.substr(cursor, end - cursor);
        cursor = end + 2;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = line.substr(0, colon);
        std::string value = line.substr(colon + 1);
        while (!value.empty() &&
               (value.front() == ' ' || value.front() == '\t'))
            value.erase(value.begin());
        response.headers.emplace_back(std::move(key),
                                      std::move(value));
    }
    if (const std::string *type =
            response.header("Content-Type")) {
        std::string lowered = *type;
        std::transform(lowered.begin(), lowered.end(),
                       lowered.begin(), [](unsigned char c) {
                           return static_cast<char>(
                               std::tolower(c));
                       });
        response.contentType = std::move(lowered);
    }
    return response;
}

} // namespace vaq::service
