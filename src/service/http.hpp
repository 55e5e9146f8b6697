/**
 * @file
 * Minimal HTTP/1.1 server (and test client) over POSIX sockets for
 * the vaqd compile daemon.
 *
 * Scope is deliberately small — exactly what a localhost compile
 * service needs and nothing more: Content-Length framed bodies
 * (no chunked encoding), `Connection: close` per exchange, one
 * accept thread feeding a bounded connection queue drained by a
 * fixed worker pool. The bounded queue is the daemon's admission
 * control: when it is full the accept thread sheds the connection
 * with an immediate 503 instead of letting latency grow without
 * bound (the per-client token buckets in service.hpp implement the
 * finer-grained 429 quota layer on top).
 *
 * Parsing is total: malformed request lines, oversized bodies and
 * read timeouts turn into 400/413/408 responses (or a dropped
 * connection), never a crash — the daemon feeds this code whatever
 * bytes arrive on the wire.
 */
#ifndef VAQ_SERVICE_HTTP_HPP
#define VAQ_SERVICE_HTTP_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace vaq::service
{

/** One parsed request. */
struct HttpRequest
{
    std::string method; ///< "GET", "POST", ...
    std::string path;   ///< request target, query string included
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by case-insensitive name, or nullptr. */
    const std::string *header(const std::string &name) const;
};

/** One response; the server adds framing headers. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    /** Extra headers (e.g. Retry-After on 429/503), rendered after
     *  Content-Type. On the client side httpExchange fills this
     *  with every response header it read. */
    std::vector<std::pair<std::string, std::string>> headers;

    /** Header value by case-insensitive name, or nullptr. */
    const std::string *header(const std::string &name) const;

    /** Attach a Retry-After header of `seconds` (rounded up,
     *  floored at 1 — zero would tell clients to hammer). */
    void retryAfter(double seconds);
};

/** Standard reason phrase for the status codes the daemon uses. */
const char *httpStatusReason(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest &)>;

struct HttpServerOptions
{
    /** TCP port to bind on 127.0.0.1; 0 picks an ephemeral port
     *  (read it back through port()). */
    int port = 0;
    /** Worker threads serving queued connections. */
    std::size_t workerThreads = 4;
    /** Admission bound: accepted connections waiting for a worker.
     *  Beyond this the accept thread sheds with 503. At least 1. */
    std::size_t queueDepth = 64;
    /** Largest accepted request body. */
    std::size_t maxBodyBytes = 8u << 20;
    /** Per-socket receive timeout, seconds (0 = none). */
    int recvTimeoutSeconds = 10;
};

/**
 * The server. Construction binds, listens and starts the threads;
 * stop() (or destruction) stops accepting, drains queued
 * connections and joins. The handler runs on worker threads and
 * must be thread-safe.
 */
class HttpServer
{
  public:
    HttpServer(HttpServerOptions options, HttpHandler handler);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bound port (useful with options.port == 0). */
    int port() const { return _port; }

    /** Connections shed at the admission queue since start. */
    std::size_t shedCount() const { return _shed.load(); }

    /** Graceful shutdown: stop accepting, serve what is queued,
     *  join every thread. Idempotent. */
    void stop();

  private:
    void acceptLoop();
    void workerLoop();
    void serveConnection(int fd);

    HttpServerOptions _options;
    HttpHandler _handler;
    int _listenFd = -1;
    int _port = 0;
    std::atomic<bool> _running{true};
    std::atomic<std::size_t> _shed{0};
    std::mutex _mutex;
    std::condition_variable _ready;
    std::deque<int> _queue;
    std::thread _acceptThread;
    std::vector<std::thread> _workers;
};

/**
 * Blocking single-exchange client: connect to 127.0.0.1:port, send
 * one request, read the response, close. Throws VaqError on
 * connect/IO failures. Used by the lifecycle tests, the load
 * generator and the CI smoke leg (no curl dependency).
 */
HttpResponse httpExchange(int port, const std::string &method,
                          const std::string &path,
                          const std::string &body = "",
                          const std::string &contentType =
                              "application/json");

} // namespace vaq::service

#endif // VAQ_SERVICE_HTTP_HPP
