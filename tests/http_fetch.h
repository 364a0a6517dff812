#ifndef TRAJKIT_TESTS_HTTP_FETCH_H_
#define TRAJKIT_TESTS_HTTP_FETCH_H_

// Test-only HTTP/1.0 client for the embedded export server
// (src/obs/http_export.h), shared by the suites that scrape it.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace trajkit::test {

struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// Minimal HTTP/1.0 client: one request, read to EOF (the server closes
/// after every response — that is the protocol).
inline HttpReply Fetch(int port, const std::string& path,
                       const std::string& method = "GET") {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request = method + " " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 200 OK\r\nheaders\r\n\r\nbody"
  if (raw.size() > 12) reply.status = std::atoi(raw.c_str() + 9);
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  const size_t ct = raw.find("Content-Type: ");
  if (ct != std::string::npos && ct < header_end) {
    const size_t eol = raw.find("\r\n", ct);
    reply.content_type = raw.substr(ct + 14, eol - ct - 14);
  }
  reply.body = raw.substr(header_end + 4);
  return reply;
}

}  // namespace trajkit::test

#endif  // TRAJKIT_TESTS_HTTP_FETCH_H_
