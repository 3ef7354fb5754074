#include "server/http.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/net.h"

namespace privbasis::server {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses the head (request line + headers, already verified to end with
/// CRLFCRLF at `head_end`). Returns false on grammar violations.
bool ParseHead(std::string_view head, HttpRequest* request) {
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) return false;
  std::string_view line = head.substr(0, line_end);
  // Strict request-line grammar (RFC 7230 §3.1.1): exactly three
  // space-separated tokens, no tabs. Pairing find with rfind would
  // accept an embedded space in the target ("GET /a b HTTP/1.1").
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos ||
      line.find('\t') != std::string_view::npos) {
    return false;
  }
  request->method = std::string(line.substr(0, sp1));
  request->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request->version = std::string(line.substr(sp2 + 1));
  if (request->method.empty() || request->target.empty() ||
      request->target[0] != '/' ||
      !request->version.starts_with("HTTP/1.")) {
    return false;
  }
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) break;
    std::string_view header = head.substr(pos, next - pos);
    pos = next + 2;
    if (header.empty()) break;
    const size_t colon = header.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    request->headers.emplace_back(
        std::string(Trim(header.substr(0, colon))),
        std::string(Trim(header.substr(colon + 1))));
  }
  return true;
}

}  // namespace

const std::string* HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

const std::string* HttpResponse::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

bool HttpRequest::KeepAlive() const {
  const std::string* connection = Header("Connection");
  if (connection == nullptr) return version != "HTTP/1.0";
  return !EqualsIgnoreCase(*connection, "close");
}

HttpParseResult ParseHttpRequest(std::string* buffer,
                                 const HttpLimits& limits,
                                 HttpRequest* request) {
  *request = HttpRequest();
  HttpParseResult result;
  const size_t head_end = buffer->find("\r\n\r\n");
  if (head_end == std::string::npos) {
    result.outcome = buffer->size() > limits.max_header_bytes
                         ? HttpParseOutcome::kHeaderTooLarge
                         : HttpParseOutcome::kNeedMore;
    return result;
  }
  if (head_end + 4 > limits.max_header_bytes) {
    result.outcome = HttpParseOutcome::kHeaderTooLarge;
    return result;
  }
  if (!ParseHead(std::string_view(*buffer).substr(0, head_end + 2),
                 request)) {
    result.outcome = HttpParseOutcome::kMalformed;
    return result;
  }

  size_t content_length = 0;
  if (const std::string* cl = request->Header("Content-Length")) {
    // Duplicate Content-Length headers are a framing error (RFC 7230
    // §3.3.2, request-smuggling class): reject outright rather than
    // silently picking one.
    size_t occurrences = 0;
    for (const auto& [key, value] : request->headers) {
      occurrences += EqualsIgnoreCase(key, "Content-Length");
    }
    if (occurrences > 1) {
      result.outcome = HttpParseOutcome::kMalformed;
      return result;
    }
    // Strict digits-only parse: "-1" must be a 400 grammar violation,
    // not a strtoull wraparound answered 413.
    if (cl->empty() ||
        cl->find_first_not_of("0123456789") != std::string::npos) {
      result.outcome = HttpParseOutcome::kMalformed;
      return result;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(cl->c_str(), &end, 10);
    if (errno == ERANGE || end != cl->c_str() + cl->size()) {
      result.outcome = HttpParseOutcome::kMalformed;
      return result;
    }
    content_length = static_cast<size_t>(parsed);
  } else if (request->Header("Transfer-Encoding") != nullptr) {
    // Content-Length bodies only (header comment); a chunked request
    // would desynchronize the stream, so reject it outright.
    result.outcome = HttpParseOutcome::kMalformed;
    return result;
  }
  const size_t body_start = head_end + 4;
  if (content_length > limits.max_body_bytes) {
    // Consume the head plus whatever of the oversized body has already
    // arrived; report the remainder so the caller can discard it before
    // responding 413.
    const size_t received =
        std::min(buffer->size() - body_start, content_length);
    buffer->erase(0, body_start + received);
    result.outcome = HttpParseOutcome::kBodyTooLarge;
    result.drain_bytes = content_length - received;
    return result;
  }
  if (buffer->size() - body_start < content_length) {
    result.outcome = HttpParseOutcome::kNeedMore;
    return result;
  }
  request->body = buffer->substr(body_start, content_length);
  // Keep pipelined bytes beyond this request for the next call.
  buffer->erase(0, body_start + content_length);
  result.outcome = HttpParseOutcome::kOk;
  return result;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpReasonPhrase(response.status) + "\r\n";
  // RFC 7230 §3.3.2: a 204 carries no body and MUST NOT carry
  // Content-Length — suppress both framing headers and the payload.
  const bool framed = response.status != 204;
  if (framed) {
    out += "Content-Type: " + response.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) +
           "\r\n";
  }
  for (const auto& [key, value] : response.headers) {
    out += key + ": " + value + "\r\n";
  }
  if (response.close_connection) out += "Connection: close\r\n";
  out += "\r\n";
  if (framed) out += response.body;
  return out;
}

Result<HttpResponse> HttpCall(const std::string& host, uint16_t port,
                              const std::string& method,
                              const std::string& target,
                              const std::string& body, int64_t timeout_ms) {
  const net::Deadline deadline = net::DeadlineAfterMs(timeout_ms);
  PRIVBASIS_ASSIGN_OR_RETURN(net::Fd fd,
                             net::ConnectTcp(host, port, deadline));
  std::string request = method + " " + target + " HTTP/1.1\r\n" +
                        "Host: " + host + "\r\n" +
                        "Connection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  PRIVBASIS_RETURN_NOT_OK(net::WriteAll(fd, request, deadline));

  std::string raw;
  char chunk[8192];
  for (;;) {
    PRIVBASIS_ASSIGN_OR_RETURN(size_t n,
                               net::ReadSome(fd, chunk, sizeof(chunk),
                                             deadline));
    if (n == 0) break;
    raw.append(chunk, n);
  }
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IoError("truncated HTTP response");
  }
  HttpResponse response;
  const size_t line_end = raw.find("\r\n");
  // "HTTP/1.1 200 OK" — the status code is the 3-digit token after the
  // first space; don't assume the version token is exactly 8 chars
  // ("HTTP/2 200" is a valid status line too).
  const std::string_view status_line(raw.data(), line_end);
  if (!status_line.starts_with("HTTP/")) {
    return Status::IoError("malformed HTTP status line");
  }
  const size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    return Status::IoError("malformed HTTP status line");
  }
  response.status = 0;
  for (size_t i = sp + 1; i < sp + 4; ++i) {
    const char c = status_line[i];
    if (c < '0' || c > '9') {
      return Status::IoError("malformed HTTP status code");
    }
    response.status = response.status * 10 + (c - '0');
  }
  if (sp + 4 < status_line.size() && status_line[sp + 4] != ' ') {
    return Status::IoError("malformed HTTP status code");
  }
  if (response.status < 100 || response.status > 599) {
    return Status::IoError("malformed HTTP status code");
  }
  // Surface the response headers (the admission tests read Retry-After).
  size_t pos = line_end + 2;
  while (pos < head_end + 2) {
    const size_t next = raw.find("\r\n", pos);
    if (next == std::string::npos || next > head_end) break;
    const std::string_view header(raw.data() + pos, next - pos);
    pos = next + 2;
    const size_t colon = header.find(':');
    if (colon == std::string_view::npos || colon == 0) continue;
    response.headers.emplace_back(
        std::string(Trim(header.substr(0, colon))),
        std::string(Trim(header.substr(colon + 1))));
  }
  response.body = raw.substr(head_end + 4);
  return response;
}

}  // namespace privbasis::server
