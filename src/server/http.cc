#include "server/http.h"

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <limits>

#include "server/socket.h"

namespace uots {

namespace {

bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string HttpRequest::QueryParam(std::string_view key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
  }
  return "";
}

HttpRequestParser::Next HttpRequestParser::Poll(HttpRequest* out) {
  const size_t header_end = buf_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    // Tolerate bare-LF clients for the header terminator check only after
    // the cap: a well-formed block always arrives long before the cap.
    if (buf_.size() > max_header_bytes_) return Next::kTooLarge;
    return Next::kNeedMore;
  }
  if (header_end > max_header_bytes_) return Next::kTooLarge;

  const size_t line_end = buf_.find("\r\n");
  const std::string_view line(buf_.data(), line_end);
  // METHOD SP target SP HTTP/x.y
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Next::kBad;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (!IsToken(method) || target.empty() || target[0] != '/' ||
      version.substr(0, 5) != "HTTP/") {
    return Next::kBad;
  }
  out->method = std::string(method);
  const size_t qmark = target.find('?');
  out->path = std::string(target.substr(0, qmark));
  out->query = qmark == std::string_view::npos
                   ? std::string()
                   : std::string(target.substr(qmark + 1));
  buf_.erase(0, header_end + 4);
  return Next::kRequest;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

std::string EncodeHttpResponse(int status, std::string_view content_type,
                               std::string_view body) {
  std::string out;
  out.reserve(128 + body.size());
  out += "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += HttpStatusText(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

Result<HttpFetchResult> HttpFetch(const std::string& host, uint16_t port,
                                  const std::string& path_and_query,
                                  const std::string& method,
                                  double timeout_ms) {
  const Result<int> fd = ConnectTcp(host, port, timeout_ms);
  if (!fd.ok()) return fd.status();
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{*fd};

  UOTS_RETURN_NOT_OK(SendAll(*fd, method + " " + path_and_query +
                                      " HTTP/1.0\r\nHost: " + host +
                                      "\r\n\r\n"));
  std::string raw;
  char buf[4096];
  for (;;) {
    const Result<size_t> n = RecvSome(*fd, buf, sizeof(buf));
    if (!n.ok()) return n.status();
    if (*n == 0) break;
    raw.append(buf, *n);
  }

  const size_t header_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || header_end == std::string::npos) {
    return Status::IOError("malformed HTTP response");
  }
  HttpFetchResult out;
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) {
    return Status::IOError("malformed HTTP status line");
  }
  out.status = std::atoi(raw.c_str() + sp + 1);
  out.body = raw.substr(header_end + 4);
  return out;
}

namespace promtext {

bool FindValue(const std::string& text, const std::string& series,
               double* value) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.size() > series.size() &&
        line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      *value = std::strtod(line.data() + series.size() + 1, nullptr);
      return true;
    }
  }
  return false;
}

std::vector<HistogramBucket> ParseHistogramBuckets(const std::string& text,
                                                   const std::string& family) {
  const std::string prefix = family + "_bucket{le=\"";
  std::vector<HistogramBucket> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= prefix.size() ||
        line.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string_view rest = line.substr(prefix.size());
    const size_t close = rest.find("\"} ");
    if (close == std::string_view::npos) continue;
    HistogramBucket b;
    // strtod understands both the numeric labels and "+Inf".
    b.le_seconds = std::strtod(std::string(rest.substr(0, close)).c_str(),
                               nullptr);
    b.cumulative = static_cast<int64_t>(
        std::strtod(std::string(rest.substr(close + 3)).c_str(), nullptr));
    out.push_back(b);
  }
  return out;
}

double DeltaQuantileSeconds(const std::vector<HistogramBucket>& before,
                            const std::vector<HistogramBucket>& after,
                            double p) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // An absent family on the first scrape (no samples recorded yet) reads
  // as an all-zero "before".
  const bool no_before = before.empty();
  if (after.empty() || (!no_before && before.size() != after.size())) {
    return kNan;
  }
  const int64_t total =
      after.back().cumulative - (no_before ? 0 : before.back().cumulative);
  if (total <= 0) return kNan;
  int64_t target = static_cast<int64_t>(
      (p / 100.0) * static_cast<double>(total) + 0.9999999);
  if (target < 1) target = 1;
  if (target > total) target = total;
  for (size_t i = 0; i < after.size(); ++i) {
    if (!no_before && after[i].le_seconds != before[i].le_seconds) {
      return kNan;
    }
    const int64_t cum =
        after[i].cumulative - (no_before ? 0 : before[i].cumulative);
    if (cum >= target) return after[i].le_seconds;
  }
  return after.back().le_seconds;
}

}  // namespace promtext

}  // namespace uots
