// The fgrd wire protocol: line-delimited JSON over TCP.
//
// Every request is one JSON object on one line; every response is one JSON
// object on one line. The protocol is deliberately tiny — a self-contained
// recursive-descent JSON parser and a writer, no external dependency — and
// doubles round-trip exactly (written with %.17g, parsed with strtod), so
// a client can reconstruct the server's H matrix bit for bit.
//
// Requests (flat objects; unknown keys are ignored):
//   {"v":2,"op":"estimate","dataset":"/path/g.fgrbin","restarts":10,
//    "lmax":5,"lambda":10.0,"variant":1,"path_type":"nb","seed":7}
//   {"v":2,"op":"label", ...same fields...}
//   {"v":2,"op":"stats"}     (the metrics document, "op":"stats")
//   {"v":2,"op":"datasets"}
//   {"v":2,"op":"metrics"}
//
// There is one wire shape, protocol v2. "v" may be omitted; any value
// other than 2 is a bad_request. Every response carries "v":2:
//   {"v":2,"ok":true,"op":...,...op-specific fields...} or
//   {"v":2,"ok":false,"error":{"code":"bad_request","message":"..."}}
// with error codes drawn from a closed taxonomy: bad_request,
// unknown_dataset, over_budget, timeout, overloaded, internal. Errors the
// transport itself generates (a shed request, a request timeout, an
// oversized line) use the same shape.
//
// The estimate/label defaults match `fgr_cli estimate` exactly (restarts
// 10, lmax 5, lambda 10, row-stochastic, non-backtracking, seed 7), so a
// bare request reproduces the offline CLI bit for bit. Numeric knobs are
// validated strictly: a wrong-typed field, a non-integral count, a
// negative seed, or a non-finite lambda is rejected with bad_request
// rather than silently clamped or defaulted.

#ifndef FGR_SERVE_PROTOCOL_H_
#define FGR_SERVE_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dce.h"
#include "util/status.h"

namespace fgr {

// A parsed JSON value. Objects keep insertion order (vector of pairs) so
// responses echo fields in a stable order.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  static Json Bool(bool value);
  static Json Number(double value);
  static Json String(std::string value);
  static Json Array(std::vector<Json> items);
  static Json Object(std::vector<std::pair<std::string, Json>> members);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  // Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;

  // Typed member accessors with defaults (used for flat request objects).
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetNumber(const std::string& key, double fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;

  // Serializes back to compact JSON (doubles as %.17g; integral doubles
  // print without an exponent or trailing ".0", so counts stay greppable).
  std::string Dump() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

// Parses exactly one JSON value spanning the whole input (trailing
// whitespace allowed). Depth-limited; errors carry the byte offset.
Result<Json> ParseJson(const std::string& text);

// Escapes a string for embedding in JSON (quotes included).
std::string JsonQuote(const std::string& text);

// Incremental writer for compact JSON objects/arrays. Use instead of Json
// trees on the hot response path (no intermediate allocations per field).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);
  JsonWriter& Value(const std::string& value);
  JsonWriter& Value(const char* value);
  JsonWriter& Value(double value);
  JsonWriter& Value(std::int64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<std::int64_t>(value)); }
  JsonWriter& Value(bool value);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Separate();
  std::string out_;
  bool needs_comma_ = false;
};

// The operations fgrd serves.
enum class RequestOp { kEstimate, kLabel, kStats, kDatasets, kMetrics };

// The one protocol version this build speaks; every response echoes it.
inline constexpr int kServeProtocolVersion = 2;

// A validated request. Estimation fields default to the fgr_cli defaults.
struct Request {
  RequestOp op = RequestOp::kStats;
  std::string dataset;  // required for estimate/label
  DceOptions options;   // restarts/lmax/lambda/variant/path_type/seed
};

// Parses and validates one request line: JSON must parse, be an object,
// carry no "v" other than 2, carry a known "op", name a dataset when the
// op needs one, and keep the numeric knobs typed, integral where integers
// are expected, and in range. Returns InvalidArgument with a precise
// message otherwise.
Result<Request> ParseRequest(const std::string& line);

// The error taxonomy. Every error a client can observe maps to exactly
// one of these codes.
enum class ServeErrorCode {
  kBadRequest,      // malformed JSON, unknown op, out-of-range knob
  kUnknownDataset,  // dataset not registered / file missing
  kOverBudget,      // dataset exceeds the residency or streaming budget
  kTimeout,         // request exceeded the per-request deadline
  kOverloaded,      // shed by admission control at the queue high water
  kInternal,        // anything else
};

// Wire spelling of a taxonomy code ("bad_request", ...).
const char* ServeErrorCodeName(ServeErrorCode code);

// Maps a handler Status to its taxonomy code (InvalidArgument →
// bad_request, NotFound → unknown_dataset, FailedPrecondition →
// over_budget, else internal).
ServeErrorCode ServeErrorCodeFromStatus(StatusCode code);

// Error line for a failed request: the status mapped through
// ServeErrorCodeFromStatus, its message verbatim.
std::string ErrorResponseLine(const Status& status);

// Structured error line:
// {"v":2,"ok":false,"error":{"code":...,"message":...}}.
std::string ServeErrorLine(ServeErrorCode code, const std::string& message);

// Reference client for the line protocol: one blocking TCP connection,
// request line in → response line out, reusable across exchanges. The one
// implementation of connect/send-all/recv-until-newline shared by
// `fgr_cli query`, the serve benchmarks, and the tests — sends with
// MSG_NOSIGNAL so a daemon dying mid-exchange surfaces as an error Status,
// never SIGPIPE.
class LineClient {
 public:
  static Result<LineClient> Connect(const std::string& host, int port);

  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  // Sends `request` + '\n', reads one '\n'-terminated response line
  // (returned without the newline). Pipelined responses queue in the
  // internal buffer for subsequent calls.
  Result<std::string> Exchange(const std::string& request);

 private:
  LineClient() = default;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace fgr

#endif  // FGR_SERVE_PROTOCOL_H_
