#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fgr {
namespace {

// Doubles serialize with 17 significant digits, the shortest precision
// that guarantees an exact strtod round trip for every finite double.
void AppendDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN literals; null is the conventional stand-in.
    out->append("null");
    return;
  }
  char buffer[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  out->append(buffer);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    Result<Json> value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 32;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    std::size_t length = 0;
    while (literal[length] != '\0') ++length;
    if (text_.compare(pos_, length, literal) != 0) return false;
    pos_ += length;
    return true;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      Result<std::string> s = ParseString();
      if (!s.ok()) return s.status();
      return Json::String(std::move(s).value());
    }
    if (ConsumeLiteral("true")) return Json::Bool(true);
    if (ConsumeLiteral("false")) return Json::Bool(false);
    if (ConsumeLiteral("null")) return Json();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<Json> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    return Json::Number(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned int>(h - 'A' + 10);
            } else {
              return Error("malformed \\u escape");
            }
          }
          // Encode as UTF-8 (surrogate pairs are not recombined — dataset
          // paths and error strings never need them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error(std::string("invalid escape '\\") + escape + "'");
      }
    }
  }

  Result<Json> ParseArray(int depth) {
    Consume('[');
    std::vector<Json> items;
    SkipWhitespace();
    if (Consume(']')) return Json::Array(std::move(items));
    while (true) {
      Result<Json> item = ParseValue(depth + 1);
      if (!item.ok()) return item.status();
      items.push_back(std::move(item).value());
      SkipWhitespace();
      if (Consume(']')) return Json::Array(std::move(items));
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<Json> ParseObject(int depth) {
    Consume('{');
    std::vector<std::pair<std::string, Json>> members;
    SkipWhitespace();
    if (Consume('}')) return Json::Object(std::move(members));
    while (true) {
      SkipWhitespace();
      Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      Result<Json> value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      members.emplace_back(std::move(key).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume('}')) return Json::Object(std::move(members));
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::Bool(bool value) {
  Json json;
  json.type_ = Type::kBool;
  json.bool_ = value;
  return json;
}

Json Json::Number(double value) {
  Json json;
  json.type_ = Type::kNumber;
  json.number_ = value;
  return json;
}

Json Json::String(std::string value) {
  Json json;
  json.type_ = Type::kString;
  json.string_ = std::move(value);
  return json;
}

Json Json::Array(std::vector<Json> items) {
  Json json;
  json.type_ = Type::kArray;
  json.items_ = std::move(items);
  return json;
}

Json Json::Object(std::vector<std::pair<std::string, Json>> members) {
  Json json;
  json.type_ = Type::kObject;
  json.members_ = std::move(members);
  return json;
}

const Json* Json::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json* value = Find(key);
  return value != nullptr && value->type() == Type::kString
             ? value->string_value()
             : fallback;
}

double Json::GetNumber(const std::string& key, double fallback) const {
  const Json* value = Find(key);
  return value != nullptr && value->type() == Type::kNumber
             ? value->number_value()
             : fallback;
}

std::int64_t Json::GetInt(const std::string& key,
                          std::int64_t fallback) const {
  const Json* value = Find(key);
  if (value == nullptr || value->type() != Type::kNumber) return fallback;
  const double number = value->number_value();
  // Guard the double→int64 cast: out-of-range (and NaN, which fails both
  // comparisons) would be undefined behavior on this network-facing path.
  // 2^62 is far beyond any field's valid range, so request validation
  // still rejects the value with its normal message.
  constexpr double kLimit = 4.611686018427388e18;  // 2^62
  if (!(number >= -kLimit && number <= kLimit)) {
    return number > 0 ? static_cast<std::int64_t>(kLimit)
                      : static_cast<std::int64_t>(-kLimit);
  }
  return static_cast<std::int64_t>(number);
}

std::string Json::Dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendDouble(&out, number_);
      break;
    case Type::kString:
      out = JsonQuote(string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += items_[i].Dump();
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += JsonQuote(members_[i].first);
        out.push_back(':');
        out += members_[i].second.Dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

Result<Json> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

std::string JsonQuote(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned int>(
                            static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::Separate() {
  if (needs_comma_) out_.push_back(',');
  needs_comma_ = false;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_.push_back('{');
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_.push_back('[');
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  Separate();
  out_ += JsonQuote(key);
  out_.push_back(':');
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& value) {
  Separate();
  out_ += JsonQuote(value);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const char* value) {
  return Value(std::string(value));
}

JsonWriter& JsonWriter::Value(double value) {
  Separate();
  AppendDouble(&out_, value);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t value) {
  Separate();
  out_ += std::to_string(value);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  needs_comma_ = true;
  return *this;
}

namespace {

// Strict typed field accessors for request validation. A present but
// wrong-typed, non-finite, or non-integral field is a bad_request — the
// lenient Json::Get* fallbacks would clamp or default it silently, which
// is exactly the bug class this guards against (a client sending
// "restarts":3.7 or "lambda":1e999 must hear about it, not get a
// different computation than it asked for).
Status FieldError(const char* key, const std::string& what) {
  return Status::InvalidArgument(std::string("\"") + key + "\" " + what);
}

Result<std::int64_t> StrictInt(const Json& json, const char* key,
                               std::int64_t fallback) {
  const Json* value = json.Find(key);
  if (value == nullptr) return fallback;
  if (value->type() != Json::Type::kNumber) {
    return FieldError(key, "must be a number");
  }
  const double number = value->number_value();
  if (!std::isfinite(number)) return FieldError(key, "must be finite");
  if (number != std::floor(number)) {
    return FieldError(key, "must be an integer");
  }
  constexpr double kLimit = 4.611686018427388e18;  // 2^62
  if (!(number >= -kLimit && number <= kLimit)) {
    return FieldError(key, "is out of range");
  }
  return static_cast<std::int64_t>(number);
}

Result<double> StrictFinite(const Json& json, const char* key,
                            double fallback) {
  const Json* value = json.Find(key);
  if (value == nullptr) return fallback;
  if (value->type() != Json::Type::kNumber) {
    return FieldError(key, "must be a number");
  }
  if (!std::isfinite(value->number_value())) {
    return FieldError(key, "must be finite");
  }
  return value->number_value();
}

Result<std::string> StrictString(const Json& json, const char* key,
                                 const std::string& fallback) {
  const Json* value = json.Find(key);
  if (value == nullptr) return fallback;
  if (value->type() != Json::Type::kString) {
    return FieldError(key, "must be a string");
  }
  return value->string_value();
}

}  // namespace

Result<Request> ParseRequest(const std::string& line) {
  Result<Json> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const Json& json = parsed.value();
  if (json.type() != Json::Type::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const Json* version = json.Find("v");
  if (version != nullptr &&
      !(version->type() == Json::Type::kNumber &&
        version->number_value() == kServeProtocolVersion)) {
    return Status::InvalidArgument(
        "unsupported protocol version " + version->Dump() +
        " (this server speaks only v" +
        std::to_string(kServeProtocolVersion) + ")");
  }

  Request request;
  Result<std::string> op_field = StrictString(json, "op", "");
  if (!op_field.ok()) return op_field.status();
  const std::string& op = op_field.value();
  if (op == "estimate") {
    request.op = RequestOp::kEstimate;
  } else if (op == "label") {
    request.op = RequestOp::kLabel;
  } else if (op == "stats") {
    request.op = RequestOp::kStats;
  } else if (op == "datasets") {
    request.op = RequestOp::kDatasets;
  } else if (op == "metrics") {
    request.op = RequestOp::kMetrics;
  } else if (op.empty()) {
    return Status::InvalidArgument("request is missing \"op\"");
  } else {
    return Status::InvalidArgument(
        "unknown op '" + op +
        "'; expected estimate, label, stats, datasets, or metrics");
  }

  Result<std::string> dataset = StrictString(json, "dataset", "");
  if (!dataset.ok()) return dataset.status();
  request.dataset = dataset.value();
  if ((request.op == RequestOp::kEstimate ||
       request.op == RequestOp::kLabel) &&
      request.dataset.empty()) {
    return Status::InvalidArgument("op '" + op +
                                   "' requires a \"dataset\" path");
  }

  DceOptions& options = request.options;
  Result<std::int64_t> restarts = StrictInt(json, "restarts", 10);
  if (!restarts.ok()) return restarts.status();
  if (restarts.value() < 1 || restarts.value() > 1000) {
    return Status::InvalidArgument("restarts must be in [1, 1000]");
  }
  options.restarts = static_cast<int>(restarts.value());
  Result<std::int64_t> lmax = StrictInt(json, "lmax", 5);
  if (!lmax.ok()) return lmax.status();
  if (lmax.value() < 1 || lmax.value() > 32) {
    return Status::InvalidArgument("lmax must be in [1, 32]");
  }
  options.max_path_length = static_cast<int>(lmax.value());
  Result<double> lambda = StrictFinite(json, "lambda", 10.0);
  if (!lambda.ok()) return lambda.status();
  if (!(lambda.value() > 0.0)) {
    return Status::InvalidArgument("lambda must be positive");
  }
  options.lambda = lambda.value();
  Result<std::int64_t> seed = StrictInt(json, "seed", 7);
  if (!seed.ok()) return seed.status();
  if (seed.value() < 0) {
    return Status::InvalidArgument("seed must be non-negative");
  }
  options.seed = static_cast<std::uint64_t>(seed.value());
  Result<std::int64_t> variant = StrictInt(json, "variant", 1);
  if (!variant.ok()) return variant.status();
  if (variant.value() < 1 || variant.value() > 3) {
    return Status::InvalidArgument("variant must be 1, 2, or 3");
  }
  options.variant = static_cast<NormalizationVariant>(variant.value());
  Result<std::string> path_type = StrictString(json, "path_type", "nb");
  if (!path_type.ok()) return path_type.status();
  if (path_type.value() == "nb") {
    options.path_type = PathType::kNonBacktracking;
  } else if (path_type.value() == "full") {
    options.path_type = PathType::kFull;
  } else {
    return Status::InvalidArgument("path_type must be \"nb\" or \"full\"");
  }
  return request;
}

const char* ServeErrorCodeName(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kBadRequest: return "bad_request";
    case ServeErrorCode::kUnknownDataset: return "unknown_dataset";
    case ServeErrorCode::kOverBudget: return "over_budget";
    case ServeErrorCode::kTimeout: return "timeout";
    case ServeErrorCode::kOverloaded: return "overloaded";
    case ServeErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ServeErrorCode ServeErrorCodeFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument: return ServeErrorCode::kBadRequest;
    case StatusCode::kNotFound: return ServeErrorCode::kUnknownDataset;
    case StatusCode::kFailedPrecondition: return ServeErrorCode::kOverBudget;
    default: return ServeErrorCode::kInternal;
  }
}

std::string ErrorResponseLine(const Status& status) {
  return ServeErrorLine(ServeErrorCodeFromStatus(status.code()),
                        status.message());
}

std::string ServeErrorLine(ServeErrorCode code, const std::string& message) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("v").Value(kServeProtocolVersion);
  writer.Key("ok").Value(false);
  writer.Key("error");
  writer.BeginObject();
  writer.Key("code").Value(ServeErrorCodeName(code));
  writer.Key("message").Value(message);
  writer.EndObject();
  writer.EndObject();
  return writer.Take();
}

Result<LineClient> LineClient::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host '" + host +
                                   "' (use a dotted IPv4 address)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const int error = errno;
    ::close(fd);
    return Status::Internal(
        "cannot connect to " + host + ":" + std::to_string(port) + ": " +
        std::strerror(error) + " (is fgrd running?)");
  }
  LineClient client;
  client.fd_ = fd;
  return client;
}

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> LineClient::Exchange(const std::string& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  const std::string line = request + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal("send to fgrd failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal("fgrd closed the connection mid-response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string response = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return response;
}

}  // namespace fgr
