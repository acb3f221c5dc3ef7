// Status: lightweight error signaling for the olapdc library.
//
// The library does not throw exceptions across its public API (following
// the Arrow/RocksDB convention for database libraries). Fallible
// operations return a Status, or a Result<T> (see result.h) when they
// also produce a value.

#ifndef OLAPDC_COMMON_STATUS_H_
#define OLAPDC_COMMON_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace olapdc {

/// Machine-readable classification of an error.
enum class StatusCode {
  kOk = 0,
  /// A caller-supplied argument is malformed (unknown category name,
  /// non-simple path, empty set, ...).
  kInvalidArgument = 1,
  /// A dimension instance violates one of the conditions C1-C7, or a
  /// schema violates the hierarchy-schema conditions of Definition 1.
  kInvalidModel = 2,
  /// A syntax error while parsing a dimension constraint.
  kParseError = 3,
  /// A configured resource limit was exceeded (e.g. the simple-path
  /// enumeration cap, or the DIMSAT expansion budget).
  kResourceExhausted = 4,
  /// An entity looked up by name/id does not exist.
  kNotFound = 5,
  /// An internal invariant failed; indicates a bug in olapdc itself.
  kInternal = 6,
  /// A wall-clock deadline passed before the operation finished; any
  /// partial statistics accompanying the status are a lower bound on
  /// the work the full run would have needed.
  kDeadlineExceeded = 7,
  /// The caller cooperatively cancelled the operation before it
  /// finished.
  kCancelled = 8,
  /// olapdcd's request gate (exec::AdmissionGate) shed the request
  /// before doing any work; the engine itself never sheds. Unlike the
  /// budget errors, no partial result exists; the message carries a
  /// retry-after-ms hint and the request is safe to retry verbatim
  /// after backing off.
  kUnavailable = 9,
};

/// Returns a short human-readable name for `code` ("OK", "Invalid
/// argument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// The outcome of a fallible operation: either OK, or an error code plus
/// a human-readable message. Cheap to return in the success case (a
/// single null pointer).
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_shared<Rep>(Rep{code, std::move(message)});
    }
  }

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status InvalidModel(std::string msg) {
    return Status(StatusCode::kInvalidModel, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }

  /// The error message; empty for OK statuses.
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  // Null iff OK. shared_ptr keeps Status copyable and cheap to pass.
  std::shared_ptr<const Rep> rep_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// True for the status codes that mean "the search stopped early under a
/// resource budget" rather than "the inputs or the library are broken":
/// kResourceExhausted, kDeadlineExceeded and kCancelled. Results carrying
/// such a status are *partial* — accumulated statistics are still valid,
/// and retrying with a larger budget may produce a definitive answer.
inline bool IsBudgetError(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled;
}
inline bool IsBudgetError(const Status& status) {
  return IsBudgetError(status.code());
}

}  // namespace olapdc

/// Propagates a non-OK Status from an expression to the caller.
#define OLAPDC_RETURN_NOT_OK(expr)                   \
  do {                                               \
    ::olapdc::Status _olapdc_status = (expr);        \
    if (!_olapdc_status.ok()) return _olapdc_status; \
  } while (false)

#endif  // OLAPDC_COMMON_STATUS_H_
