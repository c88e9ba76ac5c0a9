// Minimal expected-style result type (the toolchain's <expected> may be
// unavailable; this subset is all the library needs).
//
// Errors carry a code plus a human-readable message so protocol layers can
// both branch on failures (e.g. replay vs decrypt failure) and log them.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace smt {

enum class Errc {
  ok = 0,
  invalid_argument,
  decrypt_failed,     // AEAD tag mismatch / corrupted ciphertext
  replay_detected,    // duplicate message ID or record seqno
  out_of_order,       // record seqno gap within a message
  handshake_failed,   // TLS negotiation or authentication failure
  cert_invalid,       // certificate chain verification failure
  ticket_expired,     // SMT-ticket outside its validity window
  protocol_violation, // malformed wire data
  would_block,        // no data available yet
  resource_exhausted, // buffers, message IDs, flow contexts
  not_connected,
  message_too_large,
  unsupported,
};

/// Short stable label for an error code (for logs and test assertions).
const char* errc_name(Errc e) noexcept;

struct Error {
  Errc code = Errc::ok;
  std::string message;
};

template <typename T>
class Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error err) : storage_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(storage_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(storage_);
  }
  T&& take() && {
    assert(ok());
    return std::get<T>(std::move(storage_));
  }

  const Error& error() const& {
    assert(!ok());
    return std::get<Error>(storage_);
  }
  Errc code() const noexcept {
    return ok() ? Errc::ok : std::get<Error>(storage_).code;
  }

 private:
  std::variant<T, Error> storage_;
};

/// Result<void> analogue.
class Status {
 public:
  Status() = default;
  Status(Error err) : error_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

  static Status success() { return Status{}; }

  bool ok() const noexcept { return error_.code == Errc::ok; }
  Errc code() const noexcept { return error_.code; }
  const std::string& message() const noexcept { return error_.message; }
  const Error& error() const noexcept { return error_; }

 private:
  Error error_{};
};

inline Error make_error(Errc code, std::string message) {
  return Error{code, std::move(message)};
}

}  // namespace smt
