#pragma once
// Error handling: pfsem uses exceptions for programming errors at module
// boundaries (bad arguments, protocol misuse) and status codes for simulated
// I/O errors that are part of the modelled behaviour (e.g. ENOENT from the
// simulated PFS), mirroring how a real tracing/analysis stack distinguishes
// "our bug" from "the traced application saw an error".

#include <stdexcept>
#include <string>

namespace pfsem {

class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throw pfsem::Error whose message is `msg` alone.
[[noreturn]] inline void fail(const std::string& msg) { throw Error(msg); }

/// Throw pfsem::Error if `cond` is false. Used for API-contract checks that
/// must hold in release builds too (unlike assert).
inline void require(bool cond, const std::string& msg) {
  if (!cond) fail(msg);
}

/// Literal-message form: builds no std::string unless the check fails, so
/// it is free on hot paths (per-record decoder validation).
inline void require(bool cond, const char* msg) {
  if (!cond) fail(msg);
}

}  // namespace pfsem
