// paxsim/report/json.hpp
//
// The one JSON emitter: every machine-readable report paxsim prints (run,
// predict, check, trace) renders through this writer, so escaping, number
// formatting and the document envelope are defined in exactly one place.
//
// Documents are versioned: begin_document() opens the root object and
// stamps {"schema_version": N, "kind": "<kind>"} before any payload, and
// consumers key their parsing off those two fields.  Bump kSchemaVersion
// whenever a field changes meaning or disappears (adding fields is not a
// version bump).
//
// The writer is a thin structural streamer — no DOM, no allocation beyond
// the scope stack — with just enough bookkeeping to guarantee the output
// is well-formed: commas are inserted automatically, keys may only appear
// inside objects, and finish() asserts every scope was closed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace paxsim::report {

/// Version of every JSON document paxsim emits.
inline constexpr int kSchemaVersion = 1;

/// Writes @p s as a JSON string literal (quotes included) with the
/// mandatory escapes (backslash, quote, control characters).
void write_json_string(std::ostream& os, std::string_view s);

/// Streaming well-formed JSON writer.
class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}

  Json(const Json&) = delete;
  Json& operator=(const Json&) = delete;

  /// Opens the schema-versioned root object of a paxsim report:
  /// {"schema_version":N,"kind":"<kind>",...   Must be the first call.
  Json& begin_document(std::string_view kind);

  // ---- structure ------------------------------------------------------------
  Json& object();  ///< '{' in value position
  Json& array();   ///< '[' in value position
  Json& end();     ///< closes the innermost open object/array
  Json& key(std::string_view k);  ///< next member's name (objects only)

  // ---- values ---------------------------------------------------------------
  Json& value(std::string_view v);
  Json& value(const char* v) { return value(std::string_view(v)); }
  Json& value(bool v);
  Json& value(double v);  ///< non-finite values render as null
  Json& value(std::uint64_t v);
  Json& value(std::int64_t v);
  Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }

  /// key + value in one call.
  template <typename T>
  Json& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// Closes every open scope and emits the trailing newline (reports are
  /// line-oriented: one document per line feeds `grep`-based tooling).
  void finish();

  /// Open-scope depth (0 once finish()ed).
  [[nodiscard]] std::size_t depth() const noexcept { return stack_.size(); }

 private:
  void separate();  ///< comma/structural bookkeeping before a value

  struct Scope {
    char kind;   ///< '{' or '['
    bool first;  ///< no member written yet
  };
  std::ostream& os_;
  std::vector<Scope> stack_;
  bool pending_key_ = false;
};

}  // namespace paxsim::report
